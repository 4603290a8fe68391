import json
import math
import textwrap
from collections import Counter
from dataclasses import replace

import pytest

from eprsim import (
    ConfigurationError,
    DescriptorError,
    InvalidWeightsError,
    Schedule,
    Setting,
    Station,
    TEST_ANGLES,
    UnknownZooEntryError,
    apply_transform_op,
    correlate,
    correlate_via_table,
    empirical_correlations,
    evaluate_outcome,
    layer_double,
    load_model,
    load_schedule,
    make_model,
    read_trials_csv,
    run_experiment,
    s1,
    s2,
    station_outcomes,
    station_values,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    write_trials_csv,
    zoo_model,
)
from eprsim.cli import main
from eprsim.descriptors import _angle_key, descriptor_text
from eprsim.model import OUTCOME_ARGS

EXPLICIT = textwrap.dedent(
    """
    [model]
    name = handmade

    [source]
    states = g0, g1
    prior = 0.25, 0.75

    [grid]
    slots = 4

    [gen1]
    kind = table
    values = 0, 1
    table =
        1,0
        2,1
        3,0
        4,1

    [gen2]
    kind = constant
    value = 5

    [out1]
    kind = lambda_table
    table =
        g0,1
        g1,-1

    [out2]
    kind = cosine
    negate = true
    table =
        g0,0.0
        g1,1.5707963267948966
    """
)


def test_explicit_descriptor_builds_and_evaluates(tmp_path):
    path = tmp_path / "handmade.ini"
    path.write_text(EXPLICIT, encoding="utf-8")
    model = load_model(path)
    assert model.name == "handmade"
    assert model.gen1.evaluate(s1(0.1), 2) == 1
    assert model.gen2.evaluate(s2(0.1), 3) == 5
    assert evaluate_outcome(model, Station.S1, s1(0.0), "g0", 1) == 1
    assert evaluate_outcome(model, Station.S1, s1(0.0), "g1", 1) == -1
    # out2 = -sign(cos(b - offset)); for g0 at b=0 that is -1
    assert evaluate_outcome(model, Station.S2, s2(0.0), "g0", 1) == -1


def numeric_states_model(tmp_path):
    """The handmade descriptor with its states renamed to the numbers 1 and 2."""
    path = tmp_path / "numeric.ini"
    path.write_text(EXPLICIT.replace("g0", "1").replace("g1", "2"), encoding="utf-8")
    model = load_model(path)
    assert model.source.states == ("1", "2")
    return model


def test_joint_table_csv_keeps_numeric_state_labels_as_text(tmp_path):
    model = numeric_states_model(tmp_path)
    a, b = s1(0.0), s2(math.pi / 4)
    loaded = table_from_csv(table_to_csv(tabulate_joint(model, a, b)), a, b)
    assert loaded.states == ("1", "2")
    via_table = correlate_via_table(model, loaded)
    direct = correlate(model, a, b)
    assert (via_table.cond_a, via_table.cond_b) == (direct.cond_a, direct.cond_b)


def test_trial_csv_keeps_numeric_state_labels_as_text(tmp_path):
    model = numeric_states_model(tmp_path)
    run = run_experiment(model, Schedule(trials=32, policy="cycle"))
    write_trials_csv(run, tmp_path / "trials.csv")
    loaded = read_trials_csv(tmp_path / "trials.csv")
    assert loaded.states == ("1", "2")
    expected = empirical_correlations(run)
    for pair, report in empirical_correlations(loaded).items():
        assert (report.cond_a, report.cond_b) == (expected[pair].cond_a, expected[pair].cond_b)


def test_table_file_reference(tmp_path):
    (tmp_path / "gen1.csv").write_text("1,0\n2,1\n3,0\n4,1\n", encoding="utf-8")
    text = EXPLICIT.replace(
        "kind = table\nvalues = 0, 1\ntable =\n    1,0\n    2,1\n    3,0\n    4,1",
        "kind = table\nvalues = 0, 1\nfile = gen1.csv",
    )
    assert "file = gen1.csv" in text
    path = tmp_path / "model.ini"
    path.write_text(text, encoding="utf-8")
    model = load_model(path)
    assert model.gen1.evaluate(s1(0.0), 4) == 1


REPEATED_CYCLE = textwrap.dedent(
    """
    [model]
    name = repeated_cycle

    [source]
    states = u0
    prior = 1.0

    [grid]
    slots = 3

    [gen1]
    kind = cycle
    values = 0, 1, 0

    [gen2]
    kind = cycle
    values = 5, 6, 6

    [out1]
    kind = constant
    value = 1

    [out2]
    kind = constant
    value = 1
    """
)


def test_repeated_cycle_value_is_checked_in_both_modes(tmp_path):
    path = tmp_path / "repeated.ini"
    path.write_text(REPEATED_CYCLE, encoding="utf-8")
    model = load_model(path)
    assert [model.gen1.evaluate(s1(0.0), m) for m in (1, 2, 3)] == [0, 1, 0]
    assert model.gen1.value_space == (0, 1)
    assert model.gen2.value_space == (5, 6)
    out = tmp_path / "chk"
    assert main(["check", "--model", str(path), "--deterministic", "--out", str(out)]) == 0
    report = json.loads((out / "check.json").read_text())["factorization"]
    # Pooled over slots the values pair as (0,5), (1,6), (0,6), each with mass 1/3.
    assert report["given_lambda"]["max_deviation"] == pytest.approx(1 / 9, abs=1e-15)
    assert report["given_lambda"]["max_total_variation"] == pytest.approx(2 / 9, abs=1e-15)
    assert report["given_lambda_and_m"]["pass"] is True
    assert len(report["given_lambda_and_m"]["deviations"]) == 3


HASH_VALUE = textwrap.dedent(
    """
    [model]
    name = hash_value

    [source]
    states = u0, u1
    prior = 0.5, 0.5

    [grid]
    slots = 2

    [gen1]
    kind = cycle
    values = #x, y

    [gen2]
    kind = constant
    value = p

    [out1]
    kind = constant

    [out2]
    kind = constant
    """
)


def test_joint_table_csv_with_a_value_that_starts_with_hash_reads_back(tmp_path):
    # Only lines before the header are comments; the rows of #x are data.
    path = tmp_path / "hash.ini"
    path.write_text(HASH_VALUE, encoding="utf-8")
    out = tmp_path / "chk"
    assert main(["check", "--model", str(path), "--deterministic", "--out", str(out)]) == 0
    text = (out / "joint_table.csv").read_text(encoding="utf-8")
    assert "\n#x,p,u0,1,0.25\n" in text
    a, b = s1(0.0), s2(0.0)
    expected = dict(tabulate_joint(load_model(path), a, b).entries)
    for commented in (text, f"# written by check\n\n{text}"):
        assert dict(table_from_csv(commented, a, b).entries) == expected


def test_angle_keyed_generator_table(tmp_path):
    text = textwrap.dedent(
        f"""
        [model]
        name = angle_keyed

        [source]
        states = x
        prior = 1.0

        [grid]
        slots = 2

        [gen1]
        kind = table
        values = 0, 1
        table =
            0.0,1,0
            0.0,2,1
            {math.pi / 4},1,1
            {math.pi / 4},2,0

        [gen2]
        kind = constant

        [out1]
        kind = constant
        value = 1

        [out2]
        kind = constant
        value = -1
        """
    )
    path = tmp_path / "angles.ini"
    path.write_text(text, encoding="utf-8")
    model = load_model(path)
    assert model.gen1.evaluate(s1(0.0), 1) == 0
    assert model.gen1.evaluate(s1(math.pi / 4), 1) == 1
    with pytest.raises(DescriptorError):
        model.gen1.evaluate(s1(1.0), 1)


def test_angle_just_below_two_pi_matches_the_zero_row(tmp_path):
    assert _angle_key(2 * math.pi - 1e-12) == 0.0
    text = textwrap.dedent(
        """
        [model]
        name = zero_row

        [source]
        states = x
        prior = 1.0

        [grid]
        slots = 1

        [gen1]
        kind = table
        table =
            0.0,1,7

        [gen2]
        kind = constant

        [out1]
        kind = constant

        [out2]
        kind = constant
        """
    )
    path = tmp_path / "zero_row.ini"
    path.write_text(text, encoding="utf-8")
    model = load_model(path)
    assert model.gen1.evaluate(s1(2 * math.pi - 1e-12), 1) == 7


def test_invalid_prior_in_descriptor_raises_model_error(tmp_path):
    text = EXPLICIT.replace("prior = 0.25, 0.75", "prior = 0.6, 0.6")
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidWeightsError):
        load_model(path)


def test_missing_sections_rejected(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[source]\nstates = a\nprior = 1.0\n", encoding="utf-8")
    with pytest.raises(DescriptorError, match="grid"):
        load_model(path)


def test_zoo_stub_descriptor(tmp_path):
    path = tmp_path / "stub.ini"
    path.write_text("[model]\nzoo = constant_plus\n", encoding="utf-8")
    model = load_model(path)
    assert model.name == "constant_plus"
    path.write_text("[model]\nzoo = constant_plus\nname = renamed\n", encoding="utf-8")
    renamed = load_model(path)
    assert (renamed.name, renamed.source, renamed.grid) == ("renamed", model.source, model.grid)


GEN1_TABLE = "table =\n    1,0\n    2,1\n    3,0\n    4,1"
GEN2 = "kind = constant\nvalue = 5"
OUT1 = "kind = lambda_table\ntable =\n    g0,1\n    g1,-1"


@pytest.mark.parametrize("reader, text, message", [
    ("schedule", "[schedule]\ntrials = 5\npairs = x\n", "pair 'x' must be a:b"),
    ("schedule", "", "missing [schedule] section"),
    ("schedule", "[schedule]\npolicy = cycle\n", "[schedule] needs 'trials'"),
    ("model", None, "model descriptor not found"),
    ("model", "[model\nzoo = constant_plus\n", "cannot parse model descriptor"),
    ("model", EXPLICIT.replace(GEN1_TABLE, "file = absent.csv"), "table file not found"),
    ("model", EXPLICIT.replace(GEN1_TABLE, ""),
     "section [gen1] needs an inline table or a file reference"),
    ("model", EXPLICIT.replace(OUT1, "kind = lambda_table\ntable ="), "[out1]: table is empty"),
    ("model", EXPLICIT.replace("prior = 0.25, 0.75", ""), "[source] needs 'states' and 'prior'"),
    ("model", EXPLICIT.replace("slots = 4", ""), "[grid] needs 'slots'"),
    ("model", EXPLICIT.replace(GEN2, "kind = cycle"), "[gen2] kind=cycle needs 'values'"),
    ("model", EXPLICIT.replace(GEN2, "kind = spiral"), "[gen2]: unknown generator kind 'spiral'"),
    ("model", EXPLICIT.replace(OUT1, "kind = psychic"), "[out1]: unknown outcome kind 'psychic'"),
    ("model", EXPLICIT.replace(GEN2, GEN2 + "\nstride = 5\nvalues = 1, 2"),
     "[gen2] kind=constant does not read ['stride', 'values']"),
    ("model", EXPLICIT.replace(OUT1, "kind = constant\nnegate = true"),
     "[out1] kind=constant does not read ['negate']"),
    ("model", EXPLICIT.replace(OUT1, OUT1 + "\nnegate = true"),
     "[out1] kind=lambda_table does not read ['negate']"),
    ("model", EXPLICIT.replace(GEN1_TABLE, GEN1_TABLE + "\nfile = gen1.csv"),
     "[gen1] gives both 'table' and 'file'"),
    ("model", "[model]\nzoo = constant_plus\n[source]\nstates = a\nprior = 1\n[out2]\n",
     "a [model] zoo descriptor takes no sections ['source', 'out2']"),
    ("op", "rademacher mean", "transform parameter 'mean' is not key=value"),
    ("op", "rademacher mean=0 station=s3", "unknown station 's3' (use s1, s2 or both)"),
    ("op", "", "empty transform op"),
    ("op", "sign station=s1", "sign op needs values=<+-...>"),
    ("op", "target station=s1", "target op needs alpha=<float> station=<s1|s2>"),
    ("op", "target alpha=0 station=both", "target op needs a single station"),
    ("op", "lambda-sign seed=1 seed=2", "lambda-sign op repeats parameter 'seed'"),
    ("op", "layer_double", "unknown transform op 'layer_double'"),
    ("op", "lambda_sign seed=1", "unknown transform op 'lambda_sign'"),
], ids=["pair", "no_schedule", "no_trials", "no_file", "bad_ini", "no_table_file", "no_table",
        "empty_table", "source_keys", "grid_keys", "cycle_values", "gen_kind", "out_kind",
        "gen_unread", "out_unread", "out_negate_unread", "table_and_file", "zoo_and_sections",
        "not_key_value", "station", "empty_op", "sign_values", "target_keys", "target_both",
        "repeated_param", "layer_double_alias", "lambda_sign_alias"])
def test_each_configuration_error_names_its_cause(tmp_path, reader, text, message):
    path = tmp_path / "descriptor.ini"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    read = {"schedule": lambda: load_schedule(path), "model": lambda: load_model(path),
            "op": lambda: apply_transform_op(zoo_model("constant_plus"), text)}[reader]
    with pytest.raises(ConfigurationError) as caught:
        read()
    assert message in str(caught.value)


def test_transform_section_applies_in_order(tmp_path):
    path = tmp_path / "t.ini"
    path.write_text(
        "[model]\nzoo = constant_plus\n\n[transform]\n"
        "op.1 = rademacher mean=0 seed=7\nop.2 = double\n",
        encoding="utf-8",
    )
    model = load_model(path)
    assert model.grid.slot_count == 8
    assert model.sign is not None
    assert model.doubled
    assert correlate(model, s1(0.0), s2(0.0)).marginal_a == 0.0


def test_descriptor_text_round_trips_zoo_base(tmp_path):
    text = descriptor_text("constant_plus", ["rademacher mean=0 seed=3"], tmp_path)
    path = tmp_path / "out.ini"
    path.write_text(text, encoding="utf-8")
    model = load_model(path)
    assert model.sign is not None
    assert model.sign.mean == 0.0


def test_descriptor_text_appends_to_existing_transforms(tmp_path):
    first = descriptor_text("constant_plus", ["rademacher mean=0 seed=3"], tmp_path)
    path = tmp_path / "first.ini"
    path.write_text(first, encoding="utf-8")
    second = descriptor_text(str(path), ["double"], tmp_path)
    path2 = tmp_path / "second.ini"
    path2.write_text(second, encoding="utf-8")
    model = load_model(path2)
    assert model.transforms[-1] == "double"
    assert model.grid.slot_count == 8


def test_apply_transform_op_vocabulary():
    model = zoo_model("constant_plus")
    assert apply_transform_op(model, "double").doubled
    assert apply_transform_op(model, "lambda-sign seed=4").lambda_sign is not None
    assert apply_transform_op(model, "sign values=+-+- station=s1").sign_station is Station.S1
    targeted = apply_transform_op(model, "target alpha=0.5 station=s1 seed=2")
    assert targeted.sign is not None
    with pytest.raises(DescriptorError):
        apply_transform_op(model, "frobnicate hard=yes")
    with pytest.raises(DescriptorError):
        apply_transform_op(model, "rademacher")


def test_make_model_accepts_zoo_name_path_and_rejects_unknown(tmp_path):
    assert make_model("hp_time_correlated").name == "hp_time_correlated"
    path = tmp_path / "m.ini"
    path.write_text("[model]\nzoo = constant_plus\n", encoding="utf-8")
    assert make_model(str(path)).name == "constant_plus"
    with pytest.raises(UnknownZooEntryError, match="missing_thing"):
        make_model("missing_thing")


def test_load_schedule(tmp_path):
    path = tmp_path / "sched.ini"
    path.write_text(
        "[schedule]\ntrials = 50\npolicy = fixed\npairs = 0.0:0.785398\nseed_source = 5\n",
        encoding="utf-8",
    )
    schedule = load_schedule(path)
    assert schedule.trials == 50
    assert schedule.policy == "fixed"
    assert schedule.pairs == ((0.0, 0.785398),)
    assert schedule.seed_source == 5
    assert schedule.seed_settings == 0


def test_load_schedule_pairs_list(tmp_path):
    path = tmp_path / "sched.ini"
    path.write_text(
        "[schedule]\ntrials = 10\npolicy = cycle\npairs = 0:0, 0:0.785398163397448\n",
        encoding="utf-8",
    )
    schedule = load_schedule(path)
    assert len(schedule.pairs) == 2


WIDE_STATES = [f"s{i}" for i in range(64)]
WIDE_OUTCOMES = {
    "constant": "kind = constant\nvalue = 1",
    "lambda_table": "kind = lambda_table\ntable =" + "".join(
        f"\n    {lam}, {(-1) ** i}" for i, lam in enumerate(WIDE_STATES)),
    "cosine": "kind = cosine\ntable =" + "".join(
        f"\n    {lam}, {i / 10!r}" for i, lam in enumerate(WIDE_STATES)),
    "table": "kind = table\ntable =" + "".join(
        f"\n    {lam}, 0, {m}, {(-1) ** (i + m)}" for i, lam in enumerate(WIDE_STATES)
        for m in range(1, 65)),
}


def wide_model(tmp_path, kind):
    """A 64-state, 64-slot descriptor whose two outcome sections are of ``kind``."""
    out = WIDE_OUTCOMES[kind]
    path = tmp_path / f"wide_{kind}.ini"
    path.write_text(
        f"[source]\nstates = {', '.join(WIDE_STATES)}\nprior = {', '.join(['0.015625'] * 64)}\n"
        "[grid]\nslots = 64\n[gen1]\nkind = constant\n[gen2]\nkind = constant\n"
        f"[out1]\n{out}\n[out2]\n{out}\n",
        encoding="utf-8",
    )
    return load_model(path)


def compile_calls(model):
    """Outcome rule calls per station over one compile at each test angle."""
    calls = Counter()

    def count(out):
        rule = out.rule

        def counted(s, lam, v, m):
            calls[out.station] += 1
            return rule(s, lam, v, m)
        return replace(out, rule=counted)  # keeps the declared reads

    counted = replace(model, out1=count(model.out1), out2=count(model.out2))
    for station in (Station.S1, Station.S2):
        for angle in TEST_ANGLES:
            setting = Setting(angle, station)
            station_outcomes(counted, setting, station_values(counted, setting))
    return calls


@pytest.mark.parametrize("kind, reads, per_setting, doubled_per_setting", [
    ("constant", set(), 1, 1),
    ("lambda_table", {"state"}, 64, 64),
    ("cosine", {"setting", "state"}, 64, 64),
    ("table", set(OUTCOME_ARGS), 64 * 64, 64 * 128),
])
def test_descriptor_kinds_compile_by_their_declared_reads(
        tmp_path, kind, reads, per_setting, doubled_per_setting):
    """A table is called for every cell; the other kinds for one cell of
    each axis they do not read. Layer doubling keeps the declared reads."""
    model = wide_model(tmp_path, kind)
    for compiled, calls in ((model, per_setting), (layer_double(model), doubled_per_setting)):
        assert compiled.out1.reads == compiled.out2.reads == reads
        per_station = len(TEST_ANGLES) * calls
        assert compile_calls(compiled) == {Station.S1: per_station, Station.S2: per_station}
