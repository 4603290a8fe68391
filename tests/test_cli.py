import argparse
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import cli, exact_correlation, s1, s2, zoo_model
from eprsim.cli import main
from eprsim.density import FactorizationReport


def run_cli(argv):
    return main(argv)


def read_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_zoo_list(capsys):
    assert run_cli(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("bell_product_basic", "hp_time_correlated", "reference_cosine"):
        assert name in out


def test_simulate_happy_path(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        ["simulate", "--model", "bell_product_basic", "--trials", "200",
         "--deterministic", "--out", str(out)]
    )
    assert code == 0
    assert (out / "trials.csv").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["model"] == "bell_product_basic"
    assert summary["pairs"][0]["trials"] == 200


@pytest.mark.parametrize("name", ["cosine_threshold_lhv", "hp_time_correlated"])
def test_simulate_writes_each_pairs_exact_correlation(tmp_path, name):
    out = tmp_path / "run"
    assert run_cli(["simulate", "--model", name, "--trials", "400", "--policy", "cycle",
                    "--deterministic", "--out", str(out)]) == 0
    pairs = json.loads((out / "summary.json").read_text())["pairs"]
    model = zoo_model(name)
    assert len(pairs) == 16
    for pair in pairs:
        exact = exact_correlation(model, s1(pair["a"]), s2(pair["b"]))
        assert pair["exact_e_ab"].hex() == exact.hex(), pair


def test_simulate_unknown_model_exits_2(tmp_path, capsys):
    code = run_cli(["simulate", "--model", "not_a_model", "--out", str(tmp_path)])
    assert code == 2
    assert "not_a_model" in capsys.readouterr().err


def test_simulate_is_byte_identical_under_deterministic(tmp_path):
    args = ["simulate", "--model", "cosine_threshold_lhv", "--trials", "300",
            "--policy", "cycle", "--seed", "5", "--deterministic",
            "--angles", "0,1.5707963267948966,0.7853981633974483,2.356194490192345"]
    assert run_cli(args + ["--out", str(tmp_path / "one")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "two")]) == 0
    assert read_bytes(tmp_path / "one") == read_bytes(tmp_path / "two")


def test_check_reports_both_modes(tmp_path, capsys):
    out = tmp_path / "chk"
    code = run_cli(["check", "--model", "hp_time_correlated", "--deterministic",
                    "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "given_lambda: FAIL" in text
    assert "given_lambda_and_m: pass" in text
    payload = json.loads((out / "check.json").read_text())
    assert payload["factorization"]["given_lambda"]["pass"] is False
    assert payload["factorization"]["given_lambda_and_m"]["pass"] is True
    assert (out / "joint_table.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "check", "chsh", "audit"])
def test_check_negative_tolerance_exits_2(tmp_path, capsys, command):
    argv = [command, "--model", "constant_plus"]
    for tol in ("-1", "nan", "inf"):
        assert run_cli(argv + ["--tol", tol, "--out", str(tmp_path / "out")]) == 2
        assert "--tol must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_check_layer_doubled_model_reports_zero_conditionals(tmp_path, capsys):
    descriptor = tmp_path / "doubled.ini"
    descriptor.write_text("[model]\nzoo = cosine_threshold_lhv\n\n[transform]\nop.1 = double\n")
    assert run_cli(["check", "--model", str(descriptor)]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("E[A|"):
            assert "= 0 " in line or line.endswith("= 0")


def test_transform_writes_descriptor_and_round_trips(tmp_path, capsys):
    out = tmp_path / "model.ini"
    code = run_cli(
        ["transform", "--model", "constant_plus", "--op", "rademacher mean=0 seed=7",
         "--op", "double", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "op.1 = rademacher mean=0 seed=7" in text
    assert "op.2 = double" in text
    assert run_cli(["check", "--model", str(out)]) == 0


def test_transform_into_another_directory_keeps_the_table_file(tmp_path, capsys, monkeypatch):
    """A relative table file is rewritten relative to the output's directory,
    and kept as written beside the base descriptor."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "g.csv").write_text("1,0\n2,1\n3,0\n4,1\n", encoding="utf-8")
    (tmp_path / "a" / "m.ini").write_text(TABLE_MISS_MODEL.format(
        gen1="kind = table\nvalues = 0, 1\nfile = g.csv", out1=CONSTANT_OUT), encoding="utf-8")
    outputs = {}
    for out, descriptor, ref in (("a/t.ini", "a/t.ini", "g.csv"),
                                 ("b/", "b/model.ini", "../a/g.csv")):
        assert run_cli(["transform", "--model", "a/m.ini", "--op", "double", "--out", out]) == 0
        assert f"file = {ref}\n" in (tmp_path / descriptor).read_text(encoding="utf-8")
        capsys.readouterr()
        check = f"check_{out[0]}"
        assert run_cli(["check", "--model", descriptor, "--deterministic", "--out", check]) == 0
        outputs[out] = capsys.readouterr().out, (tmp_path / check / "joint_table.csv").read_bytes()
    assert outputs["a/t.ini"] == outputs["b/"]


def test_transform_infeasible_mean_exits_3(tmp_path, capsys):
    descriptor = tmp_path / "odd.ini"
    descriptor.write_text(
        "[model]\nname = odd\n\n[source]\nstates = x\nprior = 1.0\n\n[grid]\nslots = 3\n\n"
        "[gen1]\nkind = constant\n\n[gen2]\nkind = constant\n\n"
        "[out1]\nkind = constant\nvalue = 1\n\n[out2]\nkind = constant\nvalue = 1\n"
    )
    for op, message in (
        ("rademacher mean=0", "mean 0.0 is not representable on 3 slots"),
        ("rademacher mean=inf", "mean inf is not finite"),
        ("rademacher mean=1e400", "mean inf is not finite"),
        ("rademacher mean=nan", "mean nan is not finite"),
        ("target alpha=nan station=s1", "alpha must lie in [-1, 1], got nan"),
    ):
        code = run_cli(["transform", "--model", str(descriptor), "--op", op,
                        "--out", str(tmp_path / "out.ini")])
        assert (code, capsys.readouterr().err) == (3, f"eprsim: model error: {message}\n"), op


def test_transform_without_ops_exits_2(tmp_path):
    assert run_cli(["transform", "--model", "constant_plus", "--out", str(tmp_path / "x.ini")]) == 2


def test_chsh_reference_prints_gap(tmp_path, capsys):
    out = tmp_path / "ref"
    code = run_cli(["chsh", "--model", "reference_cosine", "--deterministic", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gap to reference = 0" in stdout
    assert "local deterministic bound = 2" in stdout
    payload = json.loads((out / "chsh.json").read_text())
    assert payload["chsh"]["s_value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-9)
    assert payload["deterministic_bound"] == 2.0
    csv_text = (out / "chsh.csv").read_text().splitlines()
    assert csv_text[0] == "model,a,aprime,b,bprime,method,trials,seed,S,within_bound"
    assert csv_text[1].startswith("reference_cosine,")
    assert csv_text[1].endswith(",false")


def test_chsh_csv_quotes_a_model_name_with_a_comma(tmp_path):
    descriptor = tmp_path / "odd.ini"
    descriptor.write_text(
        '[model]\nname = wide, "odd"\n\n[source]\nstates = x\nprior = 1.0\n\n[grid]\nslots = 3\n\n'
        "[gen1]\nkind = constant\n\n[gen2]\nkind = constant\n\n"
        "[out1]\nkind = constant\nvalue = 1\n\n[out2]\nkind = constant\nvalue = 1\n"
    )
    out = tmp_path / "chsh"
    assert run_cli(["chsh", "--model", str(descriptor), "--deterministic", "--out", str(out)]) == 0
    with open(out / "chsh.csv", newline="", encoding="utf-8") as fp:
        header, row = csv.reader(fp)
    assert len(header) == len(row) == 10
    assert row[0] == 'wide, "odd"'


def test_chsh_zoo_model_within_bound(tmp_path):
    out = tmp_path / "zoo"
    assert run_cli(["chsh", "--model", "bell_product_basic", "--deterministic",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "chsh.json").read_text())
    assert payload["chsh"]["within_local_bound"] is True
    assert abs(payload["chsh"]["s_value"]) <= 2.0 + 1e-9


def test_chsh_reference_table_rejects_monte_carlo(tmp_path, capsys):
    out = tmp_path / "ref"
    code = run_cli(["chsh", "--model", "reference_cosine", "--method", "monte_carlo",
                    "--deterministic", "--out", str(out)])
    assert code == 2
    assert "only --method exact" in capsys.readouterr().err
    assert not out.exists()


def test_chsh_monte_carlo_trials_beyond_int64_exit_2(tmp_path, capsys):
    out = tmp_path / "mc"
    code = run_cli(["chsh", "--model", "bell_product_basic", "--method", "monte_carlo",
                    "--trials", str(2**63), "--deterministic", "--out", str(out)])
    assert code == 2
    assert "trials <= 9223372036854775807" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, trials", [("simulate", 2**63 - 1), ("audit", 10**20)])
def test_trial_counts_no_run_can_hold_exit_2(tmp_path, capsys, command, trials):
    out = tmp_path / "run"
    code = run_cli([command, "--model", "bell_product_basic", "--trials", str(trials),
                    "--deterministic", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"got {trials}" in err and "Traceback" not in err
    assert not out.exists()


# The audit allocates nothing per trial, so only simulate is run.
@pytest.mark.parametrize("command", ["simulate"])
def test_trial_count_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    """10^12 trials pass the count check, but their trial column alone needs
    8 TB. numpy's MemoryError is simulated: a real run could exhaust the host."""
    arange = np.arange

    def arange_without_room(n, *args, **kwargs):
        if n >= 10**12:
            raise MemoryError(f"cannot allocate {8 * n} bytes")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", arange_without_room)
    out = tmp_path / "run"
    code = run_cli([command, "--model", "bell_product_basic", "--trials", str(10**12),
                    "--deterministic", "--out", str(out)])
    assert code == 2
    assert "1000000000000 trials do not fit in memory" in capsys.readouterr().err
    assert not out.exists()


def test_chsh_verdict_and_standard_error_only_for_monte_carlo(tmp_path, capsys):
    """cosine_threshold_lhv has exact S = -2: a sampled |S| above 2 is
    inconclusive, not outside the local bound."""
    out = tmp_path / "mc"
    assert run_cli(["chsh", "--model", "cosine_threshold_lhv", "--method", "monte_carlo",
                    "--trials", "100000", "--seed", "1", "--deterministic",
                    "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    result = json.loads((out / "chsh.json").read_text())["chsh"]
    assert abs(result["s_value"]) > 2.0
    assert (result["verdict"], result["within_local_bound"]) == ("inconclusive", True)
    assert 0.0 < result["std_error"] < 0.01
    assert "sampled verdict: inconclusive (false-alarm rate 1e-06)" in stdout
    assert "within local bound: true" in stdout
    assert run_cli(["chsh", "--model", "cosine_threshold_lhv", "--deterministic",
                    "--out", str(tmp_path / "exact")]) == 0
    assert "verdict" not in capsys.readouterr().out
    exact = json.loads((tmp_path / "exact" / "chsh.json").read_text())["chsh"]
    assert "verdict" not in exact and "std_error" not in exact


def test_chsh_deterministic_reruns_are_byte_identical(tmp_path):
    args = ["chsh", "--model", "hp_time_correlated", "--method", "monte_carlo",
            "--trials", "5000", "--seed", "3", "--deterministic"]
    assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


def test_audit_command(tmp_path, capsys):
    out = tmp_path / "aud"
    code = run_cli(["audit", "--model", "bell_product_basic", "--trials", "100",
                    "--perturbations", "2", "--deterministic", "--out", str(out)])
    assert code == 0
    assert "locality audit: pass (0 mismatches" in capsys.readouterr().out
    payload = json.loads((out / "audit.json").read_text())
    assert payload["audit"]["pass"] is True


def test_audit_perturbations_beyond_the_alternatives_exit_2(tmp_path, capsys):
    out = tmp_path / "aud"
    with pytest.raises(SystemExit) as exc:
        run_cli(["audit", "--model", "bell_product_basic", "--perturbations", "4",
                 "--out", str(out)])
    assert exc.value.code == 2
    assert "--perturbations: invalid choice: 4" in capsys.readouterr().err
    assert not out.exists()


def test_bad_angles_exit_2():
    assert run_cli(["chsh", "--model", "constant_plus", "--angles", "1,2,3"]) == 2
    assert run_cli(["chsh", "--model", "constant_plus", "--angles", "a,b,c,d"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "bell_product_basic", "--angle-a", "nan"],
    ["simulate", "--model", "bell_product_basic", "--angle-b", "inf"],
    ["simulate", "--model", "bell_product_basic", "--policy", "cycle", "--angle-a", "nan",
     "--trials", "16"],
    ["simulate", "--model", "bell_product_basic", "--policy", "random", "--angle-b", "inf",
     "--trials", "16"],
    ["check", "--model", "bell_product_basic", "--angle-a", "nan"],
    ["chsh", "--model", "bell_product_basic", "--angles", "nan,0,0,0"],
    ["chsh", "--model", "reference_cosine", "--angles", "inf,0,0,0"],
], ids=["simulate_a", "simulate_b", "simulate_cycle", "simulate_random", "check", "chsh_model",
        "chsh_reference"])
def test_non_finite_angle_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(argv + ["--deterministic", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("eprsim: configuration error: setting angle ")
    assert not out.exists()


@pytest.mark.parametrize("angles", ["0,1,2", "0,1,2,x", "nan,0,0,0", "0,inf,0,0", "0,0,-inf,0"])
def test_simulate_checks_chsh_angles_before_drawing_trials(tmp_path, capsys, monkeypatch,
                                                           angles):
    def never(*args, **kwargs):
        raise AssertionError("trials drawn before --angles was checked")

    monkeypatch.setattr(cli, "run_experiment", never)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--model", "bell_product_basic", "--policy", "random",
                    "--trials", "3000000", "--angles", angles, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("eprsim: configuration error: ")
    assert not out.exists()


def test_config_echo_is_embedded(tmp_path):
    out = tmp_path / "echo"
    run_cli(["simulate", "--model", "constant_plus", "--trials", "10",
             "--deterministic", "--out", str(out)])
    header = (out / "trials.csv").read_text().splitlines()[0]
    assert header.startswith("# config = ")
    embedded = json.loads(header.removeprefix("# config = "))
    assert embedded["model"] == "constant_plus"
    assert embedded["trials"] == 10
    summary = json.loads((out / "summary.json").read_text())
    assert "generated_at" not in summary


@pytest.mark.parametrize("command, reports", [
    (["simulate", "--policy", "fixed", "--trials", "10"], ("summary.json",)),
    (["check"], ("check.json",)),
])
def test_negative_zero_angle_is_reported_as_zero(tmp_path, capsys, command, reports):
    """-0.0 reaches a report only as an echoed option or a scheduled angle;
    both are written as 0.0. The trial rows keep the angle as scheduled."""
    run_cli([*command, "--model", "bell_product_basic", "--angle-a", "-0.0",
             "--deterministic", "--out", str(tmp_path)])
    for name in reports:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert "-0.0" not in text
        assert json.loads(text)["config"]["angle_a"] == 0.0
    if "simulate" in command:
        comment, header, *rows = (tmp_path / "trials.csv").read_text().splitlines()
        assert comment.startswith("# config = ") and "-0.0" not in comment
        assert [row.split(",")[2] for row in rows] == ["-0.0"] * 10
        assert json.loads(text)["pairs"][0]["a"] == 0.0


def test_reports_carry_a_timestamp_without_deterministic(tmp_path):
    runs = {
        "simulate": ["simulate", "--model", "constant_plus", "--trials", "10"],
        "check": ["check", "--model", "constant_plus"],
        "chsh": ["chsh", "--model", "constant_plus"],
        "audit": ["audit", "--model", "constant_plus", "--trials", "10"],
    }
    for name, argv in runs.items():
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
    lines = (tmp_path / "simulate" / "trials.csv").read_text().splitlines()
    assert sum(line.startswith("# generated_at = ") for line in lines) == 1
    reports = sorted(tmp_path.glob("*/*.json"))
    assert [p.name for p in reports] == ["audit.json", "check.json", "chsh.json", "summary.json"]
    for path in reports:
        assert "generated_at" in json.loads(path.read_text()), path.name


TABLE_MISS_MODEL = """[model]
name = table_miss

[source]
states = u, v
prior = 0.5, 0.5

[grid]
slots = 4

[gen1]
{gen1}

[gen2]
kind = constant

[out1]
{out1}

[out2]
kind = constant
value = 1
"""
FULL_GEN = "kind = table\ntable =\n    1,0\n    2,0\n    3,0\n    4,0"
CONSTANT_OUT = "kind = constant\nvalue = 1"


@pytest.mark.parametrize("gen1, out1, message", [
    ("kind = table\ntable =\n    1,0\n    2,1\n    3,0", CONSTANT_OUT, "misses key 4"),
    (FULL_GEN, "kind = lambda_table\ntable =\n    u,1", "misses key 'v'"),
    (FULL_GEN, "kind = cosine\ntable =\n    v,0.5", "misses key 'u'"),
    (FULL_GEN, "kind = table\ntable =\n" + "\n".join(
        f"    u,0,{m},1" for m in (1, 2, 3, 4)) + "\n    v,0,1,-1", "misses key ('v', 0, 2)"),
    (FULL_GEN, "kind = lambda_table\ntable =\n    u,1\n    v", "[out1]: every table row"),
    (FULL_GEN, "kind = cosine\ntable =\n    u,0\n    v,inf", "[out1] state 'v': offset inf is not"),
    (FULL_GEN, "kind = cosine\ntable =\n    u,nan\n    v,0", "[out1] state 'u': offset nan is not"),
], ids=["gen_slot", "lambda_table", "cosine", "out_table", "short_row", "cosine_inf",
        "cosine_nan"])
def test_descriptor_table_miss_is_a_configuration_error(tmp_path, capsys, gen1, out1, message):
    descriptor = tmp_path / "miss.ini"
    descriptor.write_text(TABLE_MISS_MODEL.format(gen1=gen1, out1=out1))
    assert run_cli(["check", "--model", str(descriptor)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eprsim: configuration error:")
    assert message in err


@pytest.mark.parametrize("last", [0, 2])
def test_check_of_an_outcome_outside_plus_minus_one_exits_3(tmp_path, capsys, last):
    rows = [f"    {lam},0,{m},{last if (lam, m) == ('v', 4) else 1}"
            for lam in "uv" for m in (1, 2, 3, 4)]
    descriptor = tmp_path / "codomain.ini"
    descriptor.write_text(TABLE_MISS_MODEL.format(
        gen1=FULL_GEN, out1="kind = table\ntable =\n" + "\n".join(rows)))
    assert run_cli(["check", "--model", str(descriptor)]) == 3
    message = f"table_miss: outcome rule returned {last}, expected -1 or +1"
    assert capsys.readouterr().err == f"eprsim: model error: {message}\n"


@pytest.mark.parametrize("old, new", [("prior = 0.5, 0.5", "prior = 1e308, 1e308"),
                                      ("slots = 4", "slots = 2\nweights = 1e308, 1e308")],
                         ids=["prior", "grid"])
def test_check_of_weights_whose_sum_overflows_exits_3(tmp_path, capsys, old, new):
    descriptor = tmp_path / "overflow.ini"
    descriptor.write_text(TABLE_MISS_MODEL.format(gen1="kind = constant", out1=CONSTANT_OUT)
                          .replace(old, new))
    assert run_cli(["check", "--model", str(descriptor)]) == 3
    assert "weights sum to inf, not 1" in capsys.readouterr().err


VALID_MODEL = TABLE_MISS_MODEL.format(gen1=FULL_GEN, out1=CONSTANT_OUT)
SCHEDULE = "[schedule]\ntrials = 96\npolicy = random\npairs = 0:0.5, 1:1.5\nseed_source = 4\n"


def wrong_input_argv(tmp_path, model=VALID_MODEL, schedule=None, op="double"):
    """A simulate run on ``schedule`` if given, else a transform run on ``model``."""
    if schedule is not None:
        (tmp_path / "schedule.ini").write_text(schedule)
        return ["simulate", "--model", "constant_plus", "--schedule",
                str(tmp_path / "schedule.ini"), "--out", str(tmp_path / "run")]
    (tmp_path / "model.ini").write_text(model)
    return ["transform", "--model", str(tmp_path / "model.ini"), "--op", op,
            "--out", str(tmp_path / "out.ini")]


@pytest.mark.parametrize("edit, message", [
    ({"model": VALID_MODEL.replace("slots = 4", "slots = two")}, "'two'"),
    ({"schedule": SCHEDULE + "seed_s1 = 11\n"}, "[schedule] has unknown keys ['seed_s1']"),
    ({"schedule": SCHEDULE + "seed_settings = x\n"}, "'x'"),
    ({"schedule": SCHEDULE + "a = 0\nb = 0.5\n"}, "[schedule] has unknown keys ['a', 'b']"),
    ({"model": VALID_MODEL.replace("[gen2]\nkind = constant", "[gen2]\nkind = constant\nseed = 3")},
     "[gen2] has unknown keys ['seed']"),
    ({"op": "rademacher mean=abc"}, "'abc'"),
    ({"op": "rademacher mean=0 sead=7"},
     "rademacher op has no parameter 'sead'; it reads mean, seed, station"),
    ({"op": "double mean=3"}, "double op has no parameter 'mean'; it reads none"),
    ({"op": "target alpha=0 station=s1 round=yes"},
     "target op needs round=true or round=false, got 'yes'"),
    ({"model": VALID_MODEL.replace("slots = 4", "slots = 2\nweigths = 0.9, 0.1")},
     "[grid] has unknown keys ['weigths']"),
    ({"model": VALID_MODEL + "\n[gen3]\nkind = constant\n"}, "unknown section [gen3]"),
    ({"schedule": SCHEDULE.replace("pairs", "pair")}, "[schedule] has unknown keys ['pair']"),
    ({"model": VALID_MODEL.replace("[gen2]\nkind = constant", "[gen2]\nkind = cycle\n"
                                   "values = 0, 1\nstride = 0")}, "needs stride and modulus"),
    ({"schedule": SCHEDULE.replace("random", "fixed")}, "a fixed schedule holds one setting pair"),
    ({"schedule": SCHEDULE.replace("seed_source = 4", "seed_source = -1")},
     "seed_source must be in 0..inf, got -1"),
    ({"model": VALID_MODEL.replace(CONSTANT_OUT, "kind = constant\nnegate = true")},
     "[out1] kind=constant does not read ['negate']"),
    ({"model": "[model]\nzoo = constant_plus\n\n[source]\nstates = a\nprior = 1\n"},
     "a [model] zoo descriptor takes no sections ['source']"),
    ({"op": "lambda-sign seed=1 seed=2"}, "lambda-sign op repeats parameter 'seed'"),
    ({"op": "layer_double"}, "unknown transform op 'layer_double'"),
], ids=["slots", "seed_s1", "seed_value", "a_b", "gen_seed", "mean", "op_key", "double_key",
        "target_round", "grid_key", "section", "schedule_key", "stride", "fixed_pairs",
        "negative_seed", "unread_kind_key", "zoo_with_sections", "repeated_op_key",
        "layer_double"])
def test_wrong_descriptor_input_is_a_configuration_error(tmp_path, capsys, edit, message):
    assert run_cli(wrong_input_argv(tmp_path, **edit)) == 2
    err = capsys.readouterr().err
    assert err.startswith("eprsim: configuration error:")
    assert message in err


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, command):
    out = tmp_path / "run"
    argv = [command, "--model", "bell_product_basic", "--trials", "10", "--seed", "-1",
            "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "eprsim: configuration error: seed_source must be in 0..inf, got -1\n")
    assert not out.exists()


def test_schedule_with_a_non_finite_angle_exits_2(tmp_path, capsys):
    assert run_cli(wrong_input_argv(tmp_path, schedule=SCHEDULE.replace("0:0.5", "nan:0"))) == 2
    assert capsys.readouterr().err.startswith("eprsim: configuration error: setting angle nan")


def test_simulate_schedule_echoes_what_ran(tmp_path):
    (tmp_path / "schedule.ini").write_text(SCHEDULE + "seed_settings = 9\n")
    out = tmp_path / "run"
    assert run_cli(["simulate", "--model", "constant_plus", "--schedule",
                    str(tmp_path / "schedule.ini"), "--deterministic", "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    ran = {"trials": 96, "policy": "random", "seed_source": 4, "seed_settings": 9,
           "schedule_pairs": [["0", "0.5"], ["1", "1.5"]]}
    assert {k: config.get(k) for k in ran} == ran
    assert not {"seed", "angle_a", "angle_b", "seed_s1", "seed_s2"} & set(config)
    comment = (out / "trials.csv").read_text().splitlines()[0]
    assert comment == f"# config = {json.dumps(config, sort_keys=True)}"


OUTPUT = ["--seed", "3", "--out", "o", "--deterministic"]
COMMON = [*OUTPUT, "--tol", "1e-6"]
VALID_LINES = {
    "simulate": ["simulate", "--model", "m", "--trials", "10", "--policy", "cycle",
                 "--angle-a", "0.1", "--angle-b", "0.2", "--angles", "0,1,2,3",
                 "--schedule", "s.ini", *COMMON],
    "check": ["check", "--model", "m", "--angle-a", "0.5", "--angle-b", "1", *COMMON],
    "transform": ["transform", "--model", "m", "--op", "double", "--op", "rademacher mean=0",
                  *OUTPUT],
    "chsh": ["chsh", "--model", "m", "--angles", "0,1,2,3", "--method", "monte_carlo",
             "--trials", "5", *COMMON],
    "audit": ["audit", "--model", "m", "--trials", "7", "--perturbations", "2", *COMMON],
    "zoo": ["zoo", "list"],
    "defaults": ["simulate", "--model", "m"],
    "out_equals_and_abbreviation": ["check", "--mod", "m", "--out=o"],
    "separator": ["zoo", "--", "list"],
}
# Lines that parse to no Namespace but give the same exit code and text on both routes.
OTHER_LINES = {
    "no_arguments": [],
    "unknown_command": ["bogus"],
    "version": ["--version"],
    "help": ["-h"],
    **{f"{name}_help": [name, "-h"]
       for name in ("simulate", "check", "transform", "chsh", "audit", "zoo")},
}
# Usage errors of a named command, each with the argument its error names.
ERROR_LINES = {
    "missing_model": (["check"], "--model"),
    "missing_action": (["zoo"], "action"),
    "bad_policy": (["simulate", "--model", "m", "--policy", "x"], "--policy"),
    "bad_perturbations": (["audit", "--model", "m", "--perturbations", "4"], "--perturbations"),
    "bad_trials": (["simulate", "--model", "m", "--trials", "x"], "--trials"),
    "unrecognized_option": (["check", "--model", "m", "--bogus"], "--bogus"),
    "extra_positional": (["check", "--model", "m", "extra"], "extra"),
    "extra_action": (["zoo", "list", "extra"], "extra"),
    "version_after_command": (["check", "--model", "m", "--version"], "--version"),
    "ambiguous_at_top": (["check", "--model", "m", "--=x"], "--=x"),
    **{f"zoo_{flag[2:]}": (["zoo", "list", flag, *value], flag)
       for flag, *value in (("--tol", "1"), ("--seed", "1"), ("--out", "o"), ("--deterministic",))},
    "transform_tol": (["transform", "--model", "m", "--op", "double", "--tol", "1e-6"], "--tol"),
}


def parse_outcome(parse, argv, capsys):
    """The Namespace a parse returns (None if it exits), its exit code, stdout and stderr."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


@pytest.fixture
def parse_by_main(monkeypatch):
    """``main`` with every handler replaced by one that records its Namespace."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name, (help_text, _, add_options) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name,
                            (help_text, lambda args: seen.append(args) or 0, add_options))

    def parse(argv):
        assert main(argv) == 0
        return seen.pop()
    return parse


@pytest.mark.parametrize("argv, offending", [
    *((argv, None) for argv in (*VALID_LINES.values(), *OTHER_LINES.values())),
    *ERROR_LINES.values()], ids=[*VALID_LINES, *OTHER_LINES, *ERROR_LINES])
def test_main_parses_as_the_full_tree(parse_by_main, capsys, argv, offending):
    """Valid lines give the full tree's Namespace; a usage error of a named
    command exits 2 from that command's parser and names what it refused."""
    reference = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    outcome = parse_outcome(parse_by_main, argv, capsys)
    assert (reference[0] is not None) == (argv in VALID_LINES.values())
    if offending is None:
        assert outcome == reference
    else:
        assert outcome[:3] == (None, 2, "") == reference[:3]
        assert outcome[3].startswith(f"usage: eprsim {argv[0]} ")
        assert f"eprsim {argv[0]}: error: " in outcome[3] and offending in outcome[3]


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["zoo", "list"]) == 0
    assert main(["chsh", "--model", "constant_plus", "--tol", "1e-6"]) == 0
    with pytest.raises(SystemExit, match="2"):  # an error line is not parsed again
        main(["check", "--model", "m", "extra"])
    assert built == ["eprsim zoo", "eprsim chsh", "eprsim check"]


def test_an_unwritable_output_is_an_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = ["check", "--model", "constant_plus", "--out", str(tmp_path / "file" / "out")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("eprsim: i/o error: ")


def stdlib_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e16, 1e22, -1e-7)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.sampled_from(SPECIAL_FLOATS), st.text())
ODD_TEXT = st.text(alphabet=st.sampled_from('ab"\\\n\t\x00/\u00e9\u2603\U0001f600'))
# One key kind per dict: the stdlib sorts the keys before writing them, so
# str keys beside int keys fail there (and must fail here) with TypeError.
JSON_KEYS = st.sampled_from([
    ODD_TEXT, st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from(SPECIAL_FLOATS)),
    st.one_of(ODD_TEXT, st.integers()),
])
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        JSON_KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
def test_json_text_equals_the_stdlib_indent_writer(doc):
    try:
        expected = stdlib_json(doc)
    except TypeError:
        with pytest.raises(TypeError):
            cli.json_text(doc)
        return
    assert cli.json_text(doc) == expected


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}}, {"a": []}, [[], {}, [[]]], {"a": [{"b": {}}]}, 0.0, "x", None,
    {3: {"x": -0.0}, 2.5: [math.nan], True: None}, {None: [math.inf, -math.inf, {}]},
    {"q\"uote": {"back\\slash": "new\nline"}, "\u00e9\u2603": [5e-324, 1e308, -0.0]},
])
def test_json_text_equals_the_stdlib_on_edge_documents(doc, monkeypatch):
    assert cli.json_text(doc) == stdlib_json(doc)
    monkeypatch.setattr(cli, "c_make_encoder", None)  # an interpreter without the C encoder
    assert cli.json_text(doc) == stdlib_json(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 0}, {"a": {(1, 2): [0]}}, {"a": [object()]},
                                 {"a": {1: [], "b": []}}])
def test_json_text_refuses_what_the_stdlib_refuses(doc):
    with pytest.raises(TypeError):
        stdlib_json(doc)
    with pytest.raises(TypeError):
        cli.json_text(doc)


def test_every_zoo_report_is_written_as_the_stdlib_writes_it(tmp_path, monkeypatch, zoo_name):
    written = []
    json_text = cli.json_text

    def compared(doc):
        text = json_text(doc)
        assert text == stdlib_json(doc)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "json_text", compared)
    common = ["--model", zoo_name, "--deterministic", "--seed", "3"]
    runs = {
        "check": ["check", *common],
        "chsh": ["chsh", *common],
        "audit": ["audit", *common, "--trials", "50"],
        "simulate": ["simulate", *common, "--trials", "50", "--policy", "cycle",
                     "--angles", "0,1.5707963267948966,0.7853981633974483,2.356194490192345"],
    }
    for name, argv in runs.items():
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
    assert len(written) == 4
    for path in sorted(tmp_path.glob("*/*.json")):
        text = path.read_text(encoding="utf-8")
        assert text == stdlib_json(json.loads(text)) + "\n", path


def test_check_without_out_formats_no_report(tmp_path, capsys, monkeypatch):
    argv = ["check", "--model", "hp_time_correlated", "--deterministic"]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 0
    written = capsys.readouterr().out

    def never(self):
        raise AssertionError("check built the report without --out")

    monkeypatch.setattr(FactorizationReport, "to_dict", never)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == written
    assert "given_lambda: FAIL" in written
