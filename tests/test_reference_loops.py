"""The array-based exact paths against plain per-cell reference loops, bit for bit.

Each reference evaluates the rules cell by cell and adds in a fixed, visible
order. Results must be equal, not merely close, because ``--deterministic``
outputs are compared byte for byte. The sampled paths reduce integer count
tensors; their references reduce one sample at a time, as the per-sample
reducer and the per-pair mask loop they replaced did.
"""
import configparser
import csv
import dataclasses
import io
import random
from math import fsum, pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsim import (
    TEST_ANGLES,
    AuditReport,
    CodomainViolationError,
    JointTable,
    Schedule,
    Setting,
    SourceSpace,
    Station,
    TimeGrid,
    apply_transform_op,
    balanced_sign_function,
    check_factorization,
    condition_sign_on_source,
    correlate,
    correlate_via_table,
    evaluate_outcome,
    layer_double,
    locality_audit,
    s1,
    s2,
    swap_stations,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    time_symmetrize,
    zoo_model,
)
from eprsim import cli, density
from eprsim.descriptors import model_from_config
from eprsim.density import CSV_HEADER
from eprsim.inequality import sampled_correlation
from eprsim.model import TWO_PI, station_outcomes, station_values
from eprsim.stations import DEFAULT_PAIRS, empirical_correlations
from eprsim.symmetry import exact_marginal
from eprsim.util import fmt12, stable_seed
from eprsim.zoo import ZOO, random_factorized_model

from conftest import GRID_PAIRS
from shared_fixtures import (
    collect_digests,
    factored_trials,
    history_leak_model,
    outcome_publishing_model,
    remote_reading_model,
    remote_reading_s2_model,
    slot_limited_leak_model,
)
from trial_references import (
    assert_same_correlations,
    reference_empirical_correlations,
    reference_sampled_correlation,
    report_fields,
)


def weighted(model, seed):
    """``model`` with a seeded prior and seeded slot weights, one slot weighing
    0.0: every cell of positive mass has a mass of its own, and the cells of
    the zero-weight slot carry none."""
    rng = random.Random(f"weighted:{seed}")
    prior = [rng.uniform(1.0, 2.0) for _ in model.source.states]
    weights = [rng.uniform(1.0, 2.0) for _ in model.grid.slots]
    weights[rng.randrange(len(weights))] = 0.0
    return dataclasses.replace(
        model,
        name=f"{model.name}_weighted",
        source=SourceSpace(model.source.states, tuple(p / sum(prior) for p in prior)),
        grid=TimeGrid(len(weights), tuple(w / sum(weights) for w in weights)))


def models(random_seeds=100):
    for name in ZOO:
        base = zoo_model(name)
        yield base
        yield weighted(base, name)
        yield layer_double(weighted(base, name))
        yield layer_double(time_symmetrize(base, balanced_sign_function(base.grid, seed=7)))
        yield condition_sign_on_source(base, seed=2)
        for station in (Station.S1, Station.S2):
            yield time_symmetrize(base, balanced_sign_function(base.grid, seed=5), station=station)
        # The time sign, the layer flip and the source sign at once; the sign
        # is drawn on the doubled grid, so it need not repeat within a pair.
        doubled = layer_double(base)
        yield condition_sign_on_source(
            time_symmetrize(doubled, balanced_sign_function(doubled.grid, seed=3)), seed=4)
    for seed in range(random_seeds):
        model = random_factorized_model(seed)
        yield model
        if seed % 5 == 0 and model.grid.slot_count > 1:
            yield weighted(model, seed)


def reference_correlation(model, a, b):
    states = model.source.states
    slots = list(model.grid.slots)
    A = [[evaluate_outcome(model, Station.S1, a, lam, m) for m in slots] for lam in states]
    B = [[evaluate_outcome(model, Station.S2, b, lam, m) for m in slots] for lam in states]
    w = [model.grid.weight(m) for m in slots]
    p = [model.source.weight(lam) for lam in states]
    rows = range(len(states))
    cols = range(len(slots))
    e_ab = fsum(p[i] * w[j] * A[i][j] * B[i][j] for i in rows for j in cols)
    cond_a = {lam: fsum(w[j] * A[i][j] for j in cols) for i, lam in enumerate(states)}
    cond_b = {lam: fsum(w[j] * B[i][j] for j in cols) for i, lam in enumerate(states)}
    marginal_a = fsum(p[i] * w[j] * A[i][j] for i in rows for j in cols)
    marginal_b = fsum(p[i] * w[j] * B[i][j] for i in rows for j in cols)
    return e_ab, marginal_a, marginal_b, cond_a, cond_b


def reference_marginal(model, station, angle):
    setting = Setting(angle, station)
    return fsum(
        model.source.weight(lam) * model.grid.weight(m)
        * evaluate_outcome(model, station, setting, lam, m)
        for lam in model.source.states
        for m in model.grid.slots
    )


def one_cell_outcomes(model, setting):
    return [[evaluate_outcome(model, setting.station, setting, lam, m) for m in model.grid.slots]
            for lam in model.source.states]


def test_compiled_outcomes_match_one_cell_route():
    """The flat compile applies the codomain check and the modifiers to the
    whole array; evaluate_outcome applies them to one cell."""
    for model in models():
        for station in (Station.S1, Station.S2):
            for angle in TEST_ANGLES:
                setting = Setting(angle, station)
                found = station_outcomes(model, setting, station_values(model, setting))
                assert found.dtype == np.int8, model.name
                assert found.tolist() == one_cell_outcomes(model, setting), (
                    model.name, model.transforms, setting)


DESCRIPTOR_STATES = ("s0", "s1", "s2")
# The slot values of the descriptor generators below, slot 1 first.
DESCRIPTOR_VALUES = {"out1": (0, 1, 0, 1), "out2": (0, 0, 1, 1)}


def outcome_section(name, kind):
    """An [out1] or [out2] section of a descriptor kind over the three states
    and four slots of :func:`descriptor_model`, with outcomes that vary by
    state, and by slot and angle where the kind reads them."""
    rng = random.Random(f"{name}:{kind}")
    cells = list(enumerate(DESCRIPTOR_VALUES[name], start=1))
    if kind == "constant":
        return "kind = constant\nvalue = -1"
    if kind == "lambda_table":
        rows = [f"{lam}, {o}" for lam, o in zip(DESCRIPTOR_STATES, (1, -1, 1))]
    elif kind.startswith("cosine"):
        rows = [f"{lam}, {i * pi / 2!r}" for i, lam in enumerate(DESCRIPTOR_STATES)]
    elif kind == "table4":
        rows = [f"{lam}, {v}, {m}, {rng.choice((-1, 1))}"
                for lam in DESCRIPTOR_STATES for m, v in cells]
    else:
        rows = [f"{angle!r}, {lam}, {v}, {m}, {rng.choice((-1, 1))}"
                for angle in TEST_ANGLES for lam in DESCRIPTOR_STATES for m, v in cells]
    if kind == "cosine_negate":
        header = "kind = cosine\nnegate = true"
    else:
        header = f"kind = {kind.rstrip('45')}"
    return header + "\ntable =" + "".join(f"\n    {row}" for row in rows)


def descriptor_model(out1, out2, ops=()):
    """A three-state, four-slot descriptor model with the given outcome
    sections, built as a descriptor file would be, then transformed by ``ops``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(
        f"[source]\nstates = {', '.join(DESCRIPTOR_STATES)}\nprior = 0.5, 0.25, 0.25\n"
        "[grid]\nslots = 4\n"
        "[gen1]\nkind = cycle\nvalues = 0, 1\n"
        "[gen2]\nkind = cycle\nvalues = 0, 1\nstride = 2\n"
        f"[out1]\n{out1}\n[out2]\n{out2}\n"
    )
    model = model_from_config(parser)
    for op in ops:
        model = apply_transform_op(model, op)
    return model


DESCRIPTOR_KINDS = ("constant", "lambda_table", "cosine", "cosine_negate", "table4", "table5")
DESCRIPTOR_OPS = ((), ("rademacher mean=0 seed=3",), ("sign values=+--+ station=s1",),
                  ("double",), ("lambda-sign seed=2",))


@pytest.mark.parametrize("ops", DESCRIPTOR_OPS, ids=lambda ops: ",".join(ops) or "none")
@pytest.mark.parametrize("kind", DESCRIPTOR_KINDS)
def test_declared_compile_matches_one_cell_route(kind, ops):
    """Each descriptor kind compiles along the axes its outcome rule declares
    it reads, and broadcasts; evaluate_outcome still calls it for every cell."""
    model = descriptor_model(outcome_section("out1", kind), outcome_section("out2", kind), ops)
    for station in (Station.S1, Station.S2):
        for angle in TEST_ANGLES:
            setting = Setting(angle, station)
            found = station_outcomes(model, setting, station_values(model, setting))
            assert found.dtype == np.int8
            assert found.shape == (len(model.source.states), model.grid.slot_count)
            assert found.tolist() == one_cell_outcomes(model, setting), (kind, ops, setting)


@pytest.mark.parametrize("out1", [
    "kind = constant\nvalue = 0",
    "kind = lambda_table\ntable =\n    s0, 1\n    s1, 0\n    s2, -1",
], ids=["constant", "lambda_table"])
def test_declared_compile_keeps_the_codomain_message(out1):
    model = descriptor_model(out1, outcome_section("out2", "cosine"))
    setting = Setting(0.0, Station.S1)
    with pytest.raises(CodomainViolationError) as one_cell:
        one_cell_outcomes(model, setting)
    with pytest.raises(CodomainViolationError) as compiled:
        station_outcomes(model, setting, station_values(model, setting))
    assert str(compiled.value) == str(one_cell.value)
    assert "returned 0" in str(compiled.value)


def test_correlate_matches_reference_loop():
    for model in models():
        for a, b in GRID_PAIRS:
            r = correlate(model, a, b)
            found = (r.e_ab, r.marginal_a, r.marginal_b, r.cond_a, r.cond_b)
            assert found == reference_correlation(model, a, b), (model.name, a, b)


def test_exact_marginal_matches_reference_loop():
    for model in models():
        for station in (Station.S1, Station.S2):
            for angle in TEST_ANGLES:
                expected = reference_marginal(model, station, angle)
                assert exact_marginal(model, station, angle) == expected, model.name


def test_exact_routes_agree_bit_for_bit():
    """The direct sum, the joint-table route and exact_marginal each give the
    correctly rounded sum of the same rounded per-cell products."""
    for model in models():
        for a, b in GRID_PAIRS:
            direct = correlate(model, a, b)
            table = correlate_via_table(model, tabulate_joint(model, a, b))
            found = (direct.e_ab, direct.marginal_a, direct.marginal_b)
            assert found == (table.e_ab, table.marginal_a, table.marginal_b), (model.name, a, b)
            assert direct.marginal_a == exact_marginal(model, Station.S1, a.angle), model.name
            assert direct.marginal_b == exact_marginal(model, Station.S2, b.angle), model.name


def reference_pair_deviation(cells, values1, values2):
    mass = fsum(cells.values())
    joint = {k: p / mass for k, p in cells.items()}
    p1, p2 = {}, {}
    for (x, y), p in joint.items():
        p1[x] = p1.get(x, 0.0) + p
        p2[y] = p2.get(y, 0.0) + p
    worst = 0.0
    tv = 0.0
    for x in values1:
        for y in values2:
            diff = abs(joint.get((x, y), 0.0) - p1.get(x, 0.0) * p2.get(y, 0.0))
            tv += diff
            if diff > worst:
                worst = diff
    return worst, 0.5 * tv


def reference_factorization(table, mode):
    """The value-grid loop run on every condition, one-cell conditions included."""
    conditions = {}
    for (v1, v2, lam, m), p in table.entries.items():
        if p == 0.0:
            continue
        cells = conditions.setdefault(lam if mode == "given_lambda" else (lam, m), {})
        cells[v1, v2] = cells.get((v1, v2), 0.0) + p
    deviations = {}
    worst_tv = 0.0
    for cond, cells in conditions.items():
        deviations[cond], tv = reference_pair_deviation(
            cells, table.value_space_1, table.value_space_2)
        worst_tv = max(worst_tv, tv)
    return deviations, worst_tv


def assert_factorization_matches_reference(table):
    for mode in ("given_lambda", "given_lambda_and_m"):
        report = check_factorization(table, mode)
        deviations, worst_tv = reference_factorization(table, mode)
        assert list(report.deviations) == list(deviations), mode
        assert [repr(v) for v in report.deviations.values()] == [
            repr(v) for v in deviations.values()], mode
        max_dev = max(deviations.values(), default=0.0)
        assert repr(report.max_deviation) == repr(max_dev), mode
        assert repr(report.max_total_variation) == repr(worst_tv), mode
        assert report.passed == (max_dev <= report.tol), mode


def hand_built_cases(count):
    """Entries with several cells per (state, slot), zero-probability entries,
    a value listed twice in a value space and a value missing from it; values
    that are equal but print differently; labels that CSV must quote; states
    that print alike; a slot that carries no mass; one probability on many
    entries, with zero written as 0.0 and as -0.0; and states equal to
    slots that print differently. Each case is the entries, value space 1,
    value space 2 and the states."""
    rng = random.Random(11)
    yield ({(0, 0, "u", 1): 0.1, (1, 1, "u", 1): 0.2, (0, 1, "u", 2): 0.3,
            (1, 0, "u", 2): 0.0, (0, 0, "v", 1): 0.4},
           (0, 1, 0), (0,), ("u", "v"))
    # 1, 1.0 and True are one value to the check and three to the writer;
    # so are -0.0 and 0.0.
    yield ({(1, "a", "u", 1): 0.125, (1.0, "a", "u", 2): 0.125, (True, "b", "u", 1): 0.125,
            (-0.0, "a", "u", 3): 0.125, (0.0, "b", "u", 3): 0.125, (0.0, "a", "v", 1): 0.375},
           (0.0, 1, True, -0.0, 1.0), ("a", "b"), ("u", "v"))
    labels = ("a,b", 'say "hi"', "two\nlines", "", "plain")
    keys = [(x, y, lam, m) for x in labels[:3] for y in labels[2:] for lam in labels[::2]
            for m in (1, 2)]
    yield dict.fromkeys(keys, 1 / len(keys)), labels, labels, labels[::2]
    # The int state 1 and the str state "1" print alike and stay two states.
    yield ({(0, 1, "1", 1): 0.25, (1, 0, 1, 1): 0.25, (1, "1", "1", 2): 0.25,
            ("1", 1, 1, 2): 0.25},
           (0, 1, "1"), (0, 1, "1"), (1, "1"))
    # Slot 2 weighs nothing: its entries carry zero mass, as do some others.
    yield ({(0, 0, "u", 1): 0.5, (0, 1, "u", 2): 0.0, (1, 1, "u", 2): 0.0, (1, 0, "u", 3): 0.0,
            (1, 1, "u", 3): 0.25, (0, 0, "v", 2): 0.0, (1, 0, "v", 1): 0.25},
           (0, 1), (0, 1), ("u", "v"))
    # Sixteen entries share one probability, and zero mass is written both as
    # 0.0 and as -0.0.
    keys = [(x, y, lam, m) for x in (0, 1) for y in (0, 1) for lam in ("u", "v")
            for m in (1, 2, 3)]
    yield ({key: (1 / 16 if i < 16 else (0.0, -0.0)[i % 2]) for i, key in enumerate(keys)},
           (0, 1), (0, 1), ("u", "v"))
    # The state True and the slot 1, and the state -0.0 and the slot 0, are
    # equal and print differently; one probability is the int 0.
    yield ({(0, 0, True, 1): 0.5, (1, 1, True, 0): 0.25, (0, 1, -0.0, 1): 0.25,
            (1, 0, -0.0, 0): 0},
           (0, 1), (0, 1), (True, -0.0))
    # One (value1, value2) cell is reached through 1, 1.0 and True in entries
    # that are not adjacent. A NaN value is found only as the same object, and
    # value space 1 lists that object and another NaN; both value spaces list
    # values that no entry holds, and list values twice.
    nan, other_nan = float("nan"), float("nan")
    yield ({(1, "a", "u", 1): 0.1, (0, "b", "u", 2): 0.2, (1.0, "a", "u", 3): 0.3,
            (nan, "b", "u", 4): 0.05, (True, "a", "u", 5): 0.15, (nan, "a", "v", 1): 0.1,
            (0, 1.0, "v", 2): 0.1},
           (nan, other_nan, 1, 0, 2, 1.0), ("a", "b", "absent", "a"), ("u", "v"))
    # More conditions of several cells than one block of the check holds: the
    # zero-mass entries widen each value axis to 1,026 values, so one
    # condition's grid of classes exceeds GRID_BLOCK and each block holds one.
    keys = [(x, y, lam, m) for lam in "uvwx" for m in (1, 2) for x, y in ((0, m - 1), (1, 2 - m))]
    entries = {key: k / 136 for k, key in enumerate(keys, 1)}
    entries.update({(i, -i, "z", 1): 0.0 for i in range(2, 1026)})
    yield entries, (0, 1, 2), (1, 0), ("u", "v", "w", "x", "z")
    # Each state has a slot of its own, so the (state, slot) pairs are few
    # beside the product of the two axes; each pair holds three cells.
    keys = [(i % 2, i % 3, f"s{i // 3}", i // 3) for i in range(300)]
    yield dict.fromkeys(keys, 1 / 300), (0, 1), (2, 1, 0), tuple(f"s{i}" for i in range(100))
    for _ in range(count):
        values = [0, 1, 2, "x"]
        entries = {}
        for lam in rng.sample("uvw", rng.randint(1, 3)):
            for m in range(1, rng.randint(2, 4)):
                for _ in range(rng.choice((1, 1, 2, 3, 5))):
                    key = (rng.choice(values), rng.choice(values), lam, m)
                    entries[key] = rng.choice((0.0, rng.random(), rng.randint(1, 9) / 10))
        if not any(entries.values()):
            entries[next(iter(entries))] = 1.0
        total = fsum(entries.values())
        entries = {k: p / total for k, p in entries.items()}

        def space():
            listed = rng.sample(values, rng.randint(1, len(values)))
            return tuple(listed + [rng.choice(listed) for _ in range(rng.randint(0, 2))])

        yield entries, space(), space(), ("u", "v", "w")


def hand_built_tables(count):
    for entries, space_1, space_2, states in hand_built_cases(count):
        yield JointTable(s1(0.0), s2(0.0), entries, space_1, space_2, states)


def test_check_factorization_matches_reference_loop():
    for model in models():
        for a, b in GRID_PAIRS:
            table = tabulate_joint(model, a, b)
            assert_factorization_matches_reference(table)
            assert_factorization_matches_reference(table_from_csv(table_to_csv(table), a, b))
    for table in hand_built_tables(500):
        assert_factorization_matches_reference(table)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_check_factorization_in_small_blocks_matches_reference_loop(monkeypatch, block):
    """The value grids evaluated a few conditions at a time, so that tables
    with several conditions of several cells cross block boundaries, give the
    loop's floats."""
    monkeypatch.setattr(density, "GRID_BLOCK", block)
    for model in models(random_seeds=10):
        assert_factorization_matches_reference(tabulate_joint(model, s1(0.0), s2(0.0)))
    for table in hand_built_tables(200):
        assert_factorization_matches_reference(table)


def test_report_keys_are_the_str_of_each_condition():
    """``to_dict`` builds each (state, slot) key's text from its parts; the
    text must be ``str`` of the key, as it was when each key was formatted
    whole, with the later value kept where two keys print alike."""
    for table in hand_built_tables(500):
        for mode in ("given_lambda", "given_lambda_and_m"):
            report = check_factorization(table, mode)
            found = report.to_dict()["deviations"]
            assert list(found) == list(dict.fromkeys(sorted(map(str, report.deviations))))
            expected = {}
            for key, value in sorted(report.deviations.items(), key=lambda kv: str(kv[0])):
                expected[str(key)] = value
            assert found == expected, mode


def reference_table_csv(entries):
    """The writer the coded one replaced, on a plain dict of entries: every
    key sorted by the ``str`` forms of its fields, then one ``csv`` row per
    entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for key in sorted(entries, key=lambda k: tuple(str(x) for x in k)):
        v1, v2, lam, m = key
        writer.writerow([v1, v2, lam, m, repr(entries[key])])
    return buf.getvalue()


def reference_entries(model, a, b):
    """The dict of entries that ``tabulate_joint`` built cell by cell before
    tables were coded."""
    cells = list(zip(model.grid.slots, station_values(model, a), station_values(model, b),
                     model.grid.weights))
    return {(v1, v2, lam, m): p * w
            for lam, p in zip(model.source.states, model.source.prior)
            for m, v1, v2, w in cells}


def test_table_to_csv_matches_reference_writer():
    for model in models():
        for a, b in GRID_PAIRS:
            text = table_to_csv(tabulate_joint(model, a, b))
            expected = reference_table_csv(reference_entries(model, a, b))
            assert text == expected, (model.name, model.transforms, a, b)
            assert table_to_csv(table_from_csv(text, a, b)) == text
    for entries, space_1, space_2, states in hand_built_cases(500):
        table = JointTable(s1(0.0), s2(0.0), entries, space_1, space_2, states)
        assert table_to_csv(table) == reference_table_csv(entries)
        swapped = {(v2, v1, lam, m): p for (v1, v2, lam, m), p in entries.items()}
        assert table_to_csv(swap_stations(table)) == reference_table_csv(swapped)


def test_table_to_csv_by_bit_pattern_matches_reference_writer(monkeypatch):
    """Small tables format each probability; the bit-pattern coding that
    larger ones take must write the same text, -0.0 and the int 0 included."""
    monkeypatch.setattr(density, "FORMAT_EACH", 0)
    for model in models(random_seeds=20):
        for a, b in GRID_PAIRS[::5]:
            text = table_to_csv(tabulate_joint(model, a, b))
            assert text == reference_table_csv(reference_entries(model, a, b)), model.name
            assert table_to_csv(table_from_csv(text, a, b)) == text
    for entries, space_1, space_2, states in hand_built_cases(100):
        table = JointTable(s1(0.0), s2(0.0), entries, space_1, space_2, states)
        assert table_to_csv(table) == reference_table_csv(entries)


def compiled_pair(model, a, b):
    return (station_outcomes(model, a, station_values(model, a)),
            station_outcomes(model, b, station_values(model, b)))


def test_count_tensor_reducer_matches_per_sample_reference():
    """The per-cell draw of state and slot, binned one sample at a time."""
    for k, model in enumerate(models(random_seeds=20)):
        rng = np.random.default_rng(k)
        prior = np.asarray(model.source.prior)
        weights = np.array(model.grid.weights)
        states = model.source.states
        for a, b in GRID_PAIRS:
            A, B = compiled_pair(model, a, b)
            trials = int(rng.choice((1, 2, 7, 300)))
            li = rng.choice(len(states), size=trials, p=prior / prior.sum())
            mi = rng.choice(model.grid.slot_count, size=trials, p=weights / weights.sum())
            counts = np.zeros((len(states), 2, 2), dtype=np.int64)
            for s, x, y in zip(li.tolist(), A[li, mi].tolist(), B[li, mi].tolist()):
                counts[s, (x + 1) // 2, (y + 1) // 2] += 1
            expected = reference_sampled_correlation(a, b, A[li, mi], B[li, mi], li, states)
            found = sampled_correlation(a, b, counts, states)
            assert report_fields(found) == report_fields(expected), (model.name, a, b)


def test_monte_carlo_counts_match_per_sample_reference():
    """Each multinomial cell count expanded into that many samples of the cell."""
    for model in models(random_seeds=20):
        prior = np.asarray(model.source.prior)
        weights = np.array(model.grid.weights)
        p = np.outer(prior / prior.sum(), weights / weights.sum()).ravel()
        for seed, (a, b) in enumerate(GRID_PAIRS):
            A, B = compiled_pair(model, a, b)
            trials = 1 + 97 * seed
            rng = np.random.default_rng(
                stable_seed("correlate", seed, fmt12(a.angle), fmt12(b.angle)))
            cell = np.repeat(np.arange(p.size), rng.multinomial(trials, p))
            li, mi = np.divmod(cell, model.grid.slot_count)
            expected = reference_sampled_correlation(a, b, A[li, mi], B[li, mi], li,
                                                     model.source.states)
            found = correlate(model, a, b, method="monte_carlo", trials=trials, seed=seed)
            assert report_fields(found) == report_fields(expected), (model.name, a, b)


def reference_first_use(keys, size):
    """Each key's first entry (``len(keys)`` if untaken), the first entries in
    order and each entry's number, from one ``dict.setdefault`` loop."""
    first = {}
    for entry, key in enumerate(keys):
        first.setdefault(key, entry)
    number = {key: k for k, key in enumerate(first)}
    return ([first.get(key, len(keys)) for key in range(size)], list(first.values()),
            [number[key] for key in keys])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), max_size=400))))
@example((1, []))  # no keys
@example((1, [0]))  # a single key
@example((6, [4, 4, 1, 4]))  # keys no entry takes, above and below the taken ones
@example((3, [2, 0, 2, 1, 0]))  # every key taken
def test_first_use_numbering_matches_dict_loop(case):
    size, keys = case
    first, starts, number = density._first_use(np.array(keys, dtype=density._int_type(size)), size)
    expected_first, expected_starts, expected_numbers = reference_first_use(keys, size)
    assert first.tolist() == expected_first
    assert starts.tolist() == expected_starts
    assert number[np.array(keys, dtype=np.intp)].tolist() == expected_numbers
    # A key no entry takes is numbered 0; numbers take the narrowest type.
    assert not number[first == len(keys)].any()
    assert number.dtype == density._int_type(len(starts))


def test_empirical_correlations_of_a_factored_run_match_mask_loop():
    """A table out of first-use order, with a row listed twice and one untaken."""
    trials = factored_trials()
    found = empirical_correlations(trials)
    # -0.0 and 0.0 are one angle, keyed as trial 0 ran it; the untaken
    # (1.0, 1.5) row gives no entry.
    assert list(found) == [(0.0, 0.0), (0.5, 0.0)]
    assert str(list(found)[0][0]) == "0.0"
    assert_same_correlations(found, reference_empirical_correlations(trials))


def test_empirical_correlations_match_mask_loop_on_recorded_runs(tmp_path, monkeypatch):
    """Every ``simulate`` case whose outputs ``tests/output_digests.json`` records."""
    runs = []

    def checked(trials):
        found = empirical_correlations(trials)
        assert_same_correlations(found, reference_empirical_correlations(trials))
        runs.append(len(trials))
        return found

    monkeypatch.setattr(cli, "empirical_correlations", checked)
    monkeypatch.chdir(tmp_path)
    digests = collect_digests()
    assert len(runs) == sum(key.endswith("/summary.json") for key in digests) > 0


def reference_audit(model, schedule, perturbations):
    """The exact locality verdict as plain loops over pairs and cells.

    Each distinct scheduled pair (by normalized angles), then its S1
    alternatives in grid order, then its S2 ones, is compiled at its first
    need with ``station_values`` and ``station_outcomes``, both generators
    before either outcome rule. Each station's values and outcomes at every
    alternative are then compared with those at the scheduled pair, state by
    state and slot by slot, with Python's ``!=``. The verdict does not read
    the trial or perturbation counts.
    """
    S1, S2 = Station.S1, Station.S2

    def alternatives(angle):
        return [x for x in TEST_ANGLES
                if min((angle - x) % TWO_PI, TWO_PI - (angle - x) % TWO_PI) > 1e-12]

    compiled = {}

    def outputs(a, b):
        if (a, b) not in compiled:
            x, y = Setting(a, S1), Setting(b, S2)
            v1 = station_values(model, x)
            v2 = station_values(model, y)
            compiled[a, b] = {S1: (v1, station_outcomes(model, x, v1)),
                              S2: (v2, station_outcomes(model, y, v2))}
        return compiled[a, b]

    audited, mismatches, first = set(), 0, None
    for scheduled in schedule.pairs:
        a, b = (s1(x).angle for x in scheduled)
        if (a, b) in audited:
            continue
        audited.add((a, b))
        base = outputs(a, b)
        for station, local, remote, others in (
                (S1, scheduled[0], scheduled[1], [(a, y) for y in alternatives(b)]),
                (S2, scheduled[1], scheduled[0], [(x, b) for x in alternatives(a)])):
            base_values, base_outcomes = base[station]
            for x, y in others:
                values, outcomes = outputs(x, y)[station]
                for i, lam in enumerate(model.source.states):
                    for m in range(model.grid.slot_count):
                        if values[m] == base_values[m] and outcomes[i, m] == base_outcomes[i, m]:
                            continue
                        mismatches += 1
                        if first is None:
                            first = {
                                "station": station.value,
                                "local": local,
                                "slot": m + 1,
                                "lambda": str(lam),
                                "remote_original": remote,
                                "remote_perturbed": y if station is S1 else x,
                                "baseline": [str(base_values[m]), int(base_outcomes[i, m])],
                                "perturbed": [str(values[m]), int(outcomes[i, m])],
                            }
    return AuditReport(schedule.trials, mismatches, mismatches == 0, first)


AUDIT_SCHEDULES = {
    "cycle": Schedule(trials=101, policy="cycle"),
    "random": Schedule(trials=101, policy="random", seed_source=3, seed_settings=4),
    "fixed": Schedule(trials=37, policy="fixed", pairs=((pi / 4, 0.0),)),
    # Off the test grid, with 0.0 and 2π at one point of the circle.
    "off-grid": Schedule(trials=53, policy="cycle", pairs=((0.3, 2.0), (0.0, 2 * pi), (-0.0, 1.0))),
}

LEAKY = (remote_reading_model, remote_reading_s2_model, outcome_publishing_model,
         history_leak_model, slot_limited_leak_model)


@pytest.mark.parametrize("schedule", AUDIT_SCHEDULES.values(), ids=AUDIT_SCHEDULES)
def test_locality_audit_matches_per_trial_reference(schedule):
    for perturbations in range(1, 6):
        for model in models(random_seeds=0):
            expected = reference_audit(model, schedule, perturbations)
            assert expected.passed, model.name
            assert locality_audit(model, schedule, perturbations) == expected, model.name
        # A leaky fixture keeps state across calls: each audit gets a fresh one.
        for make in LEAKY:
            expected = reference_audit(make(), schedule, perturbations)
            assert locality_audit(make(), schedule, perturbations) == expected, make.__name__
