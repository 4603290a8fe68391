"""The array-based exact paths against plain per-cell reference loops, bit for bit.

Each reference evaluates the rules cell by cell and adds in a fixed, visible
order. Results must be equal, not merely close, because ``--deterministic``
outputs are compared byte for byte.
"""
import random
from math import fsum

import numpy as np

from eprsim import (
    TEST_ANGLES,
    JointTable,
    Setting,
    Station,
    balanced_sign_function,
    check_factorization,
    condition_sign_on_source,
    correlate,
    correlate_via_table,
    evaluate_outcome,
    layer_double,
    s1,
    s2,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    time_symmetrize,
    zoo_model,
)
from eprsim.model import station_outcomes, station_values
from eprsim.symmetry import exact_marginal
from eprsim.zoo import ZOO, random_factorized_model

from conftest import GRID_PAIRS


def models():
    for name in ZOO:
        base = zoo_model(name)
        yield base
        yield layer_double(time_symmetrize(base, balanced_sign_function(base.grid, seed=7)))
        yield condition_sign_on_source(base, seed=2)
        for station in (Station.S1, Station.S2):
            yield time_symmetrize(base, balanced_sign_function(base.grid, seed=5), station=station)
        # The time sign, the layer flip and the source sign at once; the sign
        # is drawn on the doubled grid, so it need not repeat within a pair.
        doubled = layer_double(base)
        yield condition_sign_on_source(
            time_symmetrize(doubled, balanced_sign_function(doubled.grid, seed=3)), seed=4)
    for seed in range(100):
        yield random_factorized_model(seed)


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


def test_compiled_outcomes_match_one_cell_route():
    """The flat compile applies the codomain check and the modifiers to the
    whole array; evaluate_outcome applies them to one cell."""
    for model in models():
        for station in (Station.S1, Station.S2):
            for angle in TEST_ANGLES:
                setting = Setting(angle, station)
                found = station_outcomes(model, setting, station_values(model, setting))
                expected = [[evaluate_outcome(model, station, setting, lam, m)
                             for m in model.grid.slots] for lam in model.source.states]
                assert found.dtype == np.int8, model.name
                assert found.tolist() == expected, (model.name, model.transforms, setting)


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


def hand_built_tables(count):
    """Tables with several cells per (state, slot), zero-probability entries,
    a value listed twice in a value space and a value missing from it."""
    rng = random.Random(11)
    yield JointTable(
        s1(0.0), s2(0.0),
        {(0, 0, "u", 1): 0.1, (1, 1, "u", 1): 0.2, (0, 1, "u", 2): 0.3,
         (1, 0, "u", 2): 0.0, (0, 0, "v", 1): 0.4},
        value_space_1=(0, 1, 0), value_space_2=(0,), states=("u", "v"),
    )
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

        yield JointTable(s1(0.0), s2(0.0), entries, space(), space(),
                         states=("u", "v", "w"))


def test_check_factorization_matches_reference_loop():
    for model in models():
        for a, b in GRID_PAIRS:
            table = tabulate_joint(model, a, b)
            assert_factorization_matches_reference(table)
            assert_factorization_matches_reference(table_from_csv(table_to_csv(table), a, b))
    for table in hand_built_tables(500):
        assert_factorization_matches_reference(table)
