"""The array-based exact paths against plain per-cell reference loops, bit for bit.

Each reference evaluates the rules cell by cell and adds in a fixed, visible
order. Results must be equal, not merely close, because ``--deterministic``
outputs are compared byte for byte.
"""
from math import fsum

from eprsim import (
    TEST_ANGLES,
    Setting,
    Station,
    balanced_sign_function,
    condition_sign_on_source,
    correlate,
    evaluate_outcome,
    layer_double,
    s1,
    s2,
    time_symmetrize,
    zoo_model,
)
from eprsim.symmetry import exact_marginal
from eprsim.zoo import ZOO, random_factorized_model

from conftest import GRID_PAIRS


def models():
    for name in ZOO:
        base = zoo_model(name)
        yield base
        yield layer_double(time_symmetrize(base, balanced_sign_function(base.grid, seed=7)))
        yield condition_sign_on_source(base, seed=2)
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
    marginal_a = fsum(p[i] * cond_a[lam] for i, lam in enumerate(states))
    marginal_b = fsum(p[i] * cond_b[lam] for i, lam in enumerate(states))
    return e_ab, marginal_a, marginal_b, cond_a, cond_b


def reference_marginal(model, station, angle):
    setting = Setting(angle, station)
    return fsum(
        model.source.weight(lam) * model.grid.weight(m)
        * evaluate_outcome(model, station, setting, lam, m)
        for lam in model.source.states
        for m in model.grid.slots
    )


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
