import math
import random
import statistics
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from eprsim import (
    LOCAL_BOUND,
    ChshResult,
    HarnessError,
    OutcomeFn,
    SourceSpace,
    Station,
    StationMismatchError,
    TimeGrid,
    ZeroTrialsError,
    balanced_sign_function,
    chsh,
    chsh_from_correlations,
    chsh_from_reports,
    condition_sign_on_source,
    conditional_table,
    correlate,
    correlate_via_table,
    exact_correlation,
    layer_double,
    reference_correlation,
    s1,
    s2,
    tabulate_joint,
    time_symmetrize,
    zoo_model,
)
from eprsim import inequality
from eprsim.descriptors import load_model
from eprsim.inequality import sampled_correlation
from eprsim.model import CHSH_OPTIMAL_ANGLES, OUTCOME_ARGS, cell_mass
from eprsim.stations import DEFAULT_PAIRS
from eprsim.util import fmt12, stable_seed
from eprsim.zoo import all_zoo_models, random_factorized_model

from conftest import DETERMINISTIC_STRATEGIES, GRID_PAIRS, OPTIMAL, strategy_s
from shared_fixtures import _weighted_descriptor


def constants_model():
    base = zoo_model("constant_plus")
    return replace(
        base, out2=OutcomeFn(Station.S2, lambda s, lam, v, m: -1), name="plus_minus"
    )


def test_constant_outcomes_give_unit_statistics():
    report = correlate(constants_model(), s1(0.2), s2(1.3))
    assert report.e_ab == -1.0
    assert report.marginal_a == 1.0
    assert report.marginal_b == -1.0
    assert report.trials == 0
    assert report.std_error == 0.0


def test_layer_doubled_constant_model_statistics():
    doubled = layer_double(zoo_model("constant_plus"))
    report = correlate(doubled, s1(0.0), s2(0.0))
    assert report.marginal_a == 0.0
    assert report.e_ab == 1.0


def test_direct_and_table_routes_agree_on_zoo(zoo_name):
    model = zoo_model(zoo_name)
    for a, b in GRID_PAIRS:
        direct = correlate(model, a, b)
        table = correlate_via_table(model, tabulate_joint(model, a, b))
        assert direct.e_ab == table.e_ab
        assert direct.marginal_a == table.marginal_a
        assert direct.marginal_b == table.marginal_b
        for lam in model.source.states:
            if model.source.weight(lam) > 0:
                assert abs(direct.cond_a[lam] - table.cond_a[lam]) <= 1e-12
                assert abs(direct.cond_b[lam] - table.cond_b[lam]) <= 1e-12


def test_routes_agree_on_transformed_models():
    base = zoo_model("anticorrelated_signs")
    transformed = layer_double(
        time_symmetrize(base, balanced_sign_function(base.grid, seed=5))
    )
    for a, b in GRID_PAIRS[:4]:
        direct = correlate(transformed, a, b)
        table = correlate_via_table(transformed, tabulate_joint(transformed, a, b))
        assert abs(direct.e_ab - table.e_ab) <= 1e-12


def test_monte_carlo_matches_exact_within_five_sigma():
    model = zoo_model("cosine_threshold_lhv")
    a, b = s1(0.0), s2(math.pi / 4)
    exact = correlate(model, a, b).e_ab
    hits = 0
    for seed in range(20):
        mc = correlate(model, a, b, method="monte_carlo", trials=20000, seed=seed)
        if abs(mc.e_ab - exact) <= 5 * mc.std_error:
            hits += 1
    assert hits >= 19


def test_monte_carlo_error_shrinks_with_trials():
    model = zoo_model("cosine_threshold_lhv")
    a, b = s1(0.0), s2(math.pi / 4)
    exact = correlate(model, a, b).e_ab
    medians = []
    for trials in (1000, 10000, 100000):
        errors = [
            abs(correlate(model, a, b, method="monte_carlo", trials=trials, seed=seed).e_ab - exact)
            for seed in range(11)
        ]
        medians.append(statistics.median(errors))
    assert medians[0] > medians[1] > medians[2]


def test_correlate_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'sampled'"):
        correlate(zoo_model("constant_plus"), s1(0.0), s2(0.0), method="sampled")


def test_monte_carlo_requires_trials():
    # A count that is not an integer is refused as a Schedule refuses it.
    for trials in (0, -1, 1.5, 1.0, True, "3", None):
        with pytest.raises(ZeroTrialsError, match=f"got {trials!r}"):
            correlate(zoo_model("constant_plus"), s1(0.0), s2(0.0), method="monte_carlo",
                      trials=trials)


def test_monte_carlo_takes_a_numpy_integer_count():
    model, a, b = zoo_model("cosine_threshold_lhv"), s1(0.0), s2(math.pi / 4)
    assert (correlate(model, a, b, method="monte_carlo", trials=np.int64(500), seed=2)
            == correlate(model, a, b, method="monte_carlo", trials=500, seed=2))


def test_monte_carlo_gives_a_zero_weight_slot_no_trial():
    """numpy's multinomial hands its last category every trial that its earlier
    binomials leave, whatever that category's probability. S1 reads -1 only in
    the zero-weight last slot, so e_ab is exactly 1 at any trial count."""
    model = replace(zoo_model("constant_plus"), source=SourceSpace(("u",), (1.0,)),
                    grid=TimeGrid(4, (1 / 3, 1 / 3, 1 / 3, 0.0)),
                    out1=OutcomeFn(Station.S1, lambda s, lam, v, m: -1 if m == 4 else 1))
    for seed in range(5):
        report = correlate(model, s1(0.0), s2(0.0), method="monte_carlo", trials=10**18,
                           seed=seed)
        assert (report.e_ab, report.marginal_a) == (1.0, 1.0), seed


def test_monte_carlo_gives_a_zero_prior_state_no_trial():
    model = replace(zoo_model("constant_plus"), grid=TimeGrid(1), source=SourceSpace(
        ("u0", "u1", "u2", "u3"), (1 / 3, 1 / 3, 1 / 3, 0.0)))
    for seed in range(5):
        report = correlate(model, s1(0.0), s2(0.0), method="monte_carlo", trials=10**18,
                           seed=seed)
        assert list(report.cond_a) == list(report.cond_b) == ["u0", "u1", "u2"], seed


def law_models(tmp_path):
    """Every zoo model, the weighted six-slot descriptor and five random models."""
    (tmp_path / "weighted_six.ini").write_text(_weighted_descriptor(), encoding="utf-8")
    return [*all_zoo_models(), load_model(tmp_path / "weighted_six.ini"),
            *map(random_factorized_model, range(5))]


def bin_masses(model, a, b):
    """Each (state, A, B) bin's exact mass: the fsum of its cells' cell_mass."""
    A, B = model.compiled(a)[1], model.compiled(b)[1]
    mass = cell_mass(model)
    return {(lam, x, y): math.fsum(mass[s][(A[s] == x) & (B[s] == y)].tolist())
            for s, lam in enumerate(model.source.states) for x in (-1, 1) for y in (-1, 1)}


def test_monte_carlo_bin_frequencies_match_their_exact_masses(tmp_path):
    """At one trial per seed a report names the one (state, A, B) bin drawn.
    Over N seeds each bin's hits k are Binomial(N, p) at its exact mass p, so
    |k - N p| <= 6 sqrt(N p (1 - p)) + 1, and a zero-mass bin is never hit."""
    seeds = 2000
    a, b = s1(0.0), s2(math.pi / 4)
    for model in law_models(tmp_path):
        masses = bin_masses(model, a, b)
        total = math.fsum(masses.values())
        hits = Counter()
        for seed in range(seeds):
            report = correlate(model, a, b, method="monte_carlo", trials=1, seed=seed)
            (lam, x), = report.cond_a.items()
            hits[lam, int(x), int(report.cond_b[lam])] += 1
        assert set(hits) <= {key for key, mass in masses.items() if mass > 0.0}, model.name
        for key, mass in masses.items():
            p = mass / total
            assert abs(hits[key] - seeds * p) <= 6 * math.sqrt(seeds * p * (1 - p)) + 1, (
                model.name, key, hits[key], seeds * p)


def test_monte_carlo_draws_over_the_bins_of_nonzero_mass(tmp_path, monkeypatch):
    """The multinomial's categories are at most min(cells, 4 states), none of
    zero mass: 256 on a 64-state, 1024-slot model with every (A, B) in each state."""
    labels = tuple(f"s{k}" for k in range(64))
    wide = replace(
        zoo_model("constant_plus"), source=SourceSpace(labels, (1 / 64,) * 64),
        grid=TimeGrid(1024),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1 if (m + int(lam[1:])) % 3 else -1),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1 if (7 * m + int(lam[1:])) % 5 < 2
                       else -1))
    categories = []
    default_rng = np.random.default_rng

    class SpyGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def multinomial(self, n, pvals):
            categories.append(np.asarray(pvals))
            return self.rng.multinomial(n, pvals)

    monkeypatch.setattr(inequality.np.random, "default_rng", SpyGenerator)
    a, b = s1(0.0), s2(math.pi / 4)
    for model in [*law_models(tmp_path), wide]:
        categories.clear()
        correlate(model, a, b, method="monte_carlo", trials=100, seed=1)
        (pvals,) = categories
        states, slots = len(model.source.states), model.grid.slot_count
        assert len(pvals) <= min(states * slots, 4 * states), model.name
        assert len(pvals) == sum(mass > 0.0 for mass in bin_masses(model, a, b).values())
        assert (pvals > 0.0).all(), model.name
    assert len(pvals) == 256


def test_sampled_standard_error_equals_its_rational_reference():
    """The standard error's sum of squares, taken from ``as_integer_ratio`` by
    one true division, is the value ``float(Fraction)`` gives bit for bit."""
    cases = random.Random(31)
    ns = [2, 2, 2, 3, *(cases.randint(2, 10 ** cases.randint(1, 18)) for _ in range(3000))]
    for i, n in enumerate(ns):
        plus = (0, n, 1, n - 1)[i] if i < 4 else cases.choice((0, n, cases.randint(0, n)))
        counts = np.array([[[plus, n - plus], [0, 0]]], dtype=np.int64)
        e = (2 * plus - n) / n
        squares = Fraction((1 - e) ** 2) * plus + Fraction((-1 - e) ** 2) * (n - plus)
        expected = math.sqrt(float(squares) / (n - 1) / n)
        report = sampled_correlation(s1(0.0), s2(0.0), counts, ("u0",))
        assert (report.e_ab, report.std_error.hex()) == (e, expected.hex()), (n, plus)


def test_sampled_correlation_of_no_samples_is_refused():
    with pytest.raises(ZeroTrialsError):
        sampled_correlation(s1(0.0), s2(0.0), np.zeros((2, 2, 2), dtype=np.int64), ("u0", "u1"))


def test_sampled_chsh_of_a_local_model_is_never_a_violation():
    """Every zoo model is local, so a sampled violation would be a false alarm.
    cosine_threshold_lhv sits on the bound (exact S = -2): about half its
    runs land beyond it, and they read inconclusive, within the bound."""
    verdicts = Counter()
    for model in all_zoo_models():
        for seed in range(100):
            result = chsh(model, *OPTIMAL, method="monte_carlo", trials=10**5, seed=seed)
            assert result.within_local_bound, (model.name, seed, result.s_value)
            verdicts[result.verdict] += 1
    assert verdicts["violation"] == 0
    assert verdicts["inconclusive"] > 0


@pytest.mark.parametrize("agree, exact_s", [(16, 4.0), (13, 2.5)])
def test_sampled_chsh_of_per_pair_arrays_beyond_the_bound_is_a_violation(agree, exact_s):
    """One model per pair, where S1's rule reads the S2 setting: A = B in
    ``agree`` of 16 equal slots, with A flipped on (a, b'). That is a PR box
    at 16 and exact S = 4 * 10/16 = 2.5 at 13; no local model reaches either."""
    base = replace(zoo_model("constant_plus"), source=SourceSpace(("u",), (1.0,)),
                   grid=TimeGrid(16))

    def pair_model(sign):
        return replace(base, out1=OutcomeFn(
            Station.S1, lambda s, lam, v, m: sign * (1 if m <= agree else -1)))

    a, ap, b, bp = OPTIMAL
    reports = [correlate(pair_model(sign), x, y, "monte_carlo", 10**5, seed)
               for seed, (x, y, sign) in enumerate(
                   [(a, b, 1), (a, bp, -1), (ap, b, 1), (ap, bp, 1)])]
    result = chsh_from_reports(*reports)
    assert abs(result.s_value - exact_s) < 10 * result.std_error + 1e-12
    assert (result.verdict, result.within_local_bound) == ("violation", False)
    assert result.to_dict()["verdict"] == "violation"


def test_monte_carlo_cost_does_not_grow_with_trials():
    model = zoo_model("cosine_threshold_lhv")
    a, b = s1(0.0), s2(math.pi / 4)
    correlate(model, a, b, method="monte_carlo", trials=10, seed=1)  # lazy imports
    tracemalloc.start()
    try:
        report = correlate(model, a, b, method="monte_carlo", trials=10**9, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.trials == 10**9
    assert peak < 1 << 20
    assert abs(report.e_ab - correlate(model, a, b).e_ab) < 6 * report.std_error


def test_station_order_is_enforced():
    with pytest.raises(StationMismatchError):
        correlate(zoo_model("constant_plus"), s2(0.0), s2(0.0))  # type: ignore[arg-type]
    with pytest.raises(StationMismatchError):
        reference_correlation(s2(0.0), s2(0.0))  # type: ignore[arg-type]


def test_chsh_examples():
    a, ap, b, bp = OPTIMAL
    for model in all_zoo_models():
        result = chsh(model, a, ap, b, bp)
        assert abs(result.s_value) <= 2.0 + 1e-12
        assert result.within_local_bound
        assert result.to_dict()["local_bound"] == LOCAL_BOUND == 2.0


def counted_rules(model):
    """The model with every generator and outcome rule call counted."""
    calls = Counter()

    def count(part, kind):
        def rule(*args):
            calls[kind] += 1
            return part.rule(*args)
        return replace(part, rule=rule)

    counted = replace(model, gen1=count(model.gen1, "gen"), gen2=count(model.gen2, "gen"),
                      out1=count(model.out1, "out"), out2=count(model.out2, "out"))
    return counted, calls


COMPILE_MODELS = [*all_zoo_models(), *(random_factorized_model(seed) for seed in range(20))]


def test_exact_correlation_is_both_exact_routes_bit_for_bit(tmp_path):
    """Every zoo model, 20 random factorized models and a weighted grid, at
    every test-angle pair: the direct report's and the table route's e_ab."""
    (tmp_path / "weighted_six.ini").write_text(_weighted_descriptor(), encoding="utf-8")
    for model in [*COMPILE_MODELS, load_model(tmp_path / "weighted_six.ini")]:
        for a, b in GRID_PAIRS:
            e = exact_correlation(model, a, b)
            routes = (correlate(model, a, b).e_ab,
                      correlate_via_table(model, tabulate_joint(model, a, b)).e_ab)
            assert [x.hex() for x in routes] == [e.hex()] * 2, (model.name, a, b)


@pytest.mark.parametrize("model", COMPILE_MODELS, ids=lambda model: model.name)
def test_exact_chsh_compiles_each_setting_once(model):
    counted, calls = counted_rules(model)
    result = chsh(counted, *OPTIMAL)
    # Four station compiles, where one compile per setting of each pair made eight.
    slots, states = model.grid.slot_count, len(model.source.states)
    assert calls == {"gen": 4 * slots, "out": 4 * states * slots}
    per_pair = chsh_from_correlations(lambda x, y: correlate(model, x, y).e_ab, *OPTIMAL)
    assert repr(result) == repr(per_pair)
    # A second chsh on the same model object reads its compiled map.
    assert repr(chsh(counted, *OPTIMAL)) == repr(result)
    assert calls == {"gen": 4 * slots, "out": 4 * states * slots}


@pytest.mark.parametrize("model", COMPILE_MODELS, ids=lambda model: model.name)
def test_monte_carlo_chsh_compiles_each_setting_once(model):
    counted, calls = counted_rules(model)
    result = chsh(counted, *OPTIMAL, method="monte_carlo", trials=500, seed=3)
    slots, states = model.grid.slot_count, len(model.source.states)
    assert calls == {"gen": 4 * slots, "out": 4 * states * slots}

    def report(x, y):
        seed = stable_seed("chsh-pair", 3, fmt12(x.angle), fmt12(y.angle))
        return correlate(model, x, y, method="monte_carlo", trials=500, seed=seed)

    a, ap, b, bp = OPTIMAL
    per_pair = chsh_from_reports(report(a, b), report(a, bp), report(ap, b), report(ap, bp))
    assert repr(result) == repr(per_pair)
    again = chsh(counted, *OPTIMAL, method="monte_carlo", trials=500, seed=3)
    assert repr(again) == repr(result)
    assert calls == {"gen": 4 * slots, "out": 4 * states * slots}


@pytest.mark.parametrize("model", COMPILE_MODELS, ids=lambda model: model.name)
def test_check_compiles_each_setting_once(model):
    """The joint table and both stations' conditionals at one pair, as the
    ``check`` command computes them, share one compile per setting."""
    counted, calls = counted_rules(model)
    a, b = s1(0.0), s2(math.pi / 4)
    table = tabulate_joint(counted, a, b)
    conditionals = conditional_table(counted, a), conditional_table(counted, b)
    slots, states = model.grid.slot_count, len(model.source.states)
    assert calls == {"gen": 2 * slots, "out": 2 * states * slots}
    assert table == tabulate_joint(model, a, b)
    assert conditionals == (conditional_table(model, a), conditional_table(model, b))


@pytest.mark.parametrize("model", COMPILE_MODELS, ids=lambda model: model.name)
def test_grid_correlations_and_chsh_compile_each_setting_once(model):
    """The ``simulate --angles`` summary: the 16 grid pairs, then CHSH at the
    optimal angles, which lie on the grid, compile the 8 grid settings once.
    Every rule here is undeclared, so a compile calls it once per cell."""
    assert model.out1.reads == model.out2.reads == frozenset(OUTCOME_ARGS)
    counted, calls = counted_rules(model)
    for x, y in DEFAULT_PAIRS:
        correlate(counted, s1(x), s2(y))
    chsh(counted, *OPTIMAL)
    slots, states = model.grid.slot_count, len(model.source.states)
    assert calls == {"gen": 8 * slots, "out": 8 * states * slots}


def test_deterministic_strategy_reaches_two():
    # A(a)=A(a')=B(b)=+1, B(b')=-1: e(a,b) - e(a,b') + e(a',b) + e(a',b')
    # = 1 + 1 + 1 - 1 = 2.
    assert strategy_s(((1, 1), (1, -1))) == 2
    assert max(map(strategy_s, DETERMINISTIC_STRATEGIES)) == LOCAL_BOUND


def test_enumeration_counts():
    assert len(set(DETERMINISTIC_STRATEGIES)) == 16


@pytest.mark.parametrize("strategy", DETERMINISTIC_STRATEGIES, ids=str)
def test_every_deterministic_strategy_gives_s_of_two(strategy):
    """Each strategy's S, through ChshResult, is +-2 exactly and equals the
    oracle's combination, so no strategy exceeds LOCAL_BOUND."""
    (a0, a1), (b0, b1) = strategy
    outcomes = dict(zip(OPTIMAL, (a0, a1, b0, b1)))
    result = chsh_from_correlations(lambda x, y: float(outcomes[x] * outcomes[y]), *OPTIMAL)
    assert result.s_value == strategy_s(strategy)
    assert abs(result.s_value) == LOCAL_BOUND
    assert result.within_local_bound


def test_chsh_result_stores_only_what_was_measured_and_asked():
    assert [f.name for f in fields(ChshResult)] == [
        "settings", "correlations", "tol", "std_error", "verdict"]


TOL = 1e-3


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("excess, within", [(TOL / 2, True), (2 * TOL, False)])
def test_exact_bound_check_allows_tol(sign, excess, within):
    e = (sign, -sign, sign * excess, 0.0)
    result = ChshResult(OPTIMAL, e, TOL)
    assert result.s_value == pytest.approx(sign * (2.0 + excess), abs=1e-15)
    assert result.within_local_bound is within
    assert result.to_dict()["within_local_bound"] is within


@pytest.mark.parametrize("verdict, within", [
    ("within", True), ("inconclusive", True), ("violation", False)])
def test_sampled_bound_check_reads_the_verdict(verdict, within):
    result = ChshResult(OPTIMAL, (1.0, -1.0, 2 * TOL, 0.0), TOL, 0.01, verdict)
    assert result.within_local_bound is within


def test_chsh_value_beyond_four_raises():
    with pytest.raises(ValueError, match="outside"):
        ChshResult(OPTIMAL, (1.0, -1.0, 1.0, 1.0 + 1e-9), TOL)


def test_sampled_chsh_rejects_an_exact_report():
    model = zoo_model("bell_product_basic")
    a, ap, b, bp = OPTIMAL
    reports = [correlate(model, x, y, method="monte_carlo", trials=100, seed=1)
               for x, y in ((a, b), (a, bp), (ap, b))]
    with pytest.raises(ZeroTrialsError, match=f"a={fmt12(ap.angle)}, b={fmt12(bp.angle)}"):
        chsh_from_reports(*reports, correlate(model, ap, bp))


def test_sampled_chsh_rejects_reports_out_of_quadruple_order():
    """(a,b), (a',b), (a,b'), (a',b') once gave S = -0.016 for a model whose
    exact S is -2, with no error."""
    model = zoo_model("cosine_threshold_lhv")
    a, ap, b, bp = OPTIMAL

    def report(x, y):
        return correlate(model, x, y, method="monte_carlo", trials=1000, seed=1)

    with pytest.raises(HarnessError, match="reports ab and ab_prime must share setting a"):
        chsh_from_reports(report(a, b), report(ap, b), report(a, bp), report(ap, bp))
    with pytest.raises(HarnessError,
                       match="reports ab_prime and a_prime_b_prime must share setting b"):
        chsh_from_reports(report(a, b), report(a, bp), report(ap, b), report(ap, s2(0.3)))
    result = chsh_from_reports(report(a, b), report(a, bp), report(ap, b), report(ap, bp))
    assert result.settings == (a, ap, b, bp)


def test_reference_correlation_values():
    assert reference_correlation(s1(0.7), s2(0.7)) == -1.0
    assert reference_correlation(s1(0.0), s2(math.pi)) == pytest.approx(1.0, abs=1e-12)
    assert reference_correlation(s1(0.0), s2(math.pi / 2)) == pytest.approx(0.0, abs=1e-12)


def test_reference_chsh_at_optimal_grid():
    a, ap, b, bp = (s1(CHSH_OPTIMAL_ANGLES[0]), s1(CHSH_OPTIMAL_ANGLES[1]),
                    s2(CHSH_OPTIMAL_ANGLES[2]), s2(CHSH_OPTIMAL_ANGLES[3]))
    result = chsh_from_correlations(reference_correlation, a, ap, b, bp)
    assert abs(result.s_value) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert result.s_value == pytest.approx(-2 * math.sqrt(2), abs=1e-9)
    assert not result.within_local_bound


def test_negative_control_lambda_sign_vs_time_sign():
    model = zoo_model("constant_plus")
    timed = time_symmetrize(model, balanced_sign_function(model.grid, seed=1))
    assert all(v == 0.0 for v in conditional_table(timed, s1(0.0)).values())
    control = condition_sign_on_source(model, seed=1)
    biases = [abs(v) for v in conditional_table(control, s1(0.0)).values()]
    assert max(biases) >= 0.5
    # Pair correlation untouched on both constructions.
    assert correlate(timed, s1(0.0), s2(0.0)).e_ab == pytest.approx(1.0, abs=1e-12)
    assert correlate(control, s1(0.0), s2(0.0)).e_ab == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_seed_schedule_is_order_independent():
    model = zoo_model("bell_product_basic")
    a, ap, b, bp = OPTIMAL
    result = chsh(model, a, ap, b, bp, method="monte_carlo", trials=2000, seed=9)
    # Recompute the four correlations in reverse order with the same derived
    # seeds; the assembled S must be bit-identical.
    from eprsim.util import fmt12, stable_seed

    pairs = ((a, b), (a, bp), (ap, b), (ap, bp))
    es = {}
    for x, y in reversed(pairs):
        pair_seed = stable_seed("chsh-pair", 9, fmt12(x.angle), fmt12(y.angle))
        es[(x.angle, y.angle)] = correlate(
            model, x, y, method="monte_carlo", trials=2000, seed=pair_seed
        ).e_ab
    s = (
        es[(a.angle, b.angle)]
        - es[(a.angle, bp.angle)]
        + es[(ap.angle, b.angle)]
        + es[(ap.angle, bp.angle)]
    )
    assert s == result.s_value


def test_parallel_tabulation_matches_sequential():
    model = zoo_model("setting_dependent_density")
    sequential = [correlate(model, a, b).e_ab for a, b in GRID_PAIRS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda p: correlate(model, p[0], p[1]).e_ab, GRID_PAIRS))
    assert parallel == sequential


def test_conditional_expectations_lie_in_unit_interval(zoo_name):
    model = zoo_model(zoo_name)
    for a, b in GRID_PAIRS[:4]:
        report = correlate(model, a, b)
        values = [report.e_ab, report.marginal_a, report.marginal_b]
        values += list(report.cond_a.values()) + list(report.cond_b.values())
        assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in values)


EIGHTHS = tuple(k * math.pi / 4 for k in range(8))


def _max_abs_chsh_on_grid(e: np.ndarray) -> float:
    """Largest |S| over every ordered quadruple (a, a', b, b') of ``e[a, b]``.

    Ordered quadruples cover all eight CHSH sign variants (A. Fine, PRL 48,
    291 (1982)).
    """
    s = e[:, None, :, None] - e[:, None, None, :] + e[None, :, :, None] + e[None, :, None, :]
    return float(np.abs(s).max())


def test_every_ordered_grid_quadruple_respects_local_bound():
    models = all_zoo_models() + [random_factorized_model(seed) for seed in range(100)]
    for model in models:
        e = np.array([[correlate(model, s1(x), s2(y)).e_ab for y in EIGHTHS] for x in EIGHTHS])
        assert _max_abs_chsh_on_grid(e) <= 2.0 + 1e-12, model.name
    # The same scan finds the cosine reference's violation.
    reference = np.array([[reference_correlation(s1(x), s2(y)) for y in EIGHTHS] for x in EIGHTHS])
    assert _max_abs_chsh_on_grid(reference) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
