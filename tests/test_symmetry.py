import math
from math import fsum

import pytest

from eprsim import (
    AlreadyDoubledError,
    AlreadySymmetrizedError,
    GridMismatchError,
    InfeasibleMeanError,
    InfeasibleTargetError,
    Station,
    TimeGrid,
    balanced_sign_function,
    check_factorization,
    chsh,
    condition_sign_on_source,
    conditional_table,
    correlate,
    evaluate_outcome,
    exact_marginal,
    layer_double,
    make_sign_function,
    s1,
    s2,
    tabulate_joint,
    target_marginal,
    time_symmetrize,
    zoo_model,
)
from eprsim.model import TEST_ANGLES
from eprsim.symmetry import decode_sign, encode_sign
from eprsim.zoo import all_zoo_models, m_constant_zoo_models, random_factorized_model

from conftest import GRID_PAIRS, OPTIMAL


def test_balanced_sign_on_four_slots():
    sign = make_sign_function(TimeGrid(4), 0.0, seed=3)
    assert sorted(sign.values) == [-1, -1, 1, 1]
    assert sign.mean == 0.0


def test_sign_mean_half():
    sign = make_sign_function(TimeGrid(4), 0.5, seed=0)
    assert sorted(sign.values) == [-1, 1, 1, 1]
    assert sign.mean == 0.5


def test_infeasible_mean_on_odd_grid():
    with pytest.raises(InfeasibleMeanError):
        make_sign_function(TimeGrid(3), 0.0)
    with pytest.raises(InfeasibleMeanError):
        make_sign_function(TimeGrid(4), 0.3)


def test_sign_mean_matches_recomputation():
    grid = TimeGrid(8)
    for k in range(9):
        target = (2 * k - 8) / 8
        sign = make_sign_function(grid, target, seed=k)
        assert sign.mean == target
        assert sign.recomputed_mean(grid) == pytest.approx(sign.mean, abs=1e-12)


def test_sign_encoding_round_trip():
    grid = TimeGrid(6)
    sign = make_sign_function(grid, (2 * 4 - 6) / 6, seed=9)
    assert decode_sign(encode_sign(sign), grid) == sign


def test_symmetrized_conditionals_vanish_for_m_constant_models():
    for model in m_constant_zoo_models():
        transformed = time_symmetrize(model, balanced_sign_function(model.grid, seed=11))
        for angle in TEST_ANGLES:
            for value in conditional_table(transformed, s1(angle)).values():
                assert value == 0.0
            for value in conditional_table(transformed, s2(angle)).values():
                assert value == 0.0


def test_symmetrization_preserves_pair_correlations():
    for model in all_zoo_models():
        for k in range(3):  # different sign functions, not only balanced ones
            sign = make_sign_function(model.grid, (2 * k - 4) / 4 + 1.0, seed=k)
            transformed = time_symmetrize(model, sign)
            for a, b in GRID_PAIRS:
                before = correlate(model, a, b).e_ab
                after = correlate(transformed, a, b).e_ab
                assert abs(before - after) <= 1e-12


def test_symmetrization_preserves_chsh_for_seeded_random_models():
    a, ap, b, bp = OPTIMAL
    for seed in range(100):
        model = random_factorized_model(seed)
        n = model.grid.slot_count
        if n % 2 == 0:
            sign = balanced_sign_function(model.grid, seed=seed)
        else:
            # balanced means are infeasible on odd grids; any sign preserves S
            sign = make_sign_function(model.grid, (2 * (n // 2) - n) / n, seed=seed)
        transformed = time_symmetrize(model, sign)
        s_before = chsh(model, a, ap, b, bp).s_value
        s_after = chsh(transformed, a, ap, b, bp).s_value
        assert abs(s_before - s_after) <= 1e-12


def test_marginal_factorizes_into_base_times_sign_mean():
    # With slot-constant outcomes the transformed one-sided expectation is the
    # product of the base marginal and the sign mean, for every state.
    for model in m_constant_zoo_models():
        for k in (0, 1, 2, 4):
            sign = make_sign_function(model.grid, (2 * k - 4) / 4, seed=k)
            transformed = time_symmetrize(model, sign)
            for angle in TEST_ANGLES:
                base = conditional_table(model, s1(angle))
                after = conditional_table(transformed, s1(angle))
                for lam in model.source.states:
                    assert after[lam] == pytest.approx(base[lam] * sign.mean, abs=1e-12)


def test_double_symmetrization_rejected():
    model = zoo_model("constant_plus")
    transformed = time_symmetrize(model, balanced_sign_function(model.grid))
    with pytest.raises(AlreadySymmetrizedError):
        time_symmetrize(transformed, balanced_sign_function(model.grid))


def test_sign_grid_mismatch_rejected():
    model = zoo_model("constant_plus")
    with pytest.raises(GridMismatchError):
        time_symmetrize(model, balanced_sign_function(TimeGrid(8)))


def test_one_sided_sign_scales_correlation_by_mean():
    model = zoo_model("constant_plus")
    sign = make_sign_function(model.grid, 0.5, seed=2)
    transformed = time_symmetrize(model, sign, station=Station.S1)
    report = correlate(transformed, s1(0.0), s2(0.0))
    assert report.e_ab == pytest.approx(0.5, abs=1e-12)
    assert report.marginal_a == pytest.approx(0.5, abs=1e-12)
    assert report.marginal_b == pytest.approx(1.0, abs=1e-12)


def test_target_marginal_zero_on_constant_model():
    model = zoo_model("constant_plus")
    transformed, target = target_marginal(model, Station.S1, 0.0, seed=5)
    assert target.base_marginal == 1.0
    assert target.achieved == 0.0
    assert correlate(transformed, s1(0.0), s2(0.0)).e_ab == pytest.approx(1.0, abs=1e-12)


def test_target_marginal_identity_case():
    model = zoo_model("constant_plus")
    transformed, target = target_marginal(model, Station.S1, 1.0)
    assert transformed.sign.values == (1, 1, 1, 1)
    assert target.achieved == 1.0


def test_target_marginal_half():
    model = zoo_model("constant_plus")
    transformed, target = target_marginal(model, Station.S1, 0.5, seed=1)
    assert target.achieved == pytest.approx(0.5, abs=1e-12)
    assert target.sign_mean == 0.5


def test_target_marginal_infeasible():
    def beta_half_model():
        from dataclasses import replace

        from eprsim import OutcomeFn

        base = zoo_model("constant_plus")
        out1 = OutcomeFn(Station.S1, lambda s, lam, v, m: 1 if m < 4 else -1)
        return replace(base, out1=out1)

    # base marginal 0.5; 0.75 is out of reach
    with pytest.raises(InfeasibleTargetError):
        target_marginal(beta_half_model(), Station.S1, 0.75)
    with pytest.raises(InfeasibleTargetError):
        target_marginal(zoo_model("constant_plus"), Station.S1, 1.5)


def test_target_marginal_non_representable_mean_errors_unless_rounded():
    model = zoo_model("constant_plus")
    with pytest.raises(InfeasibleTargetError):
        target_marginal(model, Station.S1, 0.3)
    transformed, target = target_marginal(model, Station.S1, 0.3, round_to_representable=True)
    assert target.sign_mean == pytest.approx(0.5)
    assert target.achieved == pytest.approx(0.5)


def test_layer_double_per_pair_sums_cancel():
    for model in all_zoo_models():
        doubled = layer_double(model)
        for angle in TEST_ANGLES:
            for lam in model.source.states:
                for parent in model.grid.slots:
                    left = evaluate_outcome(doubled, Station.S1, s1(angle), lam, 2 * parent - 1)
                    right = evaluate_outcome(doubled, Station.S1, s1(angle), lam, 2 * parent)
                    assert left + right == 0
                    bl = evaluate_outcome(doubled, Station.S2, s2(angle), lam, 2 * parent - 1)
                    br = evaluate_outcome(doubled, Station.S2, s2(angle), lam, 2 * parent)
                    assert bl + br == 0


def test_layer_double_zeroes_all_conditionals_exactly():
    for model in all_zoo_models():
        doubled = layer_double(model)
        for angle in TEST_ANGLES:
            assert all(v == 0.0 for v in conditional_table(doubled, s1(angle)).values())
            assert all(v == 0.0 for v in conditional_table(doubled, s2(angle)).values())


def test_layer_double_preserves_pair_correlations_and_chsh():
    a, ap, b, bp = OPTIMAL
    for model in all_zoo_models():
        doubled = layer_double(model)
        for x, y in GRID_PAIRS:
            assert abs(correlate(model, x, y).e_ab - correlate(doubled, x, y).e_ab) <= 1e-12
        assert abs(chsh(model, a, ap, b, bp).s_value - chsh(doubled, a, ap, b, bp).s_value) <= 1e-12


def test_layer_double_on_single_slot_constant_model():
    from dataclasses import replace

    base = zoo_model("constant_plus")
    model = replace(base, grid=TimeGrid(1), name="constant_n1")
    doubled = layer_double(model)
    outcomes = [
        evaluate_outcome(doubled, Station.S1, s1(0.0), "u0", m) for m in doubled.grid.slots
    ]
    assert outcomes == [1, -1]
    report = correlate(doubled, s1(0.0), s2(0.0))
    assert report.marginal_a == 0.0
    assert report.e_ab == 1.0


def test_layer_double_conserves_mass():
    model = zoo_model("setting_dependent_density")
    doubled = layer_double(model)
    total = fsum(doubled.grid.weight(m) for m in doubled.grid.slots)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert doubled.grid.slot_count == 2 * model.grid.slot_count


def test_layer_double_twice_rejected():
    doubled = layer_double(zoo_model("constant_plus"))
    with pytest.raises(AlreadyDoubledError):
        layer_double(doubled)


def test_unflipping_restores_parent_outcomes():
    # The flip is an involution: dividing it back out recovers the parent value.
    model = zoo_model("cosine_threshold_lhv")
    doubled = layer_double(model)
    for lam in model.source.states:
        for parent in model.grid.slots:
            base = evaluate_outcome(model, Station.S1, s1(0.0), lam, parent)
            for child in (2 * parent - 1, 2 * parent):
                flipped = evaluate_outcome(doubled, Station.S1, s1(0.0), lam, child)
                assert flipped * (-1 if child % 2 == 0 else 1) == base


def test_doubled_hp_factorization_verdicts_match_original():
    model = zoo_model("hp_time_correlated")
    doubled = layer_double(model)
    a, b = s1(0.0), s2(math.pi / 4)
    for mode in ("given_lambda", "given_lambda_and_m"):
        original = check_factorization(tabulate_joint(model, a, b), mode)
        after = check_factorization(tabulate_joint(doubled, a, b), mode)
        assert original.passed == after.passed
        assert abs(original.max_deviation - after.max_deviation) <= 1e-12


def test_layer_double_then_symmetrize_composes():
    model = zoo_model("constant_plus")
    doubled = layer_double(model)
    transformed = time_symmetrize(doubled, balanced_sign_function(doubled.grid, seed=4))
    assert transformed.grid.slot_count == 8
    for x, y in GRID_PAIRS:
        assert abs(correlate(transformed, x, y).e_ab - 1.0) <= 1e-12


def test_source_conditioned_sign_breaks_parameter_independence():
    # Negative control: conditioning the sign on the source state leaves the
    # pair correlation intact but the conditionals become +-1, not 0.
    model = zoo_model("constant_plus")
    control = condition_sign_on_source(model, seed=0)
    conds = conditional_table(control, s1(0.0))
    assert all(abs(v) == 1.0 for v in conds.values())
    assert correlate(control, s1(0.0), s2(0.0)).e_ab == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AlreadySymmetrizedError):
        condition_sign_on_source(control)


def test_transform_provenance_is_recorded():
    model = zoo_model("constant_plus")
    transformed = layer_double(time_symmetrize(model, balanced_sign_function(model.grid, seed=7)))
    assert len(transformed.transforms) == 2
    assert transformed.transforms[0].startswith("sign values=")
    assert transformed.transforms[1] == "double"


def test_exact_marginal_matches_correlate():
    for model in all_zoo_models():
        for angle in TEST_ANGLES:
            direct = exact_marginal(model, Station.S1, angle)
            via_report = correlate(model, s1(angle), s2(0.0)).marginal_a
            assert direct == via_report
