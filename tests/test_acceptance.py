"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""
import json
import math
import time
from math import fsum

import pytest

from eprsim import (
    LOCAL_BOUND,
    Schedule,
    Station,
    balanced_sign_function,
    check_factorization,
    chsh,
    chsh_from_correlations,
    condition_sign_on_source,
    conditional_table,
    correlate,
    correlate_via_table,
    evaluate_outcome,
    layer_double,
    locality_audit,
    reference_correlation,
    s1,
    s2,
    tabulate_joint,
    time_symmetrize,
    zoo_model,
)
from eprsim.cli import main as cli_main
from eprsim.model import TEST_ANGLES
from eprsim.util import fmt12
from eprsim.zoo import ZOO, all_zoo_models, m_constant_zoo_models, random_factorized_model

from conftest import DETERMINISTIC_STRATEGIES, GRID_PAIRS, OPTIMAL, strategy_s
from shared_fixtures import remote_reading_model


def test_criterion_1_factorized_models_respect_local_bound():
    a, ap, b, bp = OPTIMAL
    started = time.monotonic()
    checked = 0
    for name, entry in ZOO.items():
        if not entry.factorized:
            continue
        result = chsh(entry.build(), a, ap, b, bp)
        assert abs(result.s_value) <= 2.0 + 1e-9, name
        checked += 1
    worst = 0.0
    for seed in range(1000):
        model = random_factorized_model(seed)
        assert len(model.source.states) <= 8
        assert model.grid.slot_count <= 8
        assert len(model.gen1.value_space) <= 16 and len(model.gen2.value_space) <= 16
        result = chsh(model, a, ap, b, bp)
        worst = max(worst, abs(result.s_value))
        assert abs(result.s_value) <= 2.0 + 1e-9, seed
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: |S| <= 2 + 1e-9 for {checked} factorized models "
        f"(worst |S| = {worst:.6f}, {elapsed:.1f}s)"
    )


def test_criterion_2_time_symmetrization_zeroes_conditionals():
    models = m_constant_zoo_models()
    assert models, "zoo must contain slot-constant models"
    for model in models:
        sign = balanced_sign_function(model.grid, seed=23)
        transformed = time_symmetrize(model, sign)
        for angle in TEST_ANGLES:
            for side, setting in (("A", s1(angle)), ("B", s2(angle))):
                for lam, value in conditional_table(transformed, setting).items():
                    assert abs(value) <= 1e-12, (model.name, side, lam)
        for a, b in GRID_PAIRS:
            drift = abs(correlate(model, a, b).e_ab - correlate(transformed, a, b).e_ab)
            assert drift <= 1e-12, model.name
    print(
        f"ACCEPTANCE 2 PASS: balanced time sign zeroes all conditionals and "
        f"preserves all pair correlations on {len(models)} slot-constant zoo models"
    )


def test_criterion_3_layer_doubling():
    for model in all_zoo_models():
        doubled = layer_double(model)
        for angle in TEST_ANGLES:
            for lam in model.source.states:
                for parent in model.grid.slots:
                    pair = (2 * parent - 1, 2 * parent)
                    suma = sum(
                        evaluate_outcome(doubled, Station.S1, s1(angle), lam, m) for m in pair
                    )
                    sumb = sum(
                        evaluate_outcome(doubled, Station.S2, s2(angle), lam, m) for m in pair
                    )
                    assert suma == 0 and sumb == 0, model.name
            assert all(v == 0.0 for v in conditional_table(doubled, s1(angle)).values())
            assert all(v == 0.0 for v in conditional_table(doubled, s2(angle)).values())
        for a, b in GRID_PAIRS:
            drift = abs(correlate(model, a, b).e_ab - correlate(doubled, a, b).e_ab)
            assert drift <= 1e-12, model.name
    print(
        f"ACCEPTANCE 3 PASS: layer doubling cancels per-pair outcomes, zeroes "
        f"conditionals and preserves correlations on all {len(ZOO)} zoo models"
    )


def test_criterion_4_source_conditioned_sign_negative_control(tmp_path, capsys):
    witnessed = 0.0
    witness_model = None
    for model in m_constant_zoo_models():
        control = condition_sign_on_source(model, seed=3)
        for angle in TEST_ANGLES:
            for value in conditional_table(control, s1(angle)).values():
                if abs(value) > witnessed:
                    witnessed = abs(value)
                    witness_model = model.name
    assert witnessed >= 0.5
    # The clock-indexed construction on the same models yields all zeros.
    for model in m_constant_zoo_models():
        timed = time_symmetrize(model, balanced_sign_function(model.grid, seed=3))
        for angle in TEST_ANGLES:
            assert all(abs(v) <= 1e-12 for v in conditional_table(timed, s1(angle)).values())
    # The harness reports the bias through the check command.
    descriptor = tmp_path / "control.ini"
    descriptor.write_text(
        "[model]\nzoo = constant_plus\n\n[transform]\nop.1 = lambda-sign seed=3\n"
    )
    assert cli_main(["check", "--model", str(descriptor), "--deterministic",
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "check.json").read_text())
    assert payload["max_conditional_bias"] >= 0.5
    print(
        f"ACCEPTANCE 4 PASS: sign conditioned on the source state leaves "
        f"|E[A|state]| = {witnessed} on {witness_model} (>= 0.5) and the check "
        f"report carries it; the clock-indexed sign zeroes every conditional"
    )


# At A = s1(0), B = s2(π/4): each slot-constant zoo model's e_ab, then E[A|state]
# of the model itself and under the source-conditioned sign (seed 1). A balanced
# time sign and layer doubling zero every E[A|state]; e_ab never moves.
TRANSFORM_TABLE = {
    "constant_plus": (1.0, {"u0": 1.0, "u1": 1.0}, {"u0": 1.0, "u1": -1.0}),
    "anticorrelated_signs": (-1.0, {"u0": 1.0, "u1": -1.0}, {"u0": 1.0, "u1": 1.0}),
    "cosine_threshold_lhv": (
        -0.5,
        dict(zip([f"h{i}" for i in range(8)], (1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0))),
        {f"h{i}": (-1.0) ** i for i in range(8)},
    ),
}


@pytest.mark.parametrize("model", m_constant_zoo_models(), ids=lambda model: model.name)
def test_criterion_4_conditionals_before_and_after_each_transform(model):
    e_ab, base, state_sign = TRANSFORM_TABLE[model.name]
    zeros = dict.fromkeys(base, 0.0)
    a, b = s1(0.0), s2(math.pi / 4)
    rows = {
        "base": (model, base),
        "time sign": (time_symmetrize(model, balanced_sign_function(model.grid, 1)), zeros),
        "layer doubled": (layer_double(model), zeros),
        "state sign": (condition_sign_on_source(model, 1), state_sign),
    }
    for tag, (transformed, conditionals) in rows.items():
        assert correlate(transformed, a, b).e_ab == e_ab, tag
        assert conditional_table(transformed, a) == conditionals, tag
    print(
        f"ACCEPTANCE 4 PASS: {model.name} keeps e_ab = {e_ab} under the time sign, layer "
        f"doubling and the state sign; only the state sign leaves E[A|state] nonzero"
    )


def test_criterion_5_factorization_mode_ambiguity_surfaced():
    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, s1(0.0), s2(math.pi / 4))
    # Both stations read the slot's index: one diagonal cell per slot.
    assert model.grid.slot_count == 4
    assert dict(table.entries) == {(k, k, "u0", k + 1): 0.25 for k in range(4)}

    pooled = check_factorization(table, "given_lambda", tol=1e-9)
    assert not pooled.passed

    # Frozen from the hand-enumeration oracle over the 4-slot diagonal table
    # (see test_density): the marginal product is 1/16 on every value pair;
    # the witness cell (f(1), f(2)) holds joint mass 0, so it deviates by
    # exactly 1/16 = 0.0625; the diagonal cells hold 1/4 and deviate by
    # 3/16 = 0.1875, which is the true maximum cell deviation.
    joint_01 = fsum(p for (x, y, _, _), p in table.entries.items() if (x, y) == (0, 1))
    p1_0 = fsum(p for (x, _, _, _), p in table.entries.items() if x == 0)
    p2_1 = fsum(p for (_, y, _, _), p in table.entries.items() if y == 1)
    witness = abs(joint_01 - p1_0 * p2_1)
    assert witness == pytest.approx(0.0625, abs=1e-12)
    assert pooled.max_deviation == pytest.approx(0.1875, abs=1e-12)
    assert pooled.max_deviation >= witness
    # Total variation: half the L1 distance of the joint from the marginal
    # product, (4 * 3/16 + 12 * 1/16) / 2 = 3/4.
    assert pooled.max_total_variation == 0.75

    per_slot = check_factorization(table, "given_lambda_and_m", tol=1e-9)
    assert per_slot.passed
    assert per_slot.max_deviation == per_slot.max_total_variation == 0.0
    print(
        "ACCEPTANCE 5 PASS: hp_time_correlated fails given_lambda (witness cell "
        "deviation 0.0625 exactly; max cell deviation 0.1875 exactly; total "
        "variation 0.75) and passes given_lambda_and_m at tol 1e-9 with no deviation"
    )


def test_criterion_6_oracle_equivalence_and_monte_carlo():
    for model in all_zoo_models():
        for a, b in GRID_PAIRS:
            direct = correlate(model, a, b)
            table = correlate_via_table(model, tabulate_joint(model, a, b))
            assert direct.e_ab == table.e_ab, model.name
            assert direct.marginal_a == table.marginal_a, model.name
            assert direct.marginal_b == table.marginal_b, model.name
    model = zoo_model("cosine_threshold_lhv")
    a, b = s1(0.0), s2(math.pi / 4)
    exact = correlate(model, a, b).e_ab
    hits = 0
    for seed in range(100):
        mc = correlate(model, a, b, method="monte_carlo", trials=100000, seed=seed)
        if abs(mc.e_ab - exact) <= 5 * mc.std_error:
            hits += 1
    assert hits >= 99
    print(
        f"ACCEPTANCE 6 PASS: direct and table routes agree (<= 1e-12) on every "
        f"zoo model and pair; Monte Carlo within 5 SE of exact in {hits}/100 runs"
    )


def test_criterion_7_locality_audit():
    schedule = Schedule(trials=200, policy="cycle")
    audited = 0
    for model in all_zoo_models():
        assert locality_audit(model, schedule, 2).passed, model.name
        audited += 1
        if model.grid.slot_count % 2 == 0:
            transformed = layer_double(
                time_symmetrize(model, balanced_sign_function(model.grid, seed=1))
            )
            assert locality_audit(transformed, schedule, 2).passed, model.name
            audited += 1
    corrupted = locality_audit(
        remote_reading_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=2
    )
    assert corrupted.mismatches >= 1
    print(
        f"ACCEPTANCE 7 PASS: 0 mismatches on {audited} honest models (base and "
        f"transformed); corrupted fixture caught with {corrupted.mismatches} "
        f"mismatched (pair, station, alternative, state, slot) cells"
    )


def test_criterion_8_reference_gap_report(tmp_path, capsys):
    assert len(set(DETERMINISTIC_STRATEGIES)) == 16
    assert {abs(strategy_s(strategy)) for strategy in DETERMINISTIC_STRATEGIES} == {2}
    assert max(map(strategy_s, DETERMINISTIC_STRATEGIES)) == LOCAL_BOUND == 2.0
    a, ap, b, bp = OPTIMAL
    reference = chsh_from_correlations(reference_correlation, a, ap, b, bp)
    assert abs(abs(reference.s_value) - 2 * math.sqrt(2)) <= 1e-9
    code = cli_main(["chsh", "--model", "bell_product_basic", "--deterministic",
                     "--out", str(tmp_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gap to reference = " in stdout
    payload = json.loads((tmp_path / "chsh.json").read_text())
    expected_gap = abs(reference.s_value) - abs(payload["chsh"]["s_value"])
    assert payload["gap_to_reference"] == pytest.approx(expected_gap, abs=1e-12)
    assert payload["deterministic_bound"] == payload["chsh"]["local_bound"] == LOCAL_BOUND
    print(
        f"ACCEPTANCE 8 PASS: LOCAL_BOUND = 2 = max |S| over the 16 deterministic strategies; "
        f"reference |S| = {abs(reference.s_value):.9f} = 2*sqrt(2) within 1e-9; "
        f"gap printed and recorded"
    )


# Exact S of each zoo model at the optimal angles (a, a', b, b') = (0, π/2,
# π/4, 3π/4), and its gap |S_ref| - |S| to the singlet reference S_ref = -2√2.
ZOO_CHSH = {
    "bell_product_basic": (0.0, 2.82842712474619),
    "hp_time_correlated": (-2.0, 0.8284271247461898),
    "setting_dependent_density": (0.3999999999999999, 2.42842712474619),
    "constant_plus": (2.0, 0.8284271247461898),
    "anticorrelated_signs": (-2.0, 0.8284271247461898),
    "cosine_threshold_lhv": (-2.0, 0.8284271247461898),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_criterion_8_exact_s_and_reference_gap_of_each_zoo_model(tmp_path, capsys, name):
    s_value, gap = ZOO_CHSH[name]
    reference = chsh_from_correlations(reference_correlation, *OPTIMAL)
    assert reference.s_value == pytest.approx(-2 * math.sqrt(2), abs=1e-15)
    assert chsh(zoo_model(name), *OPTIMAL).s_value == s_value
    assert abs(reference.s_value) - abs(s_value) == gap
    assert cli_main(["chsh", "--model", name, "--deterministic", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert f"S = {fmt12(s_value)}\n" in stdout and f"gap to reference = {fmt12(gap)}\n" in stdout
    payload = json.loads((tmp_path / "chsh.json").read_text())
    assert (payload["chsh"]["s_value"], payload["gap_to_reference"]) == (s_value, gap)
    print(f"ACCEPTANCE 8 PASS: {name} has exact S = {s_value!r}, gap to reference {gap!r}")


def test_criterion_9_deterministic_runs_are_byte_identical(tmp_path, capsys):
    def bytes_of(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}

    commands = {
        "simulate": ["simulate", "--model", "hp_time_correlated", "--trials", "500",
                     "--policy", "cycle", "--seed", "7", "--deterministic",
                     "--angles", "0,1.5707963267948966,0.7853981633974483,2.356194490192345"],
        "check": ["check", "--model", "hp_time_correlated", "--deterministic"],
        "chsh": ["chsh", "--model", "cosine_threshold_lhv", "--method", "monte_carlo",
                 "--trials", "20000", "--seed", "11", "--deterministic"],
        "audit": ["audit", "--model", "bell_product_basic", "--trials", "200",
                  "--deterministic"],
    }
    for name, argv in commands.items():
        first = tmp_path / name / "one"
        second = tmp_path / name / "two"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert bytes_of(first) == bytes_of(second), name
    capsys.readouterr()
    print(
        "ACCEPTANCE 9 PASS: simulate, check, chsh and audit outputs are "
        "byte-identical across repeated --deterministic runs"
    )
