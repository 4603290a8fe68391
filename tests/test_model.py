import math
import re
import zlib
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from eprsim import (
    CodomainViolationError,
    ConfigurationError,
    GridMismatchError,
    HarnessError,
    InstrumentParamGen,
    InvalidWeightsError,
    LocalModel,
    OutcomeFn,
    Setting,
    SourceSpace,
    Station,
    StationMismatchError,
    TimeGrid,
    UnknownZooEntryError,
    balanced_sign_function,
    composite_is_m_constant,
    condition_sign_on_source,
    evaluate_outcome,
    layer_double,
    make_model,
    s1,
    s2,
    time_symmetrize,
    zoo_model,
)
from eprsim.density import tabulate_joint
from eprsim.model import (
    OUTCOME_ARGS,
    WEIGHT_TOL,
    SignFunction,
    TEST_ANGLES,
    station_outcomes,
    station_values,
)
from eprsim.zoo import ZOO, all_zoo_models


def test_setting_angle_is_normalized():
    assert s1(2 * math.pi).angle == 0.0
    assert s1(-math.pi / 2).angle == pytest.approx(3 * math.pi / 2)
    assert s2(7.0).angle == pytest.approx(7.0 - 2 * math.pi)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_setting_angle_is_a_configuration_error(angle):
    with pytest.raises(ConfigurationError, match=f"setting angle {angle!r} is not finite"):
        s1(angle)


def test_tiny_negative_angle_normalizes_to_zero():
    # -1e-17 % 2pi rounds to 2pi itself, which lies outside [0, 2pi).
    assert s1(-1e-17).angle == 0.0
    assert s2(-0.0).angle == 0.0


def test_source_space_rejects_bad_priors():
    with pytest.raises(InvalidWeightsError):
        SourceSpace(("a", "b"), (0.6, 0.6))
    with pytest.raises(InvalidWeightsError):
        SourceSpace(("a",), (-1.0,))
    with pytest.raises(InvalidWeightsError):
        SourceSpace((), ())
    with pytest.raises(InvalidWeightsError):
        SourceSpace(("a", "a"), (0.5, 0.5))
    with pytest.raises(InvalidWeightsError, match="differ in length"):
        SourceSpace(("a", "b"), (1.0,))


def test_source_space_rejects_nan_prior():
    with pytest.raises(InvalidWeightsError):
        SourceSpace(("a", "b"), (math.nan, 1.0))


def test_time_grid_rejects_nan_weights():
    with pytest.raises(InvalidWeightsError):
        TimeGrid(2, (math.nan, 1.0))


@pytest.mark.parametrize("build", [lambda w: SourceSpace(("a", "b"), w), lambda w: TimeGrid(2, w)],
                         ids=["prior", "grid"])
def test_weights_whose_sum_overflows_are_rejected(build):
    with pytest.raises(InvalidWeightsError, match="weights sum to inf, not 1"):
        build((1e308, 1e308))


def test_time_grid_validation():
    with pytest.raises(InvalidWeightsError):
        TimeGrid(0)
    with pytest.raises(InvalidWeightsError):
        TimeGrid(2, (0.9, 0.2))
    with pytest.raises(InvalidWeightsError, match="weights length != slot_count"):
        TimeGrid(2, (1.0,))
    grid = TimeGrid(4)
    assert grid.is_uniform
    assert list(grid.slots) == [1, 2, 3, 4]
    assert grid.weight(3) == 0.25


def test_make_model_builds_every_zoo_entry():
    for name in ZOO:
        model = make_model(name)
        assert model.name == name
        assert model.grid.slot_count >= 1


def test_make_model_unknown_entry_names_it():
    with pytest.raises(UnknownZooEntryError, match="no_such_model"):
        make_model("no_such_model")


def test_constant_model_evaluates_to_plus_one():
    model = zoo_model("constant_plus")
    for m in model.grid.slots:
        for lam in model.source.states:
            assert evaluate_outcome(model, Station.S1, s1(0.3), lam, m) == 1
            assert evaluate_outcome(model, Station.S2, s2(1.1), lam, m) == 1


def test_sign_function_multiplies_outcomes_per_slot():
    model = zoo_model("constant_plus")
    alternating = SignFunction((1, -1, 1, -1), 0.0)
    signed = time_symmetrize(model, alternating)
    outcomes = [evaluate_outcome(signed, Station.S1, s1(0.0), "u0", m) for m in signed.grid.slots]
    assert outcomes == [1, -1, 1, -1]


def test_station_mismatch_is_rejected():
    model = zoo_model("constant_plus")
    with pytest.raises(StationMismatchError):
        evaluate_outcome(model, Station.S1, s2(0.0), "u0", 1)
    with pytest.raises(StationMismatchError):
        model.gen2.evaluate(s1(0.0), 1)


def test_wrong_station_typing_rejected_at_construction():
    model = zoo_model("constant_plus")
    with pytest.raises(StationMismatchError):
        LocalModel(
            name="bad",
            source=model.source,
            grid=model.grid,
            gen1=model.gen2,
            gen2=model.gen2,
            out1=model.out1,
            out2=model.out2,
        )


def _constant_plus(**changes):
    return replace(zoo_model("constant_plus"), **changes)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Setting(0.0, "S1"), StationMismatchError, "setting station must be a Station"),
    (lambda: SignFunction((1, 0), 0.0), CodomainViolationError, "must be -1 or +1"),
    (lambda: SignFunction((1, 1), 1.0).recomputed_mean(TimeGrid(3)), GridMismatchError,
     "does not match the grid"),
    (lambda: InstrumentParamGen(Station.S1, (), lambda s, m, seed: 0), InvalidWeightsError,
     "empty value space"),
    (lambda: _constant_plus(gen2=zoo_model("constant_plus").gen1), StationMismatchError,
     "gen2/out2 must be S2-typed"),
    (lambda: _constant_plus(lambda_sign={}), HarnessError, "lambda_sign misses states"),
    (lambda: _constant_plus(lambda_sign=dict.fromkeys(("u0", "u1"), 2)),
     CodomainViolationError, "lambda_sign values must be"),
], ids=["setting_station", "sign_values", "sign_grid",
        "value_space", "gen2_station", "lambda_sign_states", "lambda_sign_values"])
def test_constructors_refuse_what_they_cannot_hold(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_outcome_codomain_is_enforced():
    model = zoo_model("constant_plus")
    bad = LocalModel(
        name="bad_codomain",
        source=model.source,
        grid=model.grid,
        gen1=model.gen1,
        gen2=model.gen2,
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 0),
        out2=model.out2,
    )
    with pytest.raises(CodomainViolationError):
        evaluate_outcome(bad, Station.S1, s1(0.0), "u0", 1)


def test_generator_value_space_is_enforced():
    gen = InstrumentParamGen(Station.S1, (0, 1), lambda s, m, seed: 7)
    with pytest.raises(CodomainViolationError):
        gen.evaluate(s1(0.0), 1)


def test_evaluation_is_deterministic_across_zoo():
    for model in all_zoo_models():
        for angle in TEST_ANGLES:
            for lam in model.source.states:
                for m in model.grid.slots:
                    first = evaluate_outcome(model, Station.S1, s1(angle), lam, m)
                    again = evaluate_outcome(model, Station.S1, s1(angle), lam, m)
                    assert first == again


def test_s1_outputs_unchanged_while_s2_is_exercised():
    # Locality by signature: interleaving S2 evaluations at every grid angle
    # must leave S1's outputs bitwise identical (no hidden shared state).
    for model in all_zoo_models():
        lam = model.source.states[0]
        baseline = [
            evaluate_outcome(model, Station.S1, s1(a), lam, m)
            for a in TEST_ANGLES
            for m in model.grid.slots
        ]
        for b in TEST_ANGLES:
            for m in model.grid.slots:
                evaluate_outcome(model, Station.S2, s2(b), lam, m)
            probe = [
                evaluate_outcome(model, Station.S1, s1(a), lam, m)
                for a in TEST_ANGLES
                for m in model.grid.slots
            ]
            assert probe == baseline


def test_m_constant_flags_match_probe():
    for name, entry in ZOO.items():
        assert composite_is_m_constant(entry.build()) == entry.m_constant, name


def test_doubled_model_needs_an_even_slot_count():
    model = zoo_model("constant_plus")
    with pytest.raises(HarnessError, match="even slot count"):
        replace(model, grid=TimeGrid(3), doubled=True)


def test_signs_are_the_product_of_the_installed_modifiers():
    base = zoo_model("bell_product_basic")
    assert base.signs == {Station.S1: None, Station.S2: None}
    one_sided = time_symmetrize(base, SignFunction((1, -1, -1, 1), 0.0), Station.S1)
    assert one_sided.signs[Station.S2] is None
    model = condition_sign_on_source(layer_double(one_sided), seed=3)
    states, slots = model.source.states, model.grid.slots
    for station, timed in ((Station.S1, True), (Station.S2, False)):
        expected = [[(model.sign.values[m - 1] if timed else 1) * (-1) ** (m % 2 == 0)
                     * model.lambda_sign[lam] for m in slots] for lam in states]
        signs = model.signs[station]
        assert signs.dtype == np.int8 and signs.tolist() == expected
        assert not signs.flags.writeable


def test_signs_are_built_on_the_first_compile():
    base = zoo_model("bell_product_basic")
    model = layer_double(time_symmetrize(base, SignFunction((1, -1, -1, 1), 0.0)))
    assert "signs" not in vars(model)
    station_outcomes(model, s1(0.0), station_values(model, s1(0.0)))
    assert vars(model)["signs"] is model.signs
    assert model.signs[Station.S1].tolist() == [[1, -1, -1, 1, -1, 1, 1, -1]] * 2


def test_compiled_outcomes_are_read_only():
    model = zoo_model("bell_product_basic")
    values, outcomes = model.compiled(s1(0.0))
    assert model.compiled(s1(2 * math.pi)) == (values, outcomes)
    with pytest.raises(ValueError, match="read-only"):
        outcomes[0, 0] = -outcomes[0, 0]


DERIVED = {
    "time_symmetrize": lambda model: time_symmetrize(
        model, balanced_sign_function(model.grid, seed=1)),
    "layer_double": layer_double,
    "condition_sign_on_source": lambda model: condition_sign_on_source(model, seed=1),
    "replace_out1": lambda model: replace(
        model, out1=OutcomeFn(Station.S1, lambda s, lam, v, m: -1)),
}


@pytest.mark.parametrize("derive", DERIVED.values(), ids=DERIVED)
def test_derived_models_compile_their_own_arrays(derive):
    """A model made from a compiled one starts with an empty map: each of its
    entries equals a fresh compile of the derived model."""
    parent = zoo_model("anticorrelated_signs")
    settings = [s1(angle) for angle in TEST_ANGLES] + [s2(angle) for angle in TEST_ANGLES]
    before = {setting: parent.compiled(setting)[1].tolist() for setting in settings}
    model = derive(parent)
    for setting in settings:
        values, outcomes = model.compiled(setting)
        fresh = station_values(model, setting)
        assert values == tuple(fresh)
        assert outcomes.tolist() == station_outcomes(model, setting, fresh).tolist()
    assert any(model.compiled(s)[1].tolist() != before[s] for s in settings)
    assert {s: parent.compiled(s)[1].tolist() for s in settings} == before


def test_unknown_state_and_slot_rejected():
    model = zoo_model("constant_plus")
    with pytest.raises(Exception):
        evaluate_outcome(model, Station.S1, s1(0.0), "nope", 1)
    with pytest.raises(Exception):
        evaluate_outcome(model, Station.S1, s1(0.0), "u0", 99)


def last_cell_model(last):
    """bell_product_basic with S1's outcome replaced by ``last`` at the last
    (state, slot) cell only."""
    base = zoo_model("bell_product_basic")
    lam_n, m_n = base.source.states[-1], base.grid.slot_count

    def rule(s, lam, v, m):
        return last if (lam, m) == (lam_n, m_n) else base.out1.rule(s, lam, v, m)

    return replace(base, out1=OutcomeFn(Station.S1, rule), name="last_cell")


@pytest.mark.parametrize("last", [0, 2, 0.5, None, "1", [1]], ids=repr)
def test_compiled_codomain_check_names_the_bad_last_cell(last):
    model = last_cell_model(last)
    setting = s1(0.0)
    with pytest.raises(CodomainViolationError) as one_cell:
        evaluate_outcome(model, Station.S1, setting, model.source.states[-1],
                         model.grid.slot_count)
    with pytest.raises(CodomainViolationError) as compiled:
        station_outcomes(model, setting, station_values(model, setting))
    assert str(compiled.value) == str(one_cell.value)
    assert repr(last) in str(compiled.value)


def test_compiled_outcomes_accept_values_equal_to_plus_minus_one():
    base = zoo_model("cosine_threshold_lhv")
    spelled = {1: (True, 1.0, np.int64(1)), -1: (np.int8(-1), -1.0, np.int64(-1))}

    def rule(s, lam, v, m):
        o = base.out1.rule(s, lam, v, m)
        return spelled[o][m % 3]

    model = replace(base, out1=OutcomeFn(Station.S1, rule))
    for angle in TEST_ANGLES:
        setting = s1(angle)
        found = station_outcomes(model, setting, station_values(model, setting))
        expected = station_outcomes(base, setting, station_values(base, setting))
        assert found.dtype == np.int8
        assert found.tolist() == expected.tolist()


def test_outcome_reads_default_to_every_argument_and_reject_others():
    rule = zoo_model("bell_product_basic").out1.rule
    assert OutcomeFn(Station.S1, rule).reads == frozenset(OUTCOME_ARGS)
    assert OutcomeFn(Station.S1, rule, reads=["state"]).reads == frozenset({"state"})
    with pytest.raises(HarnessError, match=r"S1 outcome rule reads unknown arguments \['angle'\]"):
        OutcomeFn(Station.S1, rule, reads={"setting", "angle"})


SLOT_VALUE_ROW = [("u0", 0, 1), ("u0", 1, 2), ("u0", 0, 3), ("u0", 1, 4)]


@pytest.mark.parametrize("reads, cells, expected", [
    ((), [("u0", 0, 1)], [[1, 1, 1, 1], [1, 1, 1, 1]]),
    ({"state"}, [("u0", 0, 1), ("u1", 0, 1)], [[1, 1, 1, 1], [-1, -1, -1, -1]]),
    ({"value"}, SLOT_VALUE_ROW, [[1, -1, -1, -1], [1, -1, -1, -1]]),
    ({"setting", "slot"}, SLOT_VALUE_ROW, [[1, -1, -1, -1], [1, -1, -1, -1]]),
    (OUTCOME_ARGS, [(lam, v, m) for lam in ("u0", "u1") for _, v, m in SLOT_VALUE_ROW],
     [[1, -1, -1, -1], [-1, 1, -1, -1]]),
], ids=["none", "state", "value", "slot", "all"])
def test_compile_calls_the_rule_at_real_grid_points_of_unread_axes(reads, cells, expected):
    """An unread axis gets the first state, or slot 1 and its value; the
    result is broadcast along it."""
    base = zoo_model("bell_product_basic")
    calls = []

    def rule(s, lam, v, m):
        calls.append((lam, v, m))
        return 1 if (lam, m) in (("u0", 1), ("u1", 2)) else -1

    model = replace(base, out1=OutcomeFn(Station.S1, rule, reads))
    setting = s1(0.3)
    found = station_outcomes(model, setting, station_values(model, setting))
    assert calls == cells
    assert found.dtype == np.int8 and found.flags.writeable
    assert found.tolist() == expected


@pytest.mark.parametrize("bad", [7, [1]], ids=["hashable", "unhashable"])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_compiled_value_check_names_the_first_value_outside_the_space(k, bad):
    """The compile checks each distinct value once, yet raises what
    ``gen.evaluate`` raises at the first slot whose value is outside the space."""
    def rule(s, m, seed):
        return 0 if m < k else bad if m == k else "later"

    gen = InstrumentParamGen(Station.S1, (0, 1), rule)
    model = replace(zoo_model("bell_product_basic"), gen1=gen)
    with pytest.raises(CodomainViolationError) as one_slot:
        gen.evaluate(s1(0.0), k)
    for compile_ in (lambda: station_values(model, s1(0.0)), lambda: model.compiled(s1(0.0))):
        with pytest.raises(CodomainViolationError) as compiled:
            compile_()
        assert str(compiled.value) == str(one_slot.value)
        assert repr(bad) in str(compiled.value)


def rule_reading(reads):
    """An outcome rule that depends on exactly the arguments in ``reads``."""
    def rule(s, lam, v, m):
        args = dict(zip(OUTCOME_ARGS, (s.angle, lam, v, m)))
        key = repr([args[name] for name in OUTCOME_ARGS if name in reads])
        return 1 if zlib.crc32(key.encode()) % 2 else -1

    return rule


READ_SUBSETS = [frozenset(c) for n in range(len(OUTCOME_ARGS) + 1)
                for c in combinations(OUTCOME_ARGS, n)]


@pytest.mark.parametrize("reads", READ_SUBSETS, ids=lambda r: "+".join(sorted(r)) or "none")
def test_every_reads_subset_compiles_to_the_all_reads_array(reads):
    """An axis a rule does not read is repeated, and the array equals the one
    compiled with every argument read, stays writeable, and is kept read-only
    by the memo; with and without installed modifiers."""
    base = zoo_model("bell_product_basic")
    signed = layer_double(time_symmetrize(base, SignFunction((1, -1, -1, 1), 0.0)))
    for model in (base, signed):
        declared = replace(model, out1=OutcomeFn(Station.S1, rule_reading(reads), reads))
        every = replace(model, out1=OutcomeFn(Station.S1, rule_reading(reads)))
        for angle in TEST_ANGLES:
            setting = s1(angle)
            values = station_values(declared, setting)
            found = station_outcomes(declared, setting, values)
            expected = station_outcomes(every, setting, station_values(every, setting))
            assert found.dtype == np.int8 and found.flags.writeable
            assert found.tolist() == expected.tolist()
            kept = declared.compiled(setting)[1]
            assert not kept.flags.writeable and kept.tolist() == expected.tolist()


@pytest.mark.parametrize("share", [0.9, 0.4])
def test_a_model_refuses_cell_masses_the_joint_table_refuses(share):
    """Each factor sums to 1 within WEIGHT_TOL, but their errors add in the
    cell masses: at 0.9 x WEIGHT_TOL per factor the model itself is refused,
    with the joint table's message; at 0.4 x it builds and tabulates."""
    near = 0.5 - share * WEIGHT_TOL
    base = zoo_model("bell_product_basic")
    build = lambda: replace(base, source=SourceSpace(("u0", "u1"), (near, 0.5)),
                            grid=TimeGrid(4, (near, 0.5, 0.0, 0.0)))
    if share > 0.5:
        with pytest.raises(InvalidWeightsError,
                           match=r"^bell_product_basic: cell masses: weights sum to .*, not 1$"):
            build()
    else:
        model = build()
        assert abs(tabulate_joint(model, s1(0.0), s2(0.0)).mass() - 1.0) <= WEIGHT_TOL
