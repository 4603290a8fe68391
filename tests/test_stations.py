import math

import pytest

from eprsim import (
    InstrumentParamGen,
    InvalidScheduleError,
    LocalModel,
    OutcomeFn,
    Schedule,
    SourceSpace,
    Station,
    TimeGrid,
    balanced_sign_function,
    correlate,
    layer_double,
    locality_audit,
    read_trials_csv,
    run_experiment,
    time_symmetrize,
    write_trials_csv,
    zoo_model,
)
from eprsim.stations import TRIALS_CSV_HEADER, empirical_correlations
from eprsim.zoo import all_zoo_models


def remote_reading_model() -> LocalModel:
    """Test-only fixture that violates Einstein locality on purpose.

    The S2 generator publishes its setting through a shared cell; the S1
    outcome rule reads it. The audit must detect this.
    """
    cell = {}

    def gen2_rule(s, m, seed):
        cell["b"] = s.angle
        return 0

    def out1_rule(s, lam, v, m):
        return 1 if cell.get("b", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="remote_reading_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), gen2_rule),
        out1=OutcomeFn(Station.S1, out1_rule),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )


def remote_reading_s2_model() -> LocalModel:
    """Mirror of :func:`remote_reading_model`: the S1 generator publishes its
    setting and the S2 outcome rule reads it."""
    cell = {}

    def gen1_rule(s, m, seed):
        cell["a"] = s.angle
        return 0

    def out2_rule(s, lam, v, m):
        return 1 if cell.get("a", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="remote_reading_s2_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), gen1_rule),
        gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, out2_rule),
    )


def outcome_publishing_model() -> LocalModel:
    """Test-only fixture: the S1 outcome rule publishes its setting and the S2
    outcome rule reads it. Within a pair every S1 outcome runs before any S2
    outcome, so S2 reads the setting of the last S1 cell."""
    cell = {}

    def out1_rule(s, lam, v, m):
        cell["a"] = s.angle
        return 1

    def out2_rule(s, lam, v, m):
        return 1 if cell.get("a", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="outcome_publishing_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
        out1=OutcomeFn(Station.S1, out1_rule),
        out2=OutcomeFn(Station.S2, out2_rule),
    )


def test_single_trial_constant_model():
    schedule = Schedule(trials=1, policy="fixed", pairs=((0.0, 0.0),))
    records = run_experiment(zoo_model("constant_plus"), schedule)
    assert len(records) == 1
    r = records[0]
    assert (r.outcome_a, r.outcome_b) == (1, 1)
    assert r.m == 1


def test_run_is_bitwise_reproducible():
    schedule = Schedule(trials=500, policy="random", seed_source=4, seed_settings=9)
    model = zoo_model("bell_product_basic")
    assert run_experiment(model, schedule) == run_experiment(model, schedule)


def test_clock_synchrony_slots_cycle_with_trial_index():
    model = zoo_model("cosine_threshold_lhv")
    n = model.grid.slot_count
    records = run_experiment(model, Schedule(trials=25, policy="cycle"))
    for r in records:
        assert r.m == (r.trial % n) + 1


def test_records_match_station_recomputation():
    from eprsim import evaluate_outcome, s1, s2

    model = zoo_model("setting_dependent_density")
    records = run_experiment(model, Schedule(trials=64, policy="cycle"))
    for r in records:
        assert r.outcome_a == evaluate_outcome(model, Station.S1, s1(r.a), r.lam, r.m)
        assert r.outcome_b == evaluate_outcome(model, Station.S2, s2(r.b), r.lam, r.m)
        assert r.lambda_star == model.gen1.evaluate(s1(r.a), r.m)


def test_empirical_agrees_with_exact_at_five_sigma():
    from eprsim import s1, s2

    model = zoo_model("cosine_threshold_lhv")
    pair = (0.0, math.pi / 4)
    schedule = Schedule(trials=100000, policy="fixed", pairs=(pair,), seed_source=12)
    stats = empirical_correlations(run_experiment(model, schedule))[pair]
    exact = correlate(model, s1(pair[0]), s2(pair[1])).e_ab
    assert stats.std_error > 0
    assert abs(stats.e_ab - exact) <= 5 * stats.std_error


def test_schedule_validation():
    with pytest.raises(InvalidScheduleError):
        Schedule(trials=0)
    with pytest.raises(InvalidScheduleError):
        Schedule(trials=5, policy="sometimes")
    with pytest.raises(InvalidScheduleError):
        Schedule(trials=5, pairs=())


def test_station_seed_override_reaches_generators():
    calls = []

    def gen1_rule(s, m, seed):
        calls.append(seed)
        return 0

    base = zoo_model("constant_plus")
    model = LocalModel(
        name="seed_probe",
        source=base.source,
        grid=base.grid,
        gen1=InstrumentParamGen(Station.S1, (0,), gen1_rule, seed=7),
        gen2=base.gen2,
        out1=base.out1,
        out2=base.out2,
    )
    run_experiment(model, Schedule(trials=1, policy="fixed", pairs=((0.0, 0.0),)))
    assert set(calls) == {7}
    calls.clear()
    run_experiment(
        model, Schedule(trials=1, policy="fixed", pairs=((0.0, 0.0),), seed_s1=99)
    )
    assert set(calls) == {99}


def test_audit_passes_on_all_zoo_models():
    schedule = Schedule(trials=200, policy="cycle")
    for model in all_zoo_models():
        report = locality_audit(model, schedule, remote_perturbations=2)
        assert report.passed, model.name
        assert report.mismatches == 0


def test_audit_passes_on_transformed_models():
    base = zoo_model("anticorrelated_signs")
    transformed = layer_double(
        time_symmetrize(base, balanced_sign_function(base.grid, seed=2))
    )
    report = locality_audit(transformed, Schedule(trials=200, policy="cycle"), 3)
    assert report.passed


def test_audit_detects_remote_reading_fixture():
    report = locality_audit(
        remote_reading_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=2
    )
    assert not report.passed
    assert report.mismatches >= 1
    assert report.first_mismatch is not None
    assert report.first_mismatch["station"] == "S1"


def test_audit_detects_mirrored_remote_reading_fixture():
    report = locality_audit(
        remote_reading_s2_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=3
    )
    assert not report.passed
    assert report.mismatches == 2000
    assert report.first_mismatch["station"] == "S2"


def test_audit_detects_outcome_to_outcome_leak():
    report = locality_audit(
        outcome_publishing_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=3
    )
    assert not report.passed
    assert report.mismatches == 2000
    assert report.first_mismatch["station"] == "S2"


def test_audit_detects_fixture_even_with_one_perturbation():
    # Alternatives rotate with the trial index, so every remote angle is
    # eventually exercised even when only one perturbation per trial is allowed.
    report = locality_audit(
        remote_reading_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=1
    )
    assert report.mismatches >= 1


def test_audit_rejects_nonpositive_perturbations():
    with pytest.raises(InvalidScheduleError):
        locality_audit(zoo_model("constant_plus"), Schedule(trials=1), 0)


def test_trials_csv_round_trip(tmp_path):
    model = zoo_model("hp_time_correlated")
    records = run_experiment(model, Schedule(trials=40, policy="cycle", seed_source=3))
    path = tmp_path / "trials.csv"
    write_trials_csv(records, path, comments=["config = {}"])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config = {}\n")
    assert text.splitlines()[1] == ",".join(TRIALS_CSV_HEADER)
    assert read_trials_csv(path) == records
