import dataclasses
import hashlib
import math
import random
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    s1,
    s2,
    time_symmetrize,
    write_trials_csv,
    zoo_model,
)
from eprsim import stations
from eprsim.density import _int_type
from eprsim.sampling import DRAW_BLOCK_ROWS, guide_table, search_cdf
from eprsim.stations import (
    CSV_BLOCK_ROWS,
    DEFAULT_PAIRS,
    MAX_RUN_TRIALS,
    POLICIES,
    TRIALS_CSV_HEADER,
    Trials,
    _pair_outputs as pair_outputs,
    empirical_correlations,
)
from eprsim.descriptors import load_model
from eprsim.zoo import all_zoo_models, random_factorized_model

from shared_fixtures import (
    factored_trials,
    history_leak_model,
    outcome_publishing_model,
    remote_reading_model,
    remote_reading_s2_model,
    slot_limited_leak_model,
)
from trial_references import (
    assert_same_correlations,
    decoded,
    reference_empirical_correlations,
    row_by_row_trials_csv,
    trial_columns,
)


def recording_model(calls: list) -> LocalModel:
    """Test-only honest model that appends every rule call to ``calls``."""

    def gen(station):
        def rule(s, m, seed):
            calls.append(("gen", station, s.angle, m, seed))
            return (int(s.angle * 10) + m) % 3
        return rule

    def out(station):
        def rule(s, lam, v, m):
            calls.append(("out", station, s.angle, lam, v, m))
            return 1 if (int(s.angle * 10) + v + m + (lam == "u1")) % 2 else -1
        return rule

    return LocalModel(
        name="recording_fixture",
        source=SourceSpace(("u0", "u1"), (0.4, 0.6)),
        grid=TimeGrid(3),
        gen1=InstrumentParamGen(Station.S1, (0, 1, 2), gen("S1")),
        gen2=InstrumentParamGen(Station.S2, (0, 1, 2), gen("S2")),
        out1=OutcomeFn(Station.S1, out("S1")),
        out2=OutcomeFn(Station.S2, out("S2")),
    )


RECORDING_SCHEDULES = {
    "cycle": Schedule(trials=40, policy="cycle", seed_source=1),
    "random": Schedule(trials=40, policy="random", seed_source=2, seed_settings=3),
    "fixed": Schedule(trials=40, policy="fixed", pairs=((0.3, 2.0),)),
}


def recorded_calls(schedule_name: str, perturbations: int | None) -> tuple[int, str]:
    """Count and digest of the rule calls of one run (``perturbations`` None)
    or one audit."""
    calls = []
    model = recording_model(calls)
    schedule = RECORDING_SCHEDULES[schedule_name]
    if perturbations is None:
        run_experiment(model, schedule)
    else:
        assert locality_audit(model, schedule, perturbations).passed
    return len(calls), hashlib.sha256(repr(calls).encode()).hexdigest()[:16]


def test_single_trial_constant_model():
    schedule = Schedule(trials=1, policy="fixed", pairs=((0.0, 0.0),))
    trials = run_experiment(zoo_model("constant_plus"), schedule)
    A, B, m = (column[trials.row] for column in (trials.A, trials.B, trials.m))
    assert len(trials) == 1
    assert (A[0], B[0]) == (1, 1)
    assert m[0] == 1


def test_run_is_bitwise_reproducible():
    schedule = Schedule(trials=500, policy="random", seed_source=4, seed_settings=9)
    model = zoo_model("bell_product_basic")
    assert trial_columns(run_experiment(model, schedule)) == trial_columns(
        run_experiment(model, schedule)
    )


def test_source_state_draw_equals_rng_choice():
    """The runner draws states as ``rng.choice`` with the normalized prior
    would, zero-weight states included, so every trial stream is kept."""
    cases = random.Random(17)
    for _ in range(200):
        weights = [cases.choice((0.0, cases.random(), cases.randint(1, 9) / 10))
                   for _ in range(cases.randint(1, 70))]
        weights[cases.randrange(len(weights))] = cases.random() + 0.01
        prior = [w / fsum(weights) for w in weights]
        trials, seed = cases.randint(1, 5000), cases.randrange(2**32)
        model = LocalModel(
            name="prior_fixture",
            source=SourceSpace(tuple(range(len(prior))), prior),
            grid=TimeGrid(1),
            gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
            gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
            out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
            out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
        )
        run = run_experiment(model, Schedule(trials=trials, seed_source=seed))
        drawn = run.state[run.row]
        p = np.asarray(model.source.prior)
        expected = np.random.default_rng(seed).choice(len(p), size=trials, p=p / p.sum())
        assert drawn.tolist() == expected.tolist(), (len(prior), trials, seed)


def prior_cdf(prior) -> np.ndarray:
    """The cdf a run draws its states from."""
    p = np.asarray(prior, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def hard_draws(cdf: np.ndarray) -> np.ndarray:
    """The draws where a search of ``cdf`` is easiest to get wrong: 0.0, the
    largest draw 1 - 2**-53, every cdf entry and the value one ulp below it,
    and every guide bucket edge g/G with its two neighbours; all in [0, 1)."""
    buckets = guide_table(cdf)[0]
    edges = np.arange(buckets) / buckets
    draws = np.concatenate([[0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, -1.0), edges,
                            np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    return draws[(draws >= 0.0) & (draws < 1.0)]


# Two masses of 1e-9 right after 0.5: three cdf entries in (0.5, 0.5625), one
# guide bucket of the 16 that four states get, so draws there are searched.
CROWDED_PRIOR = (0.5, 1e-9, 1e-9, 0.5 - 2e-9)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
       zeros=st.floats(0.0, 0.9), tiny=st.floats(0.0, 0.9),
       extra=st.integers(0, 2 * DRAW_BLOCK_ROWS + 1))
def test_guide_table_search_equals_searchsorted(k, seed, zeros, tiny, extra):
    """Priors with zero masses and with clusters of tiny masses that crowd a
    bucket, drawn at every hard point and at a count that is not a multiple of
    the block: the kernel counts exactly what ``searchsorted`` counts."""
    rng = np.random.default_rng(seed)
    prior = rng.random(k) + 0.01
    prior[rng.random(k) < tiny] *= 1e-9
    prior[rng.random(k) < zeros] = 0.0
    prior[rng.integers(k)] = 1.0  # one state has mass
    cdf = prior_cdf(prior)
    hard = hard_draws(cdf)
    extra += not (len(hard) + extra) % DRAW_BLOCK_ROWS  # the last block is a short one
    draws = np.concatenate([hard, rng.random(extra)])
    rng.shuffle(draws)
    got = search_cdf(cdf, draws, _int_type(k))
    assert got.dtype == _int_type(k)
    assert got.tolist() == cdf.searchsorted(draws, side="right").tolist()


def test_crowded_prior_takes_the_search_path():
    cdf = prior_cdf(CROWDED_PRIOR)
    buckets, _, _, crowded = guide_table(cdf)
    assert (buckets, np.flatnonzero(crowded).tolist()) == (16, [8])
    draws = hard_draws(cdf)
    assert crowded[(draws * buckets).astype(np.intp)].sum() >= 4
    expected = cdf.searchsorted(draws, side="right")
    assert search_cdf(cdf, draws, np.int8).tolist() == expected.tolist()
    model = LocalModel(
        name="crowded_prior",
        source=SourceSpace(("u0", "u1", "u2", "u3"), CROWDED_PRIOR),
        grid=TimeGrid(1),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )
    # About one draw in 16 lands in bucket 8, each one searched.
    run = run_experiment(model, Schedule(trials=100_000, seed_source=3))
    u = np.random.default_rng(3).random(100_000)
    assert crowded[(u * buckets).astype(np.intp)].sum() > 5000
    p = np.asarray(model.source.prior)
    expected = np.random.default_rng(3).choice(len(p), size=100_000, p=p / p.sum())
    assert run.state[run.row].tolist() == expected.tolist()


def test_clock_synchrony_slots_cycle_with_trial_index():
    model = zoo_model("cosine_threshold_lhv")
    n = model.grid.slot_count
    trials = run_experiment(model, Schedule(trials=25, policy="cycle"))
    assert trials.m[trials.row].tolist() == [(t % n) + 1 for t in range(25)]


def test_records_match_station_recomputation():
    from eprsim import evaluate_outcome, s1, s2

    model = zoo_model("setting_dependent_density")
    trials = run_experiment(model, Schedule(trials=64, policy="cycle"))
    columns = trial_columns(trials)
    for t in range(len(trials)):
        (a, b), m, lam = columns["pair"][t], columns["m"][t], columns["state"][t]
        assert columns["A"][t] == evaluate_outcome(model, Station.S1, s1(a), lam, m)
        assert columns["B"][t] == evaluate_outcome(model, Station.S2, s2(b), lam, m)
        assert columns["star"][t] == model.gen1.evaluate(s1(a), m)
        assert columns["dblstar"][t] == model.gen2.evaluate(s2(b), m)


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
    # A fixed schedule runs one pair: extra pairs would be dropped, and a fixed
    # schedule given no pairs would run the first default pair.
    with pytest.raises(InvalidScheduleError, match="one setting pair, got 2"):
        Schedule(trials=5, policy="fixed", pairs=((0.0, 0.5), (1.0, 1.5)))
    with pytest.raises(InvalidScheduleError, match="one setting pair, got 16"):
        Schedule(trials=5, policy="fixed")
    # Counts whose int64 trial column no numpy array can hold fail here,
    # before the run allocates anything.
    for trials in (MAX_RUN_TRIALS + 1, 2**63 - 1, 10**20):
        with pytest.raises(InvalidScheduleError, match=f"got {trials}"):
            Schedule(trials=trials)
    assert Schedule(trials=MAX_RUN_TRIALS).trials == MAX_RUN_TRIALS
    # A trial count is an integer: 2.5 would reach numpy's draw, and True
    # would run one trial and be echoed as true. A numpy integer is kept as
    # an int, which JSON can write.
    for trials in (2.5, 3.0, True, False, "5", None):
        with pytest.raises(InvalidScheduleError, match="trials must be an integer"):
            Schedule(trials=trials)
    assert type(Schedule(trials=np.int64(5)).trials) is int


@pytest.mark.parametrize("seeds, message", [
    ({"seed_source": -1}, "seed_source must be in 0..inf, got -1"),
    ({"seed_settings": -3}, "seed_settings must be in 0..inf, got -3"),
    ({"seed_source": 2.5}, "seed_source must be an integer, got 2.5"),
    ({"seed_source": True}, "seed_source must be an integer, got True"),
    ({"seed_settings": "4"}, "seed_settings must be an integer, got '4'"),
], ids=["negative source", "negative settings", "float", "bool", "string"])
def test_schedule_rejects_bad_seeds(seeds, message):
    # numpy would refuse -1 and 2.5 only once the run draws, and would run
    # True as seed 1.
    with pytest.raises(InvalidScheduleError, match=message):
        Schedule(trials=5, **seeds)


def test_schedule_keeps_integer_seeds_as_int():
    schedule = Schedule(trials=5, seed_source=np.int64(3), seed_settings=np.int32(4))
    assert [(type(x), x) for x in (schedule.seed_source, schedule.seed_settings)] \
        == [(int, 3), (int, 4)]


def test_schedule_has_no_station_seeds():
    # A run compiles each generator under its own seed, as every exact path does.
    with pytest.raises(TypeError, match="seed_s1"):
        Schedule(trials=1, seed_s1=1)


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
    assert report.mismatches == 128
    assert report.first_mismatch["station"] == "S2"


def test_audit_detects_outcome_to_outcome_leak():
    report = locality_audit(
        outcome_publishing_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=3
    )
    assert not report.passed
    assert report.mismatches == 128
    assert report.first_mismatch["station"] == "S2"


def test_audit_detects_fixture_even_with_one_perturbation():
    # The verdict compares every alternative remote angle, whatever the
    # perturbation count.
    report = locality_audit(
        remote_reading_model(), Schedule(trials=1000, policy="cycle"), remote_perturbations=1
    )
    assert report.mismatches >= 1


@pytest.mark.parametrize("schedule", [
    Schedule(trials=1000, policy="cycle"),
    # Fewer trials than slots: no trial reaches slot 8.
    Schedule(trials=7, policy="fixed", pairs=((0.0, 0.0),)),
], ids=["cycle", "fixed"])
def test_audit_catches_a_leak_no_trial_reaches(schedule):
    """The S1 outcome reads the S2 setting at a = 0 in slot 8 alone, a cell no
    trial of either schedule takes; the verdict compares every cell."""
    report = locality_audit(slot_limited_leak_model(), schedule, 3)
    assert (report.passed, report.first_mismatch["slot"]) == (False, 8)
    # Two of the three alternatives of each remote angle flip the outcome.
    assert report.mismatches == (8 if schedule.policy == "cycle" else 2)


def test_audit_rejects_nonpositive_perturbations():
    with pytest.raises(InvalidScheduleError):
        locality_audit(zoo_model("constant_plus"), Schedule(trials=1), 0)


def test_trials_csv_round_trip(tmp_path):
    model = zoo_model("hp_time_correlated")
    trials = run_experiment(model, Schedule(trials=40, policy="cycle", seed_source=3))
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config = {}\n")
    assert text.splitlines()[1] == ",".join(TRIALS_CSV_HEADER)
    assert trial_columns(read_trials_csv(path)) == trial_columns(trials)


def test_run_and_trial_csv_keep_the_narrowest_state_and_slot_types(tmp_path):
    """On a 64-state, 1,024-slot model a run's state and slot columns are
    int8 and int16, as the runner's own columns are, its row index has the
    narrowest type for its table (int16 for 5,000 trials), and its trial CSV
    reads back into the same types and rewrites to the same bytes."""
    path = tmp_path / "wide.ini"
    path.write_text(
        f"[source]\nstates = {', '.join(f's{i}' for i in range(64))}\n"
        f"prior = {', '.join(['0.015625'] * 64)}\n[grid]\nslots = 1024\n"
        "[gen1]\nkind = constant\n[gen2]\nkind = constant\n"
        "[out1]\nkind = constant\nvalue = 1\n[out2]\nkind = constant\nvalue = 1\n",
        encoding="utf-8",
    )
    trials = run_experiment(load_model(path), Schedule(trials=5000, policy="random"))
    assert (trials.state.dtype, trials.m.dtype, trials.row.dtype) == (np.int8, np.int16, np.int16)
    # 16 scheduled pairs, and 16 compiled pairs of 1,024 values at each station.
    assert (trials.pair.dtype, trials.star.dtype, trials.dblstar.dtype) == (
        np.int8, np.int16, np.int16)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trials_csv(trials, first)
    loaded = read_trials_csv(first)
    assert (loaded.state.dtype, loaded.m.dtype, loaded.row.dtype) == (np.int8, np.int16, np.int16)
    # The constant generators write one value text per station.
    assert (loaded.pair.dtype, loaded.star.dtype, loaded.dblstar.dtype) == (
        np.int8, np.int8, np.int8)
    write_trials_csv(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    small = run_experiment(zoo_model("bell_product_basic"), Schedule(trials=40))
    assert (small.state.dtype, small.m.dtype) == (np.int8, np.int8)


def _first(station, perturbed, baseline, seen):
    """The first mismatch at the first scheduled pair (0, 0), in slot 1."""
    return {"station": station, "local": 0.0, "slot": 1, "lambda": "u0",
            "remote_original": 0.0, "remote_perturbed": perturbed,
            "baseline": baseline, "perturbed": seen}


# Counts and first mismatches of the exact verdict. Each of the 16 scheduled
# pairs has 3 alternatives at each station; in the first three fixtures two
# of them flip the outcome in all 4 slots (16 * 2 * 4 = 128 cells), whatever
# the trial and perturbation counts.
LEAK_REPORTS = {
    "remote_reading-p2": (remote_reading_model, 1000, 2, 128,
                          _first("S1", math.pi / 2, ["0", 1], ["0", -1])),
    "remote_reading-p1": (remote_reading_model, 1000, 1, 128,
                          _first("S1", math.pi / 2, ["0", 1], ["0", -1])),
    "remote_reading_s2-p3": (remote_reading_s2_model, 1000, 3, 128,
                             _first("S2", math.pi / 2, ["0", 1], ["0", -1])),
    "outcome_publishing-p3": (outcome_publishing_model, 1000, 3, 128,
                              _first("S2", math.pi / 2, ["0", 1], ["0", -1])),
    "history_leak-p3": (history_leak_model, 1000, 3, 120,
                        _first("S1", 3 * math.pi / 4, ["0", 1], ["1", 1])),
    "history_leak-2-trials": (history_leak_model, 2, 3, 120,
                              _first("S1", 3 * math.pi / 4, ["0", 1], ["1", 1])),
}


@pytest.mark.parametrize("make, trials, perturbations, mismatches, first",
                         LEAK_REPORTS.values(), ids=LEAK_REPORTS)
def test_leaky_fixture_reports(make, trials, perturbations, mismatches, first):
    report = locality_audit(make(), Schedule(trials=trials, policy="cycle"), perturbations)
    assert (report.passed, report.mismatches) == (False, mismatches)
    assert report.first_mismatch == first


@pytest.mark.parametrize("make, trials, perturbations, mismatches, first",
                         [case for case in LEAK_REPORTS.values()
                          if case[0] is not history_leak_model],
                         ids=[name for name in LEAK_REPORTS if not name.startswith("history")])
def test_audit_does_not_read_the_compiled_map(make, trials, perturbations, mismatches, first):
    """The audit compiles per pair, so a leaky model whose map already holds
    every test angle still shows its leak. (The history fixture is left out:
    its outputs depend on what was compiled before, by design.)"""
    model = make()
    for x, y in DEFAULT_PAIRS:
        correlate(model, s1(x), s2(y))
    report = locality_audit(model, Schedule(trials=trials, policy="cycle"), perturbations)
    assert (report.passed, report.mismatches) == (False, mismatches)
    assert report.first_mismatch == first


# Rule-call counts and digests: runs as recorded from the trial-by-trial
# runner, audits as the exact verdict compiles. An audit compiles every
# distinct scheduled pair and its alternatives whatever the trials draw, so
# its calls depend neither on the policy's draws nor on the perturbations.
RECORDED_CALLS = {
    ("cycle", None): (288, "52d2f2c014608cd0"),
    ("cycle", 1): (288, "53052bda6f6b90ed"),
    ("cycle", 3): (288, "53052bda6f6b90ed"),
    ("cycle", 5): (288, "53052bda6f6b90ed"),
    ("random", None): (288, "43f2b47f2f246ee5"),
    ("random", 1): (288, "53052bda6f6b90ed"),
    ("random", 3): (288, "53052bda6f6b90ed"),
    ("random", 5): (288, "53052bda6f6b90ed"),
    ("fixed", None): (18, "8d77c5587c6414fe"),
    ("fixed", 1): (162, "7abcc49ec314359a"),
    ("fixed", 3): (162, "7abcc49ec314359a"),
    ("fixed", 5): (162, "7abcc49ec314359a"),
}


@pytest.mark.parametrize("case", sorted(RECORDED_CALLS, key=str))
def test_setting_pairs_compile_in_first_use_order(case):
    assert recorded_calls(*case) == RECORDED_CALLS[case]


@pytest.mark.parametrize(
    "remote, mismatches",
    [(0.0, (8, 8)), (2 * math.pi, (8, 8)), (2 * math.pi - 1e-13, (4, 4))],
)
def test_audit_never_perturbs_to_the_current_angle_on_the_circle(remote, mismatches):
    # 2π and 2π − 1e-13 are the test angle 0.0 on the circle, so 0.0 is no
    # perturbation of them; the counts are those of three alternatives. At
    # 2π − 1e-13 the S1 outcome reads -1 and only π/4 flips it, in 4 slots;
    # 0.0, were it an alternative, would flip it too.
    schedule = Schedule(trials=1000, policy="fixed", pairs=((0.0, remote),))
    found = tuple(locality_audit(remote_reading_model(), schedule, p).mismatches for p in (1, 3))
    assert found == mismatches


def test_angles_at_one_point_of_the_circle_compile_once():
    calls = []

    def counted(gen):
        def rule(s, m, seed):
            calls.append(gen.station)
            return gen.rule(s, m, seed)
        return dataclasses.replace(gen, rule=rule)

    base = zoo_model("bell_product_basic")
    model = dataclasses.replace(base, gen1=counted(base.gen1), gen2=counted(base.gen2))
    pairs = ((0.0, 0.5), (2 * math.pi, 0.5))
    trials = run_experiment(model, Schedule(trials=8, policy="cycle", pairs=pairs))
    # One compiled pair: one generator call per slot at each station.
    assert len(calls) == 2 * base.grid.slot_count
    # The columns and the per-pair statistics keep the scheduled angles.
    assert [a for a, _ in decoded(trials, "pair")] == [0.0, 2 * math.pi] * 4
    assert list(empirical_correlations(trials)) == list(pairs)


def test_trials_csv_written_in_blocks_equals_row_by_row(tmp_path):
    schedule = Schedule(trials=CSV_BLOCK_ROWS + 3, policy="random", seed_source=5,
                        seed_settings=6, pairs=((-0.0, 0.1), (math.pi / 4, 7.0)))
    trials = run_experiment(zoo_model("hp_time_correlated"), schedule)
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    assert path.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])


# Instrument values that are equal but print differently (1, 1.0, True),
# equal but distinct objects ("u1" twice), nan, and strings that csv must
# quote or that str.splitlines would split.
ODD_VALUES = [1, 1.0, True, "u1", "".join(["u", "1"]), math.nan, "x,y", 'say "hi"',
              "two\nlines", "tab\x0bvertical", "para\u2028sep"]


def odd_trials(n: int) -> Trials:
    """Hand-built trials whose (state, slot, pair) does not determine the rest.

    Within each run of 22 rows, only the pair (a is -0.0 or 0.0) and the S1
    value (the odd values) change. The pairs domain holds pairs equal under
    ``==`` that print differently, and the value domains the odd values, so
    every keying that merges -0.0 with 0.0, or keys instrument values by
    value, merges rows that print differently.
    """
    t = np.arange(n)
    group = t // (2 * len(ODD_VALUES))
    return Trials(
        states=("a,b", 'q"r', "plain"),
        pairs=tuple((a, b) for b in (0.0, -0.0, 0.1, 7.0) for a in (-0.0, 0.0)),
        stars=tuple(ODD_VALUES),
        dblstars=np.array(ODD_VALUES, dtype=object),
        row=np.arange(n),
        state=group % 3,
        m=1 + group % 4,
        pair=group % 4 * 2 + t % 2,
        star=t % len(ODD_VALUES),
        dblstar=group % len(ODD_VALUES),
        A=np.where(group % 2, 1, -1).astype(np.int8),
        B=np.where(group // 2 % 2, 1, -1).astype(np.int8),
    )


def test_trials_csv_of_odd_values_equals_row_by_row(tmp_path):
    trials = odd_trials(CSV_BLOCK_ROWS + 3)
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    assert path.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, CSV_BLOCK_ROWS - 1,
                               CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7])
def test_trial_numbers_across_decades_and_blocks_equal_row_by_row(tmp_path, n):
    # Each block starts on a decade, so a trial's number is its decade's
    # text and then its last digit; the first decade's text is empty.
    assert CSV_BLOCK_ROWS % 10 == 0
    trials = dataclasses.replace(odd_trials(n), states=("a,b", 'q"r', "naïve λ"))
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    assert path.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])


def test_factored_trials_csv_equals_row_by_row(tmp_path):
    trials = factored_trials()
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    assert path.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])


class CountedValue:
    """An instrument value that counts the calls of its ``str`` and ``repr``."""

    def __init__(self, text: str):
        self.text, self.calls = text, 0

    def __str__(self) -> str:
        self.calls += 1
        return self.text

    __repr__ = __str__


def test_trials_csv_formats_each_instrument_value_once(tmp_path):
    n = 3 * CSV_BLOCK_ROWS
    star, dblstar = ([CountedValue(f"{name}{k}") for k in range(3)] for name in ("v", "w"))
    trials = Trials(
        states=("u0", "u1"), pairs=((0.0, 0.0),), stars=tuple(star), dblstars=tuple(dblstar),
        row=np.arange(n)[::-1], state=np.arange(n) % 2, m=1 + np.arange(n) % 7,
        pair=np.zeros(n, dtype=np.int8), star=np.arange(n) % 3, dblstar=np.arange(n) // 5 % 3,
        A=np.ones(n, dtype=np.int8), B=np.ones(n, dtype=np.int8))
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path, comments=["config = {}"])
    # Every object is one entry of one domain, so each is formatted once.
    assert [v.calls for v in star + dblstar] == [1] * 6
    assert path.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])


def test_state_labels_keep_trailing_nuls_through_a_round_trip(tmp_path):
    zeros = np.zeros(2, dtype=np.int8)
    trials = Trials(states=("a\x00", "a"), pairs=((0.0, 0.0),), stars=(0,), dblstars=(0,),
                    row=np.array([0, 1]), state=np.array([0, 1]), m=np.array([1, 1]),
                    pair=zeros, star=zeros, dblstar=zeros, A=np.ones(2, dtype=np.int8),
                    B=np.ones(2, dtype=np.int8))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trials_csv(trials, first)
    loaded = read_trials_csv(first)
    assert loaded.states == ("a", "a\x00")
    assert trial_columns(loaded) == trial_columns(trials)
    write_trials_csv(loaded, second)
    assert second.read_bytes() == first.read_bytes()


# Angles whose text or coding is easy to get wrong: both zeros, a point of
# the circle given two ways, and the smallest subnormal.
EDGE_ANGLES = (-0.0, 0.0, 2 * math.pi, math.pi / 4, 5e-324)
# State labels that csv must quote, that are empty or non-ASCII, or that
# numpy's str dtype would cut ("a\x00").
EDGE_LABELS = ("plain", "a,b", 'q"r', "two\nlines", "", " padded ", "λ*", "naïve", "a\x00", "a")


@st.composite
def hand_built_trials(draw) -> Trials:
    """A run built by hand: some table rows listed twice, rows that no trial
    takes, domains with entries equal under ``==`` and entries no row takes,
    edge-case angles and labels, and the odd instrument values."""
    states = tuple(draw(st.lists(st.sampled_from(EDGE_LABELS), min_size=1, max_size=4,
                                 unique=True)))
    pairs = tuple(draw(st.lists(st.tuples(st.sampled_from(EDGE_ANGLES),
                                          st.sampled_from(EDGE_ANGLES)), min_size=1, max_size=4)))
    stars, dblstars = (tuple(draw(st.lists(st.sampled_from(ODD_VALUES), min_size=1, max_size=4)))
                       for _ in range(2))
    entry = st.tuples(st.integers(0, len(states) - 1), st.integers(1, 5),
                      st.integers(0, len(pairs) - 1), st.integers(0, len(stars) - 1),
                      st.integers(0, len(dblstars) - 1),
                      st.sampled_from((-1, 1)), st.sampled_from((-1, 1)))
    table = draw(st.lists(entry, min_size=1, max_size=8))
    table += [table[i] for i in draw(st.lists(st.integers(0, len(table) - 1), max_size=3))]
    row = draw(st.lists(st.integers(0, len(table) - 1), max_size=40))
    state, m, pair, star, dblstar, A, B = map(np.array, zip(*table))
    return Trials(states, pairs, stars, dblstars, np.array(row, dtype=np.intp), state, m, pair,
                  star, dblstar, A.astype(np.int8), B.astype(np.int8))


@settings(max_examples=150, deadline=None)
@given(trials=hand_built_trials())
def test_hand_built_trials_write_read_and_correlate_like_the_reference(tmp_path_factory, trials):
    first, second = (tmp_path_factory.mktemp("trials") / "t.csv" for _ in range(2))
    write_trials_csv(trials, first, comments=["config = {}"])
    assert first.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])
    write_trials_csv(read_trials_csv(first), second, comments=["config = {}"])
    assert second.read_bytes() == first.read_bytes()
    assert_same_correlations(empirical_correlations(trials),
                             reference_empirical_correlations(trials))


def test_zero_trials_write_the_header_alone(tmp_path):
    header_only = tmp_path / "empty.csv"
    header_only.write_text(",".join(TRIALS_CSV_HEADER) + "\n", encoding="utf-8")
    trials = read_trials_csv(header_only)
    assert len(trials) == 0
    written = tmp_path / "written.csv"
    write_trials_csv(trials, written, comments=["config = {}"])
    assert written.read_bytes() == row_by_row_trials_csv(trials, ["config = {}"])
    again = tmp_path / "again.csv"
    write_trials_csv(read_trials_csv(written), again, comments=["config = {}"])
    assert again.read_bytes() == written.read_bytes()


def test_trials_rejects_columns_of_unequal_length():
    trials = run_experiment(zoo_model("bell_product_basic"), Schedule(trials=3))
    with pytest.raises(InvalidScheduleError, match="table columns \\['m'\\]"):
        dataclasses.replace(trials, m=trials.m[:-1])


@pytest.mark.parametrize("row", [[0, 5], [-1, 0]], ids=["past the table", "negative"])
def test_trials_rejects_rows_outside_its_table(row):
    trials = factored_trials()
    with pytest.raises(InvalidScheduleError, match="must index the 5 table rows"):
        dataclasses.replace(trials, row=np.array(row))


@pytest.mark.parametrize("name, size, domain", [("state", 2, "states"), ("pair", 4, "pairs"),
                                                ("star", 4, "stars"), ("dblstar", 3, "dblstars")])
@pytest.mark.parametrize("past", [False, True], ids=["negative", "past the domain"])
def test_trials_rejects_codes_outside_their_domain(name, size, domain, past):
    codes = getattr(factored_trials(), name).copy()
    codes[-1] = size if past else -1
    with pytest.raises(InvalidScheduleError, match=f"{name} codes must index the {size} {domain}"):
        dataclasses.replace(factored_trials(), **{name: codes})


@pytest.mark.parametrize("name, values, message", [
    ("m", [2, 1, 1, 0, 3], "table row 3: m = 0 "), ("m", [2, 1, -1, 1, 3], "table row 2: m = -1 "),
    ("A", [1, -1, 0, 1, -1], "table row 2: A = 0 "), ("B", [-1, -1, 1, 2, 1], "table row 3: B = 2 "),
    ("A", [1, -1, 1, 1, -128], "table row 4: A = -128 ")])
def test_trials_rejects_slots_and_outcomes_no_run_writes(name, values, message):
    """A slot below 1 or an outcome other than +-1 is refused where the table
    is built, as the trial CSV reader refuses it; counted, A = 0 would be -1."""
    trials = factored_trials()
    column = np.array(values, dtype=getattr(trials, name).dtype)
    with pytest.raises(InvalidScheduleError, match=message + "is not a value a run writes"):
        dataclasses.replace(trials, **{name: column})


angles = st.one_of(
    st.sampled_from((-0.0, 0.0, math.pi / 4, 2 * math.pi)),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    trials=st.integers(min_value=1, max_value=60),
    policy=st.sampled_from(POLICIES),
    pairs=st.lists(st.tuples(angles, angles), min_size=1, max_size=4),
)
def test_trials_csv_round_trips_byte_identically(tmp_path_factory, seed, trials, policy, pairs):
    pairs = pairs[:1] if policy == "fixed" else pairs  # a fixed schedule holds one pair
    schedule = Schedule(trials=trials, policy=policy, pairs=tuple(pairs), seed_source=seed,
                        seed_settings=seed + 1)
    run = run_experiment(random_factorized_model(seed), schedule)
    first, second = (tmp_path_factory.mktemp("trials") / "t.csv" for _ in range(2))
    write_trials_csv(run, first, comments=["config = {}"])
    loaded = read_trials_csv(first)
    write_trials_csv(loaded, second, comments=["config = {}"])
    assert second.read_bytes() == first.read_bytes()
    assert trial_columns(loaded) == trial_columns(run)


@pytest.mark.parametrize(
    "row, message",
    [("0,1,0.0,0.0,u0,0,0,1", "nine fields"), ("1,1,0.0,0.0,u0,0,0,1,1", "row 1: trial = '1'"),
     ("0,1,0.0,0.0,u0,0,0,0,1", "row 1: A = '0'"),
     # zip(*rows) stops at the shortest row, so a long row among full ones
     # still gives nine columns: each row's width is checked.
     ("0,1,0.0,0.0,u0,0,0,1,1,EXTRA\n1,2,0.0,0.0,u0,0,0,1,1", "nine fields"),
     ("0,1,0.0,0.0,u0,0,0,1,1\n1,2,0.0,0.0,u0,0,0,1", "nine fields"),
     ("0,x,0.0,0.0,u0,0,0,1,1", "row 1: m = 'x'"), ("0,1,zero,0.0,u0,0,0,1,1", "row 1: a = 'zero'"),
     ("0,1,0.0,0.0,u0,0,0,one,1", "row 1: A = 'one'"),
     # Numbers that parse but that no run writes: such a row would load, and
     # a later step would fail far from the file.
     ("0,0,0.0,0.0,u0,0,0,1,1", "row 1: m = '0'"), ("0,-3,0.0,0.0,u0,0,0,1,1", "row 1: m = '-3'"),
     ("0,1,nan,0.0,u0,0,0,1,1", "row 1: a = 'nan'"), ("0,1,0.0,inf,u0,0,0,1,1", "row 1: b = 'inf'")],
    ids=["eight fields", "numbered from 1", "zero outcome", "long row", "short row",
         "non-numeric m", "non-numeric a", "non-numeric A", "slot 0", "negative slot",
         "nan angle", "infinite angle"],
)
def test_read_trials_csv_rejects_malformed_rows(tmp_path, row, message):
    path = tmp_path / "trials.csv"
    path.write_text(",".join(TRIALS_CSV_HEADER) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(InvalidScheduleError, match=message):
        read_trials_csv(path)


@pytest.mark.parametrize("text", ["", "0,1,0.0,0.0,u0,0,0,1,1\n"], ids=["empty", "headerless"])
def test_read_trials_csv_needs_its_header(tmp_path, text):
    path = tmp_path / "trials.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidScheduleError, match="empty or lacks the expected header"):
        read_trials_csv(path)


def test_read_trials_csv_names_the_row_of_a_non_numeric_cell(tmp_path):
    path = tmp_path / "trials.csv"
    for rows in (
        ["0,1,0.0,0.0,u0,0,0,1,1", "1,2,0.0,0.0,u0,0,0,1,1", "2,3,0.0,half,u0,0,0,1,1"],
        # Rows 1 and 2 are one distinct row; the bad cell is still in data row 3.
        ["0,1,0.0,0.0,u0,0,0,1,1", "1,1,0.0,0.0,u0,0,0,1,1", "2,3,0.0,half,u0,0,0,1,1"],
    ):
        path.write_text("\n".join([",".join(TRIALS_CSV_HEADER), *rows]) + "\n", encoding="utf-8")
        with pytest.raises(InvalidScheduleError, match="data row 3: b = 'half'"):
            read_trials_csv(path)


def test_trial_csv_wider_than_an_int64_key_reads_back(tmp_path):
    # Six columns of 2**11 texts each: the reader's packed row key would need
    # 66 bits. Rows that differ in the m column alone hold 2**11 m codes, so
    # a key that wraps at 64 bits would merge rows whose m codes agree
    # modulo 2**9, whatever codes the texts get.
    k = 1 << 11
    varied = [(j, r) for j in range(6) for r in range(j > 0, k)]
    codes = np.zeros((len(varied), 6), dtype=np.int16)
    codes[np.arange(len(varied)), [j for j, _ in varied]] = [r for _, r in varied]
    pairs, pair = np.unique(codes[:, 1:3], axis=0, return_inverse=True)
    ones = np.ones(len(varied), dtype=np.int8)
    trials = Trials(tuple(f"s{r}" for r in range(k)),
                    tuple((1.0 + a, 2.0 + b) for a, b in pairs.tolist()),
                    tuple(f"v{r}" for r in range(k)), tuple(f"w{r}" for r in range(k)),
                    np.arange(len(varied)), codes[:, 3], codes[:, 0] + 1, pair, codes[:, 4],
                    codes[:, 5], ones, ones)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trials_csv(trials, first)
    loaded = read_trials_csv(first)
    assert len(loaded.A) == len(varied)
    assert trial_columns(loaded) == trial_columns(trials)
    write_trials_csv(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("edits, message", [
    # {data row: line}, with rows past the reader's first block.
    ({CSV_BLOCK_ROWS + 4: "x,1,0.0,0.0,u0,0,0,1,1"},
     f"data row {CSV_BLOCK_ROWS + 4}: trial = 'x' where a run writes '{CSV_BLOCK_ROWS + 3}'"),
    # Every row's width is checked before any trial number.
    ({5: "x,1,0.0,0.0,u0,0,0,1,1", 2 * CSV_BLOCK_ROWS + 2: "0,1,0.0,0.0,u0,0,0,1"},
     "nine fields"),
    # Trial numbers are checked before any value.
    ({CSV_BLOCK_ROWS + 2: f"{CSV_BLOCK_ROWS + 1},0,0.0,0.0,u0,0,0,1,1",
      2 * CSV_BLOCK_ROWS + 3: "7,1,0.0,0.0,u0,0,0,1,1"},
     f"data row {2 * CSV_BLOCK_ROWS + 3}: trial = '7'"),
    # The first data row that holds a text no run writes is named.
    ({2 * CSV_BLOCK_ROWS + 3: f"{2 * CSV_BLOCK_ROWS + 2},1,0.0,half,u0,0,0,1,1",
      CSV_BLOCK_ROWS + 1: f"{CSV_BLOCK_ROWS},1,0.0,half,u0,0,0,1,1"},
     f"data row {CSV_BLOCK_ROWS + 1}: b = 'half'"),
], ids=["trial in the second block", "width before numbering", "numbering before values",
        "first row of a bad text"])
def test_read_trials_csv_names_rows_past_the_first_block(tmp_path, edits, message):
    lines = [f"{t},1,0.0,0.0,u0,0,0,1,1" for t in range(2 * CSV_BLOCK_ROWS + 7)]
    for data_row, line in edits.items():
        lines[data_row - 1] = line
    path = tmp_path / "trials.csv"
    path.write_text("\n".join([",".join(TRIALS_CSV_HEADER), *lines]) + "\n", encoding="utf-8")
    with pytest.raises(InvalidScheduleError, match=message):
        read_trials_csv(path)


@pytest.mark.parametrize("pairs, perturbations, compiles", [
    (DEFAULT_PAIRS, 1, 16), (DEFAULT_PAIRS, 3, 16), (DEFAULT_PAIRS, 4, 16), (DEFAULT_PAIRS, 5, 16),
    # Off the test grid every remote angle has four alternatives.
    (((0.3, 2.0),), 5, 9),
], ids=["cycle-1", "cycle-3", "cycle-4", "cycle-5", "off-grid-5"])
def test_audit_compiles_each_pair_once(monkeypatch, pairs, perturbations, compiles):
    """The test-grid pairs hold every alternative of each other; the off-grid
    pair adds its four alternatives at each station."""
    compiled = []

    def counted(model, a, b, *seeds):
        compiled.append((a, b))
        return pair_outputs(model, a, b, *seeds)

    monkeypatch.setattr(stations, "_pair_outputs", counted)
    schedule = Schedule(trials=1000, policy="cycle", pairs=pairs)
    assert locality_audit(zoo_model("bell_product_basic"), schedule, perturbations).passed
    assert len(compiled) == len(set(compiled)) == compiles
