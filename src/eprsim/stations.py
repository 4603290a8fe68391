"""Lockstep two-station trial runner and the counterfactual locality audit.

The two stations are pure computations inside one process: both consume the
same slot index per trial (the shared clock), and each sees only its own
setting, the drawn source state, the slot and its own seed. One private
runner draws every trial once, compiles each setting pair it uses once, and
gathers the trials' outputs from the compiled arrays; a run is a set of
columns (:class:`Trials`). The audit re-gathers one station's columns under
varied remote settings and counts any change; honest models pass by
construction, so the audit is a regression guard on the harness itself.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from pathlib import Path
from typing import Hashable, Iterable

import numpy as np

from .errors import InvalidScheduleError
from .inequality import CorrelationReport, sampled_correlation
from .model import (
    TEST_ANGLES,
    TWO_PI,
    LocalModel,
    Setting,
    Station,
    s1,
    s2,
    station_outcomes,
    station_values,
)
from .util import parse_scalar

TRIALS_CSV_HEADER = ("trial", "m", "a", "b", "lambda", "lambda_star", "lambda_dblstar", "A", "B")

DEFAULT_PAIRS = tuple((x, y) for x in TEST_ANGLES for y in TEST_ANGLES)

POLICIES = ("fixed", "cycle", "random")

# Rows per joined block in write_trials_csv: the writer's memory stays flat
# in the trial count.
CSV_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True, eq=False)
class Trials:
    """A run as columns; row t is trial t. ``state`` indexes ``states``, ``m``
    is the slot (from 1), ``a`` and ``b`` are the scheduled angles as given (a
    ``-0.0`` stays), ``lambda_star`` and ``lambda_dblstar`` are object arrays
    of the two instrument values, and ``A`` and ``B`` are the int8 outcomes.
    """

    states: tuple[Hashable, ...]
    state: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lambda_star: np.ndarray
    lambda_dblstar: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        # Every field after ``states`` is a column of one entry per trial.
        short = [f.name for f in fields(self)[1:] if len(getattr(self, f.name)) != len(self.A)]
        if short:
            raise InvalidScheduleError(f"trial columns {short} need {len(self.A)} rows like A")

    def __len__(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class Schedule:
    """Deterministic run plan: trial count, setting policy, slot cycling, seeds.

    Slots advance with the trial index modulo the grid size at both stations
    (clock synchrony). Station seeds default to each generator's own seed, so
    runs match the exact-summation paths unless explicitly overridden.
    """

    trials: int
    policy: str = "cycle"
    pairs: tuple[tuple[float, float], ...] = DEFAULT_PAIRS
    seed_source: int = 0
    seed_settings: int = 0
    seed_s1: int | None = None
    seed_s2: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidScheduleError(f"trials must be >= 1, got {self.trials}")
        if self.policy not in POLICIES:
            raise InvalidScheduleError(f"unknown setting policy {self.policy!r}")
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InvalidScheduleError("schedule needs at least one setting pair")


@dataclass(frozen=True)
class AuditReport:
    trials_checked: int
    mismatches: int
    passed: bool
    first_mismatch: dict | None = None

    def to_dict(self) -> dict:
        return {
            "trials_checked": self.trials_checked,
            "mismatches": self.mismatches,
            "pass": self.passed,
            "first_mismatch": self.first_mismatch,
        }


def _pair_outputs(model: LocalModel, a_angle: float, b_angle: float, seed1, seed2):
    """Station outputs under one setting pair: each station's slot values and
    its int8 (state, slot) outcome array.

    Both stations' generators run before either outcome rule. A rule that
    shares mutable state with the other station's generator then sees this
    pair's settings, as it would with the stations evaluated side by side,
    so the audit catches such a leak. S1's outcome rule then runs for every
    cell before S2's does, so S2's rule sees only the last cell's S1 outcome:
    an outcome-to-outcome leak is caught only when that cell's outcome
    changes with the remote setting.
    """
    a = Setting(a_angle, Station.S1)
    b = Setting(b_angle, Station.S2)
    v1s = station_values(model, a, seed1)
    v2s = station_values(model, b, seed2)
    return v1s, v2s, station_outcomes(model, a, v1s), station_outcomes(model, b, v2s)


class _Runner:
    """One schedule's draws and the compiled outputs of the setting pairs a run uses.

    Angles at the same point of the circle (equal normalized :class:`Setting`
    angles, such as 0.0 and 2π) share an integer code and so one compiled
    pair; ``angles`` holds the normalized angles, the test angles first. Pair
    (a, b) has the key ``code(a) * len(angles) + code(b)``.
    """

    def __init__(self, model: LocalModel, schedule: Schedule):
        self.model, self.schedule = model, schedule
        n, trial = len(schedule.pairs), np.arange(schedule.trials)
        prior = np.asarray(model.source.prior)
        rng = np.random.default_rng(schedule.seed_source)
        self.state = rng.choice(len(prior), size=schedule.trials, p=prior / prior.sum())
        if schedule.policy == "random":
            self.pair = np.random.default_rng(schedule.seed_settings).integers(0, n, len(trial))
        else:
            self.pair = trial % n if schedule.policy == "cycle" else np.zeros_like(trial)
        self.slot = trial % model.grid.slot_count
        codes: dict[float, int] = {}
        for x in [*TEST_ANGLES, *(x for pair in schedule.pairs for x in pair)]:
            codes.setdefault(s1(x).angle, len(codes))
        self.angles = list(codes)
        a, b = np.array([[codes[s1(x).angle] for x in pair] for pair in schedule.pairs]).T
        self.a, self.b = a[self.pair], b[self.pair]
        self.base = self.a * len(self.angles) + self.b
        # The audit's alternatives to each angle: the test angles elsewhere on
        # the circle, in grid order. Test angle k has code k.
        d = np.subtract.outer(self.angles, TEST_ANGLES) % TWO_PI
        apart = np.minimum(d, TWO_PI - d) > 1e-12
        self.alt_count = apart.sum(axis=1)
        self.alts = np.argsort(~apart, axis=1, kind="stable")

    def remote(self, station: Station) -> np.ndarray:
        """Every trial's code of the station's remote angle: b for S1, a for S2."""
        return self.b if station is Station.S1 else self.a

    def perturbed(self, station: Station, p: int) -> np.ndarray:
        """Pair keys with the station's remote angle replaced by its p-th
        alternative, the alternatives rotating with the trial index; a trial
        with fewer alternatives keeps its pair."""
        remote = self.remote(station)
        count = self.alt_count[remote]
        turn = (np.arange(len(remote)) + p) % count
        alt = np.where(p < count, self.alts[remote, turn], remote)
        n = len(self.angles)
        return self.a * n + alt if station is Station.S1 else alt * n + self.b

    def compile(self, columns: Iterable[np.ndarray]) -> None:
        """Compile every pair the key columns use, in the order a loop over
        trials, then over columns, would first use it."""
        firsts = [np.unique(keys, return_index=True) for keys in columns]
        keys = np.concatenate([k for k, _ in firsts])
        uses = np.concatenate([t * len(firsts) + c for c, (_, t) in enumerate(firsts)])
        n, s = len(self.angles), self.schedule
        outputs = {}
        for key in dict.fromkeys(keys[np.argsort(uses)].tolist()):
            a, b = divmod(key, n)
            outputs[key] = _pair_outputs(self.model, self.angles[a], self.angles[b],
                                         s.seed_s1, s.seed_s2)
        self.keys = np.array(sorted(outputs))
        v1s, v2s, As, Bs = zip(*(outputs[k] for k in self.keys.tolist()))
        self.values = {station: np.stack([np.fromiter(v, dtype=object) for v in vs])
                       for station, vs in ((Station.S1, v1s), (Station.S2, v2s))}
        self.outcomes = {Station.S1: np.stack(As), Station.S2: np.stack(Bs)}

    def gather(self, station: Station, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every trial's instrument value and outcome at one station under the pair keys."""
        q = np.searchsorted(self.keys, keys)
        return self.values[station][q, self.slot], self.outcomes[station][q, self.state, self.slot]


def run_experiment(model: LocalModel, schedule: Schedule) -> Trials:
    """Run the scheduled trials; fully reproducible from the schedule's seeds."""
    run = _Runner(model, schedule)
    run.compile([run.base])
    v1, A = run.gather(Station.S1, run.base)
    v2, B = run.gather(Station.S2, run.base)
    a, b = np.array(schedule.pairs).T
    return Trials(model.source.states, run.state, run.slot + 1, a[run.pair], b[run.pair],
                  v1, v2, A, B)


def locality_audit(
    model: LocalModel, schedule: Schedule, remote_perturbations: int = 1
) -> AuditReport:
    """Counterfactually vary each station's remote setting and count output changes.

    For every trial, station 1 is recomputed under ``remote_perturbations``
    alternative values of b drawn from the test angle grid (rotating with the
    trial index so all alternatives get exercised), and symmetrically for
    station 2. An alternative is a test angle at another point of the circle
    than the current remote angle, so at most 4 exist, and 3 when the remote
    angle is itself a test angle. A station runs at most as many passes as
    its remote angles in use have alternatives: a further pass would only
    re-check base pairs. A mismatch in (instrument value, outcome) is an
    Einstein locality violation.
    """
    if remote_perturbations < 1:
        raise InvalidScheduleError("remote_perturbations must be >= 1")
    run = _Runner(model, schedule)
    passes = [
        (station, run.perturbed(station, p))
        for station in (Station.S1, Station.S2)
        for p in range(min(remote_perturbations, run.alt_count[run.remote(station)].max()))
    ]
    run.compile([run.base, *(keys for _, keys in passes)])
    base = {station: run.gather(station, run.base) for station in (Station.S1, Station.S2)}
    mismatches = 0
    first = None
    for station, keys in passes:
        (values, outcomes), (base_values, base_outcomes) = run.gather(station, keys), base[station]
        bad = (values != base_values) | (outcomes != base_outcomes)
        mismatches += int(np.count_nonzero(bad))
        t = int(bad.argmax())
        # Within a trial, S1's perturbations come before S2's, in pass order.
        if bad[t] and (first is None or t < first["trial"]):
            side = int(station is Station.S1)  # the remote angle: b for S1, a for S2
            remote = schedule.pairs[run.pair[t]][side]
            perturbed = divmod(int(keys[t]), len(run.angles))[side]
            first = {
                "trial": t,
                "station": station.value,
                "slot": int(run.slot[t]) + 1,
                "lambda": str(model.source.states[run.state[t]]),
                "remote_original": remote,
                "remote_perturbed": run.angles[perturbed],
                "baseline": [str(base_values[t]), int(base_outcomes[t])],
                "perturbed": [str(values[t]), int(outcomes[t])],
            }
    return AuditReport(schedule.trials, mismatches, mismatches == 0, first)


def empirical_correlations(trials: Trials) -> dict[tuple[float, float], CorrelationReport]:
    """Each setting pair's pooled statistics, keyed by its angles as first run."""
    _, a = np.unique(trials.a, return_inverse=True)
    b_angles, b = np.unique(trials.b, return_inverse=True)
    _, first, pair = np.unique(a * len(b_angles) + b, return_index=True, return_inverse=True)
    out = {}
    for g in np.argsort(first):
        rows = pair == g
        key = (float(trials.a[first[g]]), float(trials.b[first[g]]))
        out[key] = sampled_correlation(
            s1(key[0]), s2(key[1]), trials.A[rows], trials.B[rows], trials.state[rows],
            trials.states,
        )
    return out


def _distinct_rows(trials: Trials) -> tuple[np.ndarray, np.ndarray]:
    """One trial of each distinct row after the trial number, and each
    trial's index into those rows.

    Rows are keyed on what is written, not on how the columns were made:
    each column gets integer codes such that equal codes always format
    identically, and the codes combine by mixed radix. Integers are coded as
    value minus minimum, floats by bit pattern (``-0.0`` is not ``0.0``), and
    instrument values by object identity, since ``1``, ``1.0`` and ``True``
    are equal but print differently.
    """
    # One column at a time: beside the key, only one code array is alive.
    codes = chain(
        (np.asarray(c, dtype=np.int64) - c.min()
         for c in (trials.m, trials.state, trials.A, trials.B)),
        (np.unique(np.asarray(c, dtype=np.float64).view(np.int64), return_inverse=True)[1]
         for c in (trials.a, trials.b)),
        (np.unique(np.fromiter(map(id, c), dtype=np.int64, count=len(c)), return_inverse=True)[1]
         for c in (trials.lambda_star, trials.lambda_dblstar)),
    )
    key, size = np.zeros(len(trials), dtype=np.int64), 1
    for code in codes:
        radix = int(code.max()) + 1
        if size * radix > 1 << 62:
            keys, key = np.unique(key, return_inverse=True)
            size = len(keys)
        key, size = key * radix + code, size * radix
    keys, row = np.unique(key, return_inverse=True)
    # Rows with one key format identically, so any of them stands for all.
    rep = np.empty(len(keys), dtype=np.int64)
    rep[row] = np.arange(len(trials))
    return rep, row


def write_trials_csv(trials: Trials, path: str | Path, comments: list[str] | None = None) -> None:
    """Write the trials to ``path`` as CSV rows, one per trial.

    After the trial number, a row is a pure function of its eight column
    values, so each distinct row is formatted once through the same
    ``csv.writer`` settings; csv quotes field by field, so
    ``f"{trial},{suffix}"`` is the full row's bytes. The rows are joined and
    written one block at a time.
    """
    with open(path, "w", encoding="utf-8") as fp:
        for line in comments or []:
            fp.write(f"# {line}\n")
        csv.writer(fp, lineterminator="\n").writerow(TRIALS_CSV_HEADER)
        if not len(trials):
            return
        rep, row = _distinct_rows(trials)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # writerow returns the characters it wrote: each row's end in buf.
        # (str.splitlines would also split inside fields on \x0b, \u2028, ...)
        ends = list(accumulate(map(writer.writerow, zip(
            trials.m[rep].tolist(),
            # Angles are coordinates, not expectations: keep full precision
            # so the stream round-trips exactly.
            map(repr, trials.a[rep].tolist()),
            map(repr, trials.b[rep].tolist()),
            [trials.states[s] for s in trials.state[rep].tolist()],
            trials.lambda_star[rep].tolist(),
            trials.lambda_dblstar[rep].tolist(),
            trials.A[rep].tolist(),
            trials.B[rep].tolist(),
        ))))
        text = buf.getvalue()
        suffixes = np.array([text[s:e] for s, e in zip([0, *ends], ends)], dtype=object)
        for start in range(0, len(trials), CSV_BLOCK_ROWS):
            block = suffixes[row[start:start + CSV_BLOCK_ROWS]].tolist()
            fp.write("".join([f"{t},{s}" for t, s in enumerate(block, start)]))


def _numbers(cols: list[tuple[str, ...]], k: int, convert) -> list:
    """Column ``k`` of a trial CSV through ``convert``, or the error naming
    the first data row (from 1) whose cell does not parse."""
    out = []
    for text in cols[k]:
        try:
            out.append(convert(text))
        except ValueError:
            raise InvalidScheduleError(f"trial CSV data row {len(out) + 1}: "
                                       f"{TRIALS_CSV_HEADER[k]} = {text!r} does not parse") from None
    return out


def read_trials_csv(path: str | Path) -> Trials:
    """Load trials written by :func:`write_trials_csv`; state labels stay text."""
    with open(path, newline="", encoding="utf-8") as fp:
        rows = [row for row in csv.reader(fp) if row and not row[0].startswith("#")]
    if not rows or tuple(rows[0]) != TRIALS_CSV_HEADER:
        raise InvalidScheduleError("trial CSV is empty or lacks the expected header")
    if any(len(row) != len(TRIALS_CSV_HEADER) for row in rows[1:]):
        raise InvalidScheduleError("trial CSV rows need nine fields")
    cols = list(zip(*rows[1:])) or [()] * len(TRIALS_CSV_HEADER)
    trial, m, A, B = (np.array(_numbers(cols, k, int), dtype=np.int64) for k in (0, 1, 7, 8))
    if (trial != np.arange(len(trial))).any() or (np.abs([A, B]) != 1).any():
        raise InvalidScheduleError("trial CSV needs trials numbered from 0 and outcomes of +-1")
    states, state = np.unique(np.array(cols[4], dtype=str), return_inverse=True)
    a, b = (np.array(_numbers(cols, k, float)) for k in (2, 3))
    v1, v2 = (np.fromiter(map(parse_scalar, cols[k]), dtype=object) for k in (5, 6))
    return Trials(tuple(states.tolist()), state, m, a, b, v1, v2, *np.array([A, B], dtype=np.int8))
