"""Lockstep two-station trial runner and the counterfactual locality audit.

The two stations are pure computations inside one process: both consume the
same slot index per trial (the shared clock), and each sees only its own
setting, the drawn source state, the slot and its own seed. One private
runner draws every trial once and compiles each setting pair it uses once. A
run (:class:`Trials`) is the table of distinct rows its trials take, each
gathered once from the compiled arrays, plus each trial's row index. The
audit re-gathers one station's outcomes under varied remote settings,
compares its instrument values once per situation a trial takes, and counts
any change; honest models pass by construction, so the audit is a regression
guard on the harness itself.
"""
from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import Hashable

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
from .util import open_output, parse_scalar

TRIALS_CSV_HEADER = ("trial", "m", "a", "b", "lambda", "lambda_star", "lambda_dblstar", "A", "B")

DEFAULT_PAIRS = tuple((x, y) for x in TEST_ANGLES for y in TEST_ANGLES)

POLICIES = ("fixed", "cycle", "random")

# Rows per joined block in write_trials_csv: the writer's memory stays flat
# in the trial count.
CSV_BLOCK_ROWS = 1 << 12

# The most trials a run holds: one int64 per trial must fit numpy's largest array.
MAX_RUN_TRIALS = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize

# A remote angle has at most len(TEST_ANGLES) alternatives, and a trial's turn
# among k of them follows its index modulo k, so the index modulo PHASES fixes
# the turn for every k.
PHASES = int(np.lcm.reduce(np.arange(1, len(TEST_ANGLES) + 1)))


@dataclass(frozen=True, eq=False)
class Trials:
    """A run in factored form: a table of rows and each trial's index into it.

    Trial t reads ``a[row[t]]``, ``A[row[t]]`` and so on. ``state`` indexes
    ``states``, ``m`` is the slot (from 1), ``a`` and ``b`` are the scheduled
    angles as given (a ``-0.0`` stays), ``lambda_star`` and ``lambda_dblstar``
    are object arrays of the instrument values, and ``A`` and ``B`` are the
    int8 outcomes. A row may be listed twice or taken by no trial.
    """

    states: tuple[Hashable, ...]
    row: np.ndarray
    state: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lambda_star: np.ndarray
    lambda_dblstar: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        # Every field after ``row`` is a table column of one entry per row.
        short = [f.name for f in fields(self)[2:] if len(getattr(self, f.name)) != len(self.A)]
        if short:
            raise InvalidScheduleError(f"table columns {short} need {len(self.A)} rows like A")
        if len(self.row) and not 0 <= self.row.min() <= self.row.max() < len(self.A):
            raise InvalidScheduleError(f"trial rows must index the {len(self.A)} table rows")

    def __len__(self) -> int:
        return len(self.row)


@dataclass(frozen=True)
class Schedule:
    """Deterministic run plan: trial count, setting policy, slot cycling, seeds.

    ``fixed`` runs its one pair in every trial, ``cycle`` runs the pairs in
    turn and ``random`` draws each trial's pair from ``seed_settings``. Slots
    advance with the trial index modulo the grid size at both stations (clock
    synchrony). Station seeds default to each generator's own seed, so runs
    match the exact-summation paths unless explicitly overridden.
    """

    trials: int
    policy: str = "cycle"
    pairs: tuple[tuple[float, float], ...] = DEFAULT_PAIRS
    seed_source: int = 0
    seed_settings: int = 0
    seed_s1: int | None = None
    seed_s2: int | None = None

    def __post_init__(self):
        self._integer("trials", 1, MAX_RUN_TRIALS)
        # numpy's generators take non-negative seeds; a station seed goes to
        # the model's own rules, which may take any integer.
        self._integer("seed_source", 0)
        self._integer("seed_settings", 0)
        for name in ("seed_s1", "seed_s2"):
            if getattr(self, name) is not None:
                self._integer(name)
        if self.policy not in POLICIES:
            raise InvalidScheduleError(f"unknown setting policy {self.policy!r}")
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InvalidScheduleError("schedule needs at least one setting pair")
        if self.policy == "fixed" and len(pairs) != 1:
            raise InvalidScheduleError(f"a fixed schedule holds one setting pair, got {len(pairs)}")

    def _integer(self, name: str, low: float = -np.inf, high: float = np.inf) -> None:
        """Keep field ``name`` as an int in low..high; a float, a string or a bool is refused."""
        value = getattr(self, name)
        try:
            number = operator.index(value)
        except TypeError:
            number = None
        # operator.index accepts a bool, but True is no trial count or seed.
        if number is None or isinstance(value, bool):
            raise InvalidScheduleError(f"{name} must be an integer, got {value!r}")
        if not low <= number <= high:
            raise InvalidScheduleError(f"{name} must be in {low}..{high}, got {number}")
        object.__setattr__(self, name, number)


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

    This per-pair compile is the one deliberate exception to the model's
    memo (:meth:`eprsim.model.LocalModel.compiled`): read through a map of
    one array per setting, a leaky model could not show its leak.
    """
    a = Setting(a_angle, Station.S1)
    b = Setting(b_angle, Station.S2)
    v1s = station_values(model, a, seed1)
    v2s = station_values(model, b, seed2)
    return v1s, v2s, station_outcomes(model, a, v1s), station_outcomes(model, b, v2s)


def _int_type(top: int) -> np.dtype:
    """The narrowest signed integer type that holds 0..top."""
    return np.min_scalar_type(-top - 1)


def _first_use(index: np.ndarray, size: int) -> np.ndarray:
    """The first trial to take each of ``size`` values in the per-trial
    ``index``, or ``len(index)`` for a value no trial takes; one pass, no
    sort. The result is int64, so ranks built on it do not wrap."""
    trial = np.arange(len(index), dtype=_int_type(len(index)))
    first = np.full(size, len(index), dtype=trial.dtype)
    np.minimum.at(first, index, trial)
    return first.astype(np.int64)


class _Runner:
    """One schedule's draws and the compiled outputs of the setting pairs a run uses.

    Angles at the same point of the circle (equal normalized :class:`Setting`
    angles, such as 0.0 and 2π) share an integer code and so one compiled
    pair; ``angles`` holds the normalized angles, the test angles first. Pair
    (a, b) has the key ``code(a) * len(angles) + code(b)``. ``base_keys``
    holds the distinct scheduled keys in first-use order and ``base`` each
    trial's index into them, so a run's key columns are tables over small
    domains, indexed per trial. Compiled outputs are flat: row r of a station
    holds its values at ``r * slots + slot`` and its outcomes at
    ``r * cells + state * slots + slot``. Per-trial columns hold integers in
    the narrowest type of their range.
    """

    def __init__(self, model: LocalModel, schedule: Schedule):
        try:
            self._draw(model, schedule)
        except MemoryError:
            raise InvalidScheduleError(f"{schedule.trials} trials do not fit in memory") from None

    def _draw(self, model: LocalModel, schedule: Schedule) -> None:
        self.model, self.schedule = model, schedule
        n, prior = len(schedule.pairs), np.asarray(model.source.prior)
        self.slots = model.grid.slot_count
        self.cells = len(prior) * self.slots
        # Wide enough for the trial count and every modulus below.
        trial = np.arange(schedule.trials, dtype=_int_type(max(schedule.trials, n, self.slots)))
        rng = np.random.default_rng(schedule.seed_source)
        # What ``rng.choice(len(prior), size=len(trial), p=prior / prior.sum())``
        # draws, without its checks of p: the prior was checked when built.
        cdf = (prior / prior.sum()).cumsum()
        cdf /= cdf[-1]
        state = cdf.searchsorted(rng.random(len(trial)), side="right")
        self.state = state.astype(_int_type(len(prior)))
        if schedule.policy == "random":
            pair = np.random.default_rng(schedule.seed_settings).integers(0, n, len(trial))
        else:
            pair = trial % n  # all zeros for the one pair of a fixed schedule
        self.pair = pair.astype(_int_type(n), copy=False)
        self.slot = (trial % self.slots).astype(_int_type(self.slots), copy=False)
        self.cell = self.state.astype(_int_type(self.cells)) * self.slots + self.slot
        codes: dict[float, int] = {}
        for x in [*TEST_ANGLES, *(x for pair in schedule.pairs for x in pair)]:
            codes.setdefault(s1(x).angle, len(codes))
        self.angles = list(codes)
        a, b = np.array([[codes[s1(x).angle] for x in pair] for pair in schedule.pairs]).T
        keys = a * len(self.angles) + b
        first = _first_use(self.pair, n)
        used = np.flatnonzero(first < len(trial))
        index: dict[int, int] = {}
        for key in keys[used[np.argsort(first[used])]].tolist():
            index.setdefault(key, len(index))
        self.base_keys = np.array(list(index))
        pair_base = np.array([index.get(k, 0) for k in keys.tolist()], dtype=_int_type(len(index)))
        self.base = pair_base.take(self.pair)
        self.base_first = np.full(len(index), len(trial))
        np.minimum.at(self.base_first, pair_base[used], first[used])
        # The audit's alternatives to each angle: the test angles elsewhere on
        # the circle, in grid order. Test angle k has code k.
        d = np.subtract.outer(self.angles, TEST_ANGLES) % TWO_PI
        apart = np.minimum(d, TWO_PI - d) > 1e-12
        self.alt_count = apart.sum(axis=1)
        self.alts = np.argsort(~apart, axis=1, kind="stable")

    def remote(self, station: Station) -> np.ndarray:
        """Each base pair's code of the station's remote angle: b for S1, a for S2."""
        a, b = np.divmod(self.base_keys, len(self.angles))
        return b if station is Station.S1 else a

    @cached_property
    def phase(self) -> np.ndarray:
        """Every trial's (base pair, phase) index, ``base * PHASES + trial % PHASES``."""
        phase = self.base.astype(_int_type(len(self.base_keys) * PHASES)) * PHASES
        phase += np.arange(len(phase), dtype=_int_type(len(phase))) % PHASES
        return phase

    @cached_property
    def situation(self) -> np.ndarray:
        """Every trial's (base pair, phase, slot) index."""
        top = len(self.base_keys) * PHASES * self.slots
        return self.phase.astype(_int_type(top)) * self.slots + self.slot

    @cached_property
    def taken(self) -> np.ndarray:
        """The (base pair, phase, slot) indices some trial takes, ascending."""
        seen = np.zeros(len(self.base_keys) * PHASES * self.slots, dtype=bool)
        seen[self.situation] = True
        return np.flatnonzero(seen)

    def perturbed(self, station: Station, p: int) -> np.ndarray:
        """Pair keys over (base pair, phase) with the station's remote angle
        replaced by its p-th alternative; a pair with fewer alternatives keeps
        its key. The alternatives rotate with the trial index, so the phase
        ``trial % PHASES`` fixes which one a trial takes."""
        n = len(self.angles)
        remote = np.repeat(self.remote(station), PHASES)
        count = self.alt_count[remote]
        turn = (np.tile(np.arange(PHASES), len(self.base_keys)) + p) % count
        alt = np.where(p < count, self.alts[remote, turn], remote)
        keys = np.repeat(self.base_keys, PHASES)
        return keys - keys % n + alt if station is Station.S1 else alt * n + keys % n

    def compile(self, columns: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Compile every pair the key columns use, in the order a loop over
        trials, then over columns, would first use it; return each column's
        compiled-row table.

        A column is a key table over a small domain and each domain entry's
        first trial (the trial count for an entry no trial takes), so a pair
        that column c first uses in trial t ranks ``t * len(columns) + c``.
        An entry no trial takes gets row 0.
        """
        ranks = np.concatenate([first * len(columns) + c for c, (first, _) in enumerate(columns)])
        keys = np.concatenate([keys for _, keys in columns])
        used = np.flatnonzero(ranks < self.schedule.trials * len(columns))
        order = dict.fromkeys(keys[used[np.argsort(ranks[used])]].tolist())
        n, s = len(self.angles), self.schedule
        v1s, v2s, As, Bs = zip(*(_pair_outputs(self.model, self.angles[k // n],
                                               self.angles[k % n], s.seed_s1, s.seed_s2)
                                 for k in order))
        self.values = {station: np.fromiter(chain.from_iterable(vs), dtype=object,
                                            count=len(order) * self.slots)
                       for station, vs in ((Station.S1, v1s), (Station.S2, v2s))}
        self.outcomes = {Station.S1: np.concatenate(As, axis=None),
                         Station.S2: np.concatenate(Bs, axis=None)}
        row = dict(zip(order, range(len(order))))
        rows = np.zeros(len(keys), dtype=np.intp)
        rows[used] = [row[k] for k in keys[used].tolist()]
        return np.split(rows, np.cumsum([len(k) for _, k in columns[:-1]]))

    def outcomes_at(self, station: Station, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Every trial's outcome at the station under the compiled-row table
        ``rows``, indexed per trial by ``index``: the flat position
        ``rows[index] * cells + cell``."""
        table = rows * self.cells
        at = table.astype(_int_type(table.max(initial=0) + self.cells)).take(index) + self.cell
        return self.outcomes[station].take(at)

    def values_differ(self, station: Station, rows: np.ndarray,
                      base_rows: np.ndarray) -> np.ndarray | None:
        """Every trial's flag: does the station's instrument value under the
        (base pair, phase) rows differ, by numpy's object ``!=``, from its
        value under the base rows? A value depends on the pair and the slot
        alone, so each situation in ``taken`` is compared once; None when
        none differs."""
        phase, slot = np.divmod(self.taken, self.slots)
        values = self.values[station]
        differ = (values[rows[phase] * self.slots + slot]
                  != values[base_rows[phase // PHASES] * self.slots + slot])
        if not differ.any():
            return None
        table = np.zeros(len(self.base_keys) * PHASES * self.slots, dtype=bool)
        table[self.taken] = differ
        return table.take(self.situation)


def run_experiment(model: LocalModel, schedule: Schedule) -> Trials:
    """Run the scheduled trials; fully reproducible from the schedule's seeds.

    The table holds one row per (scheduled pair, state, slot) key that some
    trial takes, in first-use order, and each column is gathered once per row.
    """
    run = _Runner(model, schedule)
    (rows,) = run.compile([(run.base_first, run.base_keys)])
    size = len(schedule.pairs) * run.cells
    key = run.pair.astype(_int_type(size)) * run.cells + run.cell
    first = _first_use(key, size)
    used = np.flatnonzero(first < len(key))
    used = used[np.argsort(first[used])]
    pair, cell = np.divmod(used, run.cells)
    state, slot = np.divmod(cell, run.slots)
    compiled = rows[run.base.take(first[used])]
    index = np.zeros(size, dtype=_int_type(len(used)))
    index[used] = np.arange(len(used))
    a, b = np.array(schedule.pairs).T
    values, cells = compiled * run.slots + slot, compiled * run.cells + cell
    return Trials(model.source.states, index.take(key), state, slot + 1, a[pair], b[pair],
                  run.values[Station.S1][values], run.values[Station.S2][values],
                  run.outcomes[Station.S1][cells], run.outcomes[Station.S2][cells])


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

    Outcomes are compared trial by trial as int8 arrays. Instrument values
    depend on the pair and the slot alone, so they are compared once per
    (base pair, phase, slot) that some trial takes; only a pass with a
    differing value maps them back to its trials.
    """
    if remote_perturbations < 1:
        raise InvalidScheduleError("remote_perturbations must be >= 1")
    run = _Runner(model, schedule)
    stations = (Station.S1, Station.S2)
    passes = [
        (station, run.perturbed(station, p))
        for station in stations
        for p in range(min(remote_perturbations, run.alt_count[run.remote(station)].max()))
    ]
    phase_first = _first_use(run.phase, len(run.base_keys) * PHASES)
    base_rows, *pass_rows = run.compile(
        [(run.base_first, run.base_keys), *((phase_first, keys) for _, keys in passes)])
    base = {station: run.outcomes_at(station, base_rows, run.base) for station in stations}
    mismatches, first = 0, None
    for (station, keys), rows in zip(passes, pass_rows):
        bad = run.outcomes_at(station, rows, run.phase) != base[station]
        differ = run.values_differ(station, rows, base_rows)
        if differ is not None:
            bad |= differ
        mismatches += int(np.count_nonzero(bad))
        t = int(bad.argmax())
        # Within a trial, S1's perturbations come before S2's, in pass order.
        if bad[t] and (first is None or t < first[0]):
            first = t, station, keys, rows
    report = None if first is None else _first_mismatch(run, base_rows, *first)
    return AuditReport(schedule.trials, mismatches, mismatches == 0, report)


def _first_mismatch(run: _Runner, base_rows: np.ndarray, t: int, station: Station,
                    keys: np.ndarray, rows: np.ndarray) -> dict:
    """The audit's record of trial t's mismatch in the pass at ``station``
    whose (base pair, phase) table holds ``keys`` and compiled ``rows``."""
    side = int(station is Station.S1)  # the remote angle: b for S1, a for S2
    slot, cell = int(run.slot[t]), int(run.cell[t])
    values, outcomes = run.values[station], run.outcomes[station]
    base_row, row = int(base_rows[run.base[t]]), int(rows[run.phase[t]])
    return {
        "trial": t,
        "station": station.value,
        "slot": slot + 1,
        "lambda": str(run.model.source.states[run.state[t]]),
        "remote_original": run.schedule.pairs[run.pair[t]][side],
        "remote_perturbed": run.angles[divmod(int(keys[run.phase[t]]), len(run.angles))[side]],
        "baseline": [str(values[base_row * run.slots + slot]),
                     int(outcomes[base_row * run.cells + cell])],
        "perturbed": [str(values[row * run.slots + slot]), int(outcomes[row * run.cells + cell])],
    }


def empirical_correlations(trials: Trials) -> dict[tuple[float, float], CorrelationReport]:
    """Each setting pair's pooled statistics, keyed by its angles as first run.

    The table rows that trials take are grouped by angle in first-use order;
    one count of trials per row, added into (pair, state, A, B), gives every
    pair's count tensor for :func:`eprsim.inequality.sampled_correlation`.
    """
    first = _first_use(trials.row, len(trials.A))
    rows = np.argsort(first)[:np.count_nonzero(first < len(trials))]
    # -0.0 == 0.0, so each pair keeps the angles it first ran with.
    pairs: dict[tuple[float, float], int] = {}
    pair = np.array([pairs.setdefault(key, len(pairs)) for key in
                     zip(trials.a[rows].tolist(), trials.b[rows].tolist())], dtype=np.intp)
    counts = np.zeros((len(pairs), len(trials.states), 2, 2), dtype=np.int64)
    np.add.at(counts, (pair, trials.state[rows], (trials.A[rows] + 1) // 2,
                       (trials.B[rows] + 1) // 2), np.bincount(trials.row)[rows])
    return {key: sampled_correlation(s1(key[0]), s2(key[1]), tensor, trials.states)
            for key, tensor in zip(pairs, counts)}


def write_trials_csv(trials: Trials, path: str | Path, comments: list[str] | None = None) -> None:
    """Write the trials to ``path`` as CSV rows, one per trial.

    After the trial number, a trial's row is its table row, so each table
    row is formatted once through the same ``csv.writer`` settings; csv
    quotes field by field, so ``f"{t},{suffix[row[t]]}"`` is trial t's full
    row. The rows are joined and written one block at a time.
    """
    with open_output(path) as fp:
        for line in comments or []:
            fp.write(f"# {line}\n")
        csv.writer(fp, lineterminator="\n").writerow(TRIALS_CSV_HEADER)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # writerow returns the characters it wrote: each row's end in buf.
        # (str.splitlines would also split inside fields on \x0b, \u2028, ...)
        ends = list(accumulate(map(writer.writerow, zip(
            trials.m.tolist(),
            # Angles are coordinates, not expectations: keep full precision
            # so the stream round-trips exactly.
            map(repr, trials.a.tolist()),
            map(repr, trials.b.tolist()),
            [trials.states[s] for s in trials.state.tolist()],
            trials.lambda_star.tolist(),
            trials.lambda_dblstar.tolist(),
            trials.A.tolist(),
            trials.B.tolist(),
        ))))
        text = buf.getvalue()
        suffix = np.array([text[s:e] for s, e in zip([0, *ends], ends)], dtype=object)
        for start in range(0, len(trials), CSV_BLOCK_ROWS):
            block = suffix.take(trials.row[start:start + CSV_BLOCK_ROWS]).tolist()
            fp.write("".join([f"{t},{s}" for t, s in enumerate(block, start)]))


def _numbers(cols: list[tuple[str, ...]], k: int, convert, data_rows) -> list:
    """Column ``k`` of a trial CSV through ``convert``; the first cell that
    does not parse is named by its data row (from 1) in ``data_rows``."""
    out = []
    for text, data_row in zip(cols[k], data_rows):
        try:
            out.append(convert(text))
        except ValueError:
            raise InvalidScheduleError(f"trial CSV data row {data_row}: "
                                       f"{TRIALS_CSV_HEADER[k]} = {text!r} does not parse") from None
    return out


def read_trials_csv(path: str | Path) -> Trials:
    """Load trials written by :func:`write_trials_csv`; state labels stay text.

    Each distinct text after the trial number is one table row, parsed once;
    a cell that does not parse is named by the first data row that holds it.
    """
    with open(path, newline="", encoding="utf-8") as fp:
        lines = (row for row in csv.reader(fp) if row and not row[0].startswith("#"))
        if tuple(next(lines, ())) != TRIALS_CSV_HEADER:
            raise InvalidScheduleError("trial CSV is empty or lacks the expected header")
        numbers, row, table = [], [], {}
        for line in lines:
            if len(line) != len(TRIALS_CSV_HEADER):
                raise InvalidScheduleError("trial CSV rows need nine fields")
            numbers.append(line[0])
            row.append(table.setdefault(tuple(line[1:]), len(table)))
    row = np.array(row, dtype=np.intp)
    first = (_first_use(row, len(table)) + 1).tolist()  # each table row's first data row
    # Numbered as in the header: every trial's number, then the table's columns.
    cols = [numbers, *(zip(*table) if table else [()] * (len(TRIALS_CSV_HEADER) - 1))]
    trial = np.array(_numbers(cols, 0, int, range(1, len(numbers) + 1)), dtype=np.int64)
    m, A, B = (np.array(_numbers(cols, k, int, first), dtype=np.int64) for k in (1, 7, 8))
    if (trial != np.arange(len(trial))).any() or (np.abs([A, B]) != 1).any():
        raise InvalidScheduleError("trial CSV needs trials numbered from 0 and outcomes of +-1")
    states, state = np.unique(np.array(cols[4], dtype=str), return_inverse=True)
    a, b = (np.array(_numbers(cols, k, float, first)) for k in (2, 3))
    v1, v2 = (np.fromiter(map(parse_scalar, cols[k]), dtype=object) for k in (5, 6))
    return Trials(tuple(states.tolist()), row, state, m, a, b, v1, v2,
                  *np.array([A, B], dtype=np.int8))
