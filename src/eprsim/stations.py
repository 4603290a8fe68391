"""Lockstep two-station trial runner and the counterfactual locality audit.

The two stations are pure computations inside one process: both consume the
same slot index per trial (the shared clock), and each sees only its own
setting, the drawn source state, the slot and its own seed. One private
runner draws every trial once and compiles each setting pair it uses once. A
run (:class:`Trials`) is the table of distinct rows its trials take, coded by
the runner's own indices, plus each trial's row index. The audit re-gathers
one station's outcomes under varied remote settings, compares its instrument
values once per situation a trial takes, and counts any change; honest models
pass by construction, so the audit is a regression guard on the harness.
"""
from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, count, islice
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

from .density import _csv_fields, _equal_classes, _first_use, _int_type
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

# Each trial CSV column after the trial number: its text's parse, and which values a run writes.
TRIALS_CSV_COLUMNS = {"m": (int, lambda m: m >= 1), "a": (float, math.isfinite),
                      "b": (float, math.isfinite), "lambda": (str, None),
                      "lambda_star": (parse_scalar, None), "lambda_dblstar": (parse_scalar, None),
                      "A": (int, lambda A: abs(A) == 1), "B": (int, lambda B: abs(B) == 1)}
TRIALS_CSV_HEADER = ("trial", *TRIALS_CSV_COLUMNS)

DEFAULT_PAIRS = tuple((x, y) for x in TEST_ANGLES for y in TEST_ANGLES)

POLICIES = ("fixed", "cycle", "random")

# Rows per block of the trial CSV writer and reader, a whole number of
# decades: the writer's memory stays flat in the trial count, and the reader
# keeps no row's text past its block.
CSV_BLOCK_ROWS = 4000

# The most trials a run holds: one int64 per trial must fit numpy's largest array.
MAX_RUN_TRIALS = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize

# A remote angle has at most len(TEST_ANGLES) alternatives, and a trial's turn
# among k of them follows its index modulo k, so the index modulo PHASES fixes
# the turn for every k.
PHASES = int(np.lcm.reduce(np.arange(1, len(TEST_ANGLES) + 1)))


@dataclass(frozen=True, eq=False)
class Trials:
    """A run in factored form: a table of coded rows and each trial's row index.

    ``state`` indexes ``states``, ``pair`` the setting pairs ``pairs`` (as
    scheduled: a ``-0.0`` stays), and ``star`` and ``dblstar`` the S1 and S2
    instrument values ``stars`` and ``dblstars`` (each as a rule returned
    it). ``m`` is the slot (from 1), ``A`` and ``B`` the int8 outcomes. Runs
    and trial CSVs give ``row`` and each code the narrowest signed type for
    its table or domain, and ``m`` for its largest slot (:func:`_int_type`).
    A row may be listed twice or taken by no trial.
    """

    states: tuple[Hashable, ...]
    pairs: tuple[tuple[float, float], ...]
    stars: Sequence
    dblstars: Sequence
    row: np.ndarray
    state: np.ndarray
    m: np.ndarray
    pair: np.ndarray
    star: np.ndarray
    dblstar: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        # Every field after ``row`` is a table column of one entry per row.
        short = [f.name for f in fields(self)[5:] if len(getattr(self, f.name)) != len(self.A)]
        if short:
            raise InvalidScheduleError(f"table columns {short} need {len(self.A)} rows like A")
        for name, codes, size in (
                ("table row", self.row, len(self.A)), ("state", self.state, len(self.states)),
                ("pair", self.pair, len(self.pairs)), ("star", self.star, len(self.stars)),
                ("dblstar", self.dblstar, len(self.dblstars))):
            if len(codes) and not 0 <= codes.min() <= codes.max() < size:
                raise InvalidScheduleError(f"{name} codes must index the {size} {name}s")

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
        distinct, code = np.unique(a * len(self.angles) + b, return_inverse=True)
        # The pairs in order of first use, then their distinct keys in that order.
        _, starts, _ = _first_use(self.pair, n)
        ranked = code[self.pair[starts]]
        _, firsts, number = _first_use(ranked, len(distinct))
        self.base_keys, self.base_first = distinct[ranked[firsts]], starts[firsts]
        self.base = number[code].take(self.pair)

    @cached_property
    def alternatives(self) -> tuple[np.ndarray, np.ndarray]:
        """The audit's alternatives to each angle, the test angles elsewhere on
        the circle in grid order: their count and their codes (test angle k
        has code k), the alternatives first in each row."""
        d = np.subtract.outer(self.angles, TEST_ANGLES) % TWO_PI
        apart = np.minimum(d, TWO_PI - d) > 1e-12
        return apart.sum(axis=1), np.argsort(~apart, axis=1, kind="stable")

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
        alt_count, alts = self.alternatives
        count = alt_count[remote]
        turn = (np.tile(np.arange(PHASES), len(self.base_keys)) + p) % count
        alt = np.where(p < count, alts[remote, turn], remote)
        keys = np.repeat(self.base_keys, PHASES)
        return keys - keys % n + alt if station is Station.S1 else alt * n + keys % n

    def compile(self, columns: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Compile every pair the key columns use, in the order a loop over
        trials, then over columns, would first use it; return each column's
        compiled-row table.

        A column is a key table over a small domain and each domain entry's
        first trial (the trial count for an entry no trial takes), so a pair
        that column c first uses in trial t ranks ``t * len(columns) + c``,
        an int64 so that it does not wrap. An entry no trial takes gets row 0.
        """
        ranks = np.concatenate([first.astype(np.int64) * len(columns) + c
                                for c, (first, _) in enumerate(columns)])
        keys = np.concatenate([keys for _, keys in columns])
        used = np.flatnonzero(ranks < self.schedule.trials * len(columns))
        distinct, code = np.unique(keys[used], return_inverse=True)
        ranked = code[np.argsort(ranks[used])]
        _, starts, number = _first_use(ranked, len(distinct))
        order = distinct[ranked[starts]].tolist()
        n, s = len(self.angles), self.schedule
        v1s, v2s, As, Bs = zip(*(_pair_outputs(self.model, self.angles[k // n],
                                               self.angles[k % n], s.seed_s1, s.seed_s2)
                                 for k in order))
        self.values = {station: np.fromiter(chain.from_iterable(vs), dtype=object,
                                            count=len(order) * self.slots)
                       for station, vs in ((Station.S1, v1s), (Station.S2, v2s))}
        self.outcomes = {Station.S1: np.concatenate(As, axis=None),
                         Station.S2: np.concatenate(Bs, axis=None)}
        rows = np.zeros(len(keys), dtype=np.intp)
        rows[used] = number[code]
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
    trial takes, in first-use order, coded by the runner's own indices (a
    row's compiled values sit at one flat position at both stations).
    """
    run = _Runner(model, schedule)
    (rows,) = run.compile([(run.base_first, run.base_keys)])
    size = len(schedule.pairs) * run.cells
    key = run.pair.astype(_int_type(size)) * run.cells + run.cell
    _, starts, number = _first_use(key, size)
    pair, cell = np.divmod(key[starts], run.cells)
    state, slot = np.divmod(cell, run.slots)
    compiled = rows[run.base.take(starts)]
    stars, dblstars = run.values[Station.S1], run.values[Station.S2]
    values = (compiled * run.slots + slot).astype(_int_type(len(stars)))
    cells = compiled * run.cells + cell
    m = (slot + 1).astype(_int_type(int(slot.max(initial=0)) + 1))
    return Trials(model.source.states, schedule.pairs, stars, dblstars, number.take(key),
                  state.astype(run.state.dtype), m, pair.astype(run.pair.dtype), values, values,
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
        for p in range(min(remote_perturbations, run.alternatives[0][run.remote(station)].max()))
    ]
    phase_first, _, _ = _first_use(run.phase, len(run.base_keys) * PHASES)
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

    Entries of ``trials.pairs`` equal under ``==`` (-0.0 and 0.0) are one
    pair, numbered by first use over the table rows that trials take, in
    first-use order; a pair keeps the angles it first ran with. One count of
    trials per row, added into (pair, state, A, B), gives every pair's count
    tensor for :func:`eprsim.inequality.sampled_correlation`.
    """
    rows = trials.row[_first_use(trials.row, len(trials.A))[1]]
    pair = trials.pair[rows]
    code = _equal_classes(trials.pairs)[1][pair]
    _, starts, number = _first_use(code, len(trials.pairs))
    counts = np.zeros((len(starts), len(trials.states), 2, 2), dtype=np.int64)
    np.add.at(counts, (number[code], trials.state[rows], (trials.A[rows] + 1) // 2,
                       (trials.B[rows] + 1) // 2), np.bincount(trials.row)[rows])
    keys = map(trials.pairs.__getitem__, pair[starts].tolist())
    return {key: sampled_correlation(s1(key[0]), s2(key[1]), tensor, trials.states)
            for key, tensor in zip(keys, counts)}


def write_trials_csv(trials: Trials, path: str | Path, comments: list[str] | None = None) -> None:
    """Write the trials to ``path`` as CSV rows, one per trial.

    Each table column is a code into a domain (``m``, ``A`` and ``B`` into
    their ``np.unique`` values, ``pair`` for both angles), and each domain
    entry is formatted once, by :func:`eprsim.density._csv_fields`: an angle
    as its full ``repr`` (-0.0 keeps its sign), an instrument value as the
    object a rule returned (1, 1.0 and True differ). A table row's line is
    its fields joined by code. Trial t's number is ``str(t // 10)`` (empty
    below 10) and its last digit, so a block, which starts on a decade, is
    one join of (decade, digit, line) texts: none is built per trial.
    """
    (ms, m), (As, A), (Bs, B) = (np.unique(x, return_inverse=True)
                                 for x in (trials.m, trials.A, trials.B))
    a, b = zip(*trials.pairs) if trials.pairs else ((), ())
    suffix = np.fromiter(map(",".join, zip(*_csv_fields(
        (ms, a, b, trials.states, trials.stars, trials.dblstars, As, Bs),
        (m, trials.pair, trials.pair, trials.state, trials.star, trials.dblstar, A, B)))),
        dtype=object, count=len(trials.A))
    suffix += "\n"  # in place, so no second copy of every line is held
    block = np.empty((CSV_BLOCK_ROWS // 10, 10, 3), dtype=object)
    block[..., 1] = [f"{d}," for d in range(10)]
    cells = block.reshape(-1, 3)
    with open_output(path) as fp:
        for line in comments or []:
            fp.write(f"# {line}\n")
        fp.write(",".join(TRIALS_CSV_HEADER) + "\n")
        for start in range(0, len(trials), CSV_BLOCK_ROWS):
            row = trials.row[start:start + CSV_BLOCK_ROWS]
            tens = [*map(str, range(start // 10, start // 10 + len(block)))]
            block[..., 0] = np.array(tens if start else ["", *tens[1:]], dtype=object)[:, None]
            cells[:len(row), 2] = suffix.take(row)
            fp.write("".join(cells[:len(row)].ravel().tolist()))


def _parsed(k: int, index: dict, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """Trial CSV column k's texts in code-point order, each parsed once, and
    each ``index`` code's place among them. ``codes[d - 1]`` is data row d's
    code: they name the first data row that holds a text no run writes."""
    parse, written = TRIALS_CSV_COLUMNS[TRIALS_CSV_HEADER[k]]
    texts, values = sorted(index), []
    for text in texts:
        try:
            values.append(parse(text))
            wrong = written is not None and not written(values[-1])
        except ValueError:
            wrong = True
        if wrong:
            data_row = int((codes == index[text]).argmax()) + 1
            raise InvalidScheduleError(f"trial CSV data row {data_row}: {TRIALS_CSV_HEADER[k]} "
                                       f"= {text!r} is not a value a run writes")
    return values, np.argsort([index[text] for text in texts]).astype(_int_type(len(texts)))


def read_trials_csv(path: str | Path) -> Trials:
    """Load trials written by :func:`write_trials_csv`; state labels stay text.

    Trials must be numbered 0, 1, 2, ... Rows stream in blocks, and each
    column after the trial number codes its texts by one dict as they come.
    Each distinct text is then parsed once (:data:`TRIALS_CSV_COLUMNS`); a
    text that parses to no value a run writes is named by the first data row
    that holds it. Table columns are coded as a run's are, by their texts in
    code-point order; each distinct row of codes is a table row, numbered by
    first use, and each distinct (a, b) a pair.
    """
    indexes, parts = [{} for _ in TRIALS_CSV_COLUMNS], [[] for _ in TRIALS_CSV_COLUMNS]
    first, wrong = 0, None
    with open(path, newline="", encoding="utf-8") as fp:
        lines = (row for row in csv.reader(fp) if row and not row[0].startswith("#"))
        if tuple(next(lines, ())) != TRIALS_CSV_HEADER:
            raise InvalidScheduleError("trial CSV is empty or lacks the expected header")
        while block := list(islice(lines, CSV_BLOCK_ROWS)):
            if set(map(len, block)) != {len(TRIALS_CSV_HEADER)}:
                raise InvalidScheduleError("trial CSV rows need nine fields")
            numbers, *columns = zip(*block)
            if wrong is None and numbers != tuple(map(str, range(first, first + len(block)))):
                wrong = next((t, text) for t, text in enumerate(numbers, first) if text != str(t))
            for part, index, texts in zip(parts, indexes, columns):
                index.update(zip(set(texts).difference(index), count(len(index))))
                part.append(np.fromiter(map(index.__getitem__, texts), _int_type(len(index))))
            first += len(block)
    if wrong is not None:
        raise InvalidScheduleError(f"trial CSV data row {wrong[0] + 1}: trial = {wrong[1]!r} "
                                   f"where a run writes '{wrong[0]}'")
    # The empty array gives a file with no data rows empty code columns.
    codes = [np.concatenate([np.zeros(0, np.int8), *part], dtype=_int_type(len(index)))
             for part, index in zip(parts, indexes)]
    domains, ranks = zip(*(_parsed(k, index, c)
                           for k, (index, c) in enumerate(zip(indexes, codes), 1)))
    # Each data row's codes as one int64, compacted before a column could overflow it.
    key, size = np.zeros(first, dtype=np.int64), 1
    for c, n in zip(codes, map(len, indexes)):
        if size * n > np.iinfo(np.int64).max:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key, size = key * n + c, size * n
    distinct, key = np.unique(key, return_inverse=True)
    _, starts, number = _first_use(key, len(distinct))
    m, a, b, states, stars, dblstars, A, B = domains
    table = [rank[c[starts]] for rank, c in zip(ranks, codes)]
    pairs, pair = np.unique(table[1].astype(np.int64) * len(b) + table[2], return_inverse=True)
    return Trials(tuple(states), tuple((a[k // len(b)], b[k % len(b)]) for k in pairs.tolist()),
                  tuple(stars), tuple(dblstars), number.take(key), table[3],
                  np.array(m, dtype=_int_type(max(m, default=0)))[table[0]],
                  pair.astype(_int_type(len(pairs))), table[4], table[5],
                  np.array(A, dtype=np.int8)[table[6]], np.array(B, dtype=np.int8)[table[7]])
