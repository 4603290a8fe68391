"""Lockstep two-station trial runner and the exact locality audit.

The two stations are pure computations inside one process: both consume the
same slot index per trial (the shared clock), and each sees only its own
setting, the drawn source state, the slot and its generator's own seed. A
run draws every trial once and compiles each setting pair it uses once. It
(:class:`Trials`) is the table of distinct rows its trials take, coded by
the run's own indices, plus each trial's row index. The audit draws no
trial: it compiles each scheduled pair and every pair that changes one
station's remote setting alone, and compares that station's compiled arrays
cell by cell. Honest models pass by construction, so the audit is a
regression guard on the harness.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from itertools import chain, compress, count, islice
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
from .sampling import search_cdf
from .util import as_integer, open_output, parse_scalar

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
        for name in ("m", "A", "B"):
            column = getattr(self, name)
            wrong = np.flatnonzero(~TRIALS_CSV_COLUMNS[name][1](column))
            if len(wrong):
                raise InvalidScheduleError(f"table row {wrong[0]}: {name} = {column[wrong[0]]} "
                                           "is not a value a run writes")
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
    turn and ``random`` draws each trial's pair from ``seed_settings``; the
    source state is drawn from ``seed_source``. Slots advance with the trial
    index modulo the grid size at both stations (clock synchrony). The model
    is run as the exact paths compile it: each generator under its own seed.
    """

    trials: int
    policy: str = "cycle"
    pairs: tuple[tuple[float, float], ...] = DEFAULT_PAIRS
    seed_source: int = 0
    seed_settings: int = 0

    def __post_init__(self):
        self._integer("trials", 1, MAX_RUN_TRIALS)
        # numpy's generators take non-negative seeds.
        self._integer("seed_source", 0)
        self._integer("seed_settings", 0)
        if self.policy not in POLICIES:
            raise InvalidScheduleError(f"unknown setting policy {self.policy!r}")
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InvalidScheduleError("schedule needs at least one setting pair")
        if self.policy == "fixed" and len(pairs) != 1:
            raise InvalidScheduleError(f"a fixed schedule holds one setting pair, got {len(pairs)}")

    def _integer(self, name: str, low: int, high: float = np.inf) -> None:
        """Keep field ``name`` as an int in low..high; a float, a string or a bool is refused."""
        value = getattr(self, name)
        number = as_integer(value)
        if number is None:
            raise InvalidScheduleError(f"{name} must be an integer, got {value!r}")
        if not low <= number <= high:
            raise InvalidScheduleError(f"{name} must be in {low}..{high}, got {number}")
        object.__setattr__(self, name, number)


@dataclass(frozen=True)
class AuditReport:
    mismatches: int
    passed: bool
    first_mismatch: dict | None = None

    def to_dict(self) -> dict:
        return {
            "mismatches": self.mismatches,
            "pass": self.passed,
            "first_mismatch": self.first_mismatch,
        }


def _pair_outputs(model: LocalModel, a_angle: float, b_angle: float):
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
    v1s = station_values(model, a)
    v2s = station_values(model, b)
    return v1s, v2s, station_outcomes(model, a, v1s), station_outcomes(model, b, v2s)


def _pair_keys(schedule: Schedule) -> tuple[list[float], np.ndarray]:
    """The normalized angles, the test angles first, and each scheduled pair's
    key ``code(a) * len(angles) + code(b)``, where angle k has code k. Angles
    at the same point of the circle (equal normalized :class:`Setting` angles,
    such as 0.0 and 2π) share a code, and so pairs of them share a key."""
    codes: dict[float, int] = {}
    for x in [*TEST_ANGLES, *(x for pair in schedule.pairs for x in pair)]:
        codes.setdefault(s1(x).angle, len(codes))
    a, b = np.array([[codes[s1(x).angle] for x in pair] for pair in schedule.pairs]).T
    return list(codes), a * len(codes) + b


def _compile(model: LocalModel, angles: list[float],
             keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' outputs under each pair key, compiled in turn by
    :func:`_pair_outputs`: their instrument values as one object array over
    (station, pair, slot), and their int8 outcomes over (station, pair,
    state, slot). Station S1 is index 0."""
    n = len(angles)
    v1s, v2s, As, Bs = zip(*(_pair_outputs(model, angles[k // n], angles[k % n]) for k in keys))
    values = np.fromiter(chain(*v1s, *v2s), dtype=object,
                         count=2 * len(keys) * model.grid.slot_count)
    return values.reshape(2, len(keys), -1), np.stack([np.stack(As), np.stack(Bs)])


def run_experiment(model: LocalModel, schedule: Schedule) -> Trials:
    """Run the scheduled trials; fully reproducible from the schedule's seeds.

    Every trial's source state, setting pair and slot is drawn once, as arrays
    in the narrowest integer type of their range. The states are the prior
    cdf's :func:`eprsim.sampling.search_cdf` of one ``random(trials)`` call:
    what ``rng.choice`` draws, mostly in O(1) per trial. The scheduled pairs' distinct
    keys (:func:`_pair_keys`) are compiled once each, in the order trials
    first use them. The table holds one row per (scheduled pair, state, slot)
    key that some trial takes, in first-use order; its ``star`` and
    ``dblstar`` codes are one flat position, ``compiled pair * slots + slot``,
    into both stations' compiled values.
    """
    n, prior = len(schedule.pairs), np.asarray(model.source.prior)
    slots = model.grid.slot_count
    cells = len(prior) * slots
    try:
        # Wide enough for the trial count and every modulus below.
        trial = np.arange(schedule.trials, dtype=_int_type(max(schedule.trials, n, slots)))
        # What ``rng.choice(len(prior), size=len(trial), p=prior / prior.sum())``
        # draws, without its checks of p: the prior was checked when built.
        cdf = (prior / prior.sum()).cumsum()
        cdf /= cdf[-1]
        draws = np.random.default_rng(schedule.seed_source).random(len(trial))
        state = search_cdf(cdf, draws, _int_type(len(prior)))
        if schedule.policy == "random":
            pair = np.random.default_rng(schedule.seed_settings).integers(0, n, len(trial))
        else:
            pair = trial % n  # all zeros for the one pair of a fixed schedule
        pair = pair.astype(_int_type(n), copy=False)
        slot = (trial % slots).astype(_int_type(slots), copy=False)
    except MemoryError:
        raise InvalidScheduleError(f"{schedule.trials} trials do not fit in memory") from None
    angles, keys = _pair_keys(schedule)
    distinct, code = np.unique(keys, return_inverse=True)
    # The pairs in order of first use, then their distinct keys in that order.
    _, starts, _ = _first_use(pair, n)
    ranked = code[pair[starts]]
    _, firsts, compiled = _first_use(ranked, len(distinct))
    values, outcomes = _compile(model, angles, distinct[ranked[firsts]].tolist())
    size = n * cells
    key = (pair.astype(_int_type(size)) * len(prior) + state) * slots + slot
    _, starts, row = _first_use(key, size)
    # From here on pair, state and slot are table columns, one entry per row.
    pair, cell = np.divmod(key[starts], cells)
    state, slot = np.divmod(cell, slots)
    at = compiled.astype(np.intp)[code[pair]]  # each row's compiled pair
    stars, dblstars = values.reshape(2, -1)
    codes = (at * slots + slot).astype(_int_type(len(stars)))
    m = (slot + 1).astype(_int_type(int(slot.max(initial=0)) + 1))
    A, B = outcomes[:, at, state, slot]
    return Trials(model.source.states, schedule.pairs, stars, dblstars, row.take(key),
                  state.astype(_int_type(len(prior))), m, pair.astype(_int_type(n)), codes, codes,
                  A, B)


def locality_audit(
    model: LocalModel, schedule: Schedule, remote_perturbations: int = 1
) -> AuditReport:
    """Compare each station's compiled outputs across every change of its remote setting alone.

    For each distinct scheduled pair (a, b), keyed as :func:`_pair_keys`
    keys it and taken in schedule order, S1's instrument values and (state,
    slot) outcomes at (a, b) are compared with those at (a, b') for every
    alternative b', and S2's with those at (a', b) for every alternative
    a'. An alternative is a test angle at another point of the circle than
    the angle it replaces: 3 for a test angle, 4 for an angle off the grid.
    Each pair is compiled once, through :func:`_pair_outputs`, at its first
    need: a scheduled pair, then its S1 alternatives in grid order, then its
    S2 alternatives. Every differing (scheduled pair, station, alternative,
    state, slot) cell is an Einstein locality violation and counts as one
    mismatch (a differing instrument value, once per state of its slot); the
    first in that order is reported.

    The verdict is exact, so it depends on neither the schedule's trial count
    nor ``remote_perturbations``, which must still be at least 1.
    """
    if remote_perturbations < 1:
        raise InvalidScheduleError("remote_perturbations must be >= 1")
    angles, keys = _pair_keys(schedule)
    n = len(angles)
    d = np.subtract.outer(angles, TEST_ANGLES) % TWO_PI
    far = (np.minimum(d, TWO_PI - d) > 1e-12).tolist()
    alternatives = [list(compress(range(len(TEST_ANGLES)), row)) for row in far]
    scheduled: dict[int, tuple[float, float]] = {}
    for key, pair in zip(keys.tolist(), schedule.pairs):
        scheduled.setdefault(key, pair)
    # (scheduled key, station index, alternative key), S1 first: test angle k has code k.
    compares = [(key, side, k * n + key % n if side else key - key % n + k)
                for key in scheduled
                for side, remote in enumerate(divmod(key, n)[::-1])
                for k in alternatives[remote]]
    order = list(dict.fromkeys(chain.from_iterable((key, alt) for key, _, alt in compares)))
    row = {key: r for r, key in enumerate(order)}
    values, outcomes = _compile(model, angles, order)
    station, base, alt = np.array([(side, row[key], row[k]) for key, side, k in compares]).T
    bad = outcomes[station, alt] != outcomes[station, base]
    moved = values[station, alt] != values[station, base]
    if moved.any():  # never on an honest model
        bad |= moved[:, None, :]
    mismatches = int(np.count_nonzero(bad))
    if not mismatches:
        return AuditReport(0, True)
    c, state, slot = map(int, np.unravel_index(bad.argmax(), bad.shape))
    key, side, k = compares[c]
    local, remote = scheduled[key][::-1] if side else scheduled[key]
    seen = [[str(values[side, row[x], slot]), int(outcomes[side, row[x], state, slot])]
            for x in (key, k)]
    return AuditReport(mismatches, False, {
        "station": (Station.S1, Station.S2)[side].value,
        "local": local,
        "slot": slot + 1,
        "lambda": str(model.source.states[state]),
        "remote_original": remote,
        "remote_perturbed": angles[divmod(k, n)[1 - side]],
        "baseline": seen[0],
        "perturbed": seen[1],
    })


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
