"""Exact setting-dependent joint tables and the product-form factorization check.

The joint table carries the full distribution over (instrument value at S1,
instrument value at S2, source state, slot) for one setting pair. The
factorization checker offers two conditioning modes because the product-form
assumption is ambiguous about whether the slot is conditioned on:

* ``given_lambda_and_m``: conditions on (state, slot); with deterministic
  generators each side is then a point mass, so model-built tables pass.
* ``given_lambda``: conditions on the state only, pooling slots into each
  station's variable; slot-correlated generators fail here.
"""
from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, dropwhile
from math import fsum, inf
from operator import add, itemgetter
from pathlib import Path
from typing import Hashable

import numpy as np

from .errors import (
    EmptyTableError,
    HarnessError,
    InvalidToleranceError,
    InvalidWeightsError,
)
from .model import LocalModel, Setting, _check_distribution, check_pair
from .util import parse_scalar

CSV_HEADER = ("lambda_star", "lambda_dblstar", "lambda", "m", "prob")

Key = tuple[Hashable, Hashable, Hashable, int]


def _coded(column) -> tuple[tuple, np.ndarray]:
    """One axis as its distinct values in first-seen order and each entry's
    index into them. Values that are equal but print differently, such as
    1, 1.0 and True, or 0.0 and -0.0, stay distinct."""
    index: dict = {}
    codes = [index.setdefault((type(v), v, str(v)), len(index)) for v in column]
    return tuple(key[1] for key in index), np.array(codes, dtype=np.intp)


class TableEntries(Mapping):
    """Coded keys read as a mapping to floats: a joint table's entries,
    (value1, value2, state, slot) -> probability, or a report's conditions.

    ``domains[k]`` holds axis k's distinct values, ``codes[k]`` is a read-only
    integer array whose entry i indexes ``domains[k]``, and ``probs[i]`` is
    entry i's float, entries in insertion order. A key is the tuple of its
    axes' values, or the value of a lone axis. Its length costs O(1); the
    dict behind lookup and iteration is built on first use.
    """

    __slots__ = ("domains", "codes", "probs", "_dict")

    def __init__(self, domains: tuple[tuple, ...], codes: tuple[np.ndarray, ...],
                 probs: tuple[float, ...]):
        for column in codes:
            column.setflags(write=False)
        self.domains, self.codes, self.probs = domains, codes, probs
        self._dict: dict | None = None

    def _mapping(self) -> dict:
        if self._dict is None:
            columns = [map(domain.__getitem__, codes.tolist())
                       for domain, codes in zip(self.domains, self.codes)]
            self._dict = dict(zip(zip(*columns) if len(columns) > 1 else columns[0], self.probs))
        return self._dict

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, key) -> float:
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __repr__(self) -> str:
        return f"TableEntries({self._mapping()!r})"

    def key_texts(self) -> list[str]:
        """``str`` of each key of one axis, or a pair from its parts' ``repr`` as
        ``str`` writes it. Each domain value is formatted once, so equal values
        that print differently (1, 1.0, True; 0.0, -0.0) keep their own text."""
        if len(self.codes) == 1:
            return list(map(list(map(str, self.domains[0])).__getitem__, self.codes[0].tolist()))
        heads = list(map("({!r}, ".format, self.domains[0]))
        tails = list(map("{!r})".format, self.domains[1]))
        return list(map(add, map(heads.__getitem__, self.codes[0].tolist()),
                        map(tails.__getitem__, self.codes[1].tolist())))


def _code_entries(entries: Mapping[Key, float]) -> TableEntries:
    """A mapping's keys coded once, axis by axis."""
    keys = list(entries)
    if any(len(key) != 4 for key in keys):
        raise HarnessError("joint table keys must be (value1, value2, state, slot) tuples")
    domains, codes = zip(*(_coded(column) for column in zip(*keys)))
    return TableEntries(domains, codes, tuple(entries.values()))


@dataclass(frozen=True)
class JointTable:
    """Tabulated probabilities over (value1, value2, state, slot) for one
    setting pair. ``entries`` may be any mapping; the table keeps it as a
    read-only :class:`TableEntries`."""

    setting_a: Setting
    setting_b: Setting
    entries: TableEntries
    value_space_1: tuple[Hashable, ...]
    value_space_2: tuple[Hashable, ...]
    states: tuple[Hashable, ...]

    def __post_init__(self):
        if not self.entries:
            raise EmptyTableError("joint table has no entries")
        if not isinstance(self.entries, TableEntries):
            object.__setattr__(self, "entries", _code_entries(self.entries))
        _check_distribution(self.entries.probs, "joint table")

    def mass(self) -> float:
        return fsum(self.entries.probs)


@dataclass(frozen=True)
class FactorizationReport:
    """Verdict of the product-form check in one conditioning mode. ``deviations``
    maps each condition to its largest cell deviation, coded by the check."""

    mode: str
    tol: float
    max_deviation: float
    passed: bool
    deviations: Mapping[Hashable, float]
    max_total_variation: float

    def to_dict(self) -> dict:
        coded = isinstance(self.deviations, TableEntries)
        texts = self.deviations.key_texts() if coded else map(str, self.deviations)
        values = self.deviations.probs if coded else self.deviations.values()
        return {
            "mode": self.mode,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
            "max_total_variation": self.max_total_variation,
            # The sort is stable on the formatted key alone.
            "deviations": dict(sorted(zip(texts, values), key=itemgetter(0))),
        }


def tabulate_joint(model: LocalModel, a: Setting, b: Setting) -> JointTable:
    """Exact joint distribution of Eq-style tuples for one setting pair.

    Each (state, slot) cell, states outer and slots inner, contributes its
    full mass to the single value pair the deterministic generators select
    there (read from the model's memo). The products ``p * w`` are formed
    here, not taken from :func:`eprsim.model.cell_mass`, so the table route
    shares no arithmetic with the direct sum.
    """
    check_pair(a, b)
    states, slots = model.source.states, tuple(model.grid.slots)
    (values_1, codes_1), (values_2, codes_2) = (_coded(model.compiled(s)[0]) for s in (a, b))
    cell = np.arange(len(states) * len(slots))
    slot = cell % len(slots)
    probs = tuple([p * w for p in model.source.prior for w in model.grid.weights])
    return JointTable(
        setting_a=a,
        setting_b=b,
        entries=TableEntries((values_1, values_2, states, slots),
                             (codes_1[slot], codes_2[slot], cell // len(slots), slot), probs),
        value_space_1=model.gen1.value_space,
        value_space_2=model.gen2.value_space,
        states=states,
    )


def marginal(table: JointTable, axes: tuple[str, ...]) -> dict[tuple, float]:
    """Marginal over any subset of the axes (lambda_star, lambda_dblstar, lambda, m)."""
    positions = []
    for name in axes:
        if name not in CSV_HEADER[:4]:
            raise KeyError(f"unknown axis {name!r}")
        positions.append(CSV_HEADER.index(name))
    groups: dict[tuple, list[float]] = {}
    for key, p in table.entries.items():
        groups.setdefault(tuple(key[i] for i in positions), []).append(p)
    return {k: fsum(v) for k, v in groups.items()}


def swap_stations(table: JointTable) -> JointTable:
    """The same table with the two station axes exchanged (symmetry checks)."""
    (d1, d2, *domains), (c1, c2, *codes) = table.entries.domains, table.entries.codes
    return JointTable(
        setting_a=table.setting_a,
        setting_b=table.setting_b,
        entries=TableEntries((d2, d1, *domains), (c2, c1, *codes), table.entries.probs),
        value_space_1=table.value_space_2,
        value_space_2=table.value_space_1,
        states=table.states,
    )


# Floats of the grids that check_factorization evaluates at once, or one condition's.
GRID_BLOCK = 1 << 20


def _equal_classes(domain: tuple) -> tuple[dict, np.ndarray]:
    """Each domain value's class under ``==``, the index of the first value equal
    to it, and the dict from those first values to their classes."""
    first: dict = {}
    return first, np.array([first.setdefault(v, i) for i, v in enumerate(domain)], dtype=np.intp)


def _int_type(top: int) -> np.dtype:
    """The narrowest signed integer type that holds 0..top."""
    return np.min_scalar_type(-top - 1)


def _first_use(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys in 0..size-1 numbered in order of first use: one scan, no sort.

    Returns each key's first entry (``len(keys)`` for a key no entry takes),
    the entries that first take a key, ascending, and each key's number in
    that order (0 for a key no entry takes). First entries and numbers have
    the narrowest signed type of their range (:func:`_int_type`).
    """
    entry = np.arange(len(keys), dtype=_int_type(len(keys)))
    first = np.full(size, len(keys), dtype=entry.dtype)
    np.minimum.at(first, keys, entry)
    taken = np.zeros(len(keys) + 1, dtype=bool)
    taken[first] = True  # the last place stands for every key no entry takes
    starts = taken[:-1].nonzero()[0]
    number = np.zeros(size, dtype=_int_type(len(starts)))
    number[keys[starts]] = entry[:len(starts)]
    return first, starts, number


def _grid_deviations(table: JointTable, live: np.ndarray, probs: np.ndarray, cond: np.ndarray,
                     conditions: int):
    """Each condition's max cell deviation and total variation, for check_factorization."""
    entries = table.entries
    (first_1, class_1), (first_2, class_2) = map(_equal_classes, entries.domains[:2])
    # One more class per axis, never filled, for values the table does not hold.
    n1, n2 = len(entries.domains[0]) + 1, len(entries.domains[1]) + 1
    # Each value-grid point's (class 1, class 2) cell, value space 1 outer.
    y = [first_2.get(v, n2 - 1) for v in table.value_space_2]
    grid = np.array([first_1.get(v, n1 - 1) * n2 + j for v in table.value_space_1 for j in y])
    step = max(1, GRID_BLOCK // max(len(grid), n1 * n2))
    bounds = [0, len(cond)]
    if conditions > step:  # entries by condition, in entry order within each
        order = cond.argsort(kind="stable")
        live, probs, cond = live[order], probs[order], cond[order]
        bounds = np.searchsorted(cond, range(0, conditions + step, step)).tolist()
    # Condition numbers come in their narrowest type: widen them before the products.
    cell = (cond.astype(np.intp) * (n1 * n2) + class_1[entries.codes[0][live]] * n2
            + class_2[entries.codes[1][live]])
    worst, tv = np.zeros(conditions), np.zeros(conditions)
    for k, lo in enumerate(range(0, conditions if len(grid) else 0, step)):
        hi, part = min(lo + step, conditions), slice(bounds[k], bounds[k + 1])
        key, size = cell[part] - lo * n1 * n2, (hi - lo) * n1 * n2
        cells = key[_first_use(key, size)[1]]  # the block's cells, in order of first use
        if len(cells) == hi - lo:  # one cell per condition: every difference is 0.0
            continue
        joint = np.bincount(key, probs[part], size).reshape(hi - lo, n1 * n2)
        joint /= np.array(list(map(fsum, joint.tolist())))[:, None]
        p, (row, col) = joint.ravel()[cells], np.divmod(cells, n2)  # row: (condition, class 1)
        p1 = np.bincount(row, p, (hi - lo) * n1).reshape(-1, n1, 1)
        p2 = np.bincount(row // n1 * n2 + col, p, (hi - lo) * n2)
        joint -= (p1 * p2.reshape(-1, 1, n2)).reshape(hi - lo, -1)
        diff = np.abs(joint, out=joint).take(grid, axis=1)
        worst[lo:hi] = np.fmax.reduce(diff, axis=1, initial=0.0)
        tv[lo:hi] = np.add.accumulate(diff, axis=1, out=diff)[:, -1]
    return worst, 0.5 * tv


def check_factorization(
    table: JointTable,
    mode: str = "given_lambda_and_m",
    tol: float = 1e-9,
) -> FactorizationReport:
    """Compare the conditional joint of the two stations' values to the product
    of its own marginals, reporting the largest absolute cell difference.

    Nonzero entries form conditions by their codes, values equal under ``==``
    together, in order of first use. A condition of one (value1, value2) cell
    has every difference exactly 0.0; the other conditions' value grids are
    evaluated in blocks of about ``GRID_BLOCK`` floats, each float as a loop
    over cells and grid makes it: ``np.bincount`` adds cell masses and
    marginals left to right from 0.0 (entries in entry order, cells in order
    of first use), the condition's mass is the ``fsum`` of its cells, and
    ``np.add.accumulate`` adds the total variation over value space 1, then
    value space 2. A value-space entry finds its class as ``dict.get`` finds a
    key (a NaN only as the same object), and ``np.fmax`` skips NaN like ``>``.
    """
    if not 0.0 < tol < inf:
        raise InvalidToleranceError(f"tolerance must be > 0 and finite, got {tol!r}")
    if mode not in ("given_lambda", "given_lambda_and_m"):
        raise InvalidToleranceError(f"unknown factorization mode {mode!r}")

    domains, codes = table.entries.domains, table.entries.codes
    probs = np.array(table.entries.probs, dtype=float)
    live = probs.nonzero()[0]
    axes = (2,) if mode == "given_lambda" else (2, 3)
    key, size = 0, 1
    for k in axes:
        key = key * len(domains[k]) + _equal_classes(domains[k])[1][codes[k][live]]
        size *= len(domains[k])
    if size > 4 * len(key) + 64:  # a sparse product of states and slots
        size, (_, key) = len(key), np.unique(key, return_inverse=True)
    _, starts, number = _first_use(key, size)
    deviations, tv = np.zeros(len(starts)), np.zeros(1)
    if len(starts) < len(live):  # a condition with several entries may hold several cells
        deviations, tv = _grid_deviations(table, live, probs[live], number[key], len(starts))
    max_dev = float(deviations.max(initial=0.0))
    return FactorizationReport(
        mode=mode,
        tol=tol,
        max_deviation=max_dev,
        passed=max_dev <= tol,
        deviations=TableEntries(tuple(domains[k] for k in axes),
                                tuple(codes[k][live[starts]] for k in axes),
                                tuple(deviations.tolist())),
        max_total_variation=float(tv.max()),
    )


def _csv_fields(domains, codes) -> list[list[str]]:
    """Each code column's entries as :mod:`csv` writes them as one field of a
    wider row; column k indexes ``domains[k]``, each value formatted once."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # A lone empty field is written quoted; beside another field it is not.
    # ``writerow`` returns the length it wrote, so the rows can be cut apart.
    ends = list(accumulate(writer.writerow((v, "")) for v in chain.from_iterable(domains)))
    text = buf.getvalue()
    fields = [text[start:end - 2] for start, end in zip([0, *ends], ends)]
    cuts = list(accumulate(map(len, domains), initial=0))
    return [np.array(fields[start:end], dtype=object).take(column).tolist()
            for start, end, column in zip(cuts, cuts[1:], codes)]


def _str_ranks(values: tuple) -> np.ndarray:
    """Each value's rank among the distinct ``str`` forms of ``values``."""
    text = [str(v) for v in values]
    rank = {t: r for r, t in enumerate(sorted(set(text)))}
    return np.array([rank[t] for t in text], dtype=np.intp)


def table_to_csv(table: JointTable) -> str:
    """Serialize with full-precision probabilities; row order is canonical.

    Rows are ordered by their four key fields' ``str`` forms, compared left
    to right, and rows whose forms tie keep entry order: a stable sort on
    per-axis ``str`` ranks, which needs no bound on the product of the
    domain sizes. Each distinct value is formatted once.
    """
    entries = table.entries
    domains, codes = entries.domains, entries.codes
    order = np.lexsort([_str_ranks(d)[c] for d, c in zip(reversed(domains), reversed(codes))])
    columns = _csv_fields(domains, [column[order] for column in codes])
    probs = map(_prob_texts(entries.probs).__getitem__, order.tolist())
    rows = "\n".join(map(",".join, zip(*columns, probs)))
    return f"{','.join(CSV_HEADER)}\n{rows}\n"


def _prob_texts(probs: tuple) -> list[str]:
    """Each probability's ``repr``. Floats are formatted once per bit pattern,
    so -0.0 keeps its own text; a table given other numbers formats each."""
    if set(map(type, probs)) != {float}:
        return list(map(repr, probs))
    bits = array("Q", array("d", probs).tobytes())
    texts = {b: repr(p) for b, p in dict(zip(bits, probs)).items()}
    return list(map(texts.__getitem__, bits))


def read_table_csv(path: str | Path, a: Setting, b: Setting) -> JointTable:
    """Load a table file holding :func:`table_to_csv` text."""
    return table_from_csv(Path(path).read_text(encoding="utf-8"), a, b)


def table_from_csv(text: str, a: Setting, b: Setting) -> JointTable:
    """Parse CSV text written by :func:`table_to_csv`; axes are the observed
    values, and state labels stay text. Lines whose first field starts with
    ``#`` are comments only before the header; after it they are rows."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    rows = list(dropwhile(lambda r: r[0].startswith("#"), rows))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise EmptyTableError("joint-table CSV is empty or lacks the expected header")
    entries: dict[Key, float] = {}
    for row in rows[1:]:
        if len(row) != 5:
            raise InvalidWeightsError(f"joint-table CSV row has {len(row)} fields: {row!r}")
        try:
            m, p = int(row[3]), float(row[4])
        except ValueError:
            raise InvalidWeightsError(
                f"joint-table CSV row {row!r}: m must be an integer and prob a number"
            ) from None
        key = (parse_scalar(row[0]), parse_scalar(row[1]), row[2], m)
        entries[key] = entries.get(key, 0.0) + p
    if not entries:
        raise EmptyTableError("joint-table CSV holds no rows")

    def axis(i):
        return tuple(sorted({k[i] for k in entries}, key=str))

    return JointTable(
        setting_a=a,
        setting_b=b,
        entries=entries,
        value_space_1=axis(0),
        value_space_2=axis(1),
        states=axis(2),
    )
