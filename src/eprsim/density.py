"""Exact setting-dependent joint tables and the product-form factorization check.

The joint table carries the full distribution over (instrument value at S1,
instrument value at S2, source state, slot) for one setting pair. The
factorization checker offers two conditioning modes because the product-form
assumption is ambiguous about whether the slot is conditioned on:

* ``given_lambda_and_m``: conditions on (state, slot); with deterministic
  generators each side is then a point mass, so model-built tables pass.
* ``given_lambda``: conditions on the state only, pooling slots into each
  station's variable; slot-correlated generators fail here.

A table keeps its probabilities as one read-only float64 column, so that
validating, checking and writing it run array operations, not a Python loop
over its entries.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, dropwhile
from json.encoder import encode_basestring_ascii
from math import fsum, inf
from operator import add
from pathlib import Path
from typing import Hashable

import numpy as np

from .errors import (
    EmptyTableError,
    HarnessError,
    InvalidToleranceError,
    InvalidWeightsError,
)
from .model import LocalModel, Setting, _check_mass, check_pair
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
    integer array whose entry i indexes ``domains[k]``, and ``probs`` is a
    read-only float64 column whose entry i is entry i's probability, entries
    in insertion order. A key is the tuple of its axes' values, or the value
    of a lone axis. Its length costs O(1); the dict behind lookup and
    iteration is built on first use, and reads each probability as a float.
    """

    __slots__ = ("domains", "codes", "probs", "_dict")

    def __init__(self, domains: tuple[tuple, ...], codes: tuple[np.ndarray, ...],
                 probs: np.ndarray):
        for column in (*codes, probs):
            column.setflags(write=False)
        self.domains, self.codes, self.probs = domains, codes, probs
        self._dict: dict | None = None

    def _mapping(self) -> dict:
        if self._dict is None:
            columns = [map(domain.__getitem__, codes.tolist())
                       for domain, codes in zip(self.domains, self.codes)]
            keys = zip(*columns) if len(columns) > 1 else columns[0]
            self._dict = dict(zip(keys, self.probs.tolist()))
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
    """A mapping's keys coded once, axis by axis, and its values as one float
    column. A probability must be an int or a float (a float subclass such as
    ``np.float64`` counts); a bool, ``Fraction``, ``Decimal`` or str is refused,
    and an int is kept as its float, so the writer gives the int 0 as ``0.0``."""
    keys = list(entries)
    if any(len(key) != 4 for key in keys):
        raise HarnessError("joint table keys must be (value1, value2, state, slot) tuples")
    domains, codes = zip(*(_coded(column) for column in zip(*keys)))
    values = list(entries.values())
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, (int, float)):
            raise InvalidWeightsError(f"joint table: a probability is a {t.__name__}, "
                                      "not an int or a float")
    try:
        probs = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise InvalidWeightsError("joint table: a probability exceeds the float range") from None
    return TableEntries(domains, codes, probs)


@dataclass(frozen=True)
class JointTable:
    """Tabulated probabilities over (value1, value2, state, slot) for one
    setting pair. ``entries`` may be any mapping whose values are ints or
    floats; the table keeps it as a read-only :class:`TableEntries`, its
    probabilities as one float64 column."""

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
        probs = self.entries.probs
        _check_mass(probs.tolist(), bool(probs.min() >= 0.0), "joint table")

    def mass(self) -> float:
        return fsum(self.entries.probs.tolist())


@dataclass(frozen=True)
class FactorizationReport:
    """Verdict of the product-form check in one conditioning mode. ``deviations`` maps
    each condition to its largest cell deviation, coded by :func:`check_factorization`."""

    mode: str
    tol: float
    max_deviation: float
    passed: bool
    deviations: TableEntries
    max_total_variation: float

    def to_dict(self) -> dict:
        """The report as ``check.json`` holds it, ``deviations`` still coded:
        ``cli.json_text`` writes them as their :func:`listing`."""
        return {
            "mode": self.mode,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
            "max_total_variation": self.max_total_variation,
            "deviations": self.deviations,
        }


def listing(deviations: TableEntries) -> dict[str, float]:
    """Each condition's ``str`` -> its deviation, by a stable sort on the texts
    alone: of equal texts the first keeps its place and the last its value."""
    texts, values = deviations.key_texts(), deviations.probs.tolist()
    return {texts[k]: values[k] for k in sorted(range(len(texts)), key=texts.__getitem__)}


def listing_text(entries: TableEntries, depth: int, outer: str, pad: str, leaf) -> str:
    """The JSON text of ``listing(entries)`` from the codes, values by ``leaf``,
    the C encoder of ``depth``. Ranks of the distinct part texts (per axis, as
    ``key_texts`` joins them) order keys as their joined texts: heads that
    differ, neither a prefix of the other, differ where the key texts do, and
    equal heads leave it to the tails. Where a head is a proper prefix of
    another ("(a, " of "(a, b, ") whole texts are ranked. Equal texts are one
    item, the last one's value in their place."""
    d, key = entries.domains, 0
    parts = ([list(map(str, d[0]))] if len(d) == 1 else
             [list(map("({!r}, ".format, d[0])), list(map("{!r})".format, d[1]))])
    for texts, codes in zip(parts, entries.codes):
        key = key * len(texts) + _str_ranks(texts)[codes]
    if len(parts) > 1 and any(map(str.startswith, (h := sorted(set(parts[0])))[1:], h)):
        key = _str_ranks(entries.key_texts())
    kept = len(key) - 1 - np.unique(key[::-1], return_index=True)[1]  # each text's last entry
    bits, values = np.unique(entries.probs.view(np.uint64)[kept], return_inverse=True)
    written = [f'": {"".join(leaf(v, depth))},{pad}"' for v in bits.view(np.float64).tolist()]
    cells = np.empty((len(kept), len(parts) + 1), dtype=object)
    cells[:, -1] = np.array(written, dtype=object)[values]
    for k, (texts, codes) in enumerate(zip(parts, entries.codes)):
        cells[:, k] = np.array([encode_basestring_ascii(t)[1:-1] for t in texts], object)[codes[kept]]
    return f'{{{pad}"' + "".join(cells.ravel().tolist())[:-len(pad) - 2] + outer + "}"


def tabulate_joint(model: LocalModel, a: Setting, b: Setting) -> JointTable:
    """Exact joint distribution of Eq-style tuples for one setting pair.

    Each (state, slot) cell, states outer and slots inner, contributes its
    full mass to the single value pair the deterministic generators select
    there (read from the model's memo). The products ``p * w`` are formed
    here, as one ``np.multiply.outer`` of the prior and the grid weights, not
    taken from :func:`eprsim.model.cell_mass`, so the table route shares no
    arithmetic with the direct sum.
    """
    check_pair(a, b)
    states, slots = model.source.states, tuple(model.grid.slots)
    (values_1, codes_1), (values_2, codes_2) = (_coded(model.compiled(s)[0]) for s in (a, b))
    cell = np.arange(len(states) * len(slots))
    slot = cell % len(slots)
    probs = np.multiply.outer(model.source.prior, model.grid.weights).ravel()
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
    probs = table.entries.probs
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
                                deviations),
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


# Entries up to which table_to_csv formats each probability: np.unique's fixed
# cost (about 10 us warm, 100 us on a command's first call) is that of
# 40 to 400 reprs. cli.json_text writes listings up to it as listing's dict: one
# cold listing (fresh import, gc.collect(), median of 9, 2-core guest) took, as
# dict/codes, 0.23/0.47 ms at 64 conditions, 0.46/0.53 at 256, 0.74/0.61 at 512
# and 4.7/1.8 at 4,096; the routes cross between 256 and 512.
FORMAT_EACH = 256


def table_to_csv(table: JointTable) -> str:
    """Serialize with full-precision probabilities; row order is canonical.

    Rows are ordered by their four key fields' ``str`` forms, compared left
    to right, and rows whose forms tie keep entry order: a stable sort on
    per-axis ``str`` ranks, which needs no bound on the product of the
    domain sizes. Each distinct value is formatted once: the probability
    column is coded by bit pattern, so -0.0 keeps its own text. A column of
    at most ``FORMAT_EACH`` floats is formatted entry by entry.
    """
    entries = table.entries
    domains, codes = entries.domains, entries.codes
    order = np.lexsort([_str_ranks(d)[c] for d, c in zip(reversed(domains), reversed(codes))])
    # csv writes a float as its repr, which it never quotes.
    if len(entries) <= FORMAT_EACH:
        probs = list(map(repr, entries.probs[order].tolist()))
    else:
        bits, prob_codes = np.unique(entries.probs.view(np.uint64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        probs = np.array(list(map(repr, values)), dtype=object).take(prob_codes[order]).tolist()
    columns = _csv_fields(domains, [column[order] for column in codes])
    rows = "\n".join(map(",".join, zip(*columns, probs)))
    return f"{','.join(CSV_HEADER)}\n{rows}\n"


def read_table_csv(path: str | Path, a: Setting, b: Setting) -> JointTable:
    """Load a table file holding :func:`table_to_csv` text, tabulated at (a, b)."""
    return table_from_csv(Path(path).read_text(encoding="utf-8"), a, b)


def table_from_csv(text: str, a: Setting, b: Setting) -> JointTable:
    """Parse CSV text written by :func:`table_to_csv`; axes are the observed
    values, and state labels stay text. Lines whose first field starts with
    ``#`` are comments only before the header; after it they are rows. The
    text holds no setting pair: pass ``check.json``'s ``config.angle_a``/``angle_b``."""
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
        # A repeated key adds to the first row's value, which keeps a lone -0.0.
        entries[key] = entries[key] + p if key in entries else p
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
