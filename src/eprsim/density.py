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
from operator import itemgetter
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
    """A joint table's entries as coded columns, read as a mapping
    (value1, value2, state, slot) -> probability.

    ``domains[k]`` holds axis k's distinct values, ``codes[k]`` is a read-only
    integer array whose entry i indexes ``domains[k]``, and ``probs[i]`` is
    entry i's probability, entries in insertion order. Its length costs
    O(1); the dict behind lookup and iteration is built on first use.
    """

    __slots__ = ("domains", "codes", "probs", "_dict")

    def __init__(self, domains: tuple[tuple, ...], codes: tuple[np.ndarray, ...],
                 probs: tuple[float, ...]):
        for column in codes:
            column.setflags(write=False)
        self.domains, self.codes, self.probs = domains, codes, probs
        self._dict: dict[Key, float] | None = None

    def _mapping(self) -> dict[Key, float]:
        if self._dict is None:
            columns = (map(domain.__getitem__, codes.tolist())
                       for domain, codes in zip(self.domains, self.codes))
            self._dict = dict(zip(zip(*columns), self.probs))
        return self._dict

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, key: Key) -> float:
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __repr__(self) -> str:
        return f"TableEntries({self._mapping()!r})"


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
    """Verdict of the product-form check in one conditioning mode."""

    mode: str
    tol: float
    max_deviation: float
    passed: bool
    deviations: Mapping[Hashable, float]
    max_total_variation: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
            "max_total_variation": self.max_total_variation,
            # The sort is stable on the formatted key alone.
            "deviations": dict(sorted(zip(_key_texts(self.deviations), self.deviations.values()),
                                      key=itemgetter(0))),
        }


def _key_texts(keys) -> list[str]:
    """``str`` of each key. A (state, slot) pair is written from its parts'
    ``repr``, as ``str`` writes a pair, and each part object is formatted
    once: the memo is keyed by identity, which the keys keep alive, so
    equal parts that print differently (1, 1.0, True; 0.0, -0.0) keep their
    own text. A report's keys share its table's domain objects."""
    reprs: dict[int, str] = {}
    texts = []
    for key in keys:
        if type(key) is tuple and len(key) == 2:
            state, slot = key
            a = reprs.get(id(state)) or reprs.setdefault(id(state), repr(state))
            b = reprs.get(id(slot)) or reprs.setdefault(id(slot), repr(slot))
            texts.append(f"({a}, {b})")
        else:
            texts.append(str(key))
    return texts


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


def _pair_deviation(
    cells: dict[tuple[Hashable, Hashable], float],
    values1,
    values2,
) -> tuple[float, float]:
    """Max cell deviation and total variation between a joint and its marginal product."""
    mass = fsum(cells.values())
    joint = {k: p / mass for k, p in cells.items()}
    p1: dict[Hashable, float] = {}
    p2: dict[Hashable, float] = {}
    for (x, y), p in joint.items():
        p1[x] = p1.get(x, 0.0) + p
        p2[y] = p2.get(y, 0.0) + p
    worst = 0.0
    tv = 0.0
    for x in values1:
        for y in values2:
            diff = abs(joint.get((x, y), 0.0) - p1.get(x, 0.0) * p2.get(y, 0.0))
            tv += diff
            if diff > worst:
                worst = diff
    return worst, 0.5 * tv


def _equal_classes(domain: tuple) -> np.ndarray:
    """Each domain value's class under ``==``: the index of the first equal
    value, which stands for the class."""
    first: dict = {}
    return np.array([first.setdefault(v, i) for i, v in enumerate(domain)], dtype=np.intp)


def check_factorization(
    table: JointTable,
    mode: str = "given_lambda_and_m",
    tol: float = 1e-9,
) -> FactorizationReport:
    """Compare the conditional joint of the two stations' values to the product
    of its own marginals, reporting the largest absolute cell difference.

    Conditions with zero mass are skipped (conditionals undefined there). The
    nonzero entries are grouped by their codes, values equal under ``==``
    together: conditions and, within each, (value1, value2) cells in order of
    first appearance, each cell's mass added left to right in entry order. A
    condition that holds a single (value1, value2) cell of mass p has joint
    p / p = 1.0 and both marginals 1.0 there and 0.0 elsewhere, so every cell
    difference, and the total variation, is exactly 0.0 whatever the value
    spaces list: such a condition is recorded as 0.0 without the value-grid
    loop. Tables from :func:`tabulate_joint` hold one cell per (state, slot).
    """
    if not 0.0 < tol < inf:
        raise InvalidToleranceError(f"tolerance must be > 0 and finite, got {tol!r}")
    if mode not in ("given_lambda", "given_lambda_and_m"):
        raise InvalidToleranceError(f"unknown factorization mode {mode!r}")

    entries = table.entries
    domains, codes = entries.domains, entries.codes
    probs = np.array(entries.probs, dtype=float)
    live = probs.nonzero()[0]

    def classes(axis: int) -> np.ndarray:
        """Each live entry's class of equal values on one axis."""
        return _equal_classes(domains[axis])[codes[axis][live]]

    def labels(axis: int, at: list[int]) -> list:
        """The values of the live entries at positions ``at`` on one axis."""
        return list(map(domains[axis].__getitem__, codes[axis][live[at]].tolist()))

    cond = classes(2)
    if mode == "given_lambda_and_m":
        cond = cond * len(domains[3]) + classes(3)
    cond = cond.tolist()
    # Where each condition first appears, in order of first appearance.
    starts = sorted(dict(zip(reversed(cond), range(len(cond) - 1, -1, -1))).values())
    keys = labels(2, starts)
    if mode == "given_lambda_and_m":
        keys = list(zip(keys, labels(3, starts)))
    deviations = [0.0] * len(keys)
    worst_tv = 0.0
    if len(starts) < len(cond):  # a condition with several entries may hold several cells
        n2 = len(domains[1])
        joints: dict[int, dict[int, float]] = {cond[i]: {} for i in starts}
        for c, cell, p in zip(cond, (classes(0) * n2 + classes(1)).tolist(),
                              probs[live].tolist()):
            joint = joints[c]
            joint[cell] = joint.get(cell, 0.0) + p
        for k, joint in enumerate(joints.values()):
            if len(joint) > 1:
                # A class's first value stands for the class: its values compare equal.
                cells = {(domains[0][c // n2], domains[1][c % n2]): p for c, p in joint.items()}
                deviations[k], tv = _pair_deviation(
                    cells, table.value_space_1, table.value_space_2)
                worst_tv = max(worst_tv, tv)
    max_dev = max(deviations, default=0.0)
    return FactorizationReport(
        mode=mode,
        tol=tol,
        max_deviation=max_dev,
        passed=max_dev <= tol,
        deviations=dict(zip(keys, deviations)),
        max_total_variation=worst_tv,
    )


def _csv_fields(domains: tuple[tuple, ...]) -> list[list[str]]:
    """Each domain's values as :mod:`csv` writes them as one field of a wider row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # A lone empty field is written quoted; beside another field it is not.
    # ``writerow`` returns the length it wrote, so the rows can be cut apart.
    ends = list(accumulate(writer.writerow((v, "")) for v in chain.from_iterable(domains)))
    text = buf.getvalue()
    fields = [text[start:end - 2] for start, end in zip([0, *ends], ends)]
    cuts = list(accumulate(map(len, domains), initial=0))
    return [fields[start:end] for start, end in zip(cuts, cuts[1:])]


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
    columns = [map(fields.__getitem__, column[order].tolist())
               for fields, column in zip(_csv_fields(domains), codes)]
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
