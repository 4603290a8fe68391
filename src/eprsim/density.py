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
from dataclasses import dataclass
from math import fsum, inf
from operator import itemgetter
from pathlib import Path
from typing import Hashable, Mapping

from .errors import EmptyTableError, InvalidToleranceError, InvalidWeightsError
from .model import LocalModel, Setting, _check_distribution, check_pair
from .util import parse_scalar

CSV_HEADER = ("lambda_star", "lambda_dblstar", "lambda", "m", "prob")

Key = tuple[Hashable, Hashable, Hashable, int]


@dataclass(frozen=True)
class JointTable:
    """Tabulated probabilities over (value1, value2, state, slot) for one setting pair."""

    setting_a: Setting
    setting_b: Setting
    entries: Mapping[Key, float]
    value_space_1: tuple[Hashable, ...]
    value_space_2: tuple[Hashable, ...]
    states: tuple[Hashable, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        if not self.entries:
            raise EmptyTableError("joint table has no entries")
        _check_distribution(self.entries.values(), "joint table")

    def mass(self) -> float:
        return fsum(self.entries.values())


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
            # Each key formatted once; the sort is stable on the formatted key alone.
            "deviations": dict(sorted(((str(k), v) for k, v in self.deviations.items()),
                                      key=itemgetter(0))),
        }


def tabulate_joint(model: LocalModel, a: Setting, b: Setting) -> JointTable:
    """Exact joint distribution of Eq-style tuples for one setting pair.

    Each (state, slot) cell contributes its full mass to the single value pair
    the deterministic generators select there (read from the model's memo).
    The products ``p * w`` are formed here, not taken from
    :func:`eprsim.model.cell_mass`, so the table route shares no arithmetic
    with the direct sum.
    """
    check_pair(a, b)
    cells = list(zip(model.grid.slots, model.compiled(a)[0], model.compiled(b)[0],
                     model.grid.weights))
    entries = {
        (v1, v2, lam, m): p * w
        for lam, p in zip(model.source.states, model.source.prior)
        for m, v1, v2, w in cells
    }
    return JointTable(
        setting_a=a,
        setting_b=b,
        entries=entries,
        value_space_1=model.gen1.value_space,
        value_space_2=model.gen2.value_space,
        states=model.source.states,
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
    return JointTable(
        setting_a=table.setting_a,
        setting_b=table.setting_b,
        entries={(v2, v1, lam, m): p for (v1, v2, lam, m), p in table.entries.items()},
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


def check_factorization(
    table: JointTable,
    mode: str = "given_lambda_and_m",
    tol: float = 1e-9,
) -> FactorizationReport:
    """Compare the conditional joint of the two stations' values to the product
    of its own marginals, reporting the largest absolute cell difference.

    Conditions with zero mass are skipped (conditionals undefined there). A
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

    conditions: dict[Hashable, dict[tuple[Hashable, Hashable], float]] = {}
    for (v1, v2, lam, m), p in table.entries.items():
        if p == 0.0:
            continue
        cells = conditions.setdefault(lam if mode == "given_lambda" else (lam, m), {})
        cells[v1, v2] = cells.get((v1, v2), 0.0) + p

    deviations: dict[Hashable, float] = {}
    worst_tv = 0.0
    for cond, cells in conditions.items():
        if len(cells) == 1:
            deviations[cond] = 0.0
            continue
        dev, tv = _pair_deviation(cells, table.value_space_1, table.value_space_2)
        deviations[cond] = dev
        worst_tv = max(worst_tv, tv)
    max_dev = max(deviations.values(), default=0.0)
    return FactorizationReport(
        mode=mode,
        tol=tol,
        max_deviation=max_dev,
        passed=max_dev <= tol,
        deviations=deviations,
        max_total_variation=worst_tv,
    )


def table_to_csv(table: JointTable) -> str:
    """Serialize with full-precision probabilities; row order is canonical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for key in sorted(table.entries, key=lambda k: tuple(str(x) for x in k)):
        v1, v2, lam, m = key
        writer.writerow([v1, v2, lam, m, repr(table.entries[key])])
    return buf.getvalue()


def read_table_csv(path: str | Path, a: Setting, b: Setting) -> JointTable:
    """Load a table file holding :func:`table_to_csv` text."""
    return table_from_csv(Path(path).read_text(encoding="utf-8"), a, b)


def table_from_csv(text: str, a: Setting, b: Setting) -> JointTable:
    """Parse CSV text written by :func:`table_to_csv`; axes are the observed
    values, and state labels stay text."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and not r[0].startswith("#")]
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
