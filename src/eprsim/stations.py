"""Lockstep two-station trial runner and the counterfactual locality audit.

The two stations are pure computations inside one process: both consume the
same slot index per trial (the shared clock), and each sees only its own
setting, the drawn source state, the slot and its own seed. The audit re-runs
one station's computation under varied remote settings and counts any change
in its outputs; honest models pass by construction, so the audit is a
regression guard on the harness itself.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from math import fsum, sqrt
from pathlib import Path
from typing import Hashable

import numpy as np

from .errors import InvalidScheduleError
from .model import TEST_ANGLES, LocalModel, Setting, Station, station_outcomes, station_values
from .util import parse_scalar

TRIALS_CSV_HEADER = ("trial", "m", "a", "b", "lambda", "lambda_star", "lambda_dblstar", "A", "B")

DEFAULT_PAIRS = tuple((x, y) for x in TEST_ANGLES for y in TEST_ANGLES)

POLICIES = ("fixed", "cycle", "random")


@dataclass(frozen=True)
class TrialRecord:
    """One coincidence event with full provenance."""

    trial: int
    m: int
    a: float
    b: float
    lam: Hashable
    lambda_star: Hashable
    lambda_dblstar: Hashable
    outcome_a: int
    outcome_b: int


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
    its outcome rows (one per state, one entry per slot).

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
    As = station_outcomes(model, a, v1s).tolist()
    Bs = station_outcomes(model, b, v2s).tolist()
    return v1s, v2s, As, Bs


def _setting_indices(schedule: Schedule) -> np.ndarray:
    n = len(schedule.pairs)
    if schedule.policy == "fixed":
        return np.zeros(schedule.trials, dtype=np.int64)
    if schedule.policy == "cycle":
        return np.arange(schedule.trials, dtype=np.int64) % n
    rng = np.random.default_rng(schedule.seed_settings)
    return rng.integers(0, n, size=schedule.trials)


def _source_indices(model: LocalModel, schedule: Schedule) -> np.ndarray:
    rng = np.random.default_rng(schedule.seed_source)
    prior = np.asarray(model.source.prior)
    return rng.choice(len(model.source.states), size=schedule.trials, p=prior / prior.sum())


def run_experiment(model: LocalModel, schedule: Schedule) -> list[TrialRecord]:
    """Run the scheduled trials; fully reproducible from the schedule's seeds."""
    n_slots = model.grid.slot_count
    states = model.source.states
    lam_idx = _source_indices(model, schedule)
    pair_idx = _setting_indices(schedule)
    cache = {}
    records = []
    for t in range(schedule.trials):
        a_angle, b_angle = schedule.pairs[pair_idx[t]]
        key = (a_angle, b_angle)
        if key not in cache:
            cache[key] = _pair_outputs(model, a_angle, b_angle, schedule.seed_s1, schedule.seed_s2)
        v1s, v2s, As, Bs = cache[key]
        i = lam_idx[t]
        j = t % n_slots
        records.append(
            TrialRecord(t, j + 1, a_angle, b_angle, states[i], v1s[j], v2s[j], As[i][j], Bs[i][j])
        )
    return records


def locality_audit(
    model: LocalModel, schedule: Schedule, remote_perturbations: int = 1
) -> AuditReport:
    """Counterfactually vary each station's remote setting and count output changes.

    For every trial, station 1 is recomputed under ``remote_perturbations``
    alternative values of b drawn from the test angle grid (rotating with the
    trial index so all alternatives get exercised), and symmetrically for
    station 2. A mismatch in (instrument value, outcome) is an Einstein
    locality violation.
    """
    if remote_perturbations < 1:
        raise InvalidScheduleError("remote_perturbations must be >= 1")
    n_slots = model.grid.slot_count
    states = model.source.states
    lam_idx = _source_indices(model, schedule)
    pair_idx = _setting_indices(schedule)
    cache = {}

    def outputs(a_angle, b_angle):
        key = (a_angle, b_angle)
        if key not in cache:
            cache[key] = _pair_outputs(model, a_angle, b_angle, schedule.seed_s1, schedule.seed_s2)
        return cache[key]

    def alternatives(current: float, t: int) -> list[float]:
        alts = [x for x in TEST_ANGLES if abs(x - current) > 1e-12]
        if not alts:
            return []
        k = t % len(alts)
        rotated = alts[k:] + alts[:k]
        return rotated[:remote_perturbations]

    mismatches = 0
    first = None
    for t in range(schedule.trials):
        a_angle, b_angle = schedule.pairs[pair_idx[t]]
        i = lam_idx[t]
        lam = states[i]
        j = t % n_slots
        m = j + 1
        v1s, v2s, As, Bs = outputs(a_angle, b_angle)
        base_s1 = (v1s[j], As[i][j])
        base_s2 = (v2s[j], Bs[i][j])
        for b_alt in alternatives(b_angle, t):
            alt = outputs(a_angle, b_alt)
            seen = (alt[0][j], alt[2][i][j])
            if seen != base_s1:
                mismatches += 1
                if first is None:
                    first = {
                        "trial": t,
                        "station": "S1",
                        "slot": m,
                        "lambda": str(lam),
                        "remote_original": b_angle,
                        "remote_perturbed": b_alt,
                        "baseline": [str(base_s1[0]), base_s1[1]],
                        "perturbed": [str(seen[0]), seen[1]],
                    }
        for a_alt in alternatives(a_angle, t):
            alt = outputs(a_alt, b_angle)
            seen = (alt[1][j], alt[3][i][j])
            if seen != base_s2:
                mismatches += 1
                if first is None:
                    first = {
                        "trial": t,
                        "station": "S2",
                        "slot": m,
                        "lambda": str(lam),
                        "remote_original": a_angle,
                        "remote_perturbed": a_alt,
                        "baseline": [str(base_s2[0]), base_s2[1]],
                        "perturbed": [str(seen[0]), seen[1]],
                    }
    return AuditReport(schedule.trials, mismatches, mismatches == 0, first)


@dataclass
class PairStats:
    """Pooled empirical statistics for one setting pair."""

    a: float
    b: float
    trials: int = 0
    e_ab: float = 0.0
    marginal_a: float = 0.0
    marginal_b: float = 0.0
    std_error: float = 0.0
    cond_a: dict = field(default_factory=dict)
    cond_b: dict = field(default_factory=dict)


def empirical_correlations(records: list[TrialRecord]) -> dict[tuple[float, float], PairStats]:
    """Group records by setting pair and compute empirical pair statistics."""
    groups: dict[tuple[float, float], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.a, r.b), []).append(r)
    out = {}
    for (a, b), rows in groups.items():
        n = len(rows)
        prods = [r.outcome_a * r.outcome_b for r in rows]
        e = fsum(prods) / n
        if n > 1:
            var = fsum((x - e) ** 2 for x in prods) / (n - 1)
            se = sqrt(var / n)
        else:
            se = 0.0
        stats = PairStats(
            a=a,
            b=b,
            trials=n,
            e_ab=e,
            marginal_a=fsum(r.outcome_a for r in rows) / n,
            marginal_b=fsum(r.outcome_b for r in rows) / n,
            std_error=se,
        )
        by_lam: dict[Hashable, list[TrialRecord]] = {}
        for r in rows:
            by_lam.setdefault(r.lam, []).append(r)
        for lam, sub in by_lam.items():
            stats.cond_a[lam] = fsum(r.outcome_a for r in sub) / len(sub)
            stats.cond_b[lam] = fsum(r.outcome_b for r in sub) / len(sub)
        out[(a, b)] = stats
    return out


def trials_to_csv(records: list[TrialRecord], comments: list[str] | None = None) -> str:
    buf = io.StringIO()
    for line in comments or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIALS_CSV_HEADER)
    # Angles are coordinates, not expectations: keep full precision so the
    # stream round-trips exactly.
    for r in records:
        writer.writerow(
            [r.trial, r.m, repr(r.a), repr(r.b), r.lam, r.lambda_star, r.lambda_dblstar,
             r.outcome_a, r.outcome_b]
        )
    return buf.getvalue()


def write_trials_csv(
    records: list[TrialRecord], path: str | Path, comments: list[str] | None = None
) -> None:
    Path(path).write_text(trials_to_csv(records, comments), encoding="utf-8")


def read_trials_csv(path: str | Path) -> list[TrialRecord]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fp:
        for row in csv.reader(fp):
            if not row or row[0].startswith("#"):
                continue
            rows.append(row)
    if not rows or tuple(rows[0]) != TRIALS_CSV_HEADER:
        raise InvalidScheduleError("trial CSV is empty or lacks the expected header")
    records = []
    for row in rows[1:]:
        records.append(
            TrialRecord(
                trial=int(row[0]),
                m=int(row[1]),
                a=float(row[2]),
                b=float(row[3]),
                lam=parse_scalar(row[4]),
                lambda_star=parse_scalar(row[5]),
                lambda_dblstar=parse_scalar(row[6]),
                outcome_a=int(row[7]),
                outcome_b=int(row[8]),
            )
        )
    return records
