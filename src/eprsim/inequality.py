"""Correlations, conditional expectations, CHSH combinations and reference bounds.

Two independent exact routes exist on purpose: :func:`correlate` sums over
each station's compiled (state, slot) outcome array
(:func:`eprsim.model.station_outcomes`), while :func:`correlate_via_table`
sums over a tabulated joint distribution, calling the outcome rules itself and
never a generator. Tests cross-check the two. Every exact whole-model sum
(``e_ab``, both marginals, :func:`exact_marginal`) is one ``math.fsum`` over
per-cell products with :func:`eprsim.model.cell_mass`, so it is the correctly
rounded sum of those rounded products whatever the summation order, and the two
routes agree bit for bit.
Sampled +-1 outcomes, from the Monte Carlo draw here or from a lockstep run
(:mod:`eprsim.stations`), reduce through one function, :func:`sampled_correlation`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import fsum, sqrt, cos
from typing import Callable, Hashable, Mapping

import numpy as np

from .density import JointTable
from .errors import ZeroTrialsError
from .model import (
    LocalModel,
    Setting,
    Station,
    cell_mass,
    check_pair,
    station_outcomes,
    station_values,
)
from .util import fmt12, stable_seed

BOUND_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationReport:
    """Pair correlation, one-sided marginals and per-state conditionals."""

    setting_a: Setting
    setting_b: Setting
    e_ab: float
    marginal_a: float
    marginal_b: float
    cond_a: Mapping[Hashable, float]
    cond_b: Mapping[Hashable, float]
    trials: int
    std_error: float

    def to_dict(self) -> dict:
        return {
            "a": self.setting_a.angle,
            "b": self.setting_b.angle,
            "e_ab": self.e_ab,
            "marginal_a": self.marginal_a,
            "marginal_b": self.marginal_b,
            "cond_a": {str(k): v for k, v in self.cond_a.items()},
            "cond_b": {str(k): v for k, v in self.cond_b.items()},
            "trials": self.trials,
            "std_error": self.std_error,
        }


@dataclass(frozen=True)
class ChshResult:
    """Four pair correlations combined as e(a,b) - e(a,b') + e(a',b) + e(a',b')."""

    settings: tuple[Setting, Setting, Setting, Setting]
    correlations: tuple[float, float, float, float]
    s_value: float
    local_bound: float
    within_local_bound: bool

    def __post_init__(self):
        e = self.correlations
        combo = e[0] - e[1] + e[2] + e[3]
        if abs(self.s_value - combo) > 1e-12:
            raise ValueError("CHSH value does not match its four correlations")
        if abs(self.s_value) > 4.0 + 1e-12:
            raise ValueError("CHSH value outside [-4, 4]")

    def to_dict(self) -> dict:
        a, ap, b, bp = self.settings
        return {
            "a": a.angle,
            "aprime": ap.angle,
            "b": b.angle,
            "bprime": bp.angle,
            "correlations": list(self.correlations),
            "s_value": self.s_value,
            "local_bound": self.local_bound,
            "within_local_bound": self.within_local_bound,
        }


def _compiled(model: LocalModel, setting: Setting) -> np.ndarray:
    return station_outcomes(model, setting, station_values(model, setting))


def _cell_sum(model: LocalModel, cells: np.ndarray) -> float:
    """The exact kernel: fsum of each (state, slot) cell's mass times ``cells``."""
    return fsum((cell_mass(model) * cells).ravel().tolist())


def conditional_table(model: LocalModel, setting: Setting) -> dict[Hashable, float]:
    """Exact per-state conditional expectation E{outcome | state} at one setting."""
    return _conditionals(model, _compiled(model, setting))


def _conditionals(model: LocalModel, outcomes: np.ndarray) -> dict[Hashable, float]:
    weighted = outcomes * np.array(model.grid.weights)
    return dict(zip(model.source.states, map(fsum, weighted.tolist())))


def exact_marginal(model: LocalModel, station: Station, angle: float = 0.0) -> float:
    """Exact one-sided expectation at the given setting angle."""
    return _cell_sum(model, _compiled(model, Setting(angle, station)))


def correlate(
    model: LocalModel,
    a: Setting,
    b: Setting,
    method: str = "exact",
    trials: int = 0,
    seed: int = 0,
) -> CorrelationReport:
    """Pair statistics for one setting pair.

    ``exact`` performs the full weighted sum over (state, slot); the model is
    finite so this is always available. ``monte_carlo`` draws (state, slot)
    i.i.d. with the model's weights and reports empirical means with the
    standard error of the pair product.
    """
    check_pair(a, b)
    if method == "exact":
        return _correlate_exact(model, a, b)
    if method == "monte_carlo":
        return _correlate_monte_carlo(model, a, b, trials, seed)
    raise ValueError(f"unknown method {method!r}")


def _correlate_exact(model: LocalModel, a: Setting, b: Setting) -> CorrelationReport:
    A, B = _compiled(model, a), _compiled(model, b)
    return CorrelationReport(
        a, b, _cell_sum(model, A * B), _cell_sum(model, A), _cell_sum(model, B),
        _conditionals(model, A), _conditionals(model, B), 0, 0.0,
    )


def _correlate_monte_carlo(
    model: LocalModel, a: Setting, b: Setting, trials: int, seed: int
) -> CorrelationReport:
    if trials < 1:
        raise ZeroTrialsError("monte_carlo needs trials >= 1")
    states = model.source.states
    A, B = _compiled(model, a), _compiled(model, b)
    rng = np.random.default_rng(stable_seed("correlate", seed, fmt12(a.angle), fmt12(b.angle)))
    prior = np.asarray(model.source.prior)
    weights = np.array(model.grid.weights)
    li = rng.choice(len(states), size=trials, p=prior / prior.sum())
    mi = rng.choice(model.grid.slot_count, size=trials, p=weights / weights.sum())
    return sampled_correlation(a, b, A[li, mi], B[li, mi], li, states)


def sampled_correlation(
    a: Setting,
    b: Setting,
    A: np.ndarray,
    B: np.ndarray,
    state: np.ndarray,
    states: tuple[Hashable, ...],
) -> CorrelationReport:
    """Pair statistics of sampled +-1 outcomes: sample t saw ``A[t]``, ``B[t]``
    with the source in ``states[state[t]]``; conditionals cover sampled states.

    Means are integer sums over counts, so each is correctly rounded. The
    squared deviations of the pair product take two values, so their sum is
    exact and rounded once, as ``math.fsum`` would round it.
    """
    n = len(A)
    plus = int(np.count_nonzero(A == B))
    e_ab = (2 * plus - n) / n
    std_error = 0.0
    if n > 1:
        squares = Fraction((1 - e_ab) ** 2) * plus + Fraction((-1 - e_ab) ** 2) * (n - plus)
        std_error = sqrt(float(squares) / (n - 1) / n)
    counts = np.bincount(state, minlength=len(states)).tolist()

    def conditionals(outcomes):
        sums = np.bincount(state, weights=outcomes, minlength=len(states)).tolist()
        return {lam: s / c for lam, s, c in zip(states, sums, counts) if c}

    return CorrelationReport(
        a, b, e_ab, int(A.sum()) / n, int(B.sum()) / n, conditionals(A), conditionals(B),
        n, std_error,
    )


def correlate_via_table(model: LocalModel, table: JointTable) -> CorrelationReport:
    """Independent exact route: sum over a tabulated joint distribution.

    Outcome modifiers are reapplied inline from the model's fields, never
    from ``model.signs``, so this path shares no arithmetic with the direct
    (state, slot) sum.
    """
    a, b = table.setting_a, table.setting_b
    check_pair(a, b)
    terms_ab, terms_a, terms_b = [], [], []
    cond_a: dict[Hashable, list[float]] = {lam: [] for lam in table.states}
    cond_b: dict[Hashable, list[float]] = {lam: [] for lam in table.states}
    lam_mass: dict[Hashable, list[float]] = {lam: [] for lam in table.states}
    for (v1, v2, lam, m), p in table.entries.items():
        oa = int(model.out1.rule(a, lam, v1, m))
        ob = int(model.out2.rule(b, lam, v2, m))
        if model.sign is not None:
            r = model.sign.values[m - 1]
            if model.sign_station in (None, Station.S1):
                oa *= r
            if model.sign_station in (None, Station.S2):
                ob *= r
        if model.doubled and m % 2 == 0:
            oa, ob = -oa, -ob
        if model.lambda_sign is not None:
            oa *= model.lambda_sign[lam]
            ob *= model.lambda_sign[lam]
        terms_ab.append(p * oa * ob)
        terms_a.append(p * oa)
        terms_b.append(p * ob)
        cond_a[lam].append(p * oa)
        cond_b[lam].append(p * ob)
        lam_mass[lam].append(p)
    cond_a_out = {}
    cond_b_out = {}
    for lam in table.states:
        mass = fsum(lam_mass[lam])
        if mass > 0.0:
            cond_a_out[lam] = fsum(cond_a[lam]) / mass
            cond_b_out[lam] = fsum(cond_b[lam]) / mass
    return CorrelationReport(
        a, b, fsum(terms_ab), fsum(terms_a), fsum(terms_b), cond_a_out, cond_b_out, 0, 0.0,
    )


def chsh(
    model: LocalModel,
    a: Setting,
    a_prime: Setting,
    b: Setting,
    b_prime: Setting,
    method: str = "exact",
    trials: int = 0,
    seed: int = 0,
    tol: float = BOUND_TOL,
) -> ChshResult:
    """The four-correlation combination of the model at (a, a', b, b').

    ``exact`` compiles each of the four settings once and sums each pair's
    products with the same kernel as :func:`correlate`, so every ``e_ab`` is
    bit-identical to the per-pair one. Sharing compiled arrays across pairs
    relies on the model being pure, as every exact path does; the locality
    audit is the guard against models that are not. ``monte_carlo`` runs
    :func:`correlate` per pair with seeds derived per setting pair, so
    evaluating the four pairs in any order (or in parallel) gives
    bit-identical results.
    """
    if method == "exact":
        compiled = cache(partial(_compiled, model))

        def corr(x: Setting, y: Setting) -> float:
            check_pair(x, y)
            return _cell_sum(model, compiled(x) * compiled(y))
    else:
        def corr(x: Setting, y: Setting) -> float:
            pair_seed = stable_seed("chsh-pair", seed, fmt12(x.angle), fmt12(y.angle))
            return correlate(model, x, y, method=method, trials=trials, seed=pair_seed).e_ab

    return chsh_from_correlations(corr, a, a_prime, b, b_prime, tol)


def chsh_from_correlations(
    corr: Callable[[Setting, Setting], float],
    a: Setting,
    a_prime: Setting,
    b: Setting,
    b_prime: Setting,
    tol: float = BOUND_TOL,
) -> ChshResult:
    """CHSH combination of any correlation function: a model's (via :func:`chsh`)
    or the cosine reference table, which bypasses any local model."""
    es = (corr(a, b), corr(a, b_prime), corr(a_prime, b), corr(a_prime, b_prime))
    s = es[0] - es[1] + es[2] + es[3]
    return ChshResult((a, a_prime, b, b_prime), es, s, 2.0, abs(s) <= 2.0 + tol)


def reference_correlation(a: Setting, b: Setting) -> float:
    """Singlet-state reference value -cos(a - b); used only for gap reporting."""
    check_pair(a, b)
    return -cos(a.angle - b.angle)


def deterministic_strategies(n_settings_per_side: int):
    """All deterministic +-1 assignments for n settings per side."""
    for avals in product((-1, 1), repeat=n_settings_per_side):
        for bvals in product((-1, 1), repeat=n_settings_per_side):
            yield avals, bvals


def deterministic_bound() -> float:
    """Maximum of the CHSH combination over the 16 deterministic strategies
    with two settings per side."""
    return max(
        float(a0 * b0 - a0 * b1 + a1 * b0 + a1 * b1)
        for (a0, a1), (b0, b1) in deterministic_strategies(2)
    )
