"""Correlations, conditional expectations, CHSH combinations and the local bound.

Two independent exact routes exist on purpose: :func:`correlate` sums over
each station's compiled (state, slot) outcome array, read from the model's
memo (:meth:`eprsim.model.LocalModel.compiled`) like every exact path, while
:func:`correlate_via_table` sums over a tabulated joint distribution, calling
the outcome rules itself and never a generator. Tests cross-check the two.
Every exact whole-model sum (``e_ab``, both marginals, :func:`exact_marginal`)
is one ``math.fsum`` over per-cell products with
:func:`eprsim.model.cell_mass`, so it is the correctly rounded sum of those
rounded products whatever the summation order, and the two routes agree bit
for bit.
Sampled +-1 outcomes reduce through one function, :func:`sampled_correlation`,
from a tensor of integer counts over (state, A, B). A lockstep run
(:mod:`eprsim.stations`) fills it by counting its trials; Monte Carlo from one
multinomial draw per pair over the bins of nonzero mass, so its cost and
memory do not grow with the trial count. A sampled CHSH value carries a
standard error and a three-way verdict whose false-alarm rate is at most
:data:`FALSE_ALARM_RATE` (Hoeffding's bound per pair, a union bound over the
four pairs). A :class:`ChshResult` holds the four correlations and derives S
and its comparison with :data:`LOCAL_BOUND` from them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import cos, fsum, log, sqrt
from typing import Callable, Hashable, Mapping

import numpy as np

from .density import JointTable
from .errors import HarnessError, ZeroTrialsError
from .model import (
    LocalModel,
    Setting,
    Station,
    cell_mass,
    check_pair,
)
from .util import as_integer, fmt12, stable_seed

BOUND_TOL = 1e-9

# The CHSH bound of every local model. Each of the 16 deterministic +-1
# strategies, A(a), A(a'), B(b), B(b'), gives S = +-2, and a local model,
# conditioned on its clock slot too, is a mixture of them (A. Fine, PRL 48,
# 291 (1982)), so |S| <= 2.
LOCAL_BOUND = 2.0

# A sampled CHSH value is reported as a violation of the local bound only
# when a model within the bound would give it with probability at most this
# (W. Hoeffding, JASA 58, 13 (1963); R. D. Gill, arXiv:quant-ph/0301059).
FALSE_ALARM_RATE = 1e-6

# The most Monte Carlo trials per pair: the multinomial draw counts in int64.
MAX_TRIALS = int(np.iinfo(np.int64).max)

# Row 2i + j holds 1, A, B and AB at the outcomes (2i - 1, 2j - 1) of its bin.
_BIN_SIGNS = np.array([[1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, 1]])


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
    """Four pair correlations, e(a,b), e(a,b'), e(a',b), e(a',b'), and the
    tolerance of the local bound; ``s_value`` and ``within_local_bound``
    derive from them. A sampled result (:func:`chsh_from_reports`) also holds
    the standard error of S and its ``verdict``, ``within``, ``inconclusive``
    or ``violation``; an exact one holds ``None`` for both.
    """

    settings: tuple[Setting, Setting, Setting, Setting]
    correlations: tuple[float, float, float, float]
    tol: float
    std_error: float | None = None
    verdict: str | None = None

    def __post_init__(self):
        if abs(self.s_value) > 4.0 + 1e-12:
            raise ValueError("CHSH value outside [-4, 4]")

    @property
    def s_value(self) -> float:
        """The CHSH combination e(a,b) - e(a,b') + e(a',b) + e(a',b')."""
        e = self.correlations
        return e[0] - e[1] + e[2] + e[3]

    @property
    def within_local_bound(self) -> bool:
        """Sampled: unless a violation. Exact: |S| <= :data:`LOCAL_BOUND` + ``tol``."""
        if self.verdict is not None:
            return self.verdict != "violation"
        return abs(self.s_value) <= LOCAL_BOUND + self.tol

    def to_dict(self) -> dict:
        a, ap, b, bp = self.settings
        return {
            "a": a.angle,
            "aprime": ap.angle,
            "b": b.angle,
            "bprime": bp.angle,
            "correlations": list(self.correlations),
            "s_value": self.s_value,
            "local_bound": LOCAL_BOUND,
            "within_local_bound": self.within_local_bound,
            **({} if self.verdict is None
               else {"std_error": self.std_error, "verdict": self.verdict}),
        }


def _cell_sum(model: LocalModel, cells: np.ndarray) -> float:
    """The exact kernel: fsum of each (state, slot) cell's mass times ``cells``."""
    return fsum((cell_mass(model) * cells).ravel().tolist())


def conditional_table(model: LocalModel, setting: Setting) -> dict[Hashable, float]:
    """Exact per-state conditional expectation E{outcome | state} at one setting."""
    return _conditionals(model, model.compiled(setting)[1])


def _conditionals(model: LocalModel, outcomes: np.ndarray) -> dict[Hashable, float]:
    weighted = outcomes * np.array(model.grid.weights)
    return dict(zip(model.source.states, map(fsum, weighted.tolist())))


def exact_marginal(model: LocalModel, station: Station, angle: float = 0.0) -> float:
    """Exact one-sided expectation at the given setting angle."""
    return _cell_sum(model, model.compiled(Setting(angle, station))[1])


def exact_correlation(model: LocalModel, a: Setting, b: Setting) -> float:
    """Exact e_ab at one setting pair: the exact kernel over the product of
    S1's compiled outcomes at ``a`` and S2's at ``b``, compiled in that order."""
    check_pair(a, b)
    return _cell_sum(model, model.compiled(a)[1] * model.compiled(b)[1])


def correlate(
    model: LocalModel,
    a: Setting,
    b: Setting,
    method: str = "exact",
    trials: int = 0,
    seed: int = 0,
) -> CorrelationReport:
    """Pair statistics for one setting pair, from its two compiled settings.

    ``exact`` performs the full weighted sum over (state, slot); the model is
    finite so this is always available. ``monte_carlo`` reports the empirical
    means of ``trials`` i.i.d. draws of (state, slot) with the model's
    weights, with the standard error of the pair product. Only how many
    draws land in each (state, A, B) bin matters, so the counts of the bins
    of nonzero mass (the sum of their cells' ``cell_mass``) are drawn at once
    from their multinomial law: time and memory do not grow with ``trials``.
    """
    check_pair(a, b)
    A, B = model.compiled(a)[1], model.compiled(b)[1]
    if method == "exact":
        return CorrelationReport(
            a, b, exact_correlation(model, a, b), _cell_sum(model, A), _cell_sum(model, B),
            _conditionals(model, A), _conditionals(model, B), 0, 0.0,
        )
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    count = as_integer(trials)
    if count is None or not 1 <= count <= MAX_TRIALS:
        raise ZeroTrialsError(
            f"monte_carlo needs an integer 1 <= trials <= {MAX_TRIALS}, got {trials!r}")
    rng = np.random.default_rng(stable_seed("correlate", seed, fmt12(a.angle), fmt12(b.angle)))
    # Each cell's bin is its (state, A, B) entry of the count tensor.
    states = len(model.source.states)
    bins = 4 * np.arange(states)[:, None] + (A + 1) + (B + 1) // 2
    mass = np.bincount(bins.ravel(), cell_mass(model).ravel(), 4 * states)
    counts, held = np.zeros(4 * states, dtype=np.int64), np.flatnonzero(mass)
    counts[held] = rng.multinomial(count, mass[held] / fsum(mass[held].tolist()))
    return sampled_correlation(a, b, counts.reshape(states, 2, 2), model.source.states)


def sampled_correlation(
    a: Setting,
    b: Setting,
    counts: np.ndarray,
    states: tuple[Hashable, ...],
) -> CorrelationReport:
    """Pair statistics of sampled +-1 outcomes from their integer count tensor:
    ``counts[s, i, j]`` samples saw the source in ``states[s]``, outcome
    ``2i - 1`` at S1 and ``2j - 1`` at S2. Conditionals cover sampled states.

    Means are integer sums over counts, so each is correctly rounded. The
    squared deviations of the pair product take two values, so their sum is
    a ratio of integers (each square's ``as_integer_ratio``), rounded once by
    one true division, as ``math.fsum`` would round it.
    """
    per_state, sums_a, sums_b, sums_ab = (counts.reshape(-1, 4) @ _BIN_SIGNS).T.tolist()
    n = sum(per_state)
    if n == 0:
        raise ZeroTrialsError("sampled correlation of no samples")
    plus = (n + sum(sums_ab)) // 2
    e_ab = (2 * plus - n) / n
    std_error = 0.0
    if n > 1:
        (p, q), (r, s) = (((x - e_ab) ** 2).as_integer_ratio() for x in (1, -1))
        std_error = sqrt((p * s * plus + r * q * (n - plus)) / (q * s) / (n - 1) / n)

    def conditionals(sums):
        return {lam: s / c for lam, s, c in zip(states, sums, per_state) if c}

    return CorrelationReport(
        a, b, e_ab, sum(sums_a) / n, sum(sums_b) / n, conditionals(sums_a),
        conditionals(sums_b), n, std_error,
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

    Both methods read the settings' arrays from the model's memo, which
    relies on the model being pure; the locality audit is the guard against
    models that are not. ``exact`` takes each pair's :func:`exact_correlation`,
    as :func:`correlate` does, so every ``e_ab`` is bit-identical to the
    per-pair one. ``monte_carlo`` calls :func:`correlate` per pair under a
    seed derived from the pair, so the four pairs give bit-identical results
    in any order, and combines the reports with :func:`chsh_from_reports`.
    """
    if method == "exact":
        return chsh_from_correlations(partial(exact_correlation, model), a, a_prime, b, b_prime,
                                      tol)
    reports = [correlate(model, x, y, method, trials,
                         stable_seed("chsh-pair", seed, fmt12(x.angle), fmt12(y.angle)))
               for x, y in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))]
    return chsh_from_reports(*reports, tol=tol)


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
    return ChshResult((a, a_prime, b, b_prime), es, tol)


def chsh_from_reports(
    ab: CorrelationReport,
    ab_prime: CorrelationReport,
    a_prime_b: CorrelationReport,
    a_prime_b_prime: CorrelationReport,
    tol: float = BOUND_TOL,
) -> ChshResult:
    """CHSH combination of four sampled pair reports, with an honest verdict.

    The pairs are sampled with independent seeds, so the variances add. The
    verdict is ``within`` when |S| <= 2 + ``tol``, ``violation`` when |S| - 2
    exceeds the sum over the pairs of sqrt(2 ln(8/alpha) / n), and
    ``inconclusive`` otherwise. With probability at least 1 - alpha/4 each
    sampled e(x, y) lies within its term of its mean (Hoeffding, for n
    outcomes in [-1, 1]), so a model whose true |S| is at most 2 is reported
    as a violation with probability at most alpha = :data:`FALSE_ALARM_RATE`.
    Only a ``violation`` is outside the local bound. Every report must be
    sampled: an exact one (no trials) raises :class:`ZeroTrialsError`. The
    four must form a CHSH quadruple, (a, b), (a, b'), (a', b), (a', b'), or
    a :class:`HarnessError` names the two reports whose settings disagree.
    """
    reports = (ab, ab_prime, a_prime_b, a_prime_b_prime)
    named = dict(zip(("ab", "ab_prime", "a_prime_b", "a_prime_b_prime"), reports))
    for x, y, side in (("ab", "ab_prime", "a"), ("a_prime_b", "a_prime_b_prime", "a"),
                       ("ab", "a_prime_b", "b"), ("ab_prime", "a_prime_b_prime", "b")):
        first, second = (getattr(named[k], f"setting_{side}") for k in (x, y))
        if first != second:
            raise HarnessError(
                f"reports {x} and {y} must share setting {side}, got {fmt12(first.angle)}"
                f" and {fmt12(second.angle)}; pass them as (a,b), (a,b'), (a',b), (a',b')")
    for r in reports:
        if r.trials == 0:
            raise ZeroTrialsError(f"pair a={fmt12(r.setting_a.angle)}, b={fmt12(r.setting_b.angle)}"
                                  " is an exact report; a sampled CHSH needs trials")
    settings = (ab.setting_a, a_prime_b.setting_a, ab.setting_b, ab_prime.setting_b)
    result = ChshResult(settings, tuple(r.e_ab for r in reports), tol)
    margin = fsum(sqrt(2.0 * log(8.0 / FALSE_ALARM_RATE) / r.trials) for r in reports)
    if result.within_local_bound:
        verdict = "within"
    elif abs(result.s_value) - LOCAL_BOUND > margin:
        verdict = "violation"
    else:
        verdict = "inconclusive"
    return replace(result, std_error=sqrt(fsum(r.std_error ** 2 for r in reports)),
                   verdict=verdict)


def reference_correlation(a: Setting, b: Setting) -> float:
    """Singlet-state reference value -cos(a - b); used only for gap reporting."""
    check_pair(a, b)
    return -cos(a.angle - b.angle)
