"""Marginal-zeroing transforms: time-sign symmetrization and layer doubling.

Both transforms leave every pair-product expectation unchanged while driving
one-sided statistics to a target (zero, or a chosen alpha). A third transform
conditions the sign on the source state instead of the clock; it exists only
as a negative control and is expected to break parameter independence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import (
    AlreadyDoubledError,
    AlreadySymmetrizedError,
    GridMismatchError,
    InfeasibleMeanError,
    InfeasibleTargetError,
)
from .inequality import exact_marginal
from .model import InstrumentParamGen, LocalModel, OutcomeFn, SignFunction, Station, TimeGrid
from .util import fmt12, stable_seed


@dataclass(frozen=True)
class MarginalTarget:
    """Requested and attained one-sided marginal after a sign transform."""

    alpha: float
    achieved: float
    base_marginal: float
    sign_mean: float


def make_sign_function(
    grid: TimeGrid, target_mean: float, seed: int = 0, *, nearest: bool = False
) -> SignFunction:
    """Seeded +-1 assignment over the slots with the requested mean.

    The mean must be representable as (2k - N)/N for an integer k; otherwise
    the request is infeasible, unless ``nearest`` asks for the representable
    mean closest to it. Requires a uniform grid so counts translate into
    means exactly.
    """
    if not grid.is_uniform:
        raise InfeasibleMeanError("sign means are only exactly representable on uniform grids")
    n = grid.slot_count
    k_float = (target_mean * n + n) / 2.0
    k = round(k_float)
    if nearest:
        k = min(n, max(0, k))
    elif abs(k - k_float) > 1e-9 or not 0 <= k <= n:
        raise InfeasibleMeanError(
            f"mean {target_mean!r} is not representable on {n} slots"
        )
    order = list(range(n))
    random.Random(stable_seed("sign", seed, n, k)).shuffle(order)
    values = [-1] * n
    for i in order[:k]:
        values[i] = 1
    # (2k - n)/n is the exact mean; a weighted float sum would round differently
    # on non-dyadic slot counts.
    return SignFunction(tuple(values), (2 * k - n) / n)


def balanced_sign_function(grid: TimeGrid, seed: int = 0) -> SignFunction:
    """Sign function with mean exactly zero (equal weight on +1 and -1)."""
    return make_sign_function(grid, 0.0, seed)


def encode_sign(sign: SignFunction) -> str:
    return "".join("+" if v > 0 else "-" for v in sign.values)


def decode_sign(text: str, grid: TimeGrid) -> SignFunction:
    if any(c not in "+-" for c in text):
        raise GridMismatchError(f"sign encoding must be +/- characters, got {text!r}")
    sign = SignFunction(tuple(1 if c == "+" else -1 for c in text), 0.0)
    return replace(sign, mean=sign.recomputed_mean(grid))


def time_symmetrize(
    model: LocalModel, sign: SignFunction, station: Station | None = None
) -> LocalModel:
    """Multiply outcomes by the clock-indexed sign r(m).

    By default the same r applies at both stations (the clock is commonly
    available), which preserves every pair correlation exactly because
    r(m)^2 = 1. One-sided application (``station`` set) scales pair
    correlations by mean(r) when the base outcomes are slot-constant. A sign
    of another length than the grid raises GridMismatchError (from the model).
    """
    if model.sign is not None:
        raise AlreadySymmetrizedError(f"{model.name}: model already carries a sign function")
    side = "both" if station is None else station.value.lower()
    op = f"sign values={encode_sign(sign)} station={side}"
    return replace(
        model,
        sign=sign,
        sign_station=station,
        transforms=model.transforms + (op,),
    )


def target_marginal(
    model: LocalModel,
    station: Station,
    alpha: float,
    seed: int = 0,
    *,
    setting_angle: float = 0.0,
    round_to_representable: bool = False,
) -> tuple[LocalModel, MarginalTarget]:
    """Install a sign function so the one-sided marginal becomes alpha.

    The sign mean is alpha / beta where beta is the base marginal at
    ``setting_angle``; the attained marginal is recomputed exactly and
    reported. The sign applies at both stations, so pair correlations are
    preserved while both marginals are rescaled together.
    """
    if abs(alpha) > 1.0:
        raise InfeasibleTargetError(f"alpha must lie in [-1, 1], got {alpha!r}")
    beta = exact_marginal(model, station, setting_angle)
    if beta == 0.0:
        if alpha != 0.0:
            raise InfeasibleTargetError("base marginal is 0; only alpha = 0 is reachable")
        mean = 1.0
    else:
        if abs(alpha) > abs(beta) + 1e-12:
            raise InfeasibleTargetError(
                f"alpha {fmt12(alpha)} exceeds the base marginal {fmt12(beta)} in magnitude"
            )
        mean = alpha / beta
    try:
        sign = make_sign_function(model.grid, mean, seed)
    except InfeasibleMeanError:
        if not round_to_representable:
            raise InfeasibleTargetError(
                f"sign mean {fmt12(mean)} is not representable on {model.grid.slot_count} slots"
            ) from None
        sign = make_sign_function(model.grid, mean, seed, nearest=True)
    transformed = time_symmetrize(model, sign)
    achieved = exact_marginal(transformed, station, setting_angle)
    return transformed, MarginalTarget(
        alpha=alpha,
        achieved=achieved,
        base_marginal=beta,
        sign_mean=sign.mean,
    )


def _parent_slot(m: int) -> int:
    return (m + 1) // 2


def layer_double(model: LocalModel) -> LocalModel:
    """Split every slot into a pair carrying half its weight each, flipping
    both outcome signs on the second member.

    Per pair the two outcomes cancel exactly for any fixed (setting, state,
    instrument value), so every one-sided conditional expectation vanishes,
    while each pair product is unchanged pointwise.
    """
    if model.doubled:
        raise AlreadyDoubledError(f"{model.name}: model is already layer-doubled")
    # Halving is exact, so a uniform grid's 1/n halves to 1/(2n).
    halves = tuple(w / 2.0 for w in model.grid.weights for _ in range(2))
    grid = TimeGrid(2 * model.grid.slot_count, halves)

    def lift_gen(gen: InstrumentParamGen) -> InstrumentParamGen:
        base = gen.rule
        return InstrumentParamGen(
            gen.station,
            gen.value_space,
            lambda s, m, seed, _r=base: _r(s, _parent_slot(m), seed),
            gen.seed,
        )

    def lift_out(out: OutcomeFn) -> OutcomeFn:
        base = out.rule
        return OutcomeFn(out.station, lambda s, lam, v, m, _r=base: _r(s, lam, v, _parent_slot(m)))

    sign = model.sign
    if sign is not None:
        sign = SignFunction(
            tuple(sign.values[_parent_slot(m) - 1] for m in grid.slots), sign.mean
        )
    return replace(
        model,
        grid=grid,
        gen1=lift_gen(model.gen1),
        gen2=lift_gen(model.gen2),
        out1=lift_out(model.out1),
        out2=lift_out(model.out2),
        sign=sign,
        doubled=True,
        transforms=model.transforms + ("double",),
    )


def condition_sign_on_source(model: LocalModel, seed: int = 0) -> LocalModel:
    """Negative control: condition the sign on the source state instead of the clock.

    With r = r(state), single-station conditionals become r(state) * E{A|state}
    and are generally nonzero, unlike the clock-indexed construction.
    """
    if model.lambda_sign is not None:
        raise AlreadySymmetrizedError(
            f"{model.name}: model already carries a source-conditioned sign"
        )
    states = model.source.states
    order = list(range(len(states)))
    random.Random(stable_seed("lambda-sign", seed, len(states))).shuffle(order)
    values = {}
    for pos, i in enumerate(order):
        values[states[i]] = -1 if pos < (len(states) + 1) // 2 else 1
    return replace(
        model,
        lambda_sign=values,
        transforms=model.transforms + (f"lambda-sign seed={seed}",),
    )
