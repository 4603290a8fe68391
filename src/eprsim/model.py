"""Core types for finite two-station coincidence experiments.

A LocalModel describes one experiment completely and finitely: a source
distribution over hidden states, a shared clock grid of time slots, a
per-station instrument-parameter generator, and a per-station outcome
function. All randomness (state draws, slot scheduling, setting
choices) lives in the harness; models are pure, immutable, and safe to share
across threads.

Every exact path reads one memo per model, :meth:`LocalModel.compiled`,
filled on first use. It is not part of the model's identity (no part in
equality, hashing or ``repr``; ``dataclasses.replace`` starts it empty), and
two threads that first fill one setting at once only repeat pure work.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from typing import Callable, Hashable, Mapping

import numpy as np

from .errors import (
    CodomainViolationError,
    ConfigurationError,
    GridMismatchError,
    HarnessError,
    InvalidWeightsError,
    StationMismatchError,
)

TWO_PI = 2.0 * math.pi

# Canonical four-angle test grid; contains the configuration that maximizes the
# CHSH combination against the singlet cosine reference.
TEST_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)

# (a, a_prime, b, b_prime) at which the cosine reference reaches |S| = 2*sqrt(2).
CHSH_OPTIMAL_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

WEIGHT_TOL = 1e-12


class Station(enum.Enum):
    S1 = "S1"
    S2 = "S2"


@dataclass(frozen=True)
class Setting:
    """A measurement setting: an angle in [0, 2*pi) typed to one station."""

    angle: float
    station: Station

    def __post_init__(self):
        if not isinstance(self.station, Station):
            raise StationMismatchError(f"setting station must be a Station, got {self.station!r}")
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ConfigurationError(f"setting angle {self.angle!r} is not finite")
        angle %= TWO_PI
        # A tiny negative angle rounds up to TWO_PI itself under the modulo.
        object.__setattr__(self, "angle", 0.0 if angle == TWO_PI else angle)


def s1(angle: float) -> Setting:
    return Setting(angle, Station.S1)


def s2(angle: float) -> Setting:
    return Setting(angle, Station.S2)


def _check_distribution(weights, what: str) -> None:
    if len(weights) == 0:
        raise InvalidWeightsError(f"{what}: needs at least one entry")
    _check_mass(weights, all(w >= 0.0 for w in weights), what)


def _check_mass(weights, nonnegative: bool, what: str) -> None:
    """Refuse ``weights`` unless ``nonnegative`` (no weight negative or NaN)
    holds and their exact sum is within WEIGHT_TOL of 1."""
    if not nonnegative:
        raise InvalidWeightsError(f"{what}: negative or NaN weight")
    try:
        total = fsum(weights)
    except OverflowError:  # finite weights whose sum exceeds the largest float
        total = math.inf
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InvalidWeightsError(f"{what}: weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class SourceSpace:
    """Finite set of source states with a prior over them."""

    states: tuple[Hashable, ...]
    prior: tuple[float, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        if len(self.states) != len(self.prior):
            raise InvalidWeightsError("source: states and prior differ in length")
        if len(set(self.states)) != len(self.states):
            raise InvalidWeightsError("source: duplicate state labels")
        _check_distribution(self.prior, "source prior")
        object.__setattr__(self, "_index", {lam: i for i, lam in enumerate(self.states)})

    def has(self, lam: Hashable) -> bool:
        return lam in self._index

    def weight(self, lam: Hashable) -> float:
        return self.prior[self._index[lam]]


@dataclass(frozen=True)
class TimeGrid:
    """Shared clock: slots labelled 1..slot_count. Without ``weights`` every
    slot weighs 1/slot_count, and ``weights`` holds those values."""

    slot_count: int
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.slot_count < 1:
            raise InvalidWeightsError("grid: slot_count must be >= 1")
        w = (1.0 / self.slot_count,) * self.slot_count if self.weights is None else self.weights
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if len(self.weights) != self.slot_count:
            raise InvalidWeightsError("grid: weights length != slot_count")
        _check_distribution(self.weights, "grid weights")

    @property
    def slots(self) -> range:
        return range(1, self.slot_count + 1)

    @property
    def is_uniform(self) -> bool:
        return max(self.weights) - min(self.weights) <= WEIGHT_TOL

    def weight(self, m: int) -> float:
        return self.weights[m - 1]


@dataclass(frozen=True)
class SignFunction:
    """A per-slot sign r(m) in {-1, +1} with its grid-weighted mean cached."""

    values: tuple[int, ...]
    mean: float

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v not in (-1, 1) for v in self.values):
            raise CodomainViolationError("sign function values must be -1 or +1")

    def recomputed_mean(self, grid: TimeGrid) -> float:
        if len(self.values) != grid.slot_count:
            raise GridMismatchError("sign function does not match the grid")
        return fsum(grid.weight(m) * self.values[m - 1] for m in grid.slots)


@dataclass(frozen=True)
class InstrumentParamGen:
    """Deterministic per-station instrument-parameter source.

    ``rule(setting, m, seed)`` must be total on the station's settings and the
    grid slots, and must return a member of ``value_space``. Every call passes
    the generator's own ``seed``, which is part of the model identity.
    """

    station: Station
    value_space: tuple[Hashable, ...]
    rule: Callable[[Setting, int, int], Hashable]
    seed: int = 0

    def __post_init__(self):
        # A value space is a set; a cycle sequence such as 0, 1, 0 lists a
        # value twice, and tables over the space must see each value once.
        object.__setattr__(self, "value_space", tuple(dict.fromkeys(self.value_space)))
        if len(self.value_space) == 0:
            raise InvalidWeightsError("generator: empty value space")

    def evaluate(self, setting: Setting, m: int) -> Hashable:
        if setting.station is not self.station:
            raise StationMismatchError(
                f"{self.station.value} generator received a {setting.station.value} setting"
            )
        value = self.rule(setting, m, self.seed)
        if value not in self.value_space:
            raise CodomainViolationError(
                f"{self.station.value} generator produced {value!r}, outside its value space"
            )
        return value


# The arguments of an outcome rule, in call order.
OUTCOME_ARGS = ("setting", "state", "value", "slot")


@dataclass(frozen=True)
class OutcomeFn:
    """Deterministic spin-value rule: (local setting, state, local value, m) -> +-1.

    ``reads`` names the arguments of :data:`OUTCOME_ARGS` that the rule reads;
    the default is all four. The compiled form (:func:`station_outcomes`)
    calls the rule once per state only if it reads the state, and once per
    slot only if it reads the value or the slot. A rule that declares too
    few reads is compiled wrongly, so only rules whose reads are known by
    construction, such as the descriptor kinds, declare fewer.
    """

    station: Station
    rule: Callable[[Setting, Hashable, Hashable, int], int]
    reads: frozenset[str] = frozenset(OUTCOME_ARGS)

    def __post_init__(self):
        reads = frozenset(self.reads)
        unknown = sorted(reads.difference(OUTCOME_ARGS))
        if unknown:
            raise HarnessError(
                f"{self.station.value} outcome rule reads unknown arguments {unknown};"
                f" known: {', '.join(OUTCOME_ARGS)}"
            )
        object.__setattr__(self, "reads", reads)


@dataclass(frozen=True)
class LocalModel:
    """One complete, finite experiment description.

    ``sign``, ``doubled`` and ``lambda_sign`` are outcome modifiers installed
    by the transforms in :mod:`eprsim.symmetry`; they multiply the raw outcome
    and never touch the instrument-parameter distribution. ``signs[station]``
    is their product at that station as an int8 +-1 array over (state, slot),
    or None when none applies there: the time sign (at both stations unless
    ``sign_station`` names one), the layer flip (-1 on even slots of a
    doubled model) and the source-conditioned sign.
    """

    name: str
    source: SourceSpace
    grid: TimeGrid
    gen1: InstrumentParamGen
    gen2: InstrumentParamGen
    out1: OutcomeFn
    out2: OutcomeFn
    sign: SignFunction | None = None
    sign_station: Station | None = None
    doubled: bool = False
    lambda_sign: Mapping[Hashable, int] | None = None
    transforms: tuple[str, ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gen1.station is not Station.S1 or self.out1.station is not Station.S1:
            raise StationMismatchError(f"{self.name}: gen1/out1 must be S1-typed")
        if self.gen2.station is not Station.S2 or self.out2.station is not Station.S2:
            raise StationMismatchError(f"{self.name}: gen2/out2 must be S2-typed")
        n = self.grid.slot_count
        if self.sign is not None and len(self.sign.values) != n:
            raise GridMismatchError(f"{self.name}: sign function does not cover the grid")
        if self.doubled and n % 2 != 0:
            raise HarnessError(f"{self.name}: a doubled model needs an even slot count")
        if self.lambda_sign is not None:
            missing = [lam for lam in self.source.states if lam not in self.lambda_sign]
            if missing:
                raise HarnessError(f"{self.name}: lambda_sign misses states {missing!r}")
            if any(v not in (-1, 1) for v in self.lambda_sign.values()):
                raise CodomainViolationError(f"{self.name}: lambda_sign values must be +-1")

    @cached_property
    def signs(self) -> dict[Station, np.ndarray | None]:
        """Each station's read-only modifier product, built on first read:
        a transform chain builds only its last model's arrays."""
        states, signs = self.source.states, {Station.S1: None, Station.S2: None}
        for station in signs:
            timed = self.sign is not None and self.sign_station in (None, station)
            if not (timed or self.doubled or self.lambda_sign is not None):
                continue
            row = np.array(self.sign.values if timed else [1] * self.grid.slot_count,
                           dtype=np.int8)
            if self.doubled:
                row[1::2] *= -1
            column = [1] * len(states)
            if self.lambda_sign is not None:
                column = [self.lambda_sign[lam] for lam in states]
            signs[station] = np.array(column, dtype=np.int8)[:, None] * row
            signs[station].setflags(write=False)
        return signs

    def compiled(self, setting: Setting) -> tuple[tuple[Hashable, ...], np.ndarray]:
        """The station's slot values and read-only int8 (state, slot) outcomes
        at one setting, compiled once and kept."""
        entry = self._memo.get(setting)
        if entry is None:
            values = station_values(self, setting)
            outcomes = station_outcomes(self, setting, values)
            outcomes.setflags(write=False)
            entry = self._memo.setdefault(setting, (tuple(values), outcomes))
        return entry

    def gen(self, station: Station) -> InstrumentParamGen:
        return self.gen1 if station is Station.S1 else self.gen2

    def out(self, station: Station) -> OutcomeFn:
        return self.out1 if station is Station.S1 else self.out2


def check_pair(a: Setting, b: Setting) -> None:
    """A setting pair is an S1 setting, then an S2 setting."""
    if a.station is not Station.S1:
        raise StationMismatchError("first setting must be S1-typed")
    if b.station is not Station.S2:
        raise StationMismatchError("second setting must be S2-typed")


def cell_mass(model: LocalModel) -> np.ndarray:
    """Every (state, slot) cell's probability: prior times slot weight, each
    product rounded once. Every exact sum over cells weighs them by this."""
    return np.outer(model.source.prior, model.grid.weights)


def _checked(model: LocalModel, raw) -> int:
    """One raw rule return as an int, or the codomain error that names it."""
    if raw not in (-1, 1):
        raise CodomainViolationError(
            f"{model.name}: outcome rule returned {raw!r}, expected -1 or +1"
        )
    return int(raw)


def evaluate_outcome(model: LocalModel, station: Station, setting: Setting, lam: Hashable,
                     m: int) -> int:
    """Evaluate one station's outcome for (setting, state, slot).

    Pure in all arguments; the instrument value is produced by the station's
    own generator, so the other station's setting cannot enter by construction.
    The station's installed modifiers, ``model.signs[station]`` at this cell,
    multiply the raw outcome.
    """
    if not model.source.has(lam):
        raise HarnessError(f"{model.name}: unknown source state {lam!r}")
    if not 1 <= m <= model.grid.slot_count:
        raise HarnessError(f"{model.name}: slot {m} outside 1..{model.grid.slot_count}")
    value = model.gen(station).evaluate(setting, m)
    o = _checked(model, model.out(station).rule(setting, lam, value, m))
    signs = model.signs[station]
    return o if signs is None else o * int(signs[model.source.states.index(lam), m - 1])


def station_values(model: LocalModel, setting: Setting) -> list[Hashable]:
    """The station's instrument value at every slot (slot 1 first) for one setting.

    A generator sees only the setting, the slot and its own seed, so one call
    per slot covers every source state.
    """
    gen = model.gen(setting.station)
    return [gen.evaluate(setting, m) for m in model.grid.slots]


def station_outcomes(model: LocalModel, setting: Setting, values: list[Hashable]) -> np.ndarray:
    """The station's compiled form at one setting: int8 ``outcomes[state, slot]``.

    ``values`` are the slot values from :func:`station_values`. The outcome
    rule is called only along the axes its ``reads`` declare: once per state
    if it reads the state, once per slot if it reads the value or the slot.
    An unread axis gets a real grid point, the first state or slot 1 with its
    value, and the result is broadcast along it. A rule that reads both axes,
    as every undeclared rule does, is called once per cell, state by state
    and slot by slot within a state, as cell-by-cell calls of
    :func:`evaluate_outcome` would be. The codomain check then applies to
    every return, with the message a single evaluation gives, and the array
    is multiplied by the station's ``model.signs``. Every exact quantity is a
    weighted sum over such arrays.
    """
    states, out = model.source.states, model.out(setting.station)
    rule, reads = out.rule, out.reads
    rows = states if "state" in reads else states[:1]
    cells = list(zip(model.grid.slots, values))
    if reads.isdisjoint(("value", "slot")):
        cells = cells[:1]
    raw = [rule(setting, lam, v, m) for lam in rows for m, v in cells]
    try:
        valid = set(raw) <= {-1, 1}
    except TypeError:  # an unhashable return: the cell-by-cell check names it
        valid = False
    if not valid:
        raw = [_checked(model, r) for r in raw]
    outcomes = np.array(raw, dtype=np.int8).reshape(len(rows), len(cells))
    if outcomes.shape != (len(states), len(values)):
        outcomes = np.broadcast_to(outcomes, (len(states), len(values))).copy()
    signs = model.signs[setting.station]
    return outcomes if signs is None else outcomes * signs


def composite_is_m_constant(model: LocalModel) -> bool:
    """True when both stations' outcomes are slot-independent at the probe angles."""
    compiled = (model.compiled(Setting(angle, station))[1]
                for station in (Station.S1, Station.S2) for angle in TEST_ANGLES)
    return all((outcomes == outcomes[:, :1]).all() for outcomes in compiled)
