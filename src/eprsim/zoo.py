"""Built-in model catalogue plus a seeded family of random factorized models.

Every entry is constructed fresh on each request, so callers can never mutate
shared state. The catalogue deliberately covers all checker branches: a
factorized product model, a perfectly slot-correlated model, a model whose
instrument-value distribution depends on the local setting, and several
slot-constant models used by the marginal-zeroing transforms.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .errors import UnknownZooEntryError
from .model import InstrumentParamGen, LocalModel, OutcomeFn, SourceSpace, Station, TimeGrid
from .util import stable_seed


def angle_bucket(angle: float, width: float = math.pi / 4) -> int:
    """Nearest pi/4 sector of a normalized angle, in 0..7; total on all floats."""
    return int(round(angle / width)) % 8


def _threshold(angle: float, offset: float) -> int:
    return 1 if math.cos(angle - offset) >= 0.0 else -1


def _constant_gen(station: Station, value=0) -> InstrumentParamGen:
    return InstrumentParamGen(station, (value,), lambda s, m, seed: value)


def _bell_product_basic() -> LocalModel:
    # Slot m on a 2x2 product grid: component i drives S1, component j drives S2,
    # so the two instrument values are independent under the uniform slot draw.
    offsets = {"u0": 0.0, "u1": math.pi / 2}
    gen1 = InstrumentParamGen(Station.S1, (0, 1), lambda s, m, seed: (m - 1) % 2)
    gen2 = InstrumentParamGen(Station.S2, (0, 1), lambda s, m, seed: (m - 1) // 2)
    out1 = OutcomeFn(
        Station.S1,
        lambda s, lam, v, m: _threshold(s.angle, offsets[lam]) * (1 if v == 0 else -1),
    )
    out2 = OutcomeFn(
        Station.S2,
        lambda s, lam, v, m: -_threshold(s.angle, offsets[lam]) * (1 if v == 0 else -1),
    )
    return LocalModel(
        name="bell_product_basic",
        source=SourceSpace(("u0", "u1"), (0.5, 0.5)),
        grid=TimeGrid(4),
        gen1=gen1,
        gen2=gen2,
        out1=out1,
        out2=out2,
    )


def _hp_time_correlated() -> LocalModel:
    # Both generators return the same injective function of the shared slot, so
    # the instrument values are perfectly correlated once slots are pooled.
    def f(s, m, seed):
        return m - 1

    def out_rule(s, lam, v, m):
        return 1 if (v + angle_bucket(s.angle)) % 2 == 0 else -1

    return LocalModel(
        name="hp_time_correlated",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0, 1, 2, 3), f),
        gen2=InstrumentParamGen(Station.S2, (0, 1, 2, 3), f),
        out1=OutcomeFn(Station.S1, out_rule),
        out2=OutcomeFn(Station.S2, out_rule),
    )


def _setting_dependent_density() -> LocalModel:
    # P(value = 0 | setting) varies with the S1 setting (1/4, 1/2 or 3/4); the
    # S2 generator is constant, so the joint still factorizes given the state.
    offsets = {"u0": 0.0, "u1": math.pi / 2}

    def gen1_rule(s, m, seed):
        cut = 1 + angle_bucket(s.angle) % 3
        return 0 if (m - 1) < cut else 1

    out1 = OutcomeFn(
        Station.S1,
        lambda s, lam, v, m: _threshold(s.angle, offsets[lam]) * (1 if v == 0 else -1),
    )
    out2 = OutcomeFn(Station.S2, lambda s, lam, v, m: -_threshold(s.angle, offsets[lam]))
    return LocalModel(
        name="setting_dependent_density",
        source=SourceSpace(("u0", "u1"), (0.7, 0.3)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0, 1), gen1_rule),
        gen2=_constant_gen(Station.S2),
        out1=out1,
        out2=out2,
    )


def _constant_plus() -> LocalModel:
    return LocalModel(
        name="constant_plus",
        source=SourceSpace(("u0", "u1"), (0.5, 0.5)),
        grid=TimeGrid(4),
        gen1=_constant_gen(Station.S1),
        gen2=_constant_gen(Station.S2),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )


def _anticorrelated_signs() -> LocalModel:
    sign = {"u0": 1, "u1": -1}
    return LocalModel(
        name="anticorrelated_signs",
        source=SourceSpace(("u0", "u1"), (0.5, 0.5)),
        grid=TimeGrid(4),
        gen1=_constant_gen(Station.S1),
        gen2=_constant_gen(Station.S2),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: sign[lam]),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: -sign[lam]),
    )


def _cosine_threshold_lhv() -> LocalModel:
    # Classic deterministic hidden-direction model: eight equally spaced hidden
    # angles, outcome = sign of the cosine between setting and hidden direction.
    k = 8
    hidden = {f"h{i}": 2 * math.pi * i / k for i in range(k)}
    return LocalModel(
        name="cosine_threshold_lhv",
        source=SourceSpace(tuple(hidden), tuple(1.0 / k for _ in range(k))),
        grid=TimeGrid(4),
        gen1=_constant_gen(Station.S1),
        gen2=_constant_gen(Station.S2),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: _threshold(s.angle, hidden[lam])),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: -_threshold(s.angle, hidden[lam])),
    )


@dataclass(frozen=True)
class ZooEntry:
    name: str
    summary: str
    build: Callable[[], LocalModel]
    factorized: bool
    m_constant: bool


ZOO: dict[str, ZooEntry] = {
    e.name: e
    for e in (
        ZooEntry(
            "bell_product_basic",
            "factorized 2-state model on a 2x2 product slot grid",
            _bell_product_basic,
            factorized=True,
            m_constant=False,
        ),
        ZooEntry(
            "hp_time_correlated",
            "both stations read the same injective function of the shared slot",
            _hp_time_correlated,
            factorized=False,
            m_constant=False,
        ),
        ZooEntry(
            "setting_dependent_density",
            "S1 instrument-value distribution depends on the S1 setting",
            _setting_dependent_density,
            factorized=True,
            m_constant=False,
        ),
        ZooEntry(
            "constant_plus",
            "both outcomes identically +1",
            _constant_plus,
            factorized=True,
            m_constant=True,
        ),
        ZooEntry(
            "anticorrelated_signs",
            "outcomes +-1 by state, perfectly anticorrelated",
            _anticorrelated_signs,
            factorized=True,
            m_constant=True,
        ),
        ZooEntry(
            "cosine_threshold_lhv",
            "eight hidden directions, sign-of-cosine outcomes",
            _cosine_threshold_lhv,
            factorized=True,
            m_constant=True,
        ),
    )
}

# Name reserved for the correlation table that is not a local model; the CLI
# routes it to eprsim.inequality.reference_correlation.
REFERENCE_TABLE_NAME = "reference_cosine"


def zoo_model(name: str) -> LocalModel:
    try:
        entry = ZOO[name]
    except KeyError:
        raise UnknownZooEntryError(f"unknown zoo entry: {name!r}") from None
    return entry.build()


def all_zoo_models() -> list[LocalModel]:
    return [entry.build() for entry in ZOO.values()]


def m_constant_zoo_models() -> list[LocalModel]:
    return [entry.build() for entry in ZOO.values() if entry.m_constant]


def random_factorized_model(seed: int) -> LocalModel:
    """Seeded random model whose instrument values are independent given the state.

    The slot grid is a product grid (N = n1 * n2 <= 8); station 1 reads only the
    first component, station 2 only the second, so conditional independence
    holds by construction. Priors, value tables and outcome tables are all
    drawn from the seed. State count <= 8, value spaces <= 8 per side.
    """
    rng = random.Random(stable_seed("random-factorized", seed))
    n_states = rng.randint(1, 8)
    raw = [rng.random() + 0.05 for _ in range(n_states)]
    total = sum(raw)
    states = tuple(f"s{i}" for i in range(n_states))
    prior = tuple(x / total for x in raw)

    n1 = rng.choice((1, 2))
    n2 = rng.choice((1, 2, 4))
    grid = TimeGrid(n1 * n2)

    k1 = rng.randint(1, 8)
    k2 = rng.randint(1, 8)
    table1 = {(b, i): rng.randrange(k1) for b in range(8) for i in range(n1)}
    table2 = {(b, j): rng.randrange(k2) for b in range(8) for j in range(n2)}

    gen1 = InstrumentParamGen(
        Station.S1,
        tuple(range(k1)),
        lambda s, m, seed_, t=table1, n=n1: t[(angle_bucket(s.angle), (m - 1) % n)],
    )
    gen2 = InstrumentParamGen(
        Station.S2,
        tuple(range(k2)),
        lambda s, m, seed_, t=table2, n=n1, p=n2: t[(angle_bucket(s.angle), ((m - 1) // n) % p)],
    )

    idx = {lam: i for i, lam in enumerate(states)}
    o1 = {
        (b, i, v, m): rng.choice((-1, 1))
        for b in range(8)
        for i in range(n_states)
        for v in range(k1)
        for m in grid.slots
    }
    o2 = {
        (b, i, v, m): rng.choice((-1, 1))
        for b in range(8)
        for i in range(n_states)
        for v in range(k2)
        for m in grid.slots
    }
    out1 = OutcomeFn(
        Station.S1, lambda s, lam, v, m, t=o1: t[(angle_bucket(s.angle), idx[lam], v, m)]
    )
    out2 = OutcomeFn(
        Station.S2, lambda s, lam, v, m, t=o2: t[(angle_bucket(s.angle), idx[lam], v, m)]
    )

    return LocalModel(
        name=f"random_factorized_{seed}",
        source=SourceSpace(states, prior),
        grid=grid,
        gen1=gen1,
        gen2=gen2,
        out1=out1,
        out2=out2,
    )
