import math
from itertools import product

import pytest

from eprsim import TEST_ANGLES, s1, s2
from eprsim.zoo import ZOO

GRID_PAIRS = tuple((s1(x), s2(y)) for x in TEST_ANGLES for y in TEST_ANGLES)

OPTIMAL = (s1(0.0), s1(math.pi / 2), s2(math.pi / 4), s2(3 * math.pi / 4))

# The oracle for LOCAL_BOUND: every deterministic +-1 strategy with two
# settings per side, as ((A(a), A(a')), (B(b), B(b'))).
DETERMINISTIC_STRATEGIES = tuple(product(product((-1, 1), repeat=2), repeat=2))


def strategy_s(strategy) -> int:
    """A deterministic strategy's CHSH combination, e(x, y) = A(x) B(y)."""
    (a0, a1), (b0, b1) = strategy
    return a0 * b0 - a0 * b1 + a1 * b0 + a1 * b1


@pytest.fixture(params=sorted(ZOO), ids=sorted(ZOO))
def zoo_name(request):
    return request.param
