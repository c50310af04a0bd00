import numpy as np
import pytest

from lossynet import build_graph

from oracles import scripted_schedule


@pytest.fixture
def two_cycle():
    return build_graph(2, [(1, 2), (2, 1)])


@pytest.fixture
def three_ring():
    return build_graph(3, [(1, 2), (2, 3), (3, 1)])


@pytest.fixture
def asym3():
    # Node 2 has out-degree 2, the others 1; exercises unequal shares.
    return build_graph(3, [(1, 2), (2, 1), (2, 3), (3, 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def lossy6(asym3):
    # Six scripted rounds mixing drops and deliveries on every link.
    patterns = {
        (1, 2): [1, 0, 0, 1, 1, 0],
        (2, 1): [0, 1, 0, 0, 1, 1],
        (2, 3): [1, 1, 0, 1, 0, 1],
        (3, 1): [0, 0, 1, 1, 1, 0],
    }
    table = {
        (e, t + 1): v for e, pat in patterns.items() for t, v in enumerate(pat)
    }
    return scripted_schedule(asym3, 6, table)
