import cmath
import math

import hypothesis
import pytest
from hypothesis import strategies as st

from hypsurf.disk import DiskPoint, MobiusIsometry
from oracles import Geodesic, IdealPoint, translation_along

hypothesis.settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@st.composite
def disk_points(draw, radius=0.9):
    r = draw(st.floats(min_value=0.0, max_value=radius))
    t = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    return DiskPoint(complex(r * math.cos(t), r * math.sin(t)))


@st.composite
def ideal_points(draw):
    return IdealPoint(draw(st.floats(min_value=0.0, max_value=2.0 * math.pi)))


@st.composite
def geodesics(draw):
    t1 = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    gap = draw(st.floats(min_value=0.2, max_value=math.pi))
    return Geodesic(IdealPoint(t1), IdealPoint(t1 + gap))


@st.composite
def isometries(draw):
    """Products of a few translations and rotations; generic isometries."""
    theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    m = MobiusIsometry(cmath.exp(0.5j * theta), 0)  # rotation by theta
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        g = draw(geodesics())
        length = draw(st.floats(min_value=0.1, max_value=3.0))
        m = m.compose(translation_along(g, length))
    return m


@pytest.fixture(scope="session")
def octagon():
    from hypsurf.groups import octagon_group

    return octagon_group()


@pytest.fixture(scope="session")
def schottky():
    from hypsurf.groups import schottky_rank2

    return schottky_rank2(4.0)


@pytest.fixture(scope="session")
def cusped_torus():
    from hypsurf.groups import cusped_torus_group

    return cusped_torus_group()


@pytest.fixture(params=["one-worker", "default-pool"])
def workers(request, monkeypatch):
    """The block loops on a pool of one worker thread, then on the default
    pool of one worker per CPU; the fixture's value is the worker count."""
    from concurrent.futures import ThreadPoolExecutor

    from hypsurf import pool

    if request.param == "default-pool":
        yield pool._pool()[1]
        return
    executor = ThreadPoolExecutor(1)
    monkeypatch.setattr(pool, "_pool", lambda: (executor, 1))
    try:
        yield 1
    finally:
        executor.shutdown()


@pytest.fixture(params=[1, 2, 5])
def sized_pool(request, monkeypatch):
    """The block loops on a pool of 1, 2 and then 5 worker threads, 5 being
    more than the CPUs of a small host; the fixture's value is the worker
    count."""
    from concurrent.futures import ThreadPoolExecutor

    from hypsurf import pool

    executor = ThreadPoolExecutor(request.param)
    monkeypatch.setattr(pool, "_pool", lambda: (executor, request.param))
    try:
        yield request.param
    finally:
        executor.shutdown()
