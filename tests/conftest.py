import faulthandler
import os

import pytest
from hypothesis import strategies as st

from honestflow import BoundaryRule, IntervalUnion, PiecewiseDensity

# seconds one test may run before the whole run stops with every thread's
# traceback, so a kernel that stops making progress, or a worker left
# waiting, fails the suite instead of stalling it; the slowest test takes
# about a second
TEST_TIME_LIMIT = 60

# the terminal's stderr, duplicated while no output is captured, so the
# tracebacks reach it from inside a captured test
_stderr = []


def pytest_configure(config):
    _stderr.append(os.dup(2))


def pytest_unconfigure(config):
    os.close(_stderr.pop())


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=_stderr[0])
    yield
    faulthandler.cancel_dump_traceback_later()


def dyadics(lo=-8.0, hi=8.0, denom=16):
    """Exactly representable floats lo..hi on a 1/denom grid.

    Group laws (shift, reflect, window splitting) hold exactly in floating
    point on such grids, so property tests can assert equality instead of
    closeness.
    """
    lo_i, hi_i = int(lo * denom), int(hi * denom)
    return st.integers(min_value=lo_i, max_value=hi_i).map(lambda k: k / denom)


@pytest.fixture
def unit_ladder():
    return IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)


@pytest.fixture
def geometric_ladder():
    return IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.5)


@pytest.fixture
def shift_rule():
    return BoundaryRule("shift", scale=1.0)


@pytest.fixture
def unit_box(unit_ladder):
    return PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])


@pytest.fixture
def geo_box(geometric_ladder):
    return PiecewiseDensity.from_pieces(geometric_ladder, [(0.0, 1.0, 1.0)])
