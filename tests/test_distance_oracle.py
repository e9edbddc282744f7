"""``geometry.distance_xy`` against a 60-digit mpmath oracle over the whole
range of valid points.

Heights are 10^e with e uniform on [-300, 300]; the second height is drawn
either alike or within a log-uniform number of decades of the first, and
each x offset is a log-uniform multiple, 1e-16 to 1e3, of the first height.
So the search meets squares that overflow, products that underflow, and
points a relative 1e-16 apart.  A second search covers the distances where
sinh(d/2) overflows, from about 1420.9 up to about 2 910 between valid
points: heights down to 5e-324 and x up to +-1.8e308, where x1 - x2 itself
overflows.  The searches are derandomized and keep no database, so every
run tries the same examples.
"""

import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlorentz import Point, hyp_distance

EPS = 2.0**-52

#: distance_xy's stated bound: a relative error of 2 EPS, or one step of the
#: subnormal range, ulp(0.0), where the distance itself is subnormal; past
#: sinh(d/2)'s overflow, 2 EPS too.
BOUND = 2

SIGNED = st.floats(-1.0, 1.0)
DECADES = st.floats(-16.0, 3.0)


@st.composite
def point_pairs(draw):
    e1 = draw(st.floats(-300.0, 300.0))
    near = st.builds(lambda u, r: min(max(e1 + u * 10.0**r, -300.0), 300.0), SIGNED, DECADES)
    e2 = draw(st.one_of(st.floats(-300.0, 300.0), near))
    y1, y2 = 10.0**e1, 10.0**e2
    x1 = draw(SIGNED) * y1 * 10.0 ** draw(DECADES)
    x2 = x1 + draw(SIGNED) * y1 * 10.0 ** draw(DECADES)
    return x1, y1, x2, y2


@st.composite
def far_pairs(draw):
    """Pairs of x of opposite signs whose |x1 - x2| passes 2 sqrt(y1 y2) times
    the largest float, 10^308.556 sqrt(y1 y2), by a tenth of a decade."""
    e1 = draw(st.floats(-323.3, 308.25))
    e2 = draw(st.floats(-323.3, min(308.25, -1.0 - e1)))
    x1 = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(308.66 + (e1 + e2) / 2, 308.25))
    x2 = -math.copysign(10.0 ** draw(st.floats(-300.0, 308.25)), x1)
    return x1, 10.0**e1, x2, 10.0**e2


def _exact(x1, y1, x2, y2):
    with mp.workdps(60):
        a, b, c, d = map(mp.mpf, (x1, y1, x2, y2))
        return 2 * mp.asinh(mp.sqrt(((a - c) ** 2 + (b - d) ** 2) / (4 * b * d)))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(point_pairs())
# |dz|^2 or 4 y1 y2 below the normal range: these read 0.0, 0.0 and 5.8211.
@example((0.0, 1e-162, 1e-162, 1e-162))
@example((0.0, 1e-162, 0.0, 2e-162))
@example((0.0, 3e-163, 0.0, 1e-160))
# A subnormal |dz|, whose hypot lost 1e-11 relative; a subnormal distance.
@example((-2.9552185023902748e-301, 1.0000000000001308e-300, -2.955218502390372e-301, 1e-300))
@example((-5e-324, 1.0, -1e-323, 1.0))
def test_distance_matches_the_oracle_within_its_stated_bound(pair):
    got, exact = hyp_distance(Point(*pair[:2]), Point(*pair[2:])), _exact(*pair)
    assert math.isfinite(got)
    assert abs(mp.mpf(got) - exact) <= max(BOUND * EPS * exact, math.ulp(0.0)), (pair, got, exact)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(far_pairs())
# The first distance past sinh(d/2) = inf, the top of the range, and a
# height difference that overflows sinh(d/2) alone: these read inf.
@example((0.0, 1e-300, 1e10, 1e-300))
@example((-1.7976931348623157e308, 5e-324, 1.7976931348623157e308, 5e-324))
@example((0.0, 1e308, 0.0, 5e-324))
def test_distance_past_sinh_overflow_matches_the_oracle(pair):
    got, exact = hyp_distance(Point(*pair[:2]), Point(*pair[2:])), _exact(*pair)
    assert 1420.0 < got < 2910.0
    assert abs(mp.mpf(got) - exact) <= BOUND * EPS * exact, (pair, got, exact)


@pytest.mark.xfail(strict=True, reason="sqrt(y1) sqrt(y2) is rounded to the subnormal grid (ROADMAP)")
def test_distance_keeps_its_digits_where_the_heights_mean_is_subnormal():
    # sqrt(y1 y2) = 1.76e-320 holds 12 bits; d reads 288.7044567516214, 4e9 EPS off.
    pair = (-8.673490499897405e-258, 6.8e-322, 2.9837399498212386e-289, 4.56946e-319)
    got, exact = hyp_distance(Point(*pair[:2]), Point(*pair[2:])), _exact(*pair)
    assert abs(mp.mpf(got) - exact) <= BOUND * EPS * exact
