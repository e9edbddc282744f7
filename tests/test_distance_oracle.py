"""``geometry.distance_xy`` against a 60-digit mpmath oracle over the whole
range of valid points.

Heights are 10^e with e uniform on [-300, 300]; the second height is drawn
either alike or within a log-uniform number of decades of the first, and
each x offset is a log-uniform multiple, 1e-16 to 1e3, of the first height.
So the search meets squares that overflow, products that underflow, and
points a relative 1e-16 apart.  The search is derandomized and keeps no
database, so every run tries the same examples.
"""

import math

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlorentz import Point, hyp_distance

EPS = 2.0**-52

#: distance_xy's stated bound: a relative error of 2 EPS, or one step of the
#: subnormal range, ulp(0.0), where the distance itself is subnormal.
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
