"""``geometry.flow_ahead`` and the hit-solve transform (``normalizing_coeffs``,
then ``mobius_xy``) against a 60-digit mpmath oracle, over the states and
times the experiments reach: every run starts at (0, 1) and keeps t + r <=
354, so every state, time and center here stays within 354 of (0, 1).

Both kernels read a direction alpha through its half-angle h = (pi/2 -
alpha) / 2, rounded once.  Near vertical the flow of alpha itself is
ill-conditioned, as e^|t| times that rounding, so the oracle takes the
direction pi/2 - 2h that the kernels read, exactly.  Each bound is a number
of EPS times the condition number that the kernel's docstring names.  The
searches are derandomized and keep no database, so every run tries the same
examples.
"""

import math

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlorentz.geometry import flow_ahead, flow_xy, mobius_xy, normalizing_coeffs

EPS = 2.0**-52
REACH = 354.0

#: flow_ahead's stated bounds in EPS: x over the sum of its terms' magnitudes,
#: y relative, and the angle.
FLOW_BOUNDS = (2, 2, 5)

#: The transform's stated bound: the image within TRANSFORM_BOUND EPS kappa
#: relative, wherever EPS kappa < CONDITIONED.
TRANSFORM_BOUND = 2
CONDITIONED = 1e-3

UNIT = st.floats(0.0, 1.0)
#: A direction all round, or within 1e-17..0.1 of vertical.
ANGLES = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    st.builds(
        lambda base, u, e: base + u * 10.0**e,
        st.sampled_from((0.5 * math.pi, 1.5 * math.pi)),
        st.floats(-1.0, 1.0),
        st.floats(-17.0, -1.0),
    ),
)


def _state(draw, reach):
    """(x0, y0, alpha): a point at distance ``reach`` times a fraction from (0, 1), a direction."""
    x0, y0 = flow_xy(0.0, 1.0, draw(ANGLES), reach * draw(UNIT))
    return float(x0), float(y0), draw(ANGLES)


@st.composite
def flows(draw):
    """A state and a signed time, together within REACH of (0, 1); the time's
    size is a log-uniform fraction, 1e-14 to 1, of what is left."""
    u = REACH * draw(UNIT)
    state = _state(draw, u)
    return state, draw(st.sampled_from((-1.0, 1.0))) * (REACH - u) * 10.0 ** draw(st.floats(-14.0, 0.0))


@st.composite
def centers(draw):
    """A state, and a center at distance rho = 10^-8..10^2 from the point s
    ahead of it, at any angle to the path: within REACH of (0, 1)."""
    rho = 10.0 ** draw(st.floats(-8.0, 2.0))
    u = (REACH - rho) * draw(UNIT)
    state = _state(draw, u)
    ix, iy, pre = flow_ahead(*state, (REACH - rho - u) * draw(UNIT))
    cx, cy = flow_xy(ix, iy, pre + draw(st.floats(0.0, 2.0 * math.pi)), rho)
    return state, (float(cx), float(cy))


def _half(alpha):
    """The half-angle both kernels read, rounded as they round it."""
    return (0.5 * math.pi - alpha) / 2.0


def flow_errors(x0, y0, alpha, t):
    """flow_ahead's errors in EPS: x over the magnitudes of its terms,
    |x0| + y |cos h sin h| (e^t + e^-t), y relative, and the angle."""
    x, y, angle = flow_ahead(x0, y0, alpha, t)
    with mp.workdps(60):
        h, mx0, my0, mt = map(mp.mpf, (_half(alpha), x0, y0, t))
        ch, sh, grow = mp.cos(h), mp.sin(h), mp.exp(mt)
        up, low = sh * grow, ch / grow
        want_y = my0 / (ch * low + sh * up)
        want_x = mx0 + want_y * (ch * up - sh * low)
        kappa = max(abs(mx0) + want_y * (abs(ch * up) + abs(sh * low)), math.ulp(0.0))
        turn = (mp.mpf(angle) - (mp.pi / 2 - 2 * mp.atan2(up, ch))) % (2 * mp.pi)
        return (
            float(abs(x - want_x) / kappa / EPS),
            float(abs(y - want_y) / want_y / EPS),
            float(min(turn, 2 * mp.pi - turn) / EPS),
        )


def transform_error(x0, y0, alpha, cx, cy):
    """The transform's relative error |tz - z'| / |z'| in EPS over its condition
    number kappa = kappa_num + kappa_den, and kappa itself."""
    tx, ty = mobius_xy(*normalizing_coeffs(x0, y0, alpha), cx, cy)
    with mp.workdps(60):
        h, mx0, my0 = map(mp.mpf, (_half(alpha), x0, y0))
        ch, sh = mp.cos(h), mp.sin(h)
        z = mp.mpc(cx, cy) - mx0
        num, den = ch * z + sh * my0, -sh * z + ch * my0
        size = abs(mp.mpf(cx)) + abs(mx0) + mp.mpf(cy)
        kappa = (abs(ch) * size + abs(sh) * my0) / abs(num) + (abs(sh) * size + abs(ch) * my0) / abs(den)
        want = num / den
        return float(abs(mp.mpc(tx, ty) - want) / abs(want) / kappa / EPS), float(kappa)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(flows())
# fl(pi/2) flowed straight up for the whole reach, and a tiny time near vertical.
@example(((0.0, 1.0, 0.5 * math.pi), REACH))
@example(((-3.0, 0.5, 1.5 * math.pi + 1e-17), 1e-12))
def test_flow_ahead_matches_the_oracle_within_its_stated_bound(flow):
    errors = flow_errors(*flow[0], flow[1])
    assert all(e <= bound for e, bound in zip(errors, FLOW_BOUNDS)), (flow, errors)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(centers())
# A center 1e-8 off the vertical geodesic, 30 ahead, where cz + d cancels.
@example(((0.0, 1.0, 0.5 * math.pi), (1e-8 * math.exp(30.0), math.exp(30.0))))
def test_hit_transform_matches_the_oracle_within_its_stated_bound(pair):
    # Past CONDITIONED a center lies within about EPS kappa of the forward end
    # point, and its image keeps no digit: 1.6e137 relative off at kappa =
    # 1.2e16 for (1.0000000000000002, 3.6e-154) seen from (0, 1) at alpha = 0.
    error, kappa = transform_error(*pair[0], *pair[1])
    assert error <= TRANSFORM_BOUND or not EPS * kappa < CONDITIONED, (pair, error, kappa)
