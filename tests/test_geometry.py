import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from hyperlorentz import (
    Direction,
    HypCircle,
    MobiusMap,
    Point,
    State,
    ValidationError,
    ball_area,
    cayley,
    circle_to_euclidean,
    flow_state,
    geodesic_flow,
    hyp_distance,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
    mobius_transport,
    normalizing_map,
    rotate_direction,
)
from hyperlorentz.billiard import _START
from hyperlorentz.geometry import distance_xy, flow_ahead, flow_xy
from hyperlorentz.obstacles import sample_annulus
from util import angle_diff, random_mobius, random_point, random_state

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_vertical_geodesic():
    # arc length of x=0 from y=1 to y=e is int dy/y = 1
    assert hyp_distance(Point(0, 1), Point(0, math.e)) == pytest.approx(1.0, abs=1e-12)


def test_distance_unit_horizontal_offset():
    # cosh d = (1 + 1 + 1) / 2 = 1.5
    assert hyp_distance(Point(0, 1), Point(1, 1)) == pytest.approx(math.acosh(1.5), abs=1e-14)
    assert math.acosh(1.5) == pytest.approx(0.9624236501192069, abs=1e-15)


def test_distance_identity_and_symmetry():
    assert hyp_distance(Point(3, 2), Point(3, 2)) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, q = random_point(rng), random_point(rng)
        assert hyp_distance(p, q) == pytest.approx(hyp_distance(q, p), abs=1e-14)
        assert hyp_distance(p, q) > 0.0


def test_distance_clamps_rounding_noise():
    p = Point(0.1, 0.7)
    q = Point(0.1 + 1e-17, 0.7)
    d = hyp_distance(p, q)
    assert math.isfinite(d) and d >= 0.0


def test_distance_keeps_relative_precision_at_every_range():
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for reach in 10.0 ** np.linspace(-15.0, 1.0, 33):
        x1 = rng.uniform(-3.0, 3.0, 16)
        y1 = np.exp(rng.uniform(-2.0, 2.0, 16))
        x2, y2 = flow_xy(x1, y1, rng.uniform(0.0, TWO_PI, 16), reach)
        got = distance_xy(x1, y1, x2, y2)
        for i in range(16):
            with mp.workdps(60):
                a, b, c, d = (mp.mpf(float(v)) for v in (x1[i], y1[i], x2[i], y2[i]))
                exact = mp.acosh(1 + ((a - c) ** 2 + (b - d) ** 2) / (2 * b * d))
                assert exact > 0
                assert abs(mp.mpf(float(got[i])) - exact) <= 4 * eps * exact, (reach, i)


# ---------------------------------------------------------------------------
# areas and circles
# ---------------------------------------------------------------------------

def test_ball_area_values():
    assert ball_area(0.0) == 0.0
    # oracle: area = int_0^eta 2 pi sinh(u) du, evaluated by quadrature
    for eta, frozen in [(1.0, 3.4122762652849024), (2.0, 17.355387381771433)]:
        oracle, err = integrate.quad(lambda u: TWO_PI * math.sinh(u), 0.0, eta, epsabs=1e-12)
        assert ball_area(eta) == pytest.approx(oracle, abs=1e-9)
        assert ball_area(eta) == pytest.approx(frozen, abs=1e-12)


def test_ball_area_monotone_and_euclidean_limit():
    etas = np.linspace(0.0, 3.0, 40)
    areas = [ball_area(float(e)) for e in etas]
    assert all(a2 > a1 for a1, a2 in zip(areas, areas[1:]))
    for eta in (1e-3, 1e-4):
        assert ball_area(eta) == pytest.approx(math.pi * eta * eta, rel=1e-5)


def test_ball_area_rejects_negative():
    with pytest.raises(ValueError):
        ball_area(-0.1)


def test_circle_to_euclidean_values():
    (cx, cy), rad = circle_to_euclidean(HypCircle(Point(0, 1), 0.5))
    assert (cx, cy) == pytest.approx((0.0, 1.1276259652063807), abs=1e-12)
    assert rad == pytest.approx(0.5210953054937474, abs=1e-12)
    (cx, cy), rad = circle_to_euclidean(HypCircle(Point(2, 3), 1.0))
    assert (cx, cy) == pytest.approx((2.0, 4.629241904445731), abs=1e-12)
    assert rad == pytest.approx(3.525603580931404, abs=1e-12)


def test_circle_to_euclidean_degenerates_and_stays_positive():
    (cx, cy), rad = circle_to_euclidean(HypCircle(Point(1.5, 0.25), 1e-12))
    assert (cx, cy) == pytest.approx((1.5, 0.25), rel=1e-9)
    assert rad == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = HypCircle(random_point(rng), float(rng.uniform(0.05, 3.0)))
        (cx, cy), rad = circle_to_euclidean(c)
        assert cy - rad > 0.0


def test_circle_boundary_points_at_hyperbolic_radius():
    # sampled boundary points of the Euclidean realization sit at hyperbolic
    # distance exactly eta from the hyperbolic center
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = HypCircle(random_point(rng), float(rng.uniform(0.1, 2.0)))
        (ex, ey), rad = circle_to_euclidean(c)
        for theta in rng.uniform(0.0, TWO_PI, 8):
            b = Point(ex + rad * math.cos(theta), ey + rad * math.sin(theta))
            assert hyp_distance(b, c.center) == pytest.approx(c.radius, abs=1e-10)


# ---------------------------------------------------------------------------
# geodesic flow
# ---------------------------------------------------------------------------

def test_flow_vertical():
    s = State(Point(1.3, 0.4), Direction(math.pi / 2))
    p = geodesic_flow(s, 2.0)
    assert p.x == pytest.approx(1.3, abs=1e-12)
    assert p.y == pytest.approx(0.4 * math.e**2, rel=1e-12)


def _geodesic_ode_oracle(x0, y0, alpha, t):
    # second-order geodesic equations of the half-plane at unit hyperbolic
    # speed: x'' = 2 x' y' / y, y'' = (y'^2 - x'^2) / y, |v(0)| = y0
    def rhs(_, u):
        x, y, vx, vy = u
        return [vx, vy, 2.0 * vx * vy / y, (vy * vy - vx * vx) / y]

    u0 = [x0, y0, y0 * math.cos(alpha), y0 * math.sin(alpha)]
    sol = integrate.solve_ivp(rhs, (0.0, t), u0, rtol=1e-12, atol=1e-12, dense_output=True)
    return sol.y[0, -1], sol.y[1, -1]


def test_flow_against_ode_oracle():
    ox, oy = _geodesic_ode_oracle(0.0, 1.0, 0.0, 1.0)
    p = geodesic_flow(State(Point(0, 1), Direction(0.0)), 1.0)
    assert p.x == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert p.y == pytest.approx(1.0 / math.cosh(1.0), abs=1e-12)
    assert (p.x, p.y) == pytest.approx((ox, oy), abs=1e-9)
    rng = np.random.default_rng(17)
    for _ in range(5):
        s = random_state(rng)
        t = float(rng.uniform(0.2, 2.5))
        ox, oy = _geodesic_ode_oracle(s.point.x, s.point.y, s.dir.alpha, t)
        p = geodesic_flow(s, t)
        assert (p.x, p.y) == pytest.approx((ox, oy), abs=1e-8)


def test_unit_speed_invariant():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        s = random_state(rng)
        t = float(rng.uniform(-5.0, 5.0))
        assert hyp_distance(s.point, geodesic_flow(s, t)) == pytest.approx(abs(t), abs=1e-10)


def test_flow_state_vertical_direction_fixed():
    s = State(Point(0.2, 2.0), Direction(math.pi / 2))
    for t in (0.3, 1.0, 4.0):
        assert flow_state(s, t).dir.alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_flow_state_direction_formula():
    # transported unit vector at t=3 from alpha=0 is (1, -sinh 3)/cosh 3
    s = State(Point(0, 1), Direction(0.0))
    got = flow_state(s, 3.0).dir.alpha
    want = math.atan2(-math.sinh(3.0), 1.0) % TWO_PI
    assert got == pytest.approx(want, abs=1e-12)
    vx, vy = flow_state(s, 3.0).dir.vector
    assert vx == pytest.approx(1.0 / math.cosh(3.0), abs=1e-12)
    assert vy == pytest.approx(-math.tanh(3.0), abs=1e-12)


def test_flow_semigroup():
    s = State(Point(0.5, 1.5), Direction(1.1))
    one = flow_state(s, 1.0)
    two = flow_state(flow_state(s, 0.5), 0.5)
    assert (two.point.x, two.point.y) == pytest.approx((one.point.x, one.point.y), abs=1e-12)
    assert angle_diff(two.dir.alpha, one.dir.alpha) < 1e-12
    rng = np.random.default_rng(29)
    for _ in range(1000):
        s = random_state(rng)
        u, t = rng.uniform(-2.5, 2.5, 2)
        a = flow_state(s, float(u + t))
        b = flow_state(flow_state(s, float(u)), float(t))
        assert (b.point.x, b.point.y) == pytest.approx((a.point.x, a.point.y), abs=1e-10)
        assert angle_diff(b.dir.alpha, a.dir.alpha) < 1e-10


def test_flow_xy_is_flow_aheads_position_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 200_000
    x = rng.uniform(-5.0, 5.0, n)
    y = np.exp(rng.uniform(-4.0, 4.0, n))
    alpha = rng.uniform(0.0, TWO_PI, n)
    alpha[:4] = 0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi
    t = rng.exponential(2.0, n) * rng.choice((-1.0, 1.0), n)
    t[4:12] = 0.0, 5e-324, 1e-300, 40.0, -0.0, -5e-324, -1e-300, -40.0
    ix, iy, _ = flow_ahead(x, y, alpha, t)
    want_x, want_y = flow_xy(x, y, alpha, t)
    assert np.array_equal(ix, want_x) and np.array_equal(iy, want_y)


@pytest.mark.parametrize("t", [40.0, 60.0, 100.0])
def test_flow_from_start_stays_on_its_geodesic(t):
    # _START points straight up; its flow must end t from where it began
    x, y, _ = flow_ahead(0.0, 1.0, _START.dir.alpha, t)
    assert abs(distance_xy(0.0, 1.0, x, y) - t) <= 1e-9 * t


def _directions(rng, n):
    """n angles in [0, 2pi), as Direction stores them, n within 1e-12 of
    straight up and of straight down each, and fl(pi/2) and fl(3pi/2)."""
    near = rng.uniform(-1e-12, 1e-12, (2, n)) + np.array([[0.5], [1.5]]) * math.pi
    return np.concatenate((rng.uniform(0.0, TWO_PI, n), near.ravel(), [0.5 * math.pi, 1.5 * math.pi]))


def _mp_flow(x0, y0, beta, t):
    """The flow of direction beta at 50 digits, from cosh t - sin(beta) sinh t."""
    with mp.workdps(50):
        x0, y0, t = mp.mpf(x0), mp.mpf(y0), mp.mpf(t)
        denom = mp.cosh(t) - mp.sin(beta) * mp.sinh(t)
        angle = mp.atan2(mp.sin(beta) * mp.cosh(t) - mp.sinh(t), mp.cos(beta))
        return x0 + y0 * mp.sinh(t) * mp.cos(beta) / denom, y0 / denom, angle


def test_flow_is_backward_stable():
    # The kernel flows the direction pi/2 - 2h of its half-angle h exactly,
    # up to rounding, even where the flow of alpha itself is ill-conditioned.
    rng = np.random.default_rng(37)
    alpha = _directions(rng, 150)
    n = alpha.size
    x0, y0 = rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(-4.0, 4.0, n))
    t = rng.uniform(-30.0, 30.0, n)
    x, y, angle = flow_ahead(x0, y0, alpha, t)
    eps = 1e-14
    for i in range(n):
        h = (0.5 * math.pi - alpha[i]) / 2.0
        with mp.workdps(50):
            beta = mp.pi / 2 - 2 * mp.mpf(h)
            assert abs(beta - mp.mpf(alpha[i])) <= 2.5e-16, alpha[i]
        want_x, want_y, want_angle = _mp_flow(x0[i], y0[i], beta, t[i])
        scale = max(abs(x0[i]), abs(x[i]), y[i])
        assert abs(x[i] - want_x) <= eps * scale, (alpha[i], t[i])
        assert abs(y[i] - want_y) <= eps * want_y, (alpha[i], t[i])
        assert angle_diff(angle[i], float(want_angle % (2 * mp.pi))) <= eps, (alpha[i], t[i])


def test_flow_keeps_unit_speed_at_long_times():
    rng = np.random.default_rng(41)
    alpha = _directions(rng, 500)
    n = alpha.size
    x0, y0 = rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(-4.0, 4.0, n))
    t = rng.uniform(-100.0, 100.0, n)
    x, y = flow_xy(x0, y0, alpha, t)
    assert np.all(np.abs(distance_xy(x0, y0, x, y) - np.abs(t)) <= 1e-12 * np.maximum(1.0, np.abs(t)))


def test_flow_semigroup_and_time_reversal_near_vertical():
    rng = np.random.default_rng(43)
    alpha = _directions(rng, 500)
    n = alpha.size
    x0, y0 = rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-2.0, 2.0, n))
    u, t = rng.uniform(-5.0, 5.0, (2, n))
    x1, y1, a1 = flow_ahead(x0, y0, alpha, u)
    x2, y2 = flow_xy(x1, y1, a1, t)
    want_x, want_y = flow_xy(x0, y0, alpha, u + t)
    assert np.all(distance_xy(x2, y2, want_x, want_y) <= 1e-10)
    back_x, back_y = flow_xy(x1, y1, a1 + math.pi, u)
    assert np.all(distance_xy(back_x, back_y, x0, y0) <= 1e-10)


def test_flow_state_keeps_the_downward_direction_at_negative_times():
    s = flow_state(State(Point(0.0, 1.0), Direction(1.5 * math.pi)), -20.0)
    assert abs(s.dir.alpha - 1.5 * math.pi) <= 1e-6


@pytest.mark.filterwarnings("error")
def test_flows_and_circles_reach_as_far_as_sample_annulus():
    # One reach rule: the flows and circle_to_euclidean refuse a time or radius
    # where sample_annulus refuses that outer radius from the same center, and
    # give finite points above the axis where it does not.
    cases = [(1.0, 709.78), (1.0, 709.8), (1e-300, 10.0), (1e-300, 700.0), (1e300, 10.0), (1e300, 700.0)]
    for y, eta in cases:
        s = State(Point(0.0, y), Direction(0.3))
        try:
            sample_annulus(s.point, 0.0, eta, np.random.default_rng(0), 3)
        except ValidationError:
            for call in (lambda: geodesic_flow(s, eta), lambda: flow_state(s, -eta),
                         lambda: circle_to_euclidean(HypCircle(s.point, eta))):
                with pytest.raises(ValidationError, match="too large for the center"):
                    call()
        else:
            for t in (eta, -eta):
                p = geodesic_flow(s, t)
                assert p == flow_state(s, t).point and math.isfinite(p.x) and p.y > 0.0
            (cx, cy), rad = circle_to_euclidean(HypCircle(s.point, eta))
            assert math.isfinite(cy) and math.isfinite(rad)


def test_rotate_direction():
    assert rotate_direction(Direction(0.7), 0.0).alpha == 0.7
    assert rotate_direction(Direction(0.0), math.pi).alpha == pytest.approx(math.pi)
    assert rotate_direction(Direction(3 * math.pi / 2), math.pi).alpha == pytest.approx(
        math.pi / 2, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

def test_normalizing_map_canonical_state_is_identity():
    m = normalizing_map(State(Point(0, 1), Direction(math.pi / 2)))
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_point(rng)
        q = mobius_apply(m, p)
        assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-12)


def test_normalizing_map_example():
    s = State(Point(2, 3), Direction(0.0))
    m = normalizing_map(s)
    q = mobius_apply(m, s.point)
    assert (q.x, q.y) == pytest.approx((0.0, 1.0), abs=1e-12)
    q1 = mobius_apply(m, geodesic_flow(s, 1.0))
    assert (q1.x, q1.y) == pytest.approx((0.0, math.e), abs=1e-10)


def test_normalizing_map_property():
    rng = np.random.default_rng(37)
    for _ in range(100):
        s = random_state(rng)
        m = normalizing_map(s)
        for u in (0.1, 1.0, 3.0):
            q = mobius_apply(m, geodesic_flow(s, u))
            assert (q.x, q.y) == pytest.approx((0.0, math.exp(u)), abs=1e-9)


def test_mobius_identity_and_translation():
    ident = MobiusMap(1, 0, 0, 1)
    tra = MobiusMap(1, 2.5, 0, 1)
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = random_point(rng)
        q = mobius_apply(ident, p)
        assert (q.x, q.y) == (p.x, p.y)
        q = mobius_apply(tra, p)
        assert (q.x, q.y) == pytest.approx((p.x + 2.5, p.y), abs=1e-14)


def test_mobius_isometry_and_group_laws():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m1, m2 = random_mobius(rng), random_mobius(rng)
        p, q = random_point(rng), random_point(rng)
        assert hyp_distance(mobius_apply(m1, p), mobius_apply(m1, q)) == pytest.approx(
            hyp_distance(p, q), abs=1e-12
        )
        lhs = mobius_apply(mobius_compose(m1, m2), p)
        rhs = mobius_apply(m1, mobius_apply(m2, p))
        assert (lhs.x, lhs.y) == pytest.approx((rhs.x, rhs.y), abs=1e-12)
        back = mobius_apply(mobius_inverse(m1), mobius_apply(m1, p))
        assert (back.x, back.y) == pytest.approx((p.x, p.y), abs=1e-10)


def test_mobius_transport_preserves_angles():
    rng = np.random.default_rng(47)
    for _ in range(200):
        m = random_mobius(rng)
        p = random_point(rng)
        a1 = Direction(float(rng.uniform(0, TWO_PI)))
        a2 = Direction(float(rng.uniform(0, TWO_PI)))
        t1 = mobius_transport(m, State(p, a1))
        t2 = mobius_transport(m, State(p, a2))
        assert angle_diff(t1.dir.alpha - t2.dir.alpha, a1.alpha - a2.alpha) < 1e-10


def test_mobius_transport_commutes_with_flow():
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = random_mobius(rng)
        s = random_state(rng)
        t = float(rng.uniform(-2, 2))
        a = mobius_transport(m, flow_state(s, t))
        b = flow_state(mobius_transport(m, s), t)
        assert (a.point.x, a.point.y) == pytest.approx((b.point.x, b.point.y), abs=1e-9)
        assert angle_diff(a.dir.alpha, b.dir.alpha) < 1e-9


def test_mobius_renormalizes_determinant():
    m = MobiusMap(2.0, 0.0, 0.0, 2.0)  # det 4 -> rescaled to identity action
    assert m.a * m.d - m.b * m.c == pytest.approx(1.0, abs=1e-12)
    p = Point(0.3, 0.8)
    q = mobius_apply(m, p)
    assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-14)


def test_mobius_rejects_nonpositive_determinant():
    with pytest.raises(ValueError):
        MobiusMap(1.0, 0.0, 0.0, -1.0)


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def test_cayley_values():
    assert cayley(Point(0, 1)) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert cayley(Point(0, 3)) == pytest.approx((0.0, 0.5), abs=1e-15)


def test_cayley_lands_in_unit_disk():
    rng = np.random.default_rng(59)
    for _ in range(300):
        u, v = cayley(random_point(rng))
        assert u * u + v * v < 1.0


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------

def test_point_rejects_bad_coordinates():
    for bad in [(0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            Point(*bad)


def test_direction_normalizes_into_range():
    assert Direction(TWO_PI + 0.5).alpha == pytest.approx(0.5, abs=1e-12)
    assert Direction(-0.5).alpha == pytest.approx(TWO_PI - 0.5, abs=1e-12)
    assert 0.0 <= Direction(-1e-18).alpha < TWO_PI
    with pytest.raises(ValueError):
        Direction(math.nan)


def test_hyp_circle_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        HypCircle(Point(0, 1), 0.0)
