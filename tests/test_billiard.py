import copy
import hashlib
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import optimize, stats as sps

from hyperlorentz import (
    BallRegion,
    CollisionEvent,
    Direction,
    FlightConfig,
    Obstacle,
    ObstacleField,
    Point,
    RegionTooSmallError,
    RunawayError,
    State,
    ValidationError,
    ball_area,
    circle_to_euclidean,
    first_hit,
    flow_state,
    free_path,
    geodesic_flow,
    hyp_distance,
    mobius_apply,
    mobius_transport,
    position_at,
    recollision_count,
    reflect,
    rotate_direction,
    sample_field,
    sample_first_collision,
    simulate,
    tube_area,
)
from hyperlorentz.billiard import (
    _coshm1,
    _coshm1_to_segment,
    _explore,
    _first_contacts,
    _hit_times,
    _race,
    _reflect_angle,
    _tube_hit,
    sample_first_collisions,
)
from hyperlorentz.experiments import _derive_rng, exp_cdf
from hyperlorentz.flight import _flight_ends
from hyperlorentz.geometry import distance_xy, flow_ahead, flow_xy, mobius_xy, normalizing_coeffs
from hyperlorentz.obstacles import sample_annulus
from hyperlorentz.stats import wasserstein1
from util import angle_diff, fingerprint, random_mobius, random_state

TWO_PI = 2.0 * math.pi
ORIGIN = Point(0.0, 1.0)
UP = State(ORIGIN, Direction(math.pi / 2))


def make_field(centers, radius, region_outer, intensity=1.0, exclusion=0.0):
    return ObstacleField(
        np.asarray(centers, dtype=float).reshape(-1, 2),
        radius,
        intensity,
        BallRegion(ORIGIN, region_outer, exclusion),
    )


# ---------------------------------------------------------------------------
# tube area
# ---------------------------------------------------------------------------

def test_tube_area_degenerates_to_ball():
    for r in (0.1, 0.5, 1.0):
        assert tube_area(0.0, r) == pytest.approx(ball_area(r), abs=1e-14)


def test_tube_area_value_and_linearity():
    assert tube_area(2.0, 0.5) == pytest.approx(2.8862788113743343, abs=1e-12)
    r = 0.3
    slope = (tube_area(5.0, r) - tube_area(1.0, r)) / 4.0
    assert slope == pytest.approx(2.0 * math.sinh(r), rel=1e-12)


def test_tube_area_monte_carlo_oracle():
    # rejection sampling in an enclosing ball around the swept tube
    rng = np.random.default_rng(101)
    r, t = 0.5, 2.0
    center = Point(0.0, math.exp(t / 2.0))
    outer = t / 2.0 + r
    n = 1_000_000
    pts = sample_annulus(center, 0.0, outer, rng, n)
    x, y = pts[:, 0], pts[:, 1]
    ssq = x * x + y * y
    w = np.exp(np.clip(0.5 * np.log(ssq), 0.0, t))
    inside = (ssq + w * w) / (2.0 * y * w) < math.cosh(r)
    estimate = ball_area(outer) * inside.mean()
    theory = tube_area(t, r)
    sd = ball_area(outer) * math.sqrt(inside.mean() * (1 - inside.mean()) / n)
    assert abs(estimate - theory) < 4.0 * sd
    assert estimate == pytest.approx(theory, rel=0.02)


def test_tube_area_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tube_area(-1.0, 0.5)
    with pytest.raises(ValueError):
        tube_area(1.0, 0.0)


# ---------------------------------------------------------------------------
# first_hit
# ---------------------------------------------------------------------------

def bisection_hit_oracle(s, ob, t_max=10.0):
    """First root of d(flow(s, u), center) - r by scan plus Brent refinement."""
    f = lambda u: hyp_distance(geodesic_flow(s, u), ob.center) - ob.radius
    grid = np.linspace(1e-12, t_max, 4001)
    vals = [f(u) for u in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa > 0.0 >= fb:
            return float(optimize.brentq(f, a, b, xtol=1e-13))
    return None


def test_first_hit_collinear():
    ob = Obstacle(Point(0.0, math.e**2), 0.5)
    assert first_hit(UP, ob) == pytest.approx(1.5, abs=1e-12)


def test_first_hit_offset_example():
    ob = Obstacle(Point(0.3, 2.0), 0.5)
    t = first_hit(UP, ob)
    assert t == pytest.approx(0.2288656616682107, abs=1e-12)
    assert t == pytest.approx(bisection_hit_oracle(UP, ob), abs=1e-9)


def test_first_hit_random_against_bisection():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        s = UP
        c = Point(float(rng.uniform(-1, 1)), float(np.exp(rng.uniform(0.0, 2.0))))
        ob = Obstacle(c, 0.4)
        if hyp_distance(s.point, c) <= ob.radius + 1e-6:
            continue
        t = first_hit(s, ob)
        oracle = bisection_hit_oracle(s, ob)
        if t is None:
            assert oracle is None
        else:
            assert oracle is not None and t == pytest.approx(oracle, abs=1e-9)
        checked += 1


def test_first_hit_miss_and_tangent():
    # center far off the trajectory line
    assert first_hit(UP, Obstacle(Point(5.0, 2.0), 0.3)) is None
    # behind the particle
    assert first_hit(UP, Obstacle(Point(0.0, 0.2), 0.3)) is None
    # center exactly on the envelope line y = x/sinh r: grazing, counts as miss
    r = 0.4
    y = 2.0
    assert first_hit(UP, Obstacle(Point(y * math.sinh(r), y), r)) is None


def test_first_hit_requires_outside_start():
    with pytest.raises(ValueError):
        first_hit(UP, Obstacle(Point(0.0, 1.1), 0.5))


def test_first_hit_margin_follows_the_radius():
    # A start 2.05e-8 from the center of a radius-2e-8 obstacle lies outside
    # it; an absolute margin of 1e-9 refused it.  Heading away, it misses.
    ob = Obstacle(Point(0.0, 1.0), 2e-8)
    assert first_hit(State(Point(0.0, math.exp(-2.05e-8)), Direction(-math.pi / 2)), ob) is None
    with pytest.raises(ValueError):
        first_hit(State(Point(0.0, math.exp(-2e-8)), Direction(-math.pi / 2)), ob)


@pytest.mark.parametrize("r", [0.5, 0.1, 1e-3, 1e-6])
def test_first_hit_free_path_and_simulate_share_one_start_margin(r):
    # Starts r (1 + eps) from the center lie outside the disk but within the
    # margin r (1 + 1e-9) + 1e-12, where _race's rounded root may take the
    # disk's far side.  first_hit refused them, but free_path and simulate
    # raced them.  Over r in {0.5, 0.1, 1e-3, 1e-6}, eps from 1e-15 to 1e-10
    # and random headings, 227 of 2 616 such starts got a first hit whose
    # path midpoint lies inside the disk (at r = 0.1 and eps = 1e-15, t =
    # 0.159 with the midpoint 0.61 r from the center).  All three refuse a
    # start within the margin and take one past it alike.
    center = Point(0.3, 1.7)
    field = ObstacleField([[center.x, center.y]], r, 1.0, BallRegion(center, 5.0))
    rng = np.random.default_rng(7)
    margin = 1e-9 + 1e-12 / r  # relative to r
    for eps, inside in ((0.01 * margin, True), (0.5 * margin, True), (2.0 * margin, False)):
        for _ in range(8):
            s = flow_state(State(center, Direction(rng.uniform(0.0, TWO_PI))), r * (1.0 + eps))
            s0 = State(s.point, Direction(rng.uniform(0.0, TWO_PI)))
            assert hyp_distance(s0.point, center) > r
            if inside:
                with pytest.raises(ValidationError, match="strictly outside the obstacle"):
                    first_hit(s0, Obstacle(center, r))
                for run in (free_path, simulate):
                    with pytest.raises(ValidationError, match=r"initial point lies inside \(or on\) an obstacle"):
                        run(s0, field, 3.0)
            else:
                t = first_hit(s0, Obstacle(center, r))
                assert free_path(s0, field, 3.0) == ((t, False) if t is not None else (3.0, True))
                assert [ev.time for ev in simulate(s0, field, 3.0).events] == ([t] if t is not None else [])


@pytest.mark.parametrize("r", [2e-8, 3.3e-8, 1e-7, 1e-6])
def test_first_hit_head_on_at_small_radius(r):
    # Head-on from 3r to the center, the first contact is at 2r.  A solve
    # against the rounded cosh r returned None at r = 2e-8 and 3.3e-8 (a
    # tangency threshold took the chord for a miss), 1.98935e-7 at 1e-7 and
    # 2.1e-5 too little at 1e-6.
    start = State(Point(0.0, math.exp(-3.0 * r)), Direction(math.pi / 2))
    t = first_hit(start, Obstacle(Point(0.0, 1.0), r))
    assert t is not None and t == pytest.approx(2.0 * r, rel=1e-6)


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------

def test_reflect_head_on():
    ob = Obstacle(Point(0.0, math.e), 0.5)
    impact = geodesic_flow(UP, 0.5)  # contact point below the center
    out = reflect(impact, Direction(math.pi / 2), ob)
    assert out.alpha == pytest.approx(3 * math.pi / 2, abs=1e-12)


def ob_to_circle(ob):
    from hyperlorentz import HypCircle

    return HypCircle(ob.center, ob.radius)


def test_reflect_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ob = Obstacle(Point(float(rng.uniform(-1, 1)), float(np.exp(rng.uniform(-1, 1)))), 0.6)
        (ex, ey), rad = circle_to_euclidean(ob_to_circle(ob))
        theta = float(rng.uniform(0, TWO_PI))
        impact = Point(ex + rad * math.cos(theta), ey + rad * math.sin(theta))
        incoming = Direction(float(rng.uniform(0, TWO_PI)))
        out = reflect(impact, incoming, ob)
        back = reflect(impact, Direction(out.alpha + math.pi), ob)
        assert angle_diff(back.alpha, incoming.alpha + math.pi) < 1e-10


def test_reflect_specular_angles():
    # incidence and reflection make equal angles with the obstacle tangent
    rng = np.random.default_rng(17)
    for _ in range(100):
        ob = Obstacle(Point(float(rng.uniform(-1, 1)), float(np.exp(rng.uniform(-1, 1)))), 0.5)
        (ex, ey), rad = circle_to_euclidean(ob_to_circle(ob))
        theta = float(rng.uniform(0, TWO_PI))
        impact = Point(ex + rad * math.cos(theta), ey + rad * math.sin(theta))
        nx, ny = math.cos(theta), math.sin(theta)  # unit normal
        incoming = Direction(float(rng.uniform(0, TWO_PI)))
        out = reflect(impact, incoming, ob)
        vix, viy = incoming.vector
        vox, voy = out.vector
        # normal component flips, tangential component is preserved
        assert vox * nx + voy * ny == pytest.approx(-(vix * nx + viy * ny), abs=1e-10)
        assert -vox * ny + voy * nx == pytest.approx(-vix * ny + viy * nx, abs=1e-10)
        if vix * nx + viy * ny <= 0:  # physically incoming rays leave outward
            assert vox * nx + voy * ny >= -1e-12


def test_reflect_rejects_off_boundary_impact():
    ob = Obstacle(Point(0.0, 2.0), 0.5)
    with pytest.raises(ValueError):
        reflect(Point(0.0, 1.0), Direction(0.0), ob)


def test_reflect_margin_follows_the_radius():
    # An impact 1.2e-8 from the center of a radius-2e-8 obstacle lies at 60 %
    # of r, inside it; an absolute margin of 1e-8 accepted it.
    ob = Obstacle(Point(0.0, 1.0), 2e-8)
    with pytest.raises(ValueError):
        reflect(Point(0.0, math.exp(-1.2e-8)), Direction(math.pi / 2), ob)
    assert reflect(Point(0.0, math.exp(-2e-8)), Direction(math.pi / 2), ob).alpha == pytest.approx(
        3 * math.pi / 2, abs=1e-12
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_empty_field():
    field = make_field(np.empty((0, 2)), 0.5, 3.0)
    traj = simulate(UP, field, 2.0)
    assert traj.events == ()
    end = position_at(traj, 2.0)
    target = geodesic_flow(UP, 2.0)
    assert (end.point.x, end.point.y) == pytest.approx((target.x, target.y), abs=1e-12)


def test_simulate_engineered_single_obstacle():
    r = 0.3
    center = Point(0.0, math.e)  # on the vertical path at distance 1
    field = make_field([[center.x, center.y]], r, 4.0)
    traj = simulate(UP, field, 3.0)
    assert len(traj.events) == 1
    ev = traj.events[0]
    expected_t = first_hit(UP, Obstacle(center, r))
    assert ev.time == pytest.approx(expected_t, abs=1e-12)
    assert ev.time == pytest.approx(1.0 - r, abs=1e-12)
    want = reflect(ev.impact_point, ev.pre_dir, Obstacle(center, r))
    assert angle_diff(ev.post_dir.alpha, want.alpha) < 1e-12
    assert ev.deflection == pytest.approx(math.pi, abs=1e-12)  # head-on reverses


def random_simulation(seed, lam=1.0, r=0.4, t_max=3.0):
    rng = np.random.default_rng(seed)
    field = sample_field(lam, ORIGIN, t_max + r, r, rng)
    return field, simulate(UP, field, t_max)


def test_simulate_event_invariants():
    # boundary consistency, specularity, deflection bookkeeping, continuity
    total_events = 0
    for seed in range(40):
        field, traj = random_simulation(seed)
        total_events += len(traj.events)
        for ev in traj.events:
            c = Point(*field.centers[ev.obstacle_index])
            assert hyp_distance(ev.impact_point, c) == pytest.approx(field.radius, abs=1e-8)
            want = reflect(ev.impact_point, ev.pre_dir, Obstacle(c, field.radius))
            assert angle_diff(ev.post_dir.alpha, want.alpha) < 1e-9
            assert angle_diff(ev.post_dir.alpha, (ev.pre_dir.alpha + ev.deflection) % TWO_PI) < 1e-12
        for e1, e2 in zip(traj.events, traj.events[1:]):
            hop = geodesic_flow(State(e1.impact_point, e1.post_dir), e2.time - e1.time)
            assert (hop.x, hop.y) == pytest.approx((e2.impact_point.x, e2.impact_point.y), abs=1e-8)
    assert total_events > 50  # the scenario actually exercises collisions


def test_simulate_isometry_equivariance():
    rng = np.random.default_rng(19)
    for seed in range(8):
        field, traj = random_simulation(seed, t_max=2.5)
        m = random_mobius(rng)
        moved_centers = np.array(
            [(q.x, q.y) for q in (mobius_apply(m, Point(*c)) for c in field.centers)]
        )
        moved_field = ObstacleField(
            moved_centers,
            field.radius,
            field.intensity,
            BallRegion(mobius_apply(m, field.region.center), field.region.outer, field.region.exclusion),
        )
        moved_traj = simulate(mobius_transport(m, UP), moved_field, 2.5)
        assert len(moved_traj.events) == len(traj.events)
        for ev, mev in zip(traj.events, moved_traj.events):
            assert mev.time == pytest.approx(ev.time, abs=1e-8)
            want = mobius_apply(m, ev.impact_point)
            assert (mev.impact_point.x, mev.impact_point.y) == pytest.approx(
                (want.x, want.y), abs=1e-8
            )
            assert mev.obstacle_index == ev.obstacle_index


def test_simulate_region_too_small():
    field = make_field([[0.0, math.e]], 0.3, 2.0)
    with pytest.raises(RegionTooSmallError):
        simulate(UP, field, 3.0)  # needs outer >= 3.3


def test_simulate_rejects_start_inside_obstacle():
    field = make_field([[0.0, 1.1]], 0.5, 4.0)
    with pytest.raises(ValueError):
        simulate(UP, field, 2.0)


def test_simulate_event_cap_raises():
    from hyperlorentz import RunawayError

    for seed in range(40):
        field, traj = random_simulation(seed)
        if len(traj.events) >= 2:
            with pytest.raises(RunawayError):
                simulate(UP, field, 3.0, max_events=1)
            return
    raise AssertionError("no multi-collision scenario found")


def test_simulate_hit_exactly_at_horizon_is_not_an_event():
    # A hit landing exactly on t_max ends the path there, as a flight turn
    # does, and free_path censors it: one horizon rule for every contact.
    center = Point(0.05, math.exp(2.3))
    th = first_hit(UP, Obstacle(center, 0.3))
    field = make_field([[center.x, center.y]], 0.3, 3.0)
    assert simulate(UP, field, th).events == ()
    assert len(simulate(UP, field, math.nextafter(th, 3.0)).events) == 1
    assert free_path(UP, field, th) == (th, True)
    assert free_path(UP, field, math.nextafter(th, 3.0)) == (th, False)


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-7, 2e-8])
def test_simulate_keeps_every_hit_that_free_path_finds_before_the_horizon(r):
    # simulate solves every obstacle's hit time, and the event loop's
    # horizon test is its only reach rule: no hit that free_path finds
    # before the horizon may go missing, down to r = 2e-8, where cosh r
    # keeps few digits of r.  Head-on shots at centers 1.05 r to 4 r away,
    # with horizons just past the hit: only ties within the hit solve's
    # resolution may be lost.
    dropped = []
    for k in np.linspace(1.05, 4.0, 12):
        field = make_field([[0.0, math.exp(k * r)]], r, 1.0)
        hit, _ = free_path(UP, field, 0.5)
        for t_max in hit * (1.0 + np.geomspace(1e-15, 1.0, 60)):
            t, censored = free_path(UP, field, float(t_max))
            events = simulate(UP, field, float(t_max)).events
            assert censored or t == hit
            if not censored and t < t_max - 1e-15 and not (events and events[0].time == t):
                dropped.append((k, t_max - t))
    assert dropped == []


def exact_relative_discriminant(alpha, cx, cy, r):
    """(p^2 - |t|^2) / p^2 of the hit solve for a shot from (0, 1) heading
    alpha at the obstacle of center (cx, cy), in 40-digit arithmetic: t is
    the center in the frame where the shot runs up the imaginary axis, and
    p = t_y cosh r.  It equals tanh^2 of the half chord, and is negative
    for a miss."""
    with mp.workdps(40):
        h = (mp.pi / 2 - mp.mpf(alpha)) / 2
        z = mp.mpc(cx, cy)
        t = (mp.cos(h) * z + mp.sin(h)) / (mp.cos(h) - mp.sin(h) * z)
        cosh_r = mp.cosh(mp.mpf(r))
        return float(1 - (1 + (t.real / t.imag) ** 2) / cosh_r**2)


def test_simulate_near_grazing_shots_hit_once():
    # A geodesic meets a convex disk in one segment, so a shot at a lone
    # obstacle reflects once, however close to tangency; rounding must not
    # turn the exit point of the chord into a second hit.  And every shot
    # whose chord the solver can resolve is a hit, at any distance and
    # radius: a shot may be missed only if its exact relative discriminant
    # lies within the rounding of the transport to the shot's frame, which
    # grows like eps e^u with the distance u.
    eps = np.finfo(float).eps
    hits = 0
    for r, s, k, a0, sign in itertools.product(
        (0.05, 0.5, 2.0),  # obstacle radius
        (1.5, 3.0, 4.5, 8.0),  # distance to the impact point
        np.arange(6.0, 15.01, 0.5),  # 1 - |sin psi| = 10^-k
        np.arange(8) * (math.pi / 4) + 0.1,  # shooting direction
        (1.0, -1.0),  # side of the obstacle
    ):
        psi = sign * math.asin(1.0 - 10.0**-k)
        *_, cx, cy = _tube_hit(ORIGIN.x, ORIGIN.y, a0, s, psi, r)
        start = State(ORIGIN, Direction(float(a0)))
        ob = Obstacle(Point(float(cx), float(cy)), r)
        th = first_hit(start, ob)
        rel = exact_relative_discriminant(float(a0), ob.center.x, ob.center.y, r)
        blur = 8.0 * eps * math.exp(s + r)
        if rel > blur:
            assert th is not None, (r, s, k, a0, sign, rel)
        if rel < -blur:
            assert th is None, (r, s, k, a0, sign, rel)
        if th is None:
            continue
        field = make_field([[ob.center.x, ob.center.y]], r, s + 1.0 + r)
        events = simulate(start, field, s + 1.0).events
        assert len(events) == 1, (r, s, k, a0, sign, [e.time for e in events])
        assert events[0].time == th
        hits += 1
    assert hits > 3000


def test_simulate_time_reversal_on_short_paths():
    # Reverse the final direction and run back through the same field: a path
    # with few events retraces its obstacles in reverse order to the start.
    # Long paths are skipped, since chaos amplifies rounding along them.
    r, t = 0.1, 3.0
    lam = 1.0 / (2.0 * math.sinh(r))
    checked = 0
    for i in range(300):
        field = sample_field(lam, ORIGIN, 2.0 * t + r, r, _derive_rng(31, 0, 0, i))
        fwd = simulate(UP, field, t)
        if len(fwd.events) > 4:
            continue
        end = position_at(fwd, t)
        back = simulate(State(end.point, Direction(end.dir.alpha + math.pi)), field, t)
        assert [e.obstacle_index for e in back.events] == [
            e.obstacle_index for e in reversed(fwd.events)
        ]
        assert hyp_distance(position_at(back, t).point, ORIGIN) < 1e-6
        checked += len(fwd.events) >= 2
    assert checked > 100


# ---------------------------------------------------------------------------
# simulate against a plain reference loop
# ---------------------------------------------------------------------------

def reference_run(s0, cx, cy, radius, t_max, max_events):
    """One replica at a time, as a plain loop: the full field is pruned
    afresh at every step and np.argmin picks the hit.  Returns the position
    at t_max, the number of collisions and the number of recollisions."""
    coshm1_r = _coshm1(radius)
    x, y, alpha, t_now, last = s0.point.x, s0.point.y, s0.dir.alpha, 0.0, -1
    hits = []
    while True:
        cosh_d = ((x - cx) ** 2 + y * y + cy * cy) / (2.0 * y * cy)
        cand = np.flatnonzero(cosh_d <= math.cosh(t_max - t_now + radius))
        cand = cand[cand != last]
        if cand.size == 0:
            break
        th = _hit_times(*normalizing_coeffs(x, y, alpha), cx[cand], cy[cand], coshm1_r)
        k = int(np.argmin(th))
        gap = float(th[k])
        if t_now + gap >= t_max:
            break
        if len(hits) >= max_events:
            raise RunawayError(f"exceeded {max_events} events before the horizon")
        ix, iy, pre = flow_ahead(x, y, alpha, gap)
        pre = float(pre)
        last = int(cand[k])
        alpha = float(_reflect_angle(ix, iy, pre, cx[last], cy[last], radius))
        x, y = float(ix), float(iy)
        t_now += gap
        hits.append(last)
    end = geodesic_flow(State(Point(x, y), Direction(alpha)), t_max - t_now)
    return end.x, end.y, len(hits), len(hits) - len(set(hits))


def test_simulate_matches_one_replica_reference_loop():
    r = 0.3
    # A lone obstacle hit exactly at the horizon: no event.
    far = Point(0.05, math.exp(4.3))
    t_max = first_hit(UP, Obstacle(far, r))
    # A ring of 5 obstacles 1e-4 apart around the start traps the replica:
    # adjacent centers at angle 2 pi / k and distance rho from the start lie
    # 2r + 1e-4 apart when sinh^2 rho (1 - cos(2 pi / k)) = cosh(2r + 1e-4) - 1.
    k = 5
    rho = math.asinh(math.sqrt((math.cosh(2 * r + 1e-4) - 1.0) / (1.0 - math.cos(TWO_PI / k))))
    angles = 0.5 * math.pi + 0.1 + TWO_PI * np.arange(k) / k
    ring = np.column_stack(flow_xy(ORIGIN.x, ORIGIN.y, angles, rho))
    lam = 1.0 / (2.0 * math.sinh(r))
    fields = [
        sample_field(lam, ORIGIN, t_max + r, r, _derive_rng(41, 0, 0, i)).centers for i in range(5)
    ]
    fields[2:2] = [
        np.empty((0, 2)),  # no obstacles
        np.array([[4.0, 0.5]]),  # one obstacle off the path: no events
        ring,
        np.array([[far.x, far.y]]),
        # Mirror images across the path, hit at the same time: the first wins.
        np.array([[-0.2 * math.e, math.e], [0.2 * math.e, math.e]]),
    ]
    want = [reference_run(UP, f[:, 0], f[:, 1], r, t_max, 10**6) for f in fields]
    events = [w[2] for w in want]
    trapped = 4
    assert events[2] == events[3] == events[5] == 0
    assert events[trapped] > max(events[:trapped] + events[trapped + 1:]) and events[trapped] >= 10
    assert min(events[:2] + events[6:]) > 0

    region = BallRegion(ORIGIN, t_max + r + 0.5)

    def run(f, max_events=10**6):
        traj = simulate(UP, ObstacleField(f, r, lam, region), t_max, max_events)
        end = position_at(traj, t_max).point
        return end.x, end.y, len(traj.events), recollision_count(traj)

    for f, w in zip(fields, want):
        assert run(f) == w

    # The trapped replica runs past a cap the others stay within.
    cap = max(events[:trapped] + events[trapped + 1:])
    with pytest.raises(RunawayError, match=f"^exceeded {cap} events before the horizon$"):
        run(ring, max_events=cap)
    for f, w in zip(fields[:trapped] + fields[trapped + 1:], want[:trapped] + want[trapped + 1:]):
        assert run(f, max_events=cap) == w


def pinned_fields():
    """(field, t_max) of the simulate pin: seeded Poisson fields on B(ORIGIN,
    t + r) at (sigma, r, t) = (1, 0.5, 3), (1, 0.25, 5) and (4, 0.1, 4), of
    about 94, 1174 and 3663 obstacles; at r = 1e-6, centers within 3r of
    the path's first two units, and a ring of 5 trapping the start; and an
    empty field."""
    for sigma, r, t, seeds in ((1.0, 0.5, 3.0, 12), (1.0, 0.25, 5.0, 6), (4.0, 0.1, 4.0, 3)):
        lam = sigma / (2.0 * math.sinh(r))
        for seed in range(seeds):
            yield sample_field(lam, ORIGIN, t + r, r, np.random.default_rng(seed)), t
    r = 1e-6
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        y = np.exp(rng.uniform(0.1, 2.0, 300))
        centers = np.column_stack((rng.uniform(-3.0 * r, 3.0 * r, 300) * y, y))
        yield make_field(centers, r, 5.0), 2.5
    # Adjacent ring centers lie 2r + r / 100 apart (see the reference loop test).
    rho = math.asinh(math.sqrt(_coshm1(2.01 * r) / (1.0 - math.cos(TWO_PI / 5))))
    angles = 0.5 * math.pi + 0.1 + TWO_PI * np.arange(5) / 5
    ring = np.column_stack(flow_xy(ORIGIN.x, ORIGIN.y, angles, rho))
    yield make_field(ring, r, 1.0), 40 * r
    yield make_field(np.empty((0, 2)), 0.5, 3.0), 2.0


def test_simulate_paths_are_pinned_bit_for_bit():
    # The tests above hold simulate to tolerances, laws and a reference
    # loop; this one pins the repr of every event (time, impact point, pre
    # and post direction, deflection, obstacle index) of seeded paths.
    digest = hashlib.sha256()
    events = 0
    for field, t_max in pinned_fields():
        traj = simulate(UP, field, t_max)
        digest.update(repr(traj.events).encode())
        events += len(traj.events)
    assert events == 220
    assert digest.hexdigest() == "03c7cebe9c6581cee8d4c06097dfa158fbdc2bf8e0274061f7aac1a4b29209b2"


# ---------------------------------------------------------------------------
# _race, the first hit of every hit solver
# ---------------------------------------------------------------------------

def test_race_takes_the_first_row_but_the_obstacle_just_left():
    r = 0.5
    coshm1_r = _coshm1(r)
    up = normalizing_coeffs(0.0, 1.0, 0.5 * math.pi)  # UP's map is the identity
    e = math.e
    # Centers on the path at heights e, e^2, e^3, hit at 1 - r, 2 - r, 3 - r;
    # mirror images across the path at height e, hit at the same time.
    cx = np.array([[0.0], [0.0], [0.0], [-0.2 * e], [0.2 * e]])
    cy = np.array([[e], [e**2], [e**3], [e], [e]])
    th = _hit_times(*up, cx, cy, coshm1_r)[:, 0]
    assert th[:3] == pytest.approx([1.0 - r, 2.0 - r, 3.0 - r], abs=1e-12)
    assert th[3] == th[4] and th[0] < th[3] < th[1]

    def race(rows, last):  # a (K, 1) table serves one state
        gap, idx = _race(up, cx[rows], cy[rows], coshm1_r, np.array([last]))
        assert gap.shape == idx.shape == (1,)
        return rows[idx[0]], gap[0]

    assert race([0, 1, 2], -1) == (0, th[0])
    # The row just left holds the smallest root and does not win.
    assert race([0, 1, 2], 0) == (1, th[1])
    assert race([2, 0, 1], 1) == (1, th[1])
    # Two rows tie: the first one wins, whichever it is.
    assert race([2, 3, 4], -1) == (3, th[3])
    assert race([2, 4, 3], -1) == (4, th[4])
    # Nothing ahead: time inf.
    assert race([2], 0)[1] == math.inf

    # A (K, m) table: column j serves state j, whose row last[j] is out.
    states = np.repeat(np.array(up)[:, None], 3, axis=1)
    cols = np.array([[0, 3, 2], [1, 4, 0]])
    gap, idx = _race(states, cx[cols, 0], cy[cols, 0], coshm1_r, np.array([0, -1, 1]))
    assert idx.tolist() == [1, 0, 0]
    assert gap.tolist() == [th[1], th[3], th[2]]

    # K = 0: (inf, -1) in every column.
    for table in (np.empty((0, 1)), np.empty((0, 4))):
        gap, idx = _race(up, table, table, coshm1_r, np.full(table.shape[1], -1))
        assert gap.tolist() == [math.inf] * table.shape[1]
        assert idx.tolist() == [-1] * table.shape[1]


# ---------------------------------------------------------------------------
# free_path
# ---------------------------------------------------------------------------

def test_free_path_empty_field_censors():
    field = make_field(np.empty((0, 2)), 0.5, 5.0)
    assert free_path(UP, field, 4.0) == (4.0, True)


def test_free_path_matches_first_event():
    # Both race through _race, so the time agrees bit for bit.
    fields = [(random_simulation(seed)[0], 3.0) for seed in range(20)]
    for field, t_max in fields + list(pinned_fields()):
        events = simulate(UP, field, t_max).events
        assert free_path(UP, field, t_max) == ((events[0].time, False) if events else (t_max, True))


def test_free_path_exponential_law_small_n():
    lam, r = 1.0, 0.5
    sigma = 2.0 * lam * math.sinh(r)
    times = np.empty(5000)
    for i in range(len(times)):
        fc = sample_first_collision(lam, r, 12.0, _derive_rng(77, 0, 0, i))
        times[i] = fc.time
    from hyperlorentz import ks_statistic

    assert ks_statistic(times, exp_cdf(sigma)) < 0.025
    assert times.mean() == pytest.approx(1.0 / sigma, rel=0.05)


def test_free_path_memoryless():
    lam, r = 1.0, 0.5
    times = np.empty(30000)
    for i in range(len(times)):
        times[i] = sample_first_collision(lam, r, 12.0, _derive_rng(78, 0, 0, i)).time
    a, b = 0.5, 0.7
    p_a = (times > a).mean()
    p_b = (times > b).mean()
    p_ab = (times > a + b).mean()
    assert p_ab / p_a == pytest.approx(p_b, abs=0.02)


# ---------------------------------------------------------------------------
# position_at
# ---------------------------------------------------------------------------

def iterated_position_oracle(traj, t, substeps=9):
    """Segment-wise iteration of flow_state in small substeps."""
    s = traj.initial
    t0 = 0.0
    for ev in traj.events:
        if ev.time > t:
            break
        dt = (ev.time - t0) / substeps
        for _ in range(substeps):
            s = flow_state(s, dt)
        s = State(s.point, Direction(s.dir.alpha + ev.deflection))
        t0 = ev.time
    dt = (t - t0) / substeps
    for _ in range(substeps):
        s = flow_state(s, dt)
    return s


def test_position_before_first_event():
    field, traj = random_simulation(3)
    if traj.events:
        t = traj.events[0].time / 2.0
        got = position_at(traj, t)
        want = flow_state(traj.initial, t)
        assert (got.point.x, got.point.y) == pytest.approx((want.point.x, want.point.y), abs=1e-12)


def test_position_at_event_time_right_continuous():
    field, traj = random_simulation(5)
    assert traj.events, "scenario needs at least one collision"
    ev = traj.events[0]
    got = position_at(traj, ev.time)
    assert (got.point.x, got.point.y) == pytest.approx(
        (ev.impact_point.x, ev.impact_point.y), abs=1e-12
    )
    assert angle_diff(got.dir.alpha, ev.post_dir.alpha) < 1e-12


def test_position_closed_form_vs_iteration():
    rng = np.random.default_rng(23)
    for seed in range(10):
        field, traj = random_simulation(seed)
        for t in rng.uniform(0.0, traj.horizon, 4):
            got = position_at(traj, float(t))
            want = iterated_position_oracle(traj, float(t))
            assert (got.point.x, got.point.y) == pytest.approx(
                (want.point.x, want.point.y), abs=1e-9
            )
            assert angle_diff(got.dir.alpha, want.dir.alpha) < 1e-9


def test_position_out_of_range():
    field, traj = random_simulation(1)
    with pytest.raises(ValueError):
        position_at(traj, -0.1)
    with pytest.raises(ValueError):
        position_at(traj, traj.horizon + 0.1)


def test_recollision_count():
    field, _ = random_simulation(1)
    ev = lambda t, i: dict(
        time=t,
        impact_point=Point(0, 1),
        pre_dir=Direction(0.0),
        post_dir=Direction(1.0),
        deflection=1.0,
        obstacle_index=i,
    )
    from hyperlorentz import CollisionEvent, Trajectory

    events = tuple(CollisionEvent(**ev(t, i)) for t, i in [(0.5, 3), (1.0, 4), (1.5, 3), (2.0, 3)])
    traj = Trajectory(UP, 3.0, events)
    assert recollision_count(traj) == 2


# ---------------------------------------------------------------------------
# closed-form first-collision sampling
# ---------------------------------------------------------------------------

def test_tube_hit_agrees_with_exact_hit_solver():
    # the closed-form center lies at distance r from the impact point,
    # outside the start's exclusion ball, and the exact quadratic solver
    # finds the same hit time.  The second start's geodesic ends at the
    # origin, so half-plane coordinates keep full relative precision as
    # y -> 0; a geodesic ending at x_end != 0 resolves distances only to
    # about eps * |x_end| / y, some 1e-11 at t = 12.
    starts = (UP, State(Point(1.0, 1.0), Direction(math.pi)))
    for s in starts:
        for r in (0.5, 0.1, 0.02):
            for t in np.linspace(0.0, 12.0, 49)[1:]:
                for sin_psi in np.linspace(-1.0, 1.0, 21)[1:-1]:
                    ix, iy, _, cx, cy = _tube_hit(
                        s.point.x, s.point.y, s.dir.alpha, t, math.asin(sin_psi), r
                    )
                    center = Point(float(cx), float(cy))
                    assert hyp_distance(Point(float(ix), float(iy)), center) == pytest.approx(
                        r, abs=1e-12
                    )
                    assert hyp_distance(s.point, center) > r
                    assert first_hit(s, Obstacle(center, r)) == pytest.approx(t, abs=1e-9)


def test_sample_first_collision_deterministic():
    a = sample_first_collision(1.0, 0.5, 10.0, _derive_rng(5, 0, 0, 9))
    b = sample_first_collision(1.0, 0.5, 10.0, _derive_rng(5, 0, 0, 9))
    assert a == b


def test_sample_first_collision_matches_full_field():
    # the closed-form construction must agree in law with sampling the
    # full enclosing ball up front and running the billiard
    lam, r, horizon = 1.0, 0.4, 6.0
    n = 3000
    lazy_t = np.empty(n)
    lazy_b = np.empty(n)
    full_t = np.empty(n)
    full_b = np.empty(n)
    for i in range(n):
        fc = sample_first_collision(lam, r, horizon, _derive_rng(91, 0, 0, i))
        lazy_t[i], lazy_b[i] = fc.time, fc.deflection
        rng = _derive_rng(92, 0, 0, i)
        field = sample_field(lam, ORIGIN, horizon + r, r, rng)
        traj = simulate(UP, field, horizon)
        if traj.events:
            full_t[i] = traj.events[0].time
            full_b[i] = traj.events[0].deflection
        else:
            full_t[i] = horizon
            full_b[i] = math.nan
    assert sps.ks_2samp(lazy_t, full_t).pvalue > 0.01
    assert sps.ks_2samp(lazy_b[np.isfinite(lazy_b)], full_b[np.isfinite(full_b)]).pvalue > 0.01


@pytest.mark.parametrize("sigma, horizon", [(1.0, 2.0), (0.001, 3000.0)])
def test_sample_first_collisions_deflection_is_pi_plus_twice_psi(sigma, horizon):
    # The contact angle psi rebuilt from a copy of the generator gives the
    # deflection in closed form, beta = pi + 2 psi (mod 2 pi), also after
    # free paths in the thousands, which no flow from the start survives.
    for r in (0.5, 5.0, 500.0):
        rng = _derive_rng(13, 0, 0, 0)
        lam = sigma / (2.0 * math.sinh(r))
        _, psi = _first_contacts(copy.deepcopy(rng), lam, r, 4000)
        _, beta, censored = sample_first_collisions(lam, r, horizon, rng, 4000)
        d = (beta - (math.pi + 2.0 * psi))[~censored] % (2.0 * math.pi)
        assert np.minimum(d, 2.0 * math.pi - d).max() < 1e-14


def test_sample_first_collision_censoring():
    # a nearly empty field: almost every run is censored at the horizon
    fc = sample_first_collision(1e-6, 0.1, 2.0, _derive_rng(6, 0, 0, 0))
    assert fc.censored and fc.time == 2.0 and math.isnan(fc.deflection)


def test_sample_first_collisions_contact_at_the_horizon_is_censored():
    # Rerun on the same stream with the horizon at the first replica's free
    # path: a contact exactly at the horizon is no contact, as in simulate,
    # and every other replica keeps its draw.
    lam, r, n = 2.0, 0.3, 50
    free, beta, censored = sample_first_collisions(lam, r, math.inf, _derive_rng(3, 0, 0, 0), n)
    assert not censored.any()
    h = free[0]
    time, beta_h, censored_h = sample_first_collisions(lam, r, h, _derive_rng(3, 0, 0, 0), n)
    assert time[0] == h and censored_h[0] and math.isnan(beta_h[0])
    assert np.array_equal(censored_h, free >= h) and np.array_equal(time, np.minimum(free, h))
    assert np.array_equal(beta_h[~censored_h], beta[~censored_h]) and np.isnan(beta_h[censored_h]).all()


def test_sample_first_collisions_needs_a_radius_it_can_reflect_off():
    # Where cosh r rounds to 1 the reflection's normal is rounding alone:
    # the sampler refuses the radius in the words of the command line...
    sigma = 1.0
    for sampler in (sample_first_collision, lambda *a: sample_first_collisions(*a, 100)):
        with pytest.raises(ValueError, match=r"r = 1e-17 is too small .*: cosh r rounds to 1"):
            sampler(sigma / (2.0 * math.sinh(1e-17)), 1e-17, 12.0, _derive_rng(0, 0, 0, 0))
    # ...and just above 2^-26 its deflections follow sin^2(beta/4) (KS in
    # the 0.999 Kolmogorov band).
    n = 20_000
    lam = sigma / (2.0 * math.sinh(2e-8))
    _, beta, censored = sample_first_collisions(lam, 2e-8, 12.0, _derive_rng(0, 0, 0, 0), n)
    beta = beta[~censored]
    assert beta.size > 0.99 * n and np.isfinite(beta).all()
    assert sps.kstest(beta, lambda b: np.sin(b / 4.0) ** 2).statistic < 1.95 / math.sqrt(beta.size)


@pytest.mark.parametrize("lam, r, horizon, key, size, expected", [
    (1.0, 0.5, 10.0, (5, 0, 0, 9), 1000, (
        [["955.5788541027256", "0.9462939594169605", "0.052355986710249935"],
         ["3116.3937317756354", "5.897200425867756", "3.1460676547245248"],
         ["0.0", "0.0", "0.0"]],
        ["0.8169581766577639"])),
    (3.0, 0.02, 2.0, (7, 0, 1, 0), 8192, (
        [["14497.853541533557", "2.0", "2.0"], ["5649.971240246032", "nan", "nan"], ["6411.0", "1.0", "1.0"]],
        ["0.28956288285510934"])),
    (0.2, 0.1, 1.0, (8, 0, 2, 3), 37, (
        [["36.66361312983469", "1.0", "1.0"], ["2.8531136813290257", "nan", "nan"], ["36.0", "1.0", "1.0"]],
        ["0.7365443039834184"])),
])
def test_sample_first_collisions_keeps_its_values(lam, r, horizon, key, size, expected):
    # The times, censoring and generator end states that
    # sample_first_collisions gave when it placed the contact by flowing
    # from a start argument; the deflections it gives with the contact at
    # the start itself.
    rng = _derive_rng(*key)
    assert fingerprint(sample_first_collisions(lam, r, horizon, rng, size), [rng]) == expected


# ---------------------------------------------------------------------------
# lazy exploration
# ---------------------------------------------------------------------------

def test_coshm1_to_segment_against_brute_force_minimum():
    # The closed form against the smallest distance to 20 001 points along
    # the segment, for points nearest its start, its end and its inside.
    # Grid steps of up to 2e-4 leave the brute minimum up to a few 1e-8
    # high at any distance, hence the absolute term.
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 20_001)
    nearest = {"start": 0, "end": 0, "inside": 0}
    for _ in range(300):
        s = random_state(rng)
        length = float(rng.uniform(0.05, 4.0))
        # A point off the segment's geodesic, beside flow time u.
        u, v = rng.uniform(-1.0, length + 1.0), rng.uniform(-2.0, 2.0)
        fx, fy, fa = flow_ahead(s.point.x, s.point.y, s.dir.alpha, u)
        px, py = flow_xy(fx, fy, fa + 0.5 * math.pi, v)
        coeffs = normalizing_coeffs(s.point.x, s.point.y, s.dir.alpha)
        closed = _coshm1_to_segment(*mobius_xy(*coeffs, px, py), length)
        gx, gy = flow_xy(s.point.x, s.point.y, s.dir.alpha, length * grid)
        brute = _coshm1(distance_xy(gx, gy, px, py))
        assert closed == pytest.approx(brute.min(), rel=1e-7, abs=1e-7)
        nearest["start" if u < 0.0 else "end" if u > length else "inside"] += 1
    assert min(nearest.values()) > 50


def test_coshm1_to_segment_is_inf_without_a_warning_where_y_underflows():
    # A center mapped from far enough away lands on the boundary, y = 0
    # (as in bg-convergence at sigma 0.1, t 120, r 0.4), or so near it that
    # the quotient overflows: it is farther than floats reach, so never
    # explored, and the other points keep their values.
    x = np.array([9.007199254740992e15, 9.007199254740992e15, 0.3, 2.0])
    y = np.array([0.0, 1e-300, 0.7, 5.0])
    got = _coshm1_to_segment(x, y, 0.1)
    assert (got[:2] == math.inf).all()
    x, y = x[2:], y[2:]
    w = np.exp(np.clip(0.5 * np.log(x * x + y * y), 0.0, 0.1))
    assert np.array_equal(got[2:], (x * x + (y - w) ** 2) / (2.0 * y * w))


@pytest.mark.parametrize("r", [1e-7, 3e-8, 2e-8])
def test_coshm1_to_segment_at_small_radius(r):
    # Points flowed perpendicular off the segment from (0, 1) to (0, e), to
    # r (1 - 1e-3) or r (1 + 1e-3), lie within r of it or not.  Against the
    # rounded cosh r, 1 819, 1 976 and 1 992 of these 4 000 came out wrong.
    rng = np.random.default_rng(7)
    n = 4000
    inside = np.arange(n) % 2 == 0
    side = rng.choice([0.0, math.pi], n)
    x, y = flow_xy(0.0, np.exp(rng.uniform(0.0, 1.0, n)), side, r * np.where(inside, 1 - 1e-3, 1 + 1e-3))
    assert np.array_equal(_coshm1_to_segment(x, y, 1.0) < _coshm1(r), inside)


def test_explore_fresh_centers_unexplored_and_obstacle_left_never_next():
    # Read each path back from the event record: segment k starts at the
    # start or at impact k - 1 and ends at impact k, and the obstacle hit
    # there has its center at distance r along the inward normal, the
    # direction of pre - post.  An obstacle first met in round k lies more
    # than r from every earlier segment, and the exact solver hits it at
    # the end of segment k; a recollision hits the center met before; no
    # segment enters an obstacle met before it; no obstacle is hit twice in
    # a row.
    r, t, n = 0.4, 4.0, 256
    lam = 1.0 / (2.0 * math.sinh(r))
    coshm1_r = _coshm1(r)
    record = []
    rng = _derive_rng(17, 0, 0, 0)
    _, _, events, recollisions = _explore([(rng, n, lam, r)], t, max_events=1000, record=record)
    paths = [[] for _ in range(n)]
    for rows in record:
        for i, *row in zip(*(v.tolist() for v in rows)):
            paths[i].append(row)  # time, ix, iy, pre, post, idx
    fresh = known = 0
    for i, path in enumerate(paths):
        ids = [row[5] for row in path]
        assert len(path) == events[i]
        assert all(a != b for a, b in zip(ids, ids[1:]))
        assert recollisions[i] == sum(idx < k for k, idx in enumerate(ids))
        start = (UP.point.x, UP.point.y, UP.dir.alpha, 0.0)
        segments, centers = [], {}
        for k, (time, ix, iy, pre, post, idx) in enumerate(path):
            coeffs, length = normalizing_coeffs(*start[:3]), time - start[3]
            inward = math.atan2(math.sin(pre) - math.sin(post), math.cos(pre) - math.cos(post))
            center = tuple(map(float, flow_xy(ix, iy, inward, r)))
            left = ids[k - 1] if k else -1
            for j, other in centers.items():  # obstacles met before, but those at the ends
                if j not in (idx, left):
                    assert _coshm1_to_segment(*mobius_xy(*coeffs, *other), length) > coshm1_r
            if idx == k:
                for seg, seg_length in segments:
                    assert _coshm1_to_segment(*mobius_xy(*seg, *center), seg_length) > coshm1_r
                th = _hit_times(*coeffs, *np.array(center)[:, None], coshm1_r)[0]
                assert th == pytest.approx(length, abs=1e-9)
                centers[k] = center
                fresh += 1
            else:
                assert center == pytest.approx(centers[idx], rel=1e-9)
                known += 1
            segments.append((coeffs, length))
            start = (ix, iy, post, time)
    assert fresh > 500 and known > 100


def test_explore_blocks_together_match_each_block_alone():
    # Blocks of three radii, a ragged last block, a block of one replica and
    # a block whose trapped replica runs far more rounds than any other,
    # advanced together: every replica ends where it ends when its block
    # runs alone, bit for bit, every generator is left in the same state,
    # and an event cap raises the same error.
    t = 4.0
    specs = [  # (stream, n, r)
        ((31, 0, 0, 3), 100, 0.4),
        ((31, 0, 1, 0), 256, 0.2),
        ((31, 0, 2, 0), 256, 0.1),
        ((31, 0, 2, 1), 37, 0.1),
        ((31, 0, 1, 4), 1, 0.2),
    ]

    def blocks():
        return [(_derive_rng(*key), n, 1.0 / (2.0 * math.sinh(r)), r) for key, n, r in specs]

    alone, states = [], []
    for block in blocks():
        alone.append(_explore([block], t))
        states.append(repr(block[0].bit_generator.state))  # holds arrays: compare reprs
    longest = [int(events.max()) for _, _, events, _ in alone]
    assert longest[0] >= 20 and longest[0] > max(longest[1:])
    together = blocks()
    got = _explore(together, t)
    for want, col in zip(zip(*alone), got):
        assert np.array_equal(np.concatenate(want), col)
    assert [repr(block[0].bit_generator.state) for block in together] == states

    cap = longest[0] - 1
    with pytest.raises(RunawayError) as solo:
        _explore(blocks()[:1], t, max_events=cap)
    with pytest.raises(RunawayError) as merged:
        _explore(blocks(), t, max_events=cap)
    assert str(merged.value) == str(solo.value)


@pytest.mark.parametrize("t, expected", [
    (1.0, (
        [["0.33277730376999237", "-0.19067476121929672", "0.0"],
         ["1215.7463686181393", "0.9451174701774276", "2.718281828459045"],
         ["638.0", "2.0", "0.0"], ["40.0", "0.0", "0.0"]],
        ["0.08965071450511153", "0.1792418289856157", "0.7094937898624054", "0.9604642582594876",
         "0.7137408411480458"])),
    (4.0, (
        [["118.73754999011919", "-0.7648965661283289", "6.464120316457753"],
         ["2441.3821444080504", "0.21275205729899965", "5.135950251639659"],
         ["2607.0", "4.0", "4.0"], ["404.0", "0.0", "0.0"]],
        ["0.1862793048694189", "0.8261114546803133", "0.2665240455734117", "0.8086100660703437",
         "0.8159121164815999"])),
    (10.0, (  # long paths: the history holds many rounds of few replicas
        [["3369.5949129724986", "-1.4525741136847776", "8.700122207892374"],
         ["11641.074791283558", "0.09030124942492154", "0.6031314843985554"],
         ["6555.0", "7.0", "11.0"], ["1371.0", "4.0", "1.0"]],
        ["0.9991383737500891", "0.8935725643789747", "0.9335945274327996", "0.602016166090009",
         "0.9095688839218949"])),
])
def test_explore_keeps_its_values(t, expected):
    # Blocks of three radii, a ragged block and a block of one, advanced
    # together: the positions, counts and generator end states _explore gave
    # with its own copy of the proposal draws and placement.
    specs = [
        ((31, 0, 0, 3), 100, 0.4),
        ((31, 0, 1, 0), 256, 0.2),
        ((31, 0, 2, 0), 256, 0.1),
        ((31, 0, 2, 1), 37, 0.1),
        ((31, 0, 1, 4), 1, 0.2),
    ]
    blocks = [(_derive_rng(*key), n, 1.0 / (2.0 * math.sinh(r)), r) for key, n, r in specs]
    assert fingerprint(_explore(blocks, t), [rng for rng, *_ in blocks]) == expected


def test_explore_keeps_its_values_across_history_growth():
    # A dense block whose longest replica runs past 128 rounds beside a
    # sparse one whose replicas all end early, so the history drops all but
    # a few columns and then holds a few replicas over more than 200 rounds:
    # the positions, counts and generator end states are those _explore gave
    # when its history had room for 32 rounds of every replica at first.
    specs = [  # (stream, n, r, sigma)
        ((41, 0, 0, 0), 200, 0.4, 1.0),
        ((41, 0, 1, 0), 50, 0.1, 12.0),
        ((41, 0, 1, 1), 3, 0.1, 12.0),
    ]
    blocks = [(_derive_rng(*key), n, sigma / (2.0 * math.sinh(r)), r) for key, n, r, sigma in specs]
    got = _explore(blocks, 6.0)
    assert [int(got[2][s].max()) for s in (slice(200), slice(200, 250), slice(250, None))] == [21, 252, 94]
    assert fingerprint(got, [rng for rng, *_ in blocks]) == (
        [["-152.87979424219787", "-0.22569349311010667", "-0.04398694610053242"],
         ["865.1442608641019", "0.9366433224399531", "0.8009001672216894"],
         ["5003.0", "8.0", "94.0"], ["3519.0", "2.0", "83.0"]],
        ["0.3853424362017861", "0.9512350781597593", "0.9259828741415729"],
    )


@pytest.mark.parametrize("sizes, bound_mib", [
    pytest.param([(256, 256, 256, 232)] * 3, 2.25, id="benchmark-call"),  # 1 000 replicas a level
    pytest.param([(256,) * 11, (256,) * 11, (256,) * 10], 6.0, id="runner-batch"),  # 8 192 replicas
])
def test_explore_memory_is_bounded_on_the_benchmark_config(sizes, bound_mib):
    # t = 4.  The history holds a row a round for the live replicas only,
    # and under a tenth of them are live by round 8: the two calls peak at
    # 1.7 and 4.7 MiB.  With room for 8 rounds of every replica from the
    # start, they peaked at 2.6 and 7.2 MiB.
    blocks = []
    for level, r in enumerate((0.4, 0.2, 0.1)):  # sizes[level]: the block sizes of radius r
        lam = 1.0 / (2.0 * math.sinh(r))
        blocks += [(_derive_rng(3, 1, level, k), m, lam, r) for k, m in enumerate(sizes[level])]
    tracemalloc.start()
    try:
        _explore(blocks, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_explore_matches_simulate_in_full_fields():
    # Lazy exploration against the billiard in a field sampled whole on the
    # annulus r < d <= t + r: the same law of the displacement (W1 between
    # the two samples within the 0.999 quantile of W1 between random halves
    # of their pooled sample) and of the collision count and recollision
    # fraction (within 4 standard errors).
    n = 2048
    for (t, r), seed in zip(itertools.product((2.0, 4.0), (0.4, 0.1)), itertools.count(60)):
        lam = 1.0 / (2.0 * math.sinh(r))
        full = np.empty((3, n))
        for i in range(n):
            traj = simulate(UP, sample_field(lam, ORIGIN, t + r, r, _derive_rng(seed, 0, 0, i)), t)
            full[:, i] = (
                hyp_distance(ORIGIN, position_at(traj, t).point),
                len(traj.events),
                recollision_count(traj) > 0,
            )
        lazy = np.empty((3, n))
        for k in range(n // 256):
            x, y, ev, rc = _explore([(_derive_rng(seed, 1, 0, k), 256, lam, r)], t)
            lazy[:, 256 * k : 256 * (k + 1)] = distance_xy(ORIGIN.x, ORIGIN.y, x, y), ev, rc > 0
        w1 = wasserstein1(full[0], lazy[0])
        rng = np.random.default_rng(seed)
        pooled = np.concatenate((full[0], lazy[0]))
        null = [wasserstein1(*rng.permutation(pooled).reshape(2, n)) for _ in range(999)]
        assert sum(w >= w1 for w in null) >= 1, (t, r, w1, max(null))
        for a, b in zip(full[1:], lazy[1:]):
            se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
            assert abs(a.mean() - b.mean()) < 4.0 * se, (t, r, a.mean(), b.mean(), se)


# ---------------------------------------------------------------------------
# the angle rule
# ---------------------------------------------------------------------------

def test_every_angle_the_package_makes_lies_in_zero_to_two_pi():
    # geometry._wrap is the one rule: % maps an angle within about 1e-16
    # below 0 to 2 pi itself, and _wrap maps that to 0.  Three cases below
    # make such an angle: the apex of the geodesic flowed from (0, 1) at
    # angle 0, where the direction turns by -tiny for t < 0 (in 22 386 of
    # these 10^5 times), a grazing reflection off the bottom of a disk, and
    # a deflection of -1e-300.
    def wrapped(angles):
        a = np.asarray(angles)
        return bool(np.all((0.0 <= a) & (a < TWO_PI)))

    apex = np.random.default_rng(0).uniform(-1e-15, 1e-15, 10**5)
    assert wrapped(flow_ahead(0.0, 1.0, 0.0, apex)[2])
    rng = np.random.default_rng(32)
    n = 2000
    x, y = rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-2.0, 2.0, n))
    alpha = rng.uniform(0.0, TWO_PI, n)
    for t in (rng.uniform(0.0, 5.0, n), -rng.uniform(0.0, 5.0, n)):
        assert wrapped(flow_ahead(x, y, alpha, t)[2])

    # Reflections at random impacts on random disks, and exactly at the
    # bottom (cx, cy e^-r) of one, hit from the left at angle 1e-300.
    r = rng.uniform(0.01, 1.0, n)
    ix, iy = flow_xy(x, y, rng.uniform(0.0, TWO_PI, n), r)
    assert wrapped(_reflect_angle(ix, iy, alpha, x, y, r))
    assert _reflect_angle(0.0, math.exp(-0.5), 1e-300, 0.0, 1.0, 0.5) == 0.0

    _, beta, censored = sample_first_collisions(1.0, 0.3, math.inf, _derive_rng(32, 0, 0, 0), n)
    assert not censored.any() and wrapped(beta)

    # The angles before and after each turn of the billiard and the flight.
    for run in (
        lambda record: _explore([(_derive_rng(32, 1, 0, 0), 64, 4.0, 0.3)], 4.0, record=record),
        lambda record: _flight_ends([(_derive_rng(32, 2, 0, 0), 64)], FlightConfig(4.0, 4.0), record=record),
    ):
        record = []
        run(record)
        assert len(record) > 5
        assert all(wrapped(pre) and wrapped(post) for _, _, _, _, pre, post, _ in record)

    assert CollisionEvent(1.0, ORIGIN, UP.dir, UP.dir, -1e-300, 0).deflection == 0.0
    d = Direction(1.0)
    deflections = rng.uniform(-20.0, 20.0, 200)
    assert wrapped([CollisionEvent(1.0, ORIGIN, d, d, b, 0).deflection for b in deflections])
    assert wrapped([rotate_direction(d, b).alpha for b in deflections])
    assert rotate_direction(Direction(0.0), -1e-300).alpha == 0.0
    for _ in range(200):
        assert wrapped(mobius_transport(random_mobius(rng), random_state(rng)).dir.alpha)
