import copy
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import optimize, stats as sps

from hyperlorentz import (
    BallRegion,
    Direction,
    Obstacle,
    ObstacleField,
    Point,
    RegionTooSmallError,
    RunawayError,
    State,
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
    sample_field,
    sample_first_collision,
    simulate,
    tube_area,
)
from hyperlorentz.billiard import (
    DISC_TOL,
    _cosh_to_segment,
    _explore,
    _first_contacts,
    _hit_times,
    _reflect_angle,
    _tube_hit,
    sample_first_collisions,
)
from hyperlorentz.experiments import _derive_rng, exp_cdf
from hyperlorentz.geometry import distance_xy, flow_angle, flow_xy, mobius_xy, normalizing_coeffs
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
    # A hit landing exactly on t_max ends the path there, as a flight turn does.
    center = Point(0.05, math.exp(2.3))
    th = first_hit(UP, Obstacle(center, 0.3))
    field = make_field([[center.x, center.y]], 0.3, 3.0)
    assert simulate(UP, field, th).events == ()
    assert len(simulate(UP, field, math.nextafter(th, 3.0)).events) == 1


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
    # lies within the tangency tolerance plus the rounding of the transport
    # to the shot's frame, which grows like eps e^u with the distance u.
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
        if rel > DISC_TOL + blur:
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
    cosh_r = math.cosh(radius)
    x, y, alpha, t_now, last = s0.point.x, s0.point.y, s0.dir.alpha, 0.0, -1
    hits = []
    while True:
        cosh_d = ((x - cx) ** 2 + y * y + cy * cy) / (2.0 * y * cy)
        cand = np.flatnonzero(cosh_d <= math.cosh(t_max - t_now + radius))
        cand = cand[cand != last]
        if cand.size == 0:
            break
        th = _hit_times(*normalizing_coeffs(x, y, alpha), cx[cand], cy[cand], cosh_r)
        k = int(np.argmin(th))
        gap = float(th[k])
        if t_now + gap >= t_max:
            break
        if len(hits) >= max_events:
            raise RunawayError(f"exceeded {max_events} events before the horizon")
        ix, iy = flow_xy(x, y, alpha, gap)
        pre = float(flow_angle(alpha, gap))
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


# ---------------------------------------------------------------------------
# free_path
# ---------------------------------------------------------------------------

def test_free_path_empty_field_censors():
    field = make_field(np.empty((0, 2)), 0.5, 5.0)
    assert free_path(UP, field, 4.0) == (4.0, True)


def test_free_path_matches_first_event():
    for seed in range(20):
        field, traj = random_simulation(seed)
        t, censored = free_path(UP, field, 3.0)
        if traj.events:
            assert not censored
            assert t == pytest.approx(traj.events[0].time, abs=1e-12)
        else:
            assert censored and t == 3.0


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


@pytest.mark.parametrize("lam, r, horizon, key, size, expected", [
    (1.0, 0.5, 10.0, (5, 0, 0, 9), 1000, (
        [["955.5788541027256", "0.9462939594169605", "0.052355986710249935"],
         ["3116.3937317756354", "5.897200425867756", "3.1460676547245248"],
         ["0.0", "0.0", "0.0"]],
        ["0.8169581766577639"])),
    (3.0, 0.02, 2.0, (7, 0, 1, 0), 8192, (
        [["14497.853541533557", "2.0", "2.0"], ["5649.97124024603", "nan", "nan"], ["6411.0", "1.0", "1.0"]],
        ["0.28956288285510934"])),
    (0.2, 0.1, 1.0, (8, 0, 2, 3), 37, (
        [["36.66361312983469", "1.0", "1.0"], ["2.8531136813290265", "nan", "nan"], ["36.0", "1.0", "1.0"]],
        ["0.7365443039834184"])),
])
def test_sample_first_collisions_keeps_its_values(lam, r, horizon, key, size, expected):
    # The times, censoring and generator end states that
    # sample_first_collisions gave when it placed the contact by flow_xy and
    # flow_angle from a start argument; the deflections it gives with the
    # contact at the start itself (the first moved in its last digit).
    rng = _derive_rng(*key)
    assert fingerprint(sample_first_collisions(lam, r, horizon, rng, size), [rng]) == expected


# ---------------------------------------------------------------------------
# lazy exploration
# ---------------------------------------------------------------------------

def test_cosh_to_segment_against_brute_force_minimum():
    # The closed form against the smallest distance to 20 001 points along
    # the segment, for points nearest its start, its end and its inside.
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 20_001)
    nearest = {"start": 0, "end": 0, "inside": 0}
    for _ in range(300):
        s = random_state(rng)
        length = float(rng.uniform(0.05, 4.0))
        # A point off the segment's geodesic, beside flow time u.
        u, v = rng.uniform(-1.0, length + 1.0), rng.uniform(-2.0, 2.0)
        fx, fy = flow_xy(s.point.x, s.point.y, s.dir.alpha, u)
        px, py = flow_xy(fx, fy, flow_angle(s.dir.alpha, u) + 0.5 * math.pi, v)
        coeffs = normalizing_coeffs(s.point.x, s.point.y, s.dir.alpha)
        closed = _cosh_to_segment(*mobius_xy(*coeffs, px, py), length)
        gx, gy = flow_xy(s.point.x, s.point.y, s.dir.alpha, length * grid)
        brute = np.cosh(distance_xy(gx, gy, px, py))
        assert closed == pytest.approx(brute.min(), rel=1e-7)
        nearest["start" if u < 0.0 else "end" if u > length else "inside"] += 1
    assert min(nearest.values()) > 50


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
    cosh_r = math.cosh(r)
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
                    assert _cosh_to_segment(*mobius_xy(*coeffs, *other), length) > cosh_r
            if idx == k:
                for seg, seg_length in segments:
                    assert _cosh_to_segment(*mobius_xy(*seg, *center), seg_length) > cosh_r
                th = _hit_times(*coeffs, *np.array(center)[:, None], cosh_r)[0]
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
        [["0.33277730377005943", "-0.19067476121929688", "1.956084275282074e-16"],
         ["1215.7463686181393", "0.9451174701774276", "2.718281828459045"],
         ["638.0", "2.0", "0.0"], ["40.0", "0.0", "0.0"]],
        ["0.08965071450511153", "0.1792418289856157", "0.7094937898624054", "0.9604642582594876",
         "0.7137408411480458"])),
    (4.0, (
        [["118.73755003237335", "-0.7648965661283289", "6.464120316457742"],
         ["2441.3821443593433", "0.21275205729899963", "5.135950251639649"],
         ["2607.0", "4.0", "4.0"], ["404.0", "0.0", "0.0"]],
        ["0.1862793048694189", "0.8261114546803133", "0.2665240455734117", "0.8086100660703437",
         "0.8159121164815999"])),
    (10.0, (  # long paths: the history holds many rounds of few replicas
        [["3376.145507292456", "-1.4525741136848942", "8.700122207892338"],
         ["11644.74958664868", "0.09030124942493774", "0.6031314843985559"],
         ["6550.0", "7.0", "11.0"], ["1366.0", "4.0", "1.0"]],
        ["0.8923748004824924", "0.8935725643789747", "0.9335945274327996", "0.602016166090009",
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
    assert [int(got[2][s].max()) for s in (slice(200), slice(200, 250), slice(250, None))] == [21, 237, 96]
    assert fingerprint(got, [rng for rng, *_ in blocks]) == (
        [["-154.15043499009022", "-0.22569349311014258", "-0.2094945052166029"],
         ["865.7836419411378", "0.9366433224399272", "0.9101024399039401"],
         ["4969.0", "8.0", "96.0"], ["3478.0", "2.0", "85.0"]],
        ["0.3853424362017861", "0.45192808467832024", "0.23494322720456362"],
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
