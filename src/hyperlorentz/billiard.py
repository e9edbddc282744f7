"""The Lorentz process: geodesic motion among reflecting disk obstacles.

Collision times are solved exactly: the obstacle center is transported by
the isometry that maps the current state onto the upward vertical geodesic
through (0, 1), where the contact condition

    (x^2 + (e^u - y)^2) / (2 e^u y) = cosh r - 1 = 2 sinh^2(r/2)

is a quadratic in e^u.  Every contact and membership test compares cosh d - 1
with cosh r - 1 in this form, which keeps its digits where cosh r rounds to 1.
Reflection is the Euclidean mirror across the tangent of the obstacle's
Euclidean realization, which is specular in the hyperbolic sense because
half-plane angles agree with Euclidean angles.

Trajectories are piecewise geodesics, right-continuous in direction at
collision times.  Every hit solver takes its first obstacle by :func:`_race`.

First contacts in a fresh field (Exp(2 lam sinh r) free paths, sin psi
uniform) are drawn by :func:`_first_contacts` and placed by :func:`_tube_hit`
for :func:`sample_first_collisions` and the lazy billiard alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter

import numpy as np

from .errors import RegionTooSmallError, RunawayError, ValidationError, _integer, _positive
from .geometry import (
    Direction,
    Point,
    State,
    _Record,
    _wrap,
    ball_area,
    distance_xy,
    flow_ahead,
    flow_state,
    flow_xy,
    hyp_distance,
    mobius_xy,
    normalizing_coeffs,
)
# sample_annulus is unused here but stays importable: perfbench/tracing.py patches it.
from .obstacles import ObstacleField, sample_annulus  # noqa: F401

__all__ = [
    "Obstacle",
    "CollisionEvent",
    "Trajectory",
    "FirstCollision",
    "first_hit",
    "reflect",
    "simulate",
    "free_path",
    "tube_area",
    "position_at",
    "recollision_count",
    "sample_first_collision",
    "sample_first_collisions",
]

DEFAULT_MAX_EVENTS = 10**6

#: The start of :func:`sample_first_collisions` and of every experiment.
_START = State(Point(0.0, 1.0), Direction(0.5 * math.pi))


class Obstacle(_Record):
    """A reflecting disk: hyperbolic center and hyperbolic radius."""

    center: Point
    radius: float

    def __post_init__(self):
        self.__dict__["radius"] = _positive("obstacle radius", self.radius)


class CollisionEvent(_Record):
    """One reflection: when, where, and how the direction turned; the
    deflection, like every angle, lies in [0, 2*pi) by :func:`geometry._wrap`."""

    time: float
    impact_point: Point
    pre_dir: Direction
    post_dir: Direction
    deflection: float
    obstacle_index: int

    def __post_init__(self):
        self.__dict__.update(time=_positive("collision time", self.time), deflection=_wrap(self.deflection))


class Trajectory(_Record):
    """A piecewise-geodesic path: initial state plus ordered collisions."""

    initial: State
    horizon: float
    events: tuple[CollisionEvent, ...]

    def __post_init__(self):
        self.__dict__.update(horizon=_positive("horizon", self.horizon), events=tuple(self.events))
        times = [e.time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("collision times must be strictly increasing")
        if times and times[-1] >= self.horizon:
            raise ValidationError("collision times must lie strictly before the horizon")


# ---------------------------------------------------------------------------
# Exact collision solving
# ---------------------------------------------------------------------------

def _coshm1(r):
    """cosh r - 1, as 2 sinh^2(r/2): full precision where cosh r rounds to 1."""
    return 2.0 * np.sinh(0.5 * r) ** 2


def _hit_times(a, b, c, d, cx, cy, coshm1_r) -> np.ndarray:
    """Forward hit times against disk centers, of cosh r - 1 = coshm1_r, from
    the state that the Mobius map (a, b, c, d) of :func:`normalizing_coeffs`
    takes to ((0, 1), pi/2).  The roots e^u = p -/+ sqrt(disc), p = ty cosh r,
    need disc = ty^2 sinh^2 r - tx^2 > 0, formed without cancellation.

    Returns +inf where the trajectory misses (no real quadratic root
    strictly ahead of the particle, or a tangency).
    """
    tx, ty = mobius_xy(a, b, c, d, cx, cy)
    p = ty * (1.0 + coshm1_r)
    disc = ty * ty * coshm1_r * (2.0 + coshm1_r) - tx * tx
    ok = disc > 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    w_lo = p - sq  # roots are real and positive: their product is |center|^2 > 0
    w = np.where(w_lo > 1.0, w_lo, p + sq)
    ok &= w > 1.0
    out = np.full(np.shape(w), np.inf)
    np.log(w, out=out, where=ok)
    return out


def _race(coeffs, cx, cy, coshm1_r, last):
    """First hits of the m states that the maps ``coeffs`` normalize against
    a (K, m) or (K, 1) table of centers, column j serving state j: their
    :func:`_hit_times`, but inf in row ``last[j]`` (``last`` an (m,) array,
    -1 for none), the obstacle just left, as a geodesic meets a convex disk
    in one segment, raced by argmin, so the first row wins a tie.  Returns
    each state's (time, row): inf where no row hits, (inf, -1) if K = 0."""
    th = _hit_times(*coeffs, cx, cy, coshm1_r)
    k, m = th.shape
    if not k:
        return np.full(m, math.inf), np.full(m, -1)
    col, left = np.arange(m), last >= 0
    th[last[left], col[left]] = math.inf
    idx = th.argmin(axis=0)
    return th[idx, col], idx


def _check_reflection(caller: str, r: float) -> None:
    """Reflecting off radius-r obstacles needs cosh r above 1, that is
    r > 2^-26.  The contact tests resolve any r > 0, but the reflection's
    normal at an impact (x, y) on the disk of center (cx, cy) is
    (x - cx, y - cy cosh r), coordinates about y r apart, so the impact
    point's own rounding costs it about eps / r: at 2^-26, half its digits.
    """
    if math.cosh(r) == 1.0:
        raise ValidationError(
            f"r = {r} is too small for {caller}: cosh r rounds to 1, so its reflections cannot be "
            "resolved; it needs r > 2^-26, about 1.49e-08"
        )


def _reflect_angle(ix, iy, alpha_in, cx, cy, radius):
    """Mirror the direction angle across the obstacle tangent at (ix, iy)."""
    # cosh r suffices: cy cosh r rounds no more than iy, which bounds the normal.
    ny = iy - cy * np.cosh(radius)
    nx = ix - cx
    norm = np.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    vx, vy = np.cos(alpha_in), np.sin(alpha_in)
    dot = vx * nx + vy * ny
    return _wrap(np.arctan2(vy - 2.0 * dot * ny, vx - 2.0 * dot * nx))


def _inside_margin(d, r) -> bool:
    """Whether a start at distances d from centers of radius-r obstacles lies
    within r (1 + 1e-9) + 1e-12 of any: so near the disk that :func:`_race`'s
    rounded root may take its far side.  Every billiard start is refused there."""
    return bool(np.any(d <= r * (1.0 + 1e-9) + 1e-12))


def first_hit(s: State, ob: Obstacle) -> float | None:
    """Time of the first contact with a single obstacle, or None if missed.

    The state must start outside the obstacle's margin (:func:`_inside_margin`).
    """
    if _inside_margin(hyp_distance(s.point, ob.center), ob.radius):
        raise ValidationError("first_hit requires a state strictly outside the obstacle")
    coeffs = normalizing_coeffs(s.point.x, s.point.y, s.dir.alpha)
    center = np.array([[ob.center.x]]), np.array([[ob.center.y]])
    t = _race(coeffs, *center, _coshm1(ob.radius), np.array([-1]))[0][0]
    return float(t) if math.isfinite(t) else None


def reflect(impact: Point, incoming: Direction, ob: Obstacle) -> Direction:
    """Specular reflection of the incoming direction at an impact within 1e-8 r + 1e-12 of the boundary."""
    if abs(hyp_distance(impact, ob.center) - ob.radius) > 1e-8 * ob.radius + 1e-12:
        raise ValidationError("impact point does not lie on the obstacle boundary")
    return Direction(
        float(_reflect_angle(impact.x, impact.y, incoming.alpha, ob.center.x, ob.center.y, ob.radius))
    )


def tube_area(t: float, r: float) -> float:
    """Hyperbolic area swept by a disk of radius r moved along a geodesic
    segment of length t: 4*pi*sinh^2(r/2) + 2*t*sinh(r), refused where it
    overflows."""
    if not t >= 0.0:
        raise ValidationError(f"segment length must be nonnegative, got {t}")
    r = _positive("tube radius", r)
    area = ball_area(r) + 2.0 * t * math.sinh(r)
    if area == math.inf:
        raise ValidationError(f"tube of length {t} and radius {r} is too large: its area overflows")
    return area


# ---------------------------------------------------------------------------
# Event-driven simulation
# ---------------------------------------------------------------------------

def _check_field(s0: State, field: ObstacleField, t_max: float) -> float:
    """t_max as a float, once the field covers it and s0 lies in no obstacle's :func:`_inside_margin`."""
    t_max = _positive("horizon", t_max)
    needed = hyp_distance(s0.point, field.region.center) + t_max + field.radius
    if field.region.outer < needed - 1e-9:
        raise RegionTooSmallError(
            f"field region (outer {field.region.outer:g}) cannot cover horizon "
            f"{t_max:g} plus obstacle radius {field.radius:g}"
        )
    d = distance_xy(field.centers[:, 0], field.centers[:, 1], s0.point.x, s0.point.y)
    if _inside_margin(d, field.radius):
        raise ValidationError("initial point lies inside (or on) an obstacle")
    return t_max


def _block_draws(block, live, count: int, draw):
    """Draws for the live replicas of ``count`` blocks, ``block[i]`` being
    replica i's block and ``live`` increasing: ``draw(k, m)``, a tuple of
    arrays for block k's m live replicas from its generator, runs once for
    each block that has any, in block order, so a block draws what it draws
    alone.  Returns the tuple's arrays, concatenated in block order."""
    if count == 1:  # one block: skip the grouping
        return draw(0, live.size)
    counts = np.bincount(block[live], minlength=count).tolist()
    return tuple(map(np.concatenate, zip(*[draw(k, m) for k, m in enumerate(counts) if m])))


def _run_events(s0: State, n: int, horizon: float, step, turn, max_events: int, record=None):
    """The event loop shared by the billiard and the random flight: n
    replicas start from s0 and advance together, one turn per round.

    Each round, ``step(live, x, y, alpha, t_left, last)`` gives the free
    flight time of each live replica to its next turn and the obstacle index
    it turns at; ``live`` lists the live replicas in increasing order and
    the other arrays their states, time left and previous obstacle (-1 at
    the start).  A replica whose next turn falls at or beyond the horizon
    stops.  The others flow to their turns and take the direction
    ``turn(live, ix, iy, pre, idx, went)`` gives, where ``went`` selects
    them among the replicas step saw: ``slice(None)`` if all of them turn,
    else a mask.  A replica is live in a round only if it turned in every
    round before, so all live replicas have turned as many times as there
    have been rounds.  If ``record`` is a list, each round appends the
    arrays (live, time, ix, iy, pre, post, idx) of the replicas that turned.

    Returns (x, y, events): each replica's position at the horizon and its
    number of turns.  Every array operation acts elementwise, so a replica
    follows the same path, bit for bit, whatever else is in the batch.
    """
    live = np.arange(n)
    start = [[s0.point.x], [s0.point.y], [s0.dir.alpha], [0.0]]
    x, y, alpha, t_now = np.array(start).repeat(n, axis=1)
    last = np.full(n, -1)
    end = np.empty((4, n))  # x, y, alpha and time of each replica's last turn
    events = np.empty(n, dtype=np.int64)
    rounds = 0
    while True:
        gap, idx = step(live, x, y, alpha, horizon - t_now, last)
        go = t_now + gap < horizon
        went = slice(None)
        if not go.all():
            halt = ~go
            end[:, live[halt]] = x[halt], y[halt], alpha[halt], t_now[halt]
            events[live[halt]] = rounds
            if not go.any():
                break
            state = (live, x, y, alpha, t_now, gap, idx)
            live, x, y, alpha, t_now, gap, idx = (v[go] for v in state)
            went = go
        if rounds >= max_events:
            raise RunawayError(f"exceeded {max_events} events before the horizon")
        ix, iy, pre = flow_ahead(x, y, alpha, gap)
        post = turn(live, ix, iy, pre, idx, went)
        x, y, alpha, t_now, last = ix, iy, post, t_now + gap, idx
        rounds += 1
        if record is not None:
            record.append((live, t_now, ix, iy, pre, post, idx))
    x, y, alpha, t_now = end
    return (*flow_xy(x, y, alpha, horizon - t_now), events)


def _trajectory(s0: State, horizon: float, record) -> Trajectory:
    """Box the record of a one-replica :func:`_run_events` run."""
    rounds = ([v.item() for v in round_] for round_ in record)
    return Trajectory(
        s0,
        horizon,
        tuple(
            CollisionEvent(
                time=t,
                impact_point=Point(ix, iy),
                pre_dir=Direction(pre),
                post_dir=Direction(post),
                deflection=post - pre,
                obstacle_index=idx,
            )
            for _, t, ix, iy, pre, post, idx in rounds
        ),
    )


def simulate(
    s0: State,
    field: ObstacleField,
    t_max: float,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Run the billiard among a fixed obstacle configuration up to t_max.

    Event-driven: each step takes the first hit among the whole field by
    :func:`_race`, advances, reflects and records; a hit at or beyond the
    horizon ends the path, and recollisions are allowed.  s0 must start
    outside every obstacle's margin (:func:`_inside_margin`), and a path of
    more than ``max_events`` collisions, an integer >= 0, raises RunawayError.
    """
    t_max = _check_field(s0, field, t_max)
    max_events = _integer("max_events", max_events, 0)
    cx, cy, radius = field.centers[:, 0], field.centers[:, 1], field.radius
    coshm1_r = _coshm1(radius)

    def step(live, x, y, alpha, t_left, last):
        return _race(normalizing_coeffs(x, y, alpha), cx[:, None], cy[:, None], coshm1_r, last)

    def turn(live, ix, iy, pre, idx, went):
        return _reflect_angle(ix, iy, pre, cx[idx], cy[idx], radius)

    record: list = []
    _run_events(s0, 1, t_max, step, turn, max_events, record)
    return _trajectory(s0, t_max, record)


def free_path(s0: State, field: ObstacleField, t_max: float) -> tuple[float, bool]:
    """Time of the first collision, by :func:`_race`, or (t_max, True) if
    none before t_max: a contact exactly at t_max is none, as in
    :func:`simulate`, whose start rule it keeps."""
    t_max = _check_field(s0, field, t_max)
    coeffs = normalizing_coeffs(s0.point.x, s0.point.y, s0.dir.alpha)
    t = float(_race(coeffs, *field.centers.T[:, :, None], _coshm1(field.radius), np.array([-1]))[0][0])
    return (t, False) if t < t_max else (t_max, True)


def position_at(traj: Trajectory, t: float) -> State:
    """State at time t along the trajectory (right-continuous at events)."""
    if not 0.0 <= t <= traj.horizon:
        raise ValidationError(f"time {t} outside [0, {traj.horizon}]")
    k = bisect_right(traj.events, t, key=attrgetter("time"))
    if k == 0:
        base, t0 = traj.initial, 0.0
    else:
        ev = traj.events[k - 1]
        base, t0 = State(ev.impact_point, ev.post_dir), ev.time
    return flow_state(base, t - t0)


def recollision_count(traj: Trajectory) -> int:
    """Number of events that revisit an obstacle hit earlier on the path."""
    seen: set[int] = set()
    count = 0
    for ev in traj.events:
        if ev.obstacle_index in seen:
            count += 1
        seen.add(ev.obstacle_index)
    return count


# ---------------------------------------------------------------------------
# Lazy exploration: the field revealed along the path
# ---------------------------------------------------------------------------

def _coshm1_to_segment(x, y, length):
    """cosh d - 1, d the distance from (x, y) to the segment from (0, 1) to
    (0, e^length) of the vertical geodesic: distance along a geodesic is
    convex, so the nearest point is (0, e^s), s = clip(log |(x, y)|, 0, length).

    A point mapped from far enough away has y underflowing to 0, or so
    small that the quotient overflows: it lies farther from the segment
    than floats reach, and its value is inf without a warning."""
    xx = x * x
    w = np.exp(np.clip(0.5 * np.log(xx + y * y), 0.0, length))
    with np.errstate(divide="ignore", over="ignore"):
        return (xx + (y - w) ** 2) / (2.0 * y * w)


def _explore(blocks, t_max: float, max_events: int = DEFAULT_MAX_EVENTS, record=None):
    """Run blocks (rng, n, lam, radius) of billiards from ``_START`` to t_max,
    advanced together, each replica in its own Poisson field of intensity
    lam and obstacle radius radius revealed only where its path explores it:
    the law of :func:`simulate` in the field :func:`sample_field` draws on
    the annulus r < d <= t_max + r.  Returns (x, y, events, recollisions)
    over the blocks' replicas in order, each replica's position at t_max and
    numbers of collisions and recollisions; ``record`` is passed to
    :func:`_run_events`.

    Given the path so far, the centers not yet met are Poisson on the
    complement of the explored set, the points within r of an earlier
    segment (the first covers the start ball).  Each step proposes first
    contacts along the current segment as :func:`sample_first_collisions`
    draws and places them in an empty plane (:func:`_first_contacts`, then
    :func:`_tube_hit`), and rejects those whose center is explored: that
    thins them to the fresh field.  The first accepted one races, by
    :func:`_race`, the obstacles met so far, so recollisions stay exact.  An
    obstacle is known by the round it was first met in.  The history of
    segments and centers holds the live replicas only, so its size follows
    them.

    Proposals follow the rule of :func:`_block_draws`: every replica follows
    the path it follows when its block runs alone, bit for bit, and leaves
    its generator in the same state.
    """
    rngs, sizes, lams, block_radii = zip(*blocks)
    # The block, radius and cosh r - 1 of each replica.
    block = np.repeat(np.arange(len(blocks)), sizes)
    radii = np.repeat(block_radii, sizes)
    coshm1_radii = np.repeat([_coshm1(r) for r in block_radii], sizes)
    n = block.size
    # hist[:, k, j]: a, b, c, d (normalizing_coeffs of the start) and length
    # of segment k of the j-th live replica, and the center it first met, or
    # nan.  step fills the next round's row for the replicas it sees; turn
    # appends it for those that turn and drops the columns of those that stop.
    hist = np.empty((7, 0, n))
    new = None  # the row of the replicas step saw last
    recollisions = np.zeros(n, dtype=np.int64)

    def contacts(k, m):
        return _first_contacts(rngs[k], lams[k], block_radii[k], m)

    def step(live, x, y, alpha, t_left, last):
        nonlocal new
        m, rounds = live.size, hist.shape[1]
        coshm1_r = coshm1_radii[live]
        coeffs = normalizing_coeffs(x, y, alpha)
        gap, idx = _race(coeffs, *hist[5:], coshm1_r, last)  # hist[5:]: (rounds, m), nan where none was met
        bound = np.minimum(gap, t_left)
        new = np.full((7, m), math.nan)
        s, todo = np.zeros(m), np.arange(m)
        while todo.size:
            s_try, psi = _block_draws(block, live[todo], len(blocks), contacts)
            s_try += s[todo]
            ahead = s_try < bound[todo]
            todo, s_try, psi = todo[ahead], s_try[ahead], psi[ahead]
            if not todo.size:
                break
            s[todo] = s_try
            _, _, _, cx, cy = _tube_hit(x[todo], y[todo], alpha[todo], s_try, psi, radii[live[todo]])
            a, b, c, d, length = hist[:5, :, todo]  # empty in round 0: nothing is explored yet
            explored = _coshm1_to_segment(*mobius_xy(a, b, c, d, cx, cy), length) < coshm1_r[todo]
            fresh = ~explored.any(axis=0)
            gap[todo[fresh]], idx[todo[fresh]] = s_try[fresh], rounds
            new[5:, todo[fresh]] = cx[fresh], cy[fresh]
            todo = todo[~fresh]
        new[:5] = *coeffs, gap
        return gap, idx

    def turn(live, ix, iy, pre, idx, went):
        nonlocal hist
        recollisions[live] += idx < hist.shape[1]
        hist = np.concatenate((hist[:, :, went], new[:, None, went]), axis=1)
        return _reflect_angle(ix, iy, pre, *hist[5:, idx, np.arange(live.size)], radii[live])

    x, y, events = _run_events(_START, n, t_max, step, turn, max_events, record)
    return x, y, events, recollisions


# ---------------------------------------------------------------------------
# Annealed first-collision sampling
# ---------------------------------------------------------------------------

class FirstCollision(_Record):
    """Outcome of shooting one particle into a fresh obstacle field."""

    time: float
    deflection: float  # nan when censored
    censored: bool


def _first_contacts(rng: np.random.Generator, lam: float, radius: float, m: int):
    """(gap, psi) of m first contacts in an empty plane, drawn from rng:
    the Exp(2 lam sinh r) gaps, then psi = arcsin U, U uniform on [-1, 1]."""
    gap = rng.exponential(1.0 / (2.0 * lam * math.sinh(radius)), m)
    return gap, np.arcsin(rng.uniform(-1.0, 1.0, m))


def _tube_hit(x0, y0, alpha0, t, psi, r):
    """(ix, iy, pre_alpha, cx, cy) of a hit at time t >= 0: the obstacle center
    lies at distance r from the impact point, at angle psi to the incoming
    direction."""
    ix, iy, pre_alpha = flow_ahead(x0, y0, alpha0, t)
    return (ix, iy, pre_alpha, *flow_xy(ix, iy, pre_alpha + psi, r))


def sample_first_collisions(
    lam: float,
    radius: float,
    horizon: float,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First collisions of ``size`` particles, each in its own fresh field.

    Returns (time, deflection, censored) arrays.  Conditioned on an empty
    ball of radius r around the start, the tube swept up to time t adds area
    2 t sinh r, so the free path is exactly Exp(2 lam sinh r).  The hit
    center crosses the tube front with flux cosh v dv in Fermi coordinates
    (s, v), so sinh v is uniform on [-sinh r, sinh r]; with sinh v =
    sinh r sin psi, psi being the angle at the impact point between the
    incoming direction and the center, sin psi is uniform on [-1, 1].  Free
    paths at or beyond ``horizon`` are censored at the horizon, deflection
    nan: a contact exactly at the horizon is none, as in :func:`simulate`.
    Neither law depends on where the hit happens, so the contact is placed
    at ``_START`` itself: flowing the free path first would only add the
    flow's rounding, which grows as e^t.  A radius where cosh r rounds to 1
    raises ValidationError (see :func:`_check_reflection`).
    """
    lam, radius = _positive("intensity", lam), _positive("obstacle radius", radius)
    if horizon != math.inf:  # +inf censors nothing
        horizon = _positive("horizon", horizon)
    size = _integer("size", size, 0)
    _check_reflection("sample_first_collisions", radius)
    free, psi = _first_contacts(rng, lam, radius, size)
    time, censored = np.minimum(free, horizon), free >= horizon
    ix, iy, pre, cx, cy = _tube_hit(_START.point.x, _START.point.y, _START.dir.alpha, 0.0, psi, radius)
    beta = _wrap(_reflect_angle(ix, iy, pre, cx, cy, radius) - pre)
    return time, np.where(censored, np.nan, beta), censored


def sample_first_collision(
    lam: float,
    radius: float,
    horizon: float,
    rng: np.random.Generator,
) -> FirstCollision:
    """First collision against a fresh Poisson field: one particle of
    :func:`sample_first_collisions`."""
    time, deflection, censored = sample_first_collisions(lam, radius, horizon, rng, 1)
    return FirstCollision(float(time[0]), float(deflection[0]), bool(censored[0]))
