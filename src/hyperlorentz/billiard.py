"""The Lorentz process: geodesic motion among reflecting disk obstacles.

Collision times are solved exactly: the obstacle center is transported by
the isometry that maps the current state onto the upward vertical geodesic
through (0, 1), where the contact condition

    (x^2 + e^{2u} + y^2) / (2 e^u y) = cosh r

is a quadratic in e^u.  Reflection is the Euclidean mirror across the
tangent of the obstacle's Euclidean realization, which is specular in the
hyperbolic sense because half-plane angles agree with Euclidean angles.

Trajectories are piecewise geodesics, right-continuous in direction at
collision times.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import RegionTooSmallError, RunawayError
from .geometry import (
    SLICE,
    TWO_PI,
    Direction,
    Point,
    State,
    ball_area,
    distance_xy,
    flow_ahead,
    flow_angle,
    flow_xy,
    hyp_distance,
    mobius_xy,
    normalizing_coeffs,
)
# sample_annulus is unused here but stays importable: perfbench/tracing.py patches it.
from .obstacles import BallRegion, ObstacleField, _FieldBatch, sample_annulus  # noqa: F401

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

#: Quadratic discriminants below this are treated as tangencies, i.e. no hit.
DISC_TOL = 1e-12

DEFAULT_MAX_EVENTS = 10**6


@dataclass(frozen=True)
class Obstacle:
    """A reflecting disk: hyperbolic center and hyperbolic radius."""

    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CollisionEvent:
    """One reflection: when, where, and how the direction turned."""

    time: float
    impact_point: Point
    pre_dir: Direction
    post_dir: Direction
    deflection: float
    obstacle_index: int

    def __post_init__(self):
        if self.time <= 0.0:
            raise ValueError(f"collision time must be positive, got {self.time}")
        object.__setattr__(self, "deflection", self.deflection % TWO_PI)


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-geodesic path: initial state plus ordered collisions."""

    initial: State
    horizon: float
    events: tuple[CollisionEvent, ...]

    def __post_init__(self):
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "events", tuple(self.events))
        times = [e.time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("collision times must be strictly increasing")
        if times and times[-1] >= self.horizon:
            raise ValueError("collision times must lie strictly before the horizon")


# ---------------------------------------------------------------------------
# Exact collision solving
# ---------------------------------------------------------------------------

def _hit_times(a, b, c, d, cx, cy, cosh_r) -> np.ndarray:
    """Forward hit times against disk centers from the state that the Mobius
    map (a, b, c, d) of :func:`normalizing_coeffs` takes to ((0, 1), pi/2).

    Returns +inf where the trajectory misses (no real quadratic root
    strictly ahead of the particle, or a tangency).
    """
    tx, ty = mobius_xy(a, b, c, d, cx, cy)
    p = ty * cosh_r
    disc = p * p - (tx * tx + ty * ty)
    ok = disc >= DISC_TOL
    sq = np.sqrt(np.where(ok, disc, 0.0))
    w_lo = p - sq  # roots are real and positive: their product is |center|^2 > 0
    w = np.where(w_lo > 1.0, w_lo, p + sq)
    ok &= w > 1.0
    out = np.full(np.shape(w), np.inf)
    np.log(w, out=out, where=ok)
    return out


def _reflect_angle(ix, iy, alpha_in, cx, cy, radius):
    """Mirror the direction angle across the obstacle tangent at (ix, iy)."""
    ny = iy - cy * np.cosh(radius)
    nx = ix - cx
    norm = np.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    vx, vy = np.cos(alpha_in), np.sin(alpha_in)
    dot = vx * nx + vy * ny
    return np.arctan2(vy - 2.0 * dot * ny, vx - 2.0 * dot * nx) % TWO_PI


def first_hit(s: State, ob: Obstacle) -> float | None:
    """Time of the first contact with a single obstacle, or None if missed.

    The state must start strictly outside the obstacle.
    """
    if hyp_distance(s.point, ob.center) <= ob.radius + 1e-9:
        raise ValueError("first_hit requires a state strictly outside the obstacle")
    t = _hit_times(
        *normalizing_coeffs(s.point.x, s.point.y, s.dir.alpha),
        np.array([ob.center.x]),
        np.array([ob.center.y]),
        math.cosh(ob.radius),
    )[0]
    return float(t) if math.isfinite(t) else None


def reflect(impact: Point, incoming: Direction, ob: Obstacle) -> Direction:
    """Specular reflection of the incoming direction at a boundary point."""
    if abs(hyp_distance(impact, ob.center) - ob.radius) > 1e-8:
        raise ValueError("impact point does not lie on the obstacle boundary")
    return Direction(
        float(_reflect_angle(impact.x, impact.y, incoming.alpha, ob.center.x, ob.center.y, ob.radius))
    )


def tube_area(t: float, r: float) -> float:
    """Hyperbolic area swept by a disk of radius r moved along a geodesic
    segment of length t: 4*pi*sinh^2(r/2) + 2*t*sinh(r)."""
    if t < 0.0:
        raise ValueError(f"segment length must be nonnegative, got {t}")
    if r <= 0.0:
        raise ValueError(f"tube radius must be positive, got {r}")
    return ball_area(r) + 2.0 * t * math.sinh(r)


# ---------------------------------------------------------------------------
# Event-driven simulation
# ---------------------------------------------------------------------------

def _check_start(s0: State, cx, cy, radius: float, region: BallRegion, t_max: float):
    if t_max <= 0.0:
        raise ValueError(f"horizon must be positive, got {t_max}")
    needed = hyp_distance(s0.point, region.center) + t_max + radius
    if region.outer < needed - 1e-9:
        raise RegionTooSmallError(
            f"field region (outer {region.outer:g}) cannot cover horizon "
            f"{t_max:g} plus obstacle radius {radius:g}"
        )
    if len(cx):
        d = distance_xy(cx, cy, s0.point.x, s0.point.y)
        if np.any(d <= radius):
            raise ValueError("initial point lies inside (or on) an obstacle")


def _runaway(max_events: int) -> RunawayError:
    return RunawayError(f"exceeded {max_events} events before the horizon")


def _run_events(s0: State, n: int, horizon: float, step, turn, max_events: int, record=None):
    """The event loop shared by the billiard and the random flight: n
    replicas start from s0 and advance together, one turn per round.

    Each round, ``step(live, x, y, alpha, t_left, last)`` gives the free
    flight time of each live replica to its next turn and the obstacle index
    it turns at; ``live`` lists the live replicas in increasing order and
    the other arrays their states, time left and previous obstacle (-1 at
    the start).  A replica whose next turn falls at or beyond the horizon
    stops.  The others flow to their turns and take the direction
    ``turn(live, ix, iy, pre, idx)`` gives.  A replica is live in a round
    only if it turned in every round before, so all live replicas have
    turned as many times as there have been rounds.  If ``record`` is a
    list, each round appends the arrays (live, time, ix, iy, pre, post, idx)
    of the replicas that turned.

    Returns (x, y, events): each replica's position at the horizon and its
    number of turns.  Every array operation acts elementwise, so a replica
    follows the same path, bit for bit, whatever else is in the batch.
    """
    live = np.arange(n)
    x = np.full(n, s0.point.x)
    y = np.full(n, s0.point.y)
    alpha = np.full(n, s0.dir.alpha)
    t_now = np.zeros(n)
    last = np.full(n, -1)
    end = np.empty((4, n))  # x, y, alpha and time of each replica's last turn
    events = np.empty(n, dtype=np.int64)
    rounds = 0
    while True:
        gap, idx = step(live, x, y, alpha, horizon - t_now, last)
        go = t_now + gap < horizon
        if not go.all():
            halt = ~go
            end[:, live[halt]] = x[halt], y[halt], alpha[halt], t_now[halt]
            events[live[halt]] = rounds
            state = (live, x, y, alpha, t_now, gap, idx)
            live, x, y, alpha, t_now, gap, idx = (v[go] for v in state)
            if not live.size:
                break
        if rounds >= max_events:
            raise _runaway(max_events)
        ix, iy, pre = flow_ahead(x, y, alpha, gap)
        post = turn(live, ix, iy, pre, idx)
        x, y, alpha, t_now, last = ix, iy, post, t_now + gap, idx
        rounds += 1
        if record is not None:
            record.append((live, t_now, ix, iy, pre, post, idx))
    x, y, alpha, t_now = end
    alpha[alpha >= TWO_PI] = 0.0  # as Direction stores an angle that rounds up to 2*pi
    return (*flow_xy(x, y, alpha, horizon - t_now), events)


def _trajectory(s0: State, horizon: float, record) -> Trajectory:
    """Box the record of a one-replica :func:`_run_events` run."""
    rounds = zip(*(np.concatenate(col).tolist() for col in zip(*record))) if record else ()
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


def _billiard(cx, cy, counts, radius: float):
    """The billiard's step and turn for len(counts) replicas, whose obstacle
    centers (cx, cy) come grouped by replica, counts[i] for replica i, plus
    the per-replica recollision counts that turn fills in.

    The step keeps a candidate set per replica, pruned by the necessary
    condition d(current, center) <= remaining + r.  Between steps the
    distance to a center falls by at most the time flown, so a pruned
    obstacle stays pruned and the set is carried instead of rebuilt; it is
    copied down to its survivors once a step prunes a quarter of it.  The
    obstacle just left is excluded exactly, with no tolerance window: a
    geodesic meets a convex hyperbolic disk in one segment, so after an
    outward reflection it cannot hit that disk again next, and any root the
    solver finds for it is rounding.  Each replica takes its smallest exact
    hit time, the first candidate on ties.
    """
    cosh_r = math.cosh(radius)
    # Candidates in increasing order, so grouped by replica: those of the
    # k-th live replica end at cand[ends[k] - 1]; (ccx, ccy) are their centers.
    cand, ccx, ccy = np.arange(len(cx)), cx, cy
    ends = np.cumsum(counts)
    was_live = np.arange(len(counts))
    seen = np.zeros(len(cx), dtype=bool)
    recollisions = np.zeros(len(counts), dtype=np.int64)

    def step(live, x, y, alpha, t_left, last):
        nonlocal cand, ccx, ccy, ends, was_live
        lens = _lengths(ends)
        if live.size < was_live.size:  # drop the candidates of replicas that stopped
            stays = np.isin(was_live, live, assume_unique=True)
            cand, ccx, ccy, ends = _subset(stays.repeat(lens).nonzero()[0], cand, ccx, ccy, ends)
            lens, ends, was_live = lens[stays], ends[stays], live
        cosh_d = ((_spread(x, lens) - ccx) ** 2 + _spread(y * y, lens) + ccy * ccy) / (
            _spread(2.0 * y, lens) * ccy
        )
        keep = cosh_d <= _spread(np.cosh(t_left + radius), lens)
        if np.count_nonzero(keep) < 0.75 * keep.size:  # enough pruned to pay for a copy
            cand, ccx, ccy, ends = _subset(keep.nonzero()[0], cand, ccx, ccy, ends)
            keep = np.ones(cand.size, dtype=bool)
        keep[cand.searchsorted(last[last >= 0])] = False  # the obstacle just left
        ob, sx, sy, solve_ends = _subset(keep.nonzero()[0], cand, ccx, ccy, ends)

        lens = _lengths(solve_ends)
        coeffs = [_spread(v, lens) for v in normalizing_coeffs(x, y, alpha)]
        th = np.empty(ob.size)
        for k in range(0, ob.size, SLICE):
            part = slice(k, k + SLICE)
            abcd = (v if v.size == 1 else v[part] for v in coeffs)
            th[part] = _hit_times(*abcd, sx[part], sy[part], cosh_r)
        gap = np.full(live.size, np.inf)
        idx = np.full(live.size, -1)
        if ob.size:
            some = lens > 0
            heads = (solve_ends - lens)[some]
            best = np.minimum.reduceat(th, heads)
            ties = (th == best.repeat(lens[some])).nonzero()[0]
            gap[some], idx[some] = best, ob[ties[ties.searchsorted(heads)]]
        return gap, idx

    def turn(live, ix, iy, pre, idx):
        recollisions[live] += seen[idx]
        seen[idx] = True
        return _reflect_angle(ix, iy, pre, cx[idx], cy[idx], radius)

    return step, turn, recollisions


def _lengths(ends):
    """Lengths of consecutive runs that end at the given offsets."""
    return ends - np.concatenate(([0], ends[:-1]))


def _spread(v, lens):
    """Entry k of the per-replica array v, lens[k] times over; the entry of
    a lone replica is left to broadcast."""
    return v if lens.size == 1 else v.repeat(lens)


def _subset(sel, cand, ccx, ccy, ends):
    """The candidates at the sorted positions sel, and the ends of their runs."""
    return cand[sel], ccx[sel], ccy[sel], sel.searchsorted(ends)


def simulate(
    s0: State,
    field: ObstacleField,
    t_max: float,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Run the billiard among a fixed obstacle configuration up to t_max.

    Event-driven: repeatedly take the minimum positive exact hit time over
    the candidate obstacles, advance, reflect, and record.  Recollisions
    with any obstacle are allowed; the obstacle just left is never the next
    one hit.  A run of :func:`_simulate_batch` with one replica, recorded.
    """
    cx, cy = field.centers[:, 0], field.centers[:, 1]
    _check_start(s0, cx, cy, field.radius, field.region, t_max)
    step, turn, _ = _billiard(cx, cy, [len(cx)], field.radius)
    record: list = []
    _run_events(s0, 1, t_max, step, turn, max_events, record)
    return _trajectory(s0, t_max, record)


def _simulate_batch(
    s0: State,
    fields: _FieldBatch,
    t_max: float,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one billiard per field of the batch from s0 up to t_max, together.

    Returns (x, y, events, recollisions) arrays, one entry per field: the
    position at t_max, the number of collisions and the number of
    recollisions.  Each is what :func:`simulate` on that field alone gives,
    bit for bit.
    """
    cx, cy = fields.x, fields.y
    _check_start(s0, cx, cy, fields.radius, fields.region, t_max)
    step, turn, recollisions = _billiard(cx, cy, fields.counts, fields.radius)
    x, y, events = _run_events(s0, len(fields.counts), t_max, step, turn, max_events)
    return x, y, events, recollisions


def free_path(s0: State, field: ObstacleField, t_max: float) -> tuple[float, bool]:
    """Time of the first collision, or (t_max, True) if none before t_max."""
    cx, cy = field.centers[:, 0], field.centers[:, 1]
    _check_start(s0, cx, cy, field.radius, field.region, t_max)
    if len(field) == 0:
        return t_max, True
    th = _hit_times(
        *normalizing_coeffs(s0.point.x, s0.point.y, s0.dir.alpha),
        cx,
        cy,
        math.cosh(field.radius),
    )
    t = float(th.min())
    if t <= t_max:
        return t, False
    return t_max, True


def position_at(traj: Trajectory, t: float) -> State:
    """State at time t along the trajectory (right-continuous at events)."""
    if not 0.0 <= t <= traj.horizon:
        raise ValueError(f"time {t} outside [0, {traj.horizon}]")
    times = [e.time for e in traj.events]
    k = bisect_right(times, t)
    if k == 0:
        base, t0 = traj.initial, 0.0
    else:
        ev = traj.events[k - 1]
        base, t0 = State(ev.impact_point, ev.post_dir), ev.time
    x, y = flow_xy(base.point.x, base.point.y, base.dir.alpha, t - t0)
    return State(Point(float(x), float(y)), Direction(float(flow_angle(base.dir.alpha, t - t0))))


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
# Annealed first-collision sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstCollision:
    """Outcome of shooting one particle into a fresh obstacle field."""

    time: float
    deflection: float  # nan when censored
    censored: bool


def _tube_hit(x0, y0, alpha0, t, psi, r):
    """(ix, iy, pre_alpha, cx, cy) of a hit at time t: the obstacle center lies
    at distance r from the impact point, at angle psi to the incoming direction."""
    ix, iy = flow_xy(x0, y0, alpha0, t)
    pre_alpha = flow_angle(alpha0, t)
    return (ix, iy, pre_alpha, *flow_xy(ix, iy, pre_alpha + psi, r))


def sample_first_collisions(
    lam: float,
    radius: float,
    horizon: float,
    rng: np.random.Generator,
    size: int,
    start: State | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First collisions of ``size`` particles, each in its own fresh field.

    Returns (time, deflection, censored) arrays.  Conditioned on an empty
    ball of radius r around the start, the tube swept up to time t adds area
    2 t sinh r, so the free path is exactly Exp(2 lam sinh r).  The hit
    center crosses the tube front with flux cosh v dv in Fermi coordinates
    (s, v), so sinh v is uniform on [-sinh r, sinh r]; with sinh v =
    sinh r sin psi, psi being the angle at the impact point between the
    incoming direction and the center, sin psi is uniform on [-1, 1].  Free
    paths beyond ``horizon`` are censored at the horizon, deflection nan.
    """
    if start is None:
        start = State(Point(0.0, 1.0), Direction(0.5 * math.pi))
    free = rng.exponential(1.0 / (2.0 * lam * math.sinh(radius)), size)
    psi = np.arcsin(rng.uniform(-1.0, 1.0, size))
    time, censored = np.minimum(free, horizon), free > horizon
    ix, iy, pre, cx, cy = _tube_hit(start.point.x, start.point.y, start.dir.alpha, time, psi, radius)
    beta = (_reflect_angle(ix, iy, pre, cx, cy, radius) - pre) % TWO_PI
    return time, np.where(censored, np.nan, beta), censored


def sample_first_collision(
    lam: float,
    radius: float,
    horizon: float,
    rng: np.random.Generator,
    start: State | None = None,
) -> FirstCollision:
    """First collision against a fresh Poisson field: one particle of
    :func:`sample_first_collisions`."""
    time, deflection, censored = sample_first_collisions(lam, radius, horizon, rng, 1, start)
    return FirstCollision(float(time[0]), float(deflection[0]), bool(censored[0]))
