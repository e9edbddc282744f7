"""The limiting Markovian random flight.

A particle flows along geodesics at unit speed, waits an Exp(sigma) time
between turns, and at each turn rotates its direction by an independent
angle with density sin(beta/2)/4 on [0, 2*pi].  This is the scaling limit
of the billiard among small dense obstacles at fixed sigma = 2*lam*sinh(r),
and its one-time density solves the associated linear Boltzmann equation,
so simulating it doubles as solving that equation stochastically.

Blocks of flights draw by the billiard's per-block rule, so a block of
paths ends where it ends alone.
"""

from __future__ import annotations

import numpy as np

from .billiard import (
    DEFAULT_MAX_EVENTS,
    _START,
    Trajectory,
    _block_draws,
    _run_events,
    _trajectory,
    position_at,
)
from .errors import _integer, _positive
# flow_xy is unused here but stays importable: perfbench/tracing.py patches it.
from .geometry import State, _Record, _wrap, flow_xy, hyp_distance  # noqa: F401

__all__ = ["FlightConfig", "sample_deflection", "simulate_flight", "flight_displacement"]


class FlightConfig(_Record):
    """Collision rate and time horizon of a random flight."""

    sigma: float
    horizon: float

    def __post_init__(self):
        sigma, horizon = _positive("collision rate", self.sigma), _positive("horizon", self.horizon)
        self.__dict__.update(sigma=sigma, horizon=horizon)


def sample_deflection(rng: np.random.Generator, size: int | None = None):
    """Draw deflection angles with density sin(beta/2)/4 on [0, 2*pi].

    Exact inversion of the CDF sin^2(beta/4): beta = 4*arcsin(sqrt(U)).
    """
    if size is not None:
        size = _integer("size", size, 0)
    return _deflection(rng.random(size))


def _deflection(u):
    return 4.0 * np.arcsin(np.sqrt(u))


def simulate_flight(
    s0: State,
    cfg: FlightConfig,
    rng: np.random.Generator,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Sample one random-flight path up to the horizon.

    Exp(sigma) gaps and :func:`sample_deflection` turns, drawn alternately
    from rng, a gap first; turn events carry obstacle index -1.  A recorded
    run of :func:`_flight_ends` on one block of one path; a path of more
    than ``max_events`` turns, an integer >= 0, raises RunawayError.
    """
    record: list = []
    _flight_ends([(rng, 1)], cfg, _integer("max_events", max_events, 0), record, s0)
    return _trajectory(s0, cfg.horizon, record)


def _flight_ends(blocks, cfg: FlightConfig, max_events: int = DEFAULT_MAX_EVENTS, record=None, s0=_START):
    """Flights from s0 in blocks (rng, n) of n paths that draw from rng,
    advanced together: bg-convergence's flight kernel, and with one recorded
    block of one path :func:`simulate_flight`.  ``record`` is passed to
    :func:`_run_events`.

    Returns (x, y, events) arrays over the blocks' paths in order: the
    position at the horizon and the number of turns of each path.  Each
    round, by the rule of :func:`_block_draws`, every block draws an
    Exp(sigma) gap for each of its live paths, then a deflection's uniform
    for each that turns.  So a path's draws are a gap, then, while it is
    inside the horizon, a uniform and the next gap: every path ends, bit for
    bit, where it ends when its block runs alone, and leaves its generator
    in the same state.
    """
    rngs, sizes = zip(*blocks)
    block = np.repeat(np.arange(len(rngs)), sizes)
    scale = 1.0 / cfg.sigma

    def step(live, x, y, alpha, t_left, last):
        (gap,) = _block_draws(block, live, len(rngs), lambda k, m: (rngs[k].exponential(scale, m),))
        return gap, last

    def turn(live, ix, iy, pre, idx, went):
        (u,) = _block_draws(block, live, len(rngs), lambda k, m: (rngs[k].random(m),))
        return _wrap(pre + _deflection(u))

    return _run_events(s0, block.size, cfg.horizon, step, turn, max_events, record)


def flight_displacement(traj: Trajectory, t: float) -> float:
    """Hyperbolic distance from the start to the position at time t."""
    return hyp_distance(traj.initial.point, position_at(traj, t).point)
