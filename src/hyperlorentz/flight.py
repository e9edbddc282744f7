"""The limiting Markovian random flight.

A particle flows along geodesics at unit speed, waits an Exp(sigma) time
between turns, and at each turn rotates its direction by an independent
angle with density sin(beta/2)/4 on [0, 2*pi].  This is the scaling limit
of the billiard among small dense obstacles at fixed sigma = 2*lam*sinh(r),
and its one-time density solves the associated linear Boltzmann equation,
so simulating it doubles as solving that equation stochastically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .billiard import (
    DEFAULT_MAX_EVENTS,
    Trajectory,
    _run_events,
    _runaway,
    _trajectory,
    position_at,
)
# flow_xy is unused here but stays importable: perfbench/tracing.py patches it.
from .geometry import TWO_PI, State, flow_xy, hyp_distance  # noqa: F401

__all__ = ["FlightConfig", "sample_deflection", "simulate_flight", "flight_displacement"]


@dataclass(frozen=True)
class FlightConfig:
    """Collision rate and time horizon of a random flight."""

    sigma: float
    horizon: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError(f"collision rate must be positive, got {self.sigma}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def sample_deflection(rng: np.random.Generator, size: int | None = None):
    """Draw deflection angles with density sin(beta/2)/4 on [0, 2*pi].

    Exact inversion of the CDF sin^2(beta/4): beta = 4*arcsin(sqrt(U)).
    """
    return _deflection(rng.random(size))


def _deflection(u):
    return 4.0 * np.arcsin(np.sqrt(u))


def _draw_turns(rng: np.random.Generator, cfg: FlightConfig, max_events: int):
    """The draws of one path, in the order it makes them: a gap, then, while
    the path is inside the horizon, a deflection's uniform and the next gap.

    Returns (gaps, uniforms) lists; a path with more than ``max_events``
    turns raises :class:`RunawayError` after its last gap.
    """
    scale = 1.0 / cfg.sigma
    gaps, us = [rng.exponential(scale)], []
    t = 0.0
    while t + gaps[-1] < cfg.horizon:
        if len(us) >= max_events:
            raise _runaway(max_events)
        t += gaps[-1]
        us.append(rng.random())
        gaps.append(rng.exponential(scale))
    return gaps, us


def _replay(draws):
    """The flight's step and turn for the paths of the given draws: round k
    takes gap k and deflection k of each live path."""
    gaps = _padded([gs for gs, _ in draws])
    betas = _deflection(_padded([us for _, us in draws]))
    k = 0  # turns so far, the same for every live path

    def step(live, x, y, alpha, t_left, last):
        return gaps[k, live], last

    def turn(live, ix, iy, pre, idx):
        nonlocal k
        post = (pre + betas[k, live]) % TWO_PI
        k += 1
        return post

    return step, turn


def _padded(lists):
    """The lists as the columns of one array, padded with zeros."""
    out = np.zeros((max(map(len, lists)), len(lists)))
    for j, v in enumerate(lists):
        out[: len(v), j] = v
    return out


def simulate_flight(
    s0: State,
    cfg: FlightConfig,
    rng: np.random.Generator,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Sample one random-flight path up to the horizon.

    Exp(sigma) gaps and :func:`sample_deflection` turns, drawn in that
    order; turn events carry obstacle index -1.  A run of
    :func:`_flight_ends` with one generator, recorded.
    """
    step, turn = _replay([_draw_turns(rng, cfg, max_events)])
    record: list = []
    _run_events(s0, 1, cfg.horizon, step, turn, max_events, record)
    return _trajectory(s0, cfg.horizon, record)


def _flight_ends(
    s0: State,
    cfg: FlightConfig,
    rngs: Sequence[np.random.Generator],
    max_events: int = DEFAULT_MAX_EVENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One flight per generator from s0, advanced together.

    Returns (x, y, events) arrays: the position at the horizon and the
    number of turns of each path, bit for bit those of
    :func:`simulate_flight` with the same generator.
    """
    step, turn = _replay([_draw_turns(rng, cfg, max_events) for rng in rngs])
    return _run_events(s0, len(rngs), cfg.horizon, step, turn, max_events)


def flight_displacement(traj: Trajectory, t: float) -> float:
    """Hyperbolic distance from the start to the position at time t."""
    return hyp_distance(traj.initial.point, position_at(traj, t).point)
