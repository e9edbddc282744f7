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

import numpy as np

from .billiard import DEFAULT_MAX_EVENTS, Trajectory, _run_events, position_at
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
    u = rng.random(size)
    return 4.0 * np.arcsin(np.sqrt(u))


def simulate_flight(
    s0: State,
    cfg: FlightConfig,
    rng: np.random.Generator,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Sample one random-flight path up to the horizon.

    Runs the billiard's event loop with an Exp(sigma) gap and a
    :func:`sample_deflection` turn, drawn in that order; turn events carry
    obstacle index -1.
    """

    def step(x, y, alpha, t_left, last):
        return rng.exponential(1.0 / cfg.sigma), -1

    def turn(ix, iy, pre, idx):
        return (pre + float(sample_deflection(rng))) % TWO_PI

    return _run_events(s0, cfg.horizon, step, turn, max_events)


def flight_displacement(traj: Trajectory, t: float) -> float:
    """Hyperbolic distance from the start to the position at time t."""
    return hyp_distance(traj.initial.point, position_at(traj, t).point)
