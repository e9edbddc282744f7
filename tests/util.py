"""Shared helpers for the test suite."""

import math

import numpy as np

from hyperlorentz import Direction, MobiusMap, Point, State, mobius_compose


def random_point(rng: np.random.Generator) -> Point:
    return Point(float(rng.uniform(-3.0, 3.0)), float(np.exp(rng.uniform(-2.0, 2.0))))


def random_state(rng: np.random.Generator) -> State:
    return State(random_point(rng), Direction(float(rng.uniform(0.0, 2.0 * math.pi))))


def random_mobius(rng: np.random.Generator) -> MobiusMap:
    """A generic isometry: translation . dilation . rotation about (0, 1)."""
    h = float(rng.uniform(0.0, math.pi))
    rot = MobiusMap(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))
    s = float(np.exp(rng.uniform(-1.0, 1.0)))
    dil = MobiusMap(math.sqrt(s), 0.0, 0.0, 1.0 / math.sqrt(s))
    b = float(rng.uniform(-2.0, 2.0))
    tra = MobiusMap(1.0, b, 0.0, 1.0)
    return mobius_compose(tra, mobius_compose(dil, rot))


def angle_diff(a: float, b: float) -> float:
    """Smallest absolute difference between two angles."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def fingerprint(columns, rngs) -> tuple[list, list]:
    """reprs of the finite sum, first and last entry of each column, and of
    each generator's next uniform draw, which tells its state apart."""
    sums = []
    for col in map(np.asarray, columns):
        finite = col[np.isfinite(col)]
        sums.append([repr(float(v)) for v in (finite.sum(), col[0], col[-1])])
    return sums, [repr(float(rng.random())) for rng in rngs]
