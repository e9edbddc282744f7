"""Homogeneous Poisson point fields on the half-plane.

Uniform means uniform with respect to hyperbolic area dx dy / y^2.  Points
are drawn in geodesic polar coordinates around a region center: the radial
distance is inverted exactly from its CDF sinh^2(eta/2) / sinh^2(R/2) and
the polar angle is uniform, so sampling is exact and rejection-free.
Annuli are sampled the same way, which realizes conditioning on an empty
exclusion ball exactly (Poisson counts over disjoint sets are independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InfeasibleFieldError
from .geometry import SLICE, Point, ball_area, distance_xy, flow_xy

__all__ = [
    "BallRegion",
    "ObstacleField",
    "PotentialProfile",
    "sample_uniform_in_ball",
    "sample_annulus",
    "sample_field",
    "nearest_neighbor_tail",
    "expected_T1",
    "shot_noise",
]

#: Refuse to sample fields whose expected point count exceeds this.
DEFAULT_COUNT_CAP = 10**8

#: _sample_fields groups consecutive fields up to this many points (a larger
#: field goes alone), which bounds the memory of a batch run on the group.
_GROUP_POINTS = 16_384

# Centers of transported fields may land on the region boundary up to rounding.
_REGION_TOL = 1e-9


@dataclass(frozen=True)
class BallRegion:
    """Sampling region: a ball (or annulus, if exclusion > 0) around a center."""

    center: Point
    outer: float
    exclusion: float = 0.0

    def __post_init__(self):
        if not (self.outer > 0.0 and math.isfinite(self.outer)):
            raise ValueError(f"outer radius must be positive, got {self.outer}")
        if not (0.0 <= self.exclusion < self.outer):
            raise ValueError(
                f"exclusion radius must satisfy 0 <= exclusion < outer, got {self.exclusion}"
            )

    @property
    def area(self) -> float:
        return ball_area(self.outer) - ball_area(self.exclusion)


@dataclass(frozen=True)
class ObstacleField:
    """A sampled Poisson configuration of disk centers with common radius.

    ``centers`` is an (n, 2) array of half-plane coordinates, ordered as
    drawn.  The field is immutable after sampling.
    """

    centers: np.ndarray
    radius: float
    intensity: float
    region: BallRegion

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.size == 0:
            centers = centers.reshape(0, 2)
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ValueError(f"centers must be an (n, 2) array, got shape {centers.shape}")
        object.__setattr__(self, "centers", centers)
        if not (self.radius > 0.0):
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")
        if not (self.intensity > 0.0):
            raise ValueError(f"intensity must be positive, got {self.intensity}")
        _check_in_region(centers[:, 0], centers[:, 1], self.region)

    def __len__(self) -> int:
        return len(self.centers)


def _check_in_region(x, y, region: BallRegion) -> None:
    if len(x):
        d = distance_xy(x, y, region.center.x, region.center.y)
        if np.any(d <= region.exclusion - _REGION_TOL) or np.any(d > region.outer + _REGION_TOL):
            raise ValueError("field has centers outside its sampling region")


@dataclass(frozen=True)
class PotentialProfile:
    """A compactly supported interaction profile phi(eta).

    phi must be nonnegative and vanish beyond the support radius; both are
    spot-checked on construction.
    """

    support_radius: float
    values: Callable[[float], float]

    def __post_init__(self):
        if not (self.support_radius > 0.0):
            raise ValueError(f"support radius must be positive, got {self.support_radius}")
        for frac in (0.1, 0.5, 0.9):
            if self.values(frac * self.support_radius) < 0.0:
                raise ValueError("profile takes a negative value inside its support")
        for mult in (1.001, 1.5, 4.0, 32.0):
            if self.values(mult * self.support_radius) != 0.0:
                raise ValueError("profile does not vanish beyond its support radius")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _radius_from_uniform(u, lo: float, hi: float):
    """Invert the radial CDF on an annulus lo < eta <= hi.

    With s(eta) = sinh(eta/2), a radius uniform in hyperbolic area satisfies
    U = (s(eta)^2 - s(lo)^2) / (s(hi)^2 - s(lo)^2).
    """
    s_lo = math.sinh(0.5 * lo) ** 2
    s_hi = math.sinh(0.5 * hi) ** 2
    return 2.0 * np.arcsinh(np.sqrt(s_lo + u * (s_hi - s_lo)))


def sample_annulus(
    center: Point, lo: float, hi: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` points uniform w.r.t. hyperbolic area in an annulus.

    Returns an (size, 2) coordinate array.  Each point is realized by
    flowing from the center along a uniformly random direction for the
    inverted radial distance, which is exact in polar geodesic coordinates.
    """
    eta = _radius_from_uniform(rng.random(size), lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    x, y = flow_xy(center.x, center.y, phi, eta)
    return np.column_stack((x, y))


def sample_uniform_in_ball(
    center: Point, R: float, rng: np.random.Generator, size: int | None = None
):
    """Draw a point (or ``size`` points) uniform w.r.t. hyperbolic area in B_R.

    Returns a Point when size is None, else an (size, 2) array.
    """
    if not (R > 0.0):
        raise ValueError(f"ball radius must be positive, got {R}")
    pts = sample_annulus(center, 0.0, R, rng, 1 if size is None else size)
    if size is None:
        return Point(float(pts[0, 0]), float(pts[0, 1]))
    return pts


def sample_field(
    lam: float,
    center: Point,
    R: float,
    exclusion: float,
    rng: np.random.Generator,
    radius: float | None = None,
    count_cap: float = DEFAULT_COUNT_CAP,
) -> ObstacleField:
    """Sample a homogeneous Poisson field of intensity lam on an annulus.

    The count is Poisson(lam * annulus area) and positions are i.i.d.
    uniform in hyperbolic area; sampling only the annulus realizes the
    conditioning on an empty exclusion ball exactly.  ``radius`` is the
    common obstacle radius recorded on the field; it defaults to the
    exclusion radius, the standard choice for billiard runs.
    """
    if radius is None:
        if exclusion <= 0.0:
            raise ValueError("an obstacle radius is required when sampling with no exclusion")
        radius = exclusion
    if not (radius > 0.0):
        raise ValueError(f"obstacle radius must be positive, got {radius}")
    region = BallRegion(center, R, exclusion)
    ((x, y, _),) = _sample_fields(lam, region, [rng], count_cap)
    return ObstacleField(np.column_stack((x, y)), radius, lam, region)


def _sample_fields(
    lam: float,
    region: BallRegion,
    rngs: Iterable[np.random.Generator],
    count_cap: float = DEFAULT_COUNT_CAP,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sample the centers of one field of :func:`sample_field` from each
    generator, in order, making the draws ``sample_field`` makes.

    Consecutive fields come in batches (x, y, counts) of at most
    ``_GROUP_POINTS`` points, field i's centers being the next ``counts[i]``
    entries of (x, y); a larger field comes alone.
    """
    if not (lam > 0.0):
        raise ValueError(f"intensity must be positive, got {lam}")
    expected = lam * region.area
    if expected > count_cap:
        raise InfeasibleFieldError(
            f"expected obstacle count {expected:.3g} exceeds cap {count_cap:.3g}"
        )

    def batch(us, phis):
        # All fields' points at once, a slice at a time, as sample_annulus places them.
        u, phi = np.concatenate(us), np.concatenate(phis)
        x, y = np.empty(u.size), np.empty(u.size)
        for k in range(0, u.size, SLICE):
            part = slice(k, k + SLICE)
            eta = _radius_from_uniform(u[part], region.exclusion, region.outer)
            x[part], y[part] = flow_xy(region.center.x, region.center.y, phi[part], eta)
            _check_in_region(x[part], y[part], region)
        return x, y, np.array(list(map(len, us)))

    us: list[np.ndarray] = []
    phis: list[np.ndarray] = []
    points = 0
    for rng in rngs:
        n = int(rng.poisson(expected))
        if us and points + n > _GROUP_POINTS:
            done = batch(us, phis)
            us, phis, points = [], [], 0
            yield done
        us.append(rng.random(n))
        phis.append(rng.uniform(0.0, 2.0 * math.pi, n))
        points += n
    if us:
        yield batch(us, phis)


# ---------------------------------------------------------------------------
# Closed-form laws
# ---------------------------------------------------------------------------

def nearest_neighbor_tail(eta, lam: float, k: int = 1):
    """Pr(distance to the k-th nearest field point > eta).

    Equals the Poisson CDF at k-1 with mean 4*pi*lam*sinh^2(eta/2), i.e.
    sum_{j<k} e^{-mu} mu^j / j!, evaluated through the regularized upper
    incomplete gamma function for numerical stability.  scipy is imported
    here, not with the package, whose other users do not need it.
    """
    from scipy import special

    if lam <= 0.0:
        raise ValueError(f"intensity must be positive, got {lam}")
    if k < 1:
        raise ValueError(f"neighbor order must be >= 1, got {k}")
    mu = 4.0 * math.pi * lam * np.sinh(np.asarray(eta, dtype=float) / 2.0) ** 2
    out = special.gammaincc(k, mu)
    return float(out) if np.isscalar(eta) else out


def expected_T1(lam: float) -> float:
    """Mean distance to the nearest field point: e^{2 pi lam} K0(2 pi lam).

    This is int_0^inf exp(-2 pi lam (cosh t - 1)) dt, evaluated as the
    exponentially scaled Bessel function k0e, which cannot overflow.
    """
    from scipy import special

    if lam <= 0.0:
        raise ValueError(f"intensity must be positive, got {lam}")
    return float(special.k0e(2.0 * math.pi * lam))


def shot_noise(
    points: Sequence[Point] | np.ndarray | Iterable[Point],
    profile: PotentialProfile,
    q: Point,
) -> float:
    """Superpose the profile over field points as seen from q.

    Only points within the support radius of q contribute.
    """
    if isinstance(points, np.ndarray):
        coords = points.reshape(-1, 2)
    else:
        coords = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    if len(coords) == 0:
        return 0.0
    d = distance_xy(coords[:, 0], coords[:, 1], q.x, q.y)
    d = d[d <= profile.support_radius]
    return float(sum(profile.values(float(eta)) for eta in d))
