"""Homogeneous Poisson point fields on the half-plane.

Uniform means uniform with respect to hyperbolic area dx dy / y^2.  Points
are drawn in geodesic polar coordinates around a region center: the radial
distance is inverted exactly from its CDF sinh^2(eta/2) / sinh^2(R/2) and
the polar angle is uniform, so sampling is exact and rejection-free.
Annuli are sampled the same way, which realizes conditioning on an empty
exclusion ball exactly (Poisson counts over disjoint sets are independent).
:func:`sample_annulus` places every point the package samples, and a field
is a Poisson count of its points.  A field of more than ``COUNT_CAP``
expected points is refused.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InfeasibleFieldError, ValidationError, _integer, _positive, _real
from .geometry import Point, _points, _Record, _check_reach, _sinh, ball_area, distance_xy, flow_xy

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
COUNT_CAP = 10**8

#: sample_annulus places points in slices of at most this many, which bounds
#: the memory its temporaries take.
SLICE = 4096

# Centers of transported fields may land on the region boundary up to rounding.
_REGION_TOL = 1e-9


class BallRegion(_Record):
    """Sampling region: a ball (or annulus, if exclusion > 0) around a center."""

    center: Point
    outer: float
    exclusion: float = 0.0

    def __post_init__(self):
        self.__dict__["outer"] = _positive("outer radius", self.outer)
        self.__dict__["exclusion"] = _real("exclusion radius", self.exclusion)
        if not (0.0 <= self.exclusion < self.outer):
            raise ValidationError(
                f"exclusion radius must satisfy 0 <= exclusion < outer, got {self.exclusion}"
            )

    @property
    def area(self) -> float:
        return ball_area(self.outer) - ball_area(self.exclusion)


class ObstacleField(_Record):
    """A sampled Poisson configuration of disk centers with common radius.

    ``centers`` is an (n, 2) array of half-plane coordinates, ordered as
    drawn.  The field is immutable after sampling: it keeps its own copy of
    the centers, marked read-only.
    """

    centers: np.ndarray
    radius: float
    intensity: float
    region: BallRegion

    def __post_init__(self):
        centers = _points("centers", self.centers)
        centers.flags.writeable = False
        radius, intensity = _positive("obstacle radius", self.radius), _positive("intensity", self.intensity)
        self.__dict__.update(centers=centers, radius=radius, intensity=intensity)
        region = self.region
        d = distance_xy(centers[:, 0], centers[:, 1], region.center.x, region.center.y)
        if not np.all((d > region.exclusion - _REGION_TOL) & (d <= region.outer + _REGION_TOL)):
            raise ValidationError("field has centers outside its sampling region")

    # Fields compare by value, centers elementwise; an array cannot be hashed.
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.centers, other.centers) and self._values()[1:] == other._values()[1:]

    def __len__(self) -> int:
        return len(self.centers)

    def __setstate__(self, state):
        # pickle and deepcopy hand over centers in a new, writable array
        self.__dict__.update(state)
        self.centers.flags.writeable = False


class PotentialProfile(_Record):
    """A compactly supported interaction profile phi(eta).

    phi must be nonnegative and vanish beyond the support radius; both are
    spot-checked on construction.
    """

    support_radius: float
    values: Callable[[float], float]

    def __post_init__(self):
        self.__dict__["support_radius"] = _positive("support radius", self.support_radius)
        for frac in (0.1, 0.5, 0.9):
            if not self.values(frac * self.support_radius) >= 0.0:
                raise ValidationError("profile takes a negative value inside its support")
        for mult in (1.001, 1.5, 4.0, 32.0):
            if self.values(mult * self.support_radius) != 0.0:
                raise ValidationError("profile does not vanish beyond its support radius")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_annulus(
    center: Point, lo: float, hi: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` points uniform w.r.t. hyperbolic area in an annulus.

    Returns an (size, 2) coordinate array.  Each point is realized by
    flowing from the center along a uniformly random direction for the
    inverted radial distance, which is exact in polar geodesic coordinates.
    The radii need 0 <= lo < hi, sinh^2(hi/2) finite and the points within
    float range (:func:`geometry._check_reach`), as from a center at height
    1 they are up to hi ~ 709.78.  A refused call draws nothing.
    """
    size, hi, lo = _integer("size", size, 0), _positive("outer radius", hi), _real("inner radius", lo)
    if not 0.0 <= lo < hi:
        raise ValidationError(f"inner radius must satisfy 0 <= inner < outer = {hi}, got {lo}")
    s_lo, s_hi = (s * s for s in (_sinh(0.5 * lo), _sinh(0.5 * hi)))
    if s_hi == math.inf:
        raise ValidationError(f"outer radius {hi} is too large: sinh^2(outer / 2) overflows")
    hi = _check_reach("outer radius", hi, center)
    u = rng.random(size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    pts = np.empty((size, 2))
    for k in range(0, size, SLICE):
        part = slice(k, k + SLICE)
        # A radius uniform in area inverts U = (sinh^2(eta/2) - s_lo) / (s_hi - s_lo).
        eta = 2.0 * np.arcsinh(np.sqrt(s_lo + u[part] * (s_hi - s_lo)))
        pts[part, 0], pts[part, 1] = flow_xy(center.x, center.y, phi[part], eta)
    return pts


def sample_uniform_in_ball(
    center: Point, R: float, rng: np.random.Generator, size: int | None = None
):
    """Draw a point (or ``size`` points) uniform w.r.t. hyperbolic area in B_R.

    Returns a Point when size is None, else an (size, 2) array.
    """
    R = _positive("ball radius", R)
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
) -> ObstacleField:
    """Sample a homogeneous Poisson field of intensity lam on an annulus.

    The count is Poisson(lam * annulus area) and positions are i.i.d.
    uniform in hyperbolic area; sampling only the annulus realizes the
    conditioning on an empty exclusion ball exactly.  ``radius`` is the
    common obstacle radius recorded on the field; it defaults to the
    exclusion radius, the standard choice for billiard runs.
    """
    if radius is None:
        radius = exclusion
    radius = _positive("obstacle radius", radius)
    region = BallRegion(center, R, exclusion)
    lam = _positive("intensity", lam)
    expected = lam * region.area
    if not expected <= COUNT_CAP:
        raise InfeasibleFieldError(
            f"expected obstacle count {expected:.3g} exceeds cap {COUNT_CAP:.3g}"
        )
    centers = sample_annulus(center, exclusion, R, rng, int(rng.poisson(expected)))
    return ObstacleField(centers, radius, lam, region)


# ---------------------------------------------------------------------------
# Closed-form laws
# ---------------------------------------------------------------------------

def nearest_neighbor_tail(eta, lam: float, k: int = 1):
    """Pr(distance to the k-th nearest field point > eta).

    Equals the Poisson CDF at k-1 with mean mu = 4*pi*lam*sinh^2(eta/2),
    sum_{j<k} e^{-mu} mu^j / j!, summed term by term; k is an integer >= 1.
    A distance is never negative, so the tail is 1 below eta = 0; it is 0 where mu overflows.
    """
    lam, k = _positive("intensity", lam), _integer("neighbor order", k, 1)
    with np.errstate(over="ignore"):
        mu = 4.0 * math.pi * lam * np.sinh(np.maximum(np.asarray(eta, dtype=float), 0.0) / 2.0) ** 2
    mu = np.minimum(mu, np.finfo(float).max)
    term = out = np.exp(-mu)
    for j in range(1, k):
        term = term * mu / j
        out = out + term
    return float(out) if np.isscalar(eta) else out


def expected_T1(lam: float) -> float:
    """Mean distance to the nearest field point: e^{2 pi lam} K0(2 pi lam).

    This is the integral of the k = 1 tail over eta >= 0, taken by the
    trapezoid rule up to where the tail falls below e^-40.  The tail is even
    and analytic in eta, so the rule converges geometrically in its step.
    """
    lam = _positive("intensity", lam)
    top = 2.0 * math.asinh(math.sqrt(40.0 / (4.0 * math.pi * lam)))
    h = min(0.25, top / 32.0)
    eta = h * np.arange(math.ceil(top / h) + 1)
    # the tail is 1 at eta = 0, whose trapezoid weight is h / 2
    return h * (float(nearest_neighbor_tail(eta, lam).sum()) - 0.5)


def shot_noise(
    points: Sequence[Point] | np.ndarray | Iterable[Point],
    profile: PotentialProfile,
    q: Point,
) -> float:
    """Superpose the profile over field points as seen from q.

    Only points within the support radius of q contribute.
    """
    if not isinstance(points, np.ndarray):
        points = [(p.x, p.y) for p in points]
    coords = _points("points", points)
    if len(coords) == 0:
        return 0.0
    d = distance_xy(coords[:, 0], coords[:, 1], q.x, q.y)
    d = d[d <= profile.support_radius]
    return float(sum(profile.values(float(eta)) for eta in d))
