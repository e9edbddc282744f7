"""Exact geometry of the Poincare half-plane.

Positions live in the open upper half-plane {(x, y) : y > 0} with metric
ds^2 = (dx^2 + dy^2) / y^2.  Distances, circles, the unit-speed geodesic
flow, Mobius isometries and the Cayley map to the unit disk are all given
in closed form.  Every public operation is a pure function of immutable
values, so everything here is safe to share between threads.

The module-level ``*_xy`` helpers operate on plain floats or numpy arrays
and carry the actual formulas; the typed wrappers below them validate and
box the results.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Point",
    "Direction",
    "State",
    "MobiusMap",
    "HypCircle",
    "hyp_distance",
    "ball_area",
    "circle_to_euclidean",
    "geodesic_flow",
    "flow_state",
    "rotate_direction",
    "normalizing_map",
    "mobius_apply",
    "mobius_transport",
    "mobius_compose",
    "mobius_inverse",
    "cayley",
]


# ---------------------------------------------------------------------------
# Array-friendly kernels (floats or numpy arrays, no validation)
# ---------------------------------------------------------------------------

def distance_xy(x1, y1, x2, y2):
    """Hyperbolic distance between (x1, y1) and (x2, y2).

    sinh(d/2)^2 = |z1 - z2|^2 / (4 y1 y2), z = x + iy.  Unlike arccosh of
    cosh d = 1 + |z1 - z2|^2 / (2 y1 y2), which loses half the digits near
    0 (an absolute error of about 2e-8), this form keeps full relative
    precision at every distance.
    """
    dx, dy = x1 - x2, y1 - y2
    return 2.0 * np.arcsinh(np.sqrt((dx * dx + dy * dy) / (4.0 * y1 * y2)))


def flow_xy(x0, y0, alpha, t):
    """Unit-speed geodesic flow started at (x0, y0) with direction angle alpha.

    The denominator cosh t - s sinh t >= e^{-|t|}, s = sin(alpha), is
    evaluated without cancellation through the identities
    cosh t - s sinh t = e^{-t} + (1-s) sinh t = e^{t} - (1+s) sinh t:
    picking the form by the sign of t keeps every term nonnegative, which
    matters for near-vertical directions where the naive form loses all
    precision to cancellation.
    """
    t = np.asarray(t)
    sh = np.sinh(t)
    sin_a = np.sin(alpha)
    lean = np.where(t >= 0.0, (1.0 - sin_a) * sh, -((1.0 + sin_a) * sh))
    denom = np.exp(-np.abs(t)) + lean
    return x0 + y0 * sh * np.cos(alpha) / denom, y0 / denom


def flow_angle(alpha, t):
    """Direction angle after flowing for time t (independent of position).

    The transported unit vector is (cos a, sin a cosh t - sinh t) up to the
    positive factor 1/(cosh t - sin a sinh t), so only atan2 is needed.  The
    second component is rewritten as e^{-t} - (1 - sin a) cosh t, which is
    exact and avoids cancellation between the two hyperbolic terms.
    """
    vy = np.exp(-np.asarray(t, dtype=float)) - (1.0 - np.sin(alpha)) * np.cosh(t)
    return np.arctan2(vy, np.cos(alpha)) % TWO_PI


def flow_ahead(x0, y0, alpha, t):
    """Position and direction angle after flowing for time t >= 0: what
    :func:`flow_xy` and :func:`flow_angle` give, bit for bit, with the terms
    they share evaluated once."""
    sh, e = np.sinh(t), np.exp(-t)
    c, lean = np.cos(alpha), 1.0 - np.sin(alpha)
    denom = e + lean * sh
    return x0 + y0 * sh * c / denom, y0 / denom, np.arctan2(e - lean * np.cosh(t), c) % TWO_PI


def normalizing_coeffs(x0, y0, alpha):
    """Coefficients (a, b, c, d) of the Mobius map taking state
    ((x0, y0), alpha) to ((0, 1), pi/2).

    Built as rotation-about-(0,1) . dilation(1/y0) . translation(-x0); the
    rotation half-angle is (pi/2 - alpha)/2 because the matrix
    [[cos h, sin h], [-sin h, cos h]] turns tangent vectors at (0,1) by 2h.
    """
    half = (0.5 * math.pi - alpha) / 2.0
    ch, sh = np.cos(half), np.sin(half)
    rt = np.sqrt(y0)
    a = ch / rt
    b = -x0 * ch / rt + sh * rt
    c = -sh / rt
    d = x0 * sh / rt + ch * rt
    return a, b, c, d


def mobius_xy(a, b, c, d, x, y):
    """Apply z -> (az+b)/(cz+d) to the point x + iy."""
    num_re = a * x + b
    num_im = a * y
    den_re = c * x + d
    den_im = c * y
    den_sq = den_re * den_re + den_im * den_im
    return (
        (num_re * den_re + num_im * den_im) / den_sq,
        (num_im * den_re - num_re * den_im) / den_sq,
    )


def mobius_angle_shift(a, b, c, d, x, y):
    """Rotation that z -> (az+b)/(cz+d) applies to tangent vectors at x + iy.

    The complex derivative is 1/(cz+d)^2, so the shift is -2 arg(cz + d).
    """
    return -2.0 * np.arctan2(c * y, c * x + d)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

class _Record:
    """Base of the package's immutable value types.

    A subclass's fields are those it inherits, then its own annotated
    names, in order, and a class value is a field's default.  Each subclass
    gets an ``__init__`` compiled from its fields,
    ``def __init__(self, x, y=<default>)``, so Python binds every call,
    words every TypeError, and shows the fields in ``help()`` and
    ``inspect.signature``.  It stores the fields, then ``__post_init__``
    runs where the class has one; it may still set fields through
    ``object.__setattr__``, and nothing else can.  Records of one class
    compare and hash as the tuples of their fields, print as
    ``Name(field=value, ...)``, and pickle and copy through their
    ``__dict__``.  Those methods are written once, here.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        inherited = getattr(cls, "_fields", ())
        fields = inherited + tuple(name for name in cls.__annotations__ if name not in inherited)
        cls._fields = cls.__match_args__ = fields
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        params = ", ".join(f"{name}=defaults[{name!r}]" if name in defaults else name for name in fields)
        body = f"self.__dict__.update({', '.join(f'{name}={name}' for name in fields)})"
        if hasattr(cls, "__post_init__"):
            body += "; self.__post_init__()"
        namespace = {"defaults": defaults}
        exec(f"def __init__(self, {params}): {body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Point(_Record):
    """A position in the open upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")
        if self.y <= 0.0:
            raise ValueError(f"point must lie strictly above the x-axis, got y={self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


class Direction(_Record):
    """A direction of motion, stored as an angle normalized into [0, 2*pi)."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"direction angle must be finite, got {self.alpha}")
        a = self.alpha % TWO_PI
        if a >= TWO_PI:  # alpha = -tiny wraps to exactly 2*pi in floats
            a = 0.0
        object.__setattr__(self, "alpha", a)

    @property
    def vector(self) -> tuple[float, float]:
        return (math.cos(self.alpha), math.sin(self.alpha))


class State(_Record):
    """Position plus direction: the full state of a unit-speed particle."""

    point: Point
    dir: Direction


class MobiusMap(_Record):
    """Isometry z -> (az+b)/(cz+d) with real coefficients and det = 1.

    Coefficients are renormalized to unit determinant on construction;
    a determinant that is not positive (or further than 1e-12 from 1 after
    renormalization, which cannot happen for finite inputs) is rejected.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"Mobius coefficients must have positive determinant, got {det}")
        if abs(det - 1.0) > 1e-12:
            s = 1.0 / math.sqrt(det)
            for name in ("a", "b", "c", "d"):
                object.__setattr__(self, name, getattr(self, name) * s)


class HypCircle(_Record):
    """A hyperbolic circle: hyperbolic center plus hyperbolic radius."""

    center: Point
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"circle radius must be positive, got {self.radius}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def hyp_distance(p1: Point, p2: Point) -> float:
    """Hyperbolic distance between two points."""
    return float(distance_xy(p1.x, p1.y, p2.x, p2.y))


def ball_area(eta: float) -> float:
    """Area of a hyperbolic disk of radius eta: 4*pi*sinh^2(eta/2)."""
    if eta < 0.0:
        raise ValueError(f"radius must be nonnegative, got {eta}")
    s = math.sinh(0.5 * eta)
    return 4.0 * math.pi * s * s


def circle_to_euclidean(c: HypCircle) -> tuple[tuple[float, float], float]:
    """Euclidean center and radius of the circle as drawn in the half-plane.

    A hyperbolic circle of center (x, y) and radius eta is the Euclidean
    circle of center (x, y*cosh eta) and radius y*sinh eta, which always
    stays strictly above the x-axis.
    """
    x, y = c.center.x, c.center.y
    return (x, y * math.cosh(c.radius)), y * math.sinh(c.radius)


def geodesic_flow(s: State, t: float) -> Point:
    """Position after flowing along the geodesic for (signed) time t."""
    x, y = flow_xy(s.point.x, s.point.y, s.dir.alpha, t)
    return Point(float(x), float(y))


def flow_state(s: State, t: float) -> State:
    """Position and transported direction after flowing for time t.

    Satisfies the semigroup law flow_state(flow_state(s, u), t)
    == flow_state(s, u + t) up to rounding.
    """
    x, y = flow_xy(s.point.x, s.point.y, s.dir.alpha, t)
    return State(Point(float(x), float(y)), Direction(float(flow_angle(s.dir.alpha, t))))


def rotate_direction(d: Direction, beta: float) -> Direction:
    """Rotate a direction counterclockwise by beta (radians)."""
    return Direction(d.alpha + beta)


def normalizing_map(s: State) -> MobiusMap:
    """The isometry taking state s to ((0, 1), pi/2).

    It maps the whole forward geodesic of s onto the upward vertical
    geodesic through (0, 1): the point reached from s at time u lands
    on (0, e^u).
    """
    a, b, c, d = normalizing_coeffs(s.point.x, s.point.y, s.dir.alpha)
    return MobiusMap(float(a), float(b), float(c), float(d))


def mobius_apply(m: MobiusMap, p: Point) -> Point:
    """Apply the isometry to a point."""
    x, y = mobius_xy(m.a, m.b, m.c, m.d, p.x, p.y)
    return Point(float(x), float(y))


def mobius_transport(m: MobiusMap, s: State) -> State:
    """Apply the isometry to a full state.

    The direction turns by the argument of the complex derivative, which
    is how a conformal map acts on tangent vectors.
    """
    p = mobius_apply(m, s.point)
    shift = mobius_angle_shift(m.a, m.b, m.c, m.d, s.point.x, s.point.y)
    return State(p, Direction(s.dir.alpha + float(shift)))


def mobius_compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """Composition m1 after m2 (matrix product, renormalized to det 1)."""
    return MobiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def mobius_inverse(m: MobiusMap) -> MobiusMap:
    """Inverse isometry."""
    return MobiusMap(m.d, -m.b, -m.c, m.a)


def cayley(p: Point) -> tuple[float, float]:
    """Map a half-plane point into the unit disk via w = (iz + 1)/(z + i)."""
    w = (1j * p.z + 1.0) / (p.z + 1j)
    return (w.real, w.imag)


def cayley_angle_shift(p: Point) -> float:
    """Rotation the Cayley map applies to tangent vectors at p.

    The derivative of (iz+1)/(z+i) is -2/(z+i)^2.
    """
    z = p.z + 1j
    return math.pi - 2.0 * math.atan2(z.imag, z.real)
