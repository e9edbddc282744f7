"""Exception types shared across the package, and its input rule.

Every refusal of a bad argument or configuration is a ValidationError, exit
code 2 on the command line; any other exception, a plain ValueError too, is
a failure of the run, exit code 3.  Every number the package takes passes
:func:`_real` (a real, not a bool, as a float), :func:`_positive` (a real in
(0, inf)) or :func:`_integer` (an integer, not a bool, >= ``least``, an int),
and is kept as returned; any other range test follows at the call site,
written ``if not (<what is accepted>): raise``, so that NaN fails it.
"""

import math
from numbers import Integral, Real


class ValidationError(ValueError):
    """A parameter or configuration value is unusable."""


class InfeasibleFieldError(ValidationError):
    """The requested Poisson field would exceed the expected-count cap."""


class RegionTooSmallError(ValidationError):
    """An obstacle field does not cover the requested simulation horizon."""


class RunawayError(RuntimeError):
    """An event loop exceeded its safety cap."""


def _real(what: str, value) -> float:
    """value as a float, any range; a bool or a non-real is refused; a float skips Real's slow isinstance."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _positive(what: str, value) -> float:
    """:func:`_real`'s float; NaN, inf, 0 or less is refused."""
    if not 0.0 < _real(what, value) < math.inf:
        raise ValidationError(f"{what} must be positive and finite, got {value}")
    return float(value)


def _integer(what: str, value, least: int | None = None) -> int:
    """value as an int; a bool, a non-integer or one below ``least`` is refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not (least is None or value >= least):
        raise ValidationError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)
