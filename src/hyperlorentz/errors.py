"""Exception types shared across the package, and its input rule.

Every refusal of a bad argument or configuration is a ValidationError, exit
code 2 on the command line; any other exception, a plain ValueError too, is
a failure of the run, exit code 3.  The package's only checks of numbers are
two: :func:`_positive` (a real, not a bool, in (0, inf), returned as a float)
and :func:`_integer` (an integer, not a bool, at least ``least``, as an int).
Every caller keeps what the check returns, a record through its
``__dict__``, so a numpy scalar that passes is a Python float or int after.
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


def _positive(what: str, value) -> float:
    """value as a float; a bool, a non-real (a string, a 0-d array) or NaN, inf, 0 or less is refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{what} must be positive and finite, got {value}")
    return float(value)


def _integer(what: str, value, least: int | None = None) -> int:
    """value as an int; a bool, a non-integer or one below ``least`` is refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)
