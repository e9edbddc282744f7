"""Exception types shared across the package, and its input rule.

Bad parameters and infeasible configurations raise ValidationError, a
ValueError, which the command line maps to exit code 2; failures of a
running computation raise a RuntimeError, exit code 3.  :func:`_positive`
and :func:`_integer` are the package's only positivity and integer checks.
"""

import math
from numbers import Integral


class ValidationError(ValueError):
    """A parameter or configuration value is unusable."""


class InfeasibleFieldError(ValidationError):
    """The requested Poisson field would exceed the expected-count cap."""


class RegionTooSmallError(ValidationError):
    """An obstacle field does not cover the requested simulation horizon."""


class RunawayError(RuntimeError):
    """An event loop exceeded its safety cap."""


def _positive(what: str, value) -> None:
    """Refuse anything but 0 < value < inf: zero, negatives, NaN and inf."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{what} must be positive and finite, got {value}")


def _integer(what: str, value) -> int:
    """value as an int; a bool or a non-integer is refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)
