"""Exception types shared across the package, and the value rules configs check."""

from __future__ import annotations

import math
import numbers


class ColonyTrackError(Exception):
    """Base class for package-specific failures."""


class ValidationError(ColonyTrackError):
    """Invalid configuration, file content, or call arguments (CLI exit 2)."""


class InfeasibleError(ColonyTrackError):
    """A constrained problem has no admissible solution (CLI exit 3)."""


def finite_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not a number here,
    nor is an integer too large for a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_fields(config, integers=(), reals=(), nonnegative=(), positive=(), booleans=()):
    """Raise :class:`ValidationError` unless the named fields of ``config`` are
    integers (not bools), finite real numbers, finite non-negative and finite
    positive real numbers, and bools respectively."""
    for name in integers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(config, name)
        if not finite_real(value):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
    for name in nonnegative:
        value = getattr(config, name)
        if not finite_real(value) or value < 0:
            raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    for name in positive:
        value = getattr(config, name)
        if not finite_real(value) or value <= 0:
            raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    for name in booleans:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be true or false, got {value!r}")
