"""Exception types of the package, and the readers of a field's numbers."""

import math
import numbers
from fractions import Fraction


class MoebLabError(Exception):
    """Base class for all package-specific errors."""


class SizingError(MoebLabError):
    """An input exceeds a configured size/memory cap or addressable range."""


DEFAULT_MEMORY_CAP = 1 << 31    # bytes for a value table or a working set


def admit(nbytes: int, what: str) -> None:
    """Refuse `what`, whose working set is about `nbytes` bytes, past
    DEFAULT_MEMORY_CAP; called before any of it is allocated."""
    if nbytes > DEFAULT_MEMORY_CAP:
        raise SizingError(
            f"{what} needs about {nbytes >> 20} MiB, over the cap of "
            f"{DEFAULT_MEMORY_CAP >> 20} MiB")


class DomainError(MoebLabError):
    """An argument lies outside the mathematical domain of the operation."""


class ParameterError(MoebLabError):
    """A parameter combination violates a required inequality.

    The message names the failed inequality.
    """


class PrecisionError(MoebLabError):
    """Working precision was insufficient to certify a strict inequality."""


class ResonanceError(MoebLabError):
    """A denominator e(m*alpha) - 1 vanishes exactly (rational alpha)."""


def _integer(value, name: str) -> int:
    """A field's integer; a bool or a fraction is refused."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise DomainError(f"field {name!r} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A field's real number; a bool, a string or a non-finite one is refused."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise DomainError(f"field {name!r} must be a finite number, got {value!r}")


def _rational(value, name: str) -> Fraction:
    """A field's positive rational, read by its str so a float reads by its
    repr (0.1 is 1/10); a bool, an unparsable string or a value <= 0 is refused."""
    try:
        out = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"field {name!r} must be a rational, got {value!r}") from None
    if out <= 0:
        raise DomainError(f"field {name!r} must be positive, got {out}")
    return out
