"""Exception types shared across the package."""


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
