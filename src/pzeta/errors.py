"""Error types shared across the package.

Domain errors signal inputs outside an operation's mathematical domain (or
results the implementation refuses to vouch for); the command line maps them
to exit code 1 with the class name in the ``error`` field.  integer_size is
the one check that a size argument (a length, an order, a cutoff) is an
integer, so a non-integer size is a ValueError on every public entry.
"""

from __future__ import annotations

from operator import index


def integer_size(name: str, value) -> int:
    """``value`` as an int wherever range() would take it (ints, bools and
    other __index__ types), else ValueError naming ``name``."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class DomainError(Exception):
    """Base class for inputs outside an operation's mathematical domain."""


class PoleAt1(DomainError):
    """Riemann zeta requested inside the exclusion neighbourhood of s = 1."""


class PoleProximity(DomainError):
    """Fixed-length partition zeta requested too close to a pole s = 1/j."""

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"s lies within the exclusion radius of the pole at 1/{j}")


class DivergenceRegion(DomainError):
    """The requested sum or product diverges in the given half plane."""


class PrecisionLoss(DomainError):
    """An error bound exceeded the trust threshold.

    The untrusted result, when one exists, is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class FitUnstable(DomainError):
    """Two-scale pole-order probes rounded to different integers."""


class InvalidForm(DomainError):
    """Euler-product subset form rejected: part 1 admitted, or a predicate
    that does not map the int64 array of parts to a mask of its shape."""

