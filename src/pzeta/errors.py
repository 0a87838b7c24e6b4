"""Error types shared across the package.

Domain errors signal inputs outside an operation's mathematical domain (or
results the implementation refuses to vouch for); the command line maps them
to exit code 1 with the class name in the ``error`` field.
"""

from __future__ import annotations


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

