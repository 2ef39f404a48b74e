"""Exception types shared across the package."""
from __future__ import annotations


class RootsepError(Exception):
    """Base class for all library errors."""


class ParseError(RootsepError):
    """Malformed polynomial or graph input; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ValidationError(RootsepError):
    """Structurally invalid input: bad edge, bad index, bad hint pair."""


class PreconditionError(RootsepError):
    """A bound's stated precondition does not hold for the given input."""


class IndistinguishableRootsError(RootsepError):
    """Root disks could not be certified disjoint at the working precision."""

    def __init__(self, precision_bits: int, cluster):
        self.precision_bits = precision_bits
        self.cluster = tuple(cluster)
        super().__init__(
            f"indistinguishable roots at precision {precision_bits}: "
            f"cluster {self.cluster}"
        )


class CertificationError(RootsepError):
    """Propagated error radii are too large to certify an identity."""

    def __init__(self, precision_bits: int, detail: str = ""):
        self.precision_bits = precision_bits
        msg = f"certificate inconclusive at precision {precision_bits}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BallDomainError(RootsepError):
    """A ball operation left its domain (division by a ball containing zero,
    root of a ball touching zero, ...)."""
