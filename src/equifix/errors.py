"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError/TypeError remain for ordinary misuse.
"""

from __future__ import annotations


class EquifixError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(EquifixError, ValueError):
    """Operands live over different fields, dimensions, or windows."""


class LimitExceeded(DimensionMismatch):
    """A size cap was hit: matrix or window dimension, generator count."""


class InvalidQuotient(EquifixError, ValueError):
    """Quotient requested by a space that is not contained in the ambient."""


class SeriesParseError(EquifixError, ValueError):
    """Series literal rejected; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExponentOverflow(EquifixError, ValueError):
    """Exponent, precision or series span beyond the documented input cap."""


class InsufficientPrecision(EquifixError, ValueError):
    """A coefficient beyond the known precision of a series was needed."""


class OutsideWindow(EquifixError, ValueError):
    """Vector has support below the window floor and cannot be represented."""


class WindowTooNarrow(EquifixError, ValueError):
    """An operator writes below the window floor; widen the window."""

    def __init__(self, message: str, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


class SingularGenerator(EquifixError, ValueError):
    """A window matrix expected to be invertible is singular."""


class NotOrderP(EquifixError, ValueError):
    """Seed fails nilpotency: id + N does not have order p."""

    def __init__(self, message: str, witness_power: int | None = None):
        super().__init__(message)
        self.witness_power = witness_power


class NonCommuting(EquifixError, ValueError):
    """Two t-conjugates of the seed fail to commute."""

    def __init__(self, message: str, offsets: tuple[int, int] | None = None):
        super().__init__(message)
        self.offsets = offsets


class EmptyFixedSpace(EquifixError, RuntimeError):
    """No nonzero fixed vector found inside the invariant subspace at this window."""

    def __init__(self, message: str, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


class BudgetExceeded(EquifixError, RuntimeError):
    """Brute-force enumeration would exceed the oracle's fixed cap."""


class LMaxTooSmall(EquifixError, RuntimeError):
    """The chain has not stabilized by l_max (t * m_hat escapes m_hat); raise l_max."""


class ChainInvariantViolation(EquifixError, RuntimeError):
    """A property the construction guarantees failed to hold; report as a bug."""
