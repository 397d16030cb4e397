"""Exception types shared across the toolkit; one only bad input can cause is a ValueError too."""


class TorspecError(Exception):
    """Base class for all toolkit errors."""


class FrequencyOutOfRange(TorspecError):
    """A frequency does not fit the representable grid range [-M/2, M/2)."""


class DimensionMismatch(TorspecError, ValueError):
    """Operands live on tori of different dimension."""


class BudgetExceeded(TorspecError):
    """An exact sparse computation would exceed its pair/product budget."""


class EmptySpectrum(TorspecError):
    """An operation requires a nonzero spectrum away from the origin."""


class BadRadii(TorspecError, ValueError):
    """Cutoff radii violate 0 < r < R."""


class BadRange(TorspecError):
    """A dyadic index range is empty or exceeds the 64-bit safety cap."""


class ZeroDirection(TorspecError, ValueError):
    """A lattice direction parameter is the zero vector."""


class NonRealInput(TorspecError):
    """A real-valued field was required."""


class FNotVanishingAtZero(TorspecError):
    """The outer function of a composition must satisfy F(0) = 0."""


class RangeTooLarge(TorspecError):
    """A dyadic index past its cap: a construction beyond 2^60, a modulation
    index whose 2^m is no double, or a sample window beyond int64."""


class BandwidthViolation(TorspecError):
    """A carrier field is too wide for the requested lacunary construction."""


class WindowTooLarge(TorspecError):
    """A dense frequency window exceeds the matrix budget."""


class DimensionUnsupported(TorspecError):
    """The operation is only provided for tori of dimension 1."""
