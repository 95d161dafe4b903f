"""Exception types shared across the package."""


class DenpdsError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeError(DenpdsError):
    """Raised when a field characteristic is not prime."""


class CapExceededError(DenpdsError):
    """An exact oracle was asked to run beyond its configured budget."""


class TableCapExceededError(CapExceededError):
    """A field (or group) is too large for full table construction."""


class FieldMismatchError(DenpdsError):
    """A set file or subspace belongs to a different field model."""


class NotADivisorError(DenpdsError):
    """A subfield degree does not divide the field degree."""


class NotASubfieldError(DenpdsError):
    """The requested embedding target does not contain the source field."""


class NotASubspaceError(DenpdsError):
    """A claimed subspace fails its closure checks."""


class NotScaleClosedError(DenpdsError):
    """A set expected to be closed under scalar multiplication is not."""


class SpectrumNotTwoValuedError(DenpdsError):
    """A spectrum-derived operation needs exactly two nonprincipal values."""


class DeltaNotSquareError(DenpdsError):
    """The discriminant of a parameter tuple is not a perfect square."""


class IdentityViolatedError(DenpdsError):
    """A closed-form identity failed; signals an implementation bug."""


class InternalError(DenpdsError):
    """A mathematically impossible state was reached."""
