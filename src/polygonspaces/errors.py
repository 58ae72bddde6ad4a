"""Exception types raised across the library.

An ``InputError`` is input outside the formats or the theory (the CLI
exits 1); every other ``PolygonSpacesError`` is a limit (exit 3).
"""


class PolygonSpacesError(Exception):
    """Base class for every deliberate error in this package."""


class InputError(PolygonSpacesError):
    """The input is malformed, nongeneric, or outside d >= 3."""


class MalformedNumber(InputError):
    pass


class EntryNotPositive(InputError):
    pass


class TooFewEntries(InputError):
    pass


class NotOrdered(InputError):
    pass


class NotGeneric(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class UnsupportedDimension(InputError):
    pass


class MalformedCandidate(InputError):
    pass


class OutOfRange(PolygonSpacesError):
    """A cap: census range, scan width, exponent, integer too long to print."""


class SearchTooLarge(PolygonSpacesError):
    """An exponential search past its cap."""


class NonUnitInput(PolygonSpacesError):
    """Direction rows passed to the float layer are not unit vectors."""


class DegenerateConfiguration(PolygonSpacesError):
    """A float configuration the analytic cross-check cannot use."""


class SubsetNotLong(PolygonSpacesError):
    """A Hessian was asked for at a subset that is not long."""


class CertificateFailure(PolygonSpacesError):
    """An exact certificate did not check out: a fault in this package."""


class ConvergenceFailure(PolygonSpacesError):
    """The polygon solver spent its budget without closing the polygon."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual
