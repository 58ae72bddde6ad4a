"""Exception types raised across the library."""


class PolygonSpacesError(Exception):
    """Base class for every deliberate error in this package."""


class MalformedNumber(PolygonSpacesError):
    pass


class EntryNotPositive(PolygonSpacesError):
    pass


class TooFewEntries(PolygonSpacesError):
    pass


class NotOrdered(PolygonSpacesError):
    pass


class NotGeneric(PolygonSpacesError):
    pass


class DimensionMismatch(PolygonSpacesError):
    pass


class UnsupportedDimension(PolygonSpacesError):
    pass


class MalformedCandidate(PolygonSpacesError):
    pass


class OutOfRange(PolygonSpacesError):
    pass


class SearchTooLarge(PolygonSpacesError):
    pass


class NonUnitInput(PolygonSpacesError):
    pass


class DegenerateConfiguration(PolygonSpacesError):
    pass


class SubsetNotLong(PolygonSpacesError):
    pass


class CertificateFailure(PolygonSpacesError):
    """An exact certificate did not check out: a fault in this package."""


class ConvergenceFailure(PolygonSpacesError):
    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual
