"""Exception types shared across the toolkit."""


class SketchLSError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SketchLSError, ValueError):
    """Shapes of the supplied arrays are inconsistent."""


class RankDeficientError(SketchLSError):
    """A data matrix is numerically rank deficient."""


class SingularMatrixError(SketchLSError):
    """A sketched Gram matrix is numerically singular."""


class DegenerateInstanceError(SketchLSError):
    """The requested quantity is undefined for this input (e.g. zero norms)."""


class ConvergenceError(SketchLSError):
    """An iterative routine exhausted its iteration budget.

    ``last_iterate`` holds the best iterate seen so far (may be None),
    ``diagnostics`` a dict with solver-specific state.
    """

    def __init__(self, message, last_iterate=None, diagnostics=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.diagnostics = diagnostics or {}


class CsvFormatError(SketchLSError, ValueError):
    """A CSV input file is malformed; the message names the offending line."""
