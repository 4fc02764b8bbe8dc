"""Exception types shared across the package."""


class QuadbinError(Exception):
    """Base class for package errors."""


class CsvFormatError(QuadbinError):
    """Malformed record file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UndefinedStatisticError(QuadbinError, ValueError):
    """A statistic cannot be formed from the given data (e.g. empty central bin, zero bootstrap spread)."""


class EstimationError(QuadbinError):
    """Parameter estimation has no physical solution.

    ``code`` names the failure mode; ``residuals`` holds whatever moment
    mismatch was measured before giving up.
    """

    def __init__(self, message: str, code: str = "no_solution", residuals: dict | None = None):
        super().__init__(message)
        self.code = code
        self.residuals = residuals or {}


class EigensolverError(QuadbinError):
    """Symmetric eigensolve failed to meet the required residual bound."""
