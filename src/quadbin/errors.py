"""Exception types shared across the package.

Each type carries the exit code the command line ends with when it is raised:
1 usage error, 2 data error, 3 numeric failure.
"""

__all__ = [
    "QuadbinError", "UsageError", "CsvFormatError", "UndefinedStatisticError", "EstimationError", "EigensolverError",
]


class QuadbinError(Exception):
    """Base class for package errors."""

    exit_code = 1


class UsageError(QuadbinError):
    """An option value or combination of options a command cannot run with."""

    exit_code = 1


class CsvFormatError(QuadbinError):
    """Malformed record file; carries the 1-based offending line number."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UndefinedStatisticError(QuadbinError, ValueError):
    """A statistic cannot be formed from the given data (e.g. empty central bin, zero bootstrap spread)."""

    exit_code = 2


class EstimationError(QuadbinError):
    """Parameter estimation has no physical solution.

    ``code`` names the failure mode; ``residuals`` holds whatever moment
    mismatch was measured before giving up.
    """

    exit_code = 3

    def __init__(self, message: str, code: str = "no_solution", residuals: dict | None = None):
        super().__init__(message)
        self.code = code
        self.residuals = residuals or {}


class EigensolverError(QuadbinError):
    """Symmetric eigensolve failed to meet the required residual bound."""

    exit_code = 3
