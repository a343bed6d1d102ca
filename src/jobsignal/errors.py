"""Exception types shared across the toolkit.

Each class carries the CLI exit code it maps onto as `exit_code`:
parse/configuration failures exit 2, data-integrity failures exit 3,
model-fitting failures exit 4, and evaluation failures exit 5.
"""


class JobSignalError(Exception):
    """Base class for all toolkit failures."""


class ParseError(JobSignalError):
    """An input file or record does not match its documented format."""

    exit_code = 2


class IntegrityError(JobSignalError):
    """Duplicate keys or otherwise inconsistent records."""

    exit_code = 3


class NormalizationError(JobSignalError):
    """A signal column cannot be standardized (zero or non-finite standard deviation)."""

    exit_code = 3


class JoinError(JobSignalError):
    """A site references a country absent from the indicator table."""

    exit_code = 3


class ConfigError(JobSignalError):
    """Invalid runtime configuration (an empty or unbounded theta grid, a bad jitter)."""

    exit_code = 2


class FitError(JobSignalError):
    """Model fitting failed (indefinite covariance, singular trend system)."""

    exit_code = 4


class EvaluationError(JobSignalError):
    """Cross-validated evaluation failed or a metric is undefined."""

    exit_code = 5
