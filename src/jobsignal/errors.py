"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: parse/configuration failures exit 2,
data-integrity failures exit 3, model-fitting failures exit 4, and
evaluation failures exit 5.
"""


class JobSignalError(Exception):
    """Base class for all toolkit failures."""


class ParseError(JobSignalError):
    """An input file or record does not match its documented format."""


class IntegrityError(JobSignalError):
    """Duplicate keys or otherwise inconsistent records."""


class NormalizationError(JobSignalError):
    """A signal column cannot be standardized (zero variance)."""


class JoinError(JobSignalError):
    """A site references a country absent from the indicator table."""


class ConfigError(JobSignalError):
    """Invalid runtime configuration (empty grids, an unreadable replay fixture)."""


class FitError(JobSignalError):
    """Model fitting failed (indefinite covariance, singular trend system)."""


class EvaluationError(JobSignalError):
    """Cross-validated evaluation failed or a metric is undefined."""
