"""Nowcast unemployment rates from employment-website traffic signals.

The toolkit ingests per-site signal files and per-country unemployment
tables, cleans and standardizes them into a two-column panel, fits a
Gaussian process regression in either prediction direction, and reports
the correlation rate, RMSE, and RAE under leave-one-out validation.
"""

from .errors import (
    ConfigError,
    EvaluationError,
    FitError,
    IntegrityError,
    JobSignalError,
    JoinError,
    NormalizationError,
    ParseError,
)
from .evaluation import Direction, EvaluationReport, correlation_rate, evaluate, rae, rmse
from .gpr import (
    BasisExpansion,
    GprModel,
    Kernel,
    Prediction,
    SearchConfig,
    TrainingSet,
    fit,
    fit_hyperparameters,
    predict,
)
from .pipeline import (
    CountryIndicator,
    PanelDataset,
    PanelRow,
    SiteRecord,
    build_panel,
    ingest_sites,
    listwise_delete,
    normalize_and_score,
)
from .synth import synthetic_panel

__version__ = "0.1.0"

__all__ = [
    "BasisExpansion",
    "ConfigError",
    "CountryIndicator",
    "Direction",
    "EvaluationError",
    "EvaluationReport",
    "FitError",
    "GprModel",
    "IntegrityError",
    "JobSignalError",
    "JoinError",
    "Kernel",
    "NormalizationError",
    "PanelDataset",
    "PanelRow",
    "ParseError",
    "Prediction",
    "SearchConfig",
    "SiteRecord",
    "TrainingSet",
    "__version__",
    "build_panel",
    "correlation_rate",
    "evaluate",
    "fit",
    "fit_hyperparameters",
    "ingest_sites",
    "listwise_delete",
    "normalize_and_score",
    "predict",
    "rae",
    "rmse",
    "synthetic_panel",
]
