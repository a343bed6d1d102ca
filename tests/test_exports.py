"""Every public export resolves, and removed API stays removed."""

import importlib

import pytest

MODULES = [
    "jobsignal",
    "jobsignal.gpr",
    "jobsignal.evaluation",
    "jobsignal.pipeline",
    "jobsignal.synth",
    "jobsignal.datasets",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_removed_names_stay_gone():
    package = importlib.import_module("jobsignal")
    gpr = importlib.import_module("jobsignal.gpr")
    pipeline = importlib.import_module("jobsignal.pipeline")
    cli = importlib.import_module("jobsignal.cli")
    for module, attr in [
        (gpr, "log_marginal_likelihood"),
        (gpr, "Diagnostics"),
        (gpr, "_squared_distances"),
        (gpr, "_cholesky_with_escalation"),
        (cli, "_fit_model"),
        (pipeline, "SignalFetcher"),
        (pipeline, "ReplayFetcher"),
        (pipeline, "fetch_signals"),
        (pipeline, "_coerce_fetched"),
        (pipeline, "UNKNOWN_COUNTRY"),
        (package, "ReplayFetcher"),
        (package, "fetch_signals"),
        (cli, "_refetch"),
    ]:
        assert not hasattr(module, attr), f"{module.__name__}.{attr}"
