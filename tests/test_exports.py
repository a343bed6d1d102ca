"""Every public export resolves, removed API stays removed, JSON
documents are written only through _documents and read nowhere, and
evaluation does no linear algebra."""

import ast
import importlib
from pathlib import Path

import pytest

import jobsignal

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
    evaluation = importlib.import_module("jobsignal.evaluation")
    documents = importlib.import_module("jobsignal._documents")
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
        (pipeline, "replay_signals"),
        (pipeline, "_unique_keys"),
        (package, "ReplayFetcher"),
        (package, "fetch_signals"),
        (cli, "_refetch"),
        (gpr, "model_to_dict"),
        (gpr, "model_from_dict"),
        (evaluation, "report_to_dict"),
        (evaluation, "report_from_dict"),
        (pipeline, "read_records_json"),
        (pipeline, "write_records_json"),
        (pipeline, "RECORDS_SCHEMA"),
        (pipeline, "PanelSummary"),
        (pipeline, "describe_panel"),
        (pipeline, "format_panel_summary"),
        (pipeline, "_fmt_stat"),
        (package, "describe_panel"),
        (pipeline.PanelDataset, "clean_count"),
        (pipeline.PanelDataset, "dropped_count"),
        (cli, "_search_config"),
        (cli, "EXIT_INTEGRITY"),
        (cli, "EXIT_FIT"),
        (cli, "EXIT_EVALUATION"),
        (evaluation, "load_report"),
        (evaluation, "_number"),
        (evaluation.Direction, "from_flag"),
        (documents, "read_document"),
    ]:
        assert not hasattr(module, attr), f"{module.__name__}.{attr}"


# (file, enclosing top-level function or None) allowed to call each json
# function; no module reads JSON, so the readers map to no caller at all.
JSON_CALLERS = {
    "dump": {("_documents.py", None)},
    "dumps": {("_documents.py", None)},
    "load": set(),
    "loads": set(),
}


def test_json_is_read_and_written_only_through_documents():
    stray = []
    for path in sorted(Path(jobsignal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    stray.append((path.name, owner, "from json import"))
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and node.attr in JSON_CALLERS
                ):
                    continue
                allowed = JSON_CALLERS[node.attr]
                if (path.name, owner) not in allowed and (path.name, None) not in allowed:
                    stray.append((path.name, owner, f"json.{node.attr}"))
    assert stray == []


# What only jobsignal.gpr may touch: the factor and the fit's internals.
GPR_INTERNALS = {"chol", "factor", "trend_whitened", "trend_r", "groups", "group_alpha"}


def test_evaluation_does_no_linear_algebra():
    path = Path(jobsignal.__file__).parent / "evaluation.py"
    stray = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        stray += [name for name in names if "_lapack" in name]
        if isinstance(node, ast.Attribute) and node.attr in GPR_INTERNALS:
            stray.append(f"line {node.lineno}: .{node.attr}")
    assert stray == []
