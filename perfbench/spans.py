"""Per-layer tracing of jobsignal from outside the program.

The layers are the modules `cli`, `pipeline`, `gpr` and `evaluation`. Each
public function of a layer is replaced, through its module attribute, by a
wrapper that records a span (layer, function, parent span, start, end).
This sees every call between layers because the program calls across
modules through module attributes (`cli` calls `pipeline.*`, `gpr.*` and
`evaluation.*`; `evaluation` calls `gpr.*`). Counts are read at the same
boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("cli", "pipeline", "gpr", "evaluation")

# Per-layer metrics, in the order printed, with their units.
UNITS = {
    "evaluation.evaluate_s": "s",
    "evaluation.self_s": "s",
    "evaluation.report_io_s": "s",
    "gpr.fit_calls": "count",
    "gpr.fit_s": "s",
    "gpr.chol_flops_computed": "flop",
    "gpr.search_calls": "count",
    "gpr.search_s": "s",
    "gpr.predict_calls": "count",
    "gpr.predict_s": "s",
    "gpr.model_io_s": "s",
    "gpr.jitter_escalations": "count",
    "gpr.variance_clamps": "count",
    "cli.self_s": "s",
    "pipeline.ingest_s": "s",
    "pipeline.clean_s": "s",
    "pipeline.score_s": "s",
    "pipeline.join_s": "s",
    "pipeline.panel_io_s": "s",
    "pipeline.rows_dropped": "count",
    "trace.overhead_s": "s",
}

# Summed span durations: metric -> the (layer, function) spans it covers.
DURATIONS = {
    "evaluation.evaluate_s": [("evaluation", "evaluate")],
    "evaluation.report_io_s": [("evaluation", "save_report")],
    "gpr.fit_s": [("gpr", "fit")],
    "gpr.search_s": [("gpr", "fit_hyperparameters")],
    "gpr.predict_s": [("gpr", "predict")],
    "gpr.model_io_s": [("gpr", "save_model")],
    "pipeline.ingest_s": [("pipeline", "ingest_sites"), ("pipeline", "read_indicators")],
    "pipeline.clean_s": [("pipeline", "listwise_delete")],
    "pipeline.score_s": [("pipeline", "normalize_and_score")],
    "pipeline.join_s": [("pipeline", "build_panel")],
    "pipeline.panel_io_s": [("pipeline", "write_panel_csv"), ("pipeline", "read_panel_csv")],
}

CALLS = {
    "gpr.fit_calls": ("gpr", "fit"),
    "gpr.search_calls": ("gpr", "fit_hyperparameters"),
    "gpr.predict_calls": ("gpr", "predict"),
}


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    parent: int | None  # index of the calling span, None at the top
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_self_time(spans: list[Span], layer: str, within: tuple[str, str] | None = None) -> float:
    """Time spent in `layer`'s own code: the self times of its spans summed.

    With `within=(layer, name)` only spans inside a span of that function
    count, the function's own span included. Parents precede children in
    `spans`, as the tracer records them.
    """
    inside = []
    for s in spans:
        hit = within is None or (s.layer, s.name) == within
        inside.append(hit or (s.parent is not None and inside[s.parent]))
    own = self_times(spans)
    return sum(t for s, t, ok in zip(spans, own, inside) if ok and s.layer == layer)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and counts for the verdicts run between install and uninstall."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules  # layer name -> module
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self._open: list[int] = []
        self._spans: list[list] = []
        self.chol_flops = 0.0
        self.jitter_escalations = 0
        self.rows_dropped = 0
        self._diagnostics: list = []

    def install(self) -> None:
        for layer, module in self._modules.items():
            for name, fn in vars(module).copy().items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, layer: str, name: str, fn):
        observe = getattr(self, f"_observe_{layer}_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._spans)
            parent = self._open[-1] if self._open else None
            record = [layer, name, parent, time.perf_counter(), None]
            self._spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_gpr_fit(self, args, kwargs, model) -> None:
        training = _arg(args, kwargs, 0, "training")
        kernel = _arg(args, kwargs, 2, "kernel")
        self.chol_flops += training.n**3 / 3.0
        if model.kernel.jitter > kernel.jitter:
            self.jitter_escalations += 1
        # Read after the verdict: predict counts clamps on the fitted model.
        self._diagnostics.append(getattr(model, "diagnostics", None))

    def _observe_gpr_fit_hyperparameters(self, args, kwargs, kernel) -> None:
        training = _arg(args, kwargs, 0, "training")
        search = _arg(args, kwargs, 2, "search")
        self.chol_flops += len(search.grid()) * training.n**3 / 3.0

    def _observe_pipeline_listwise_delete(self, args, kwargs, result) -> None:
        self.rows_dropped += result[1]

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._spans]

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        return layer_metrics(
            self.spans(),
            chol_flops=self.chol_flops,
            jitter_escalations=self.jitter_escalations,
            variance_clamps=sum(getattr(d, "variance_clamps", 0) for d in self._diagnostics),
            rows_dropped=self.rows_dropped,
        )


def layer_metrics(spans: list[Span], **counts) -> dict:
    """Every entry of UNITS except the tracing overhead, from one verdict's spans."""
    metrics = {
        name: sum(s.duration for s in spans if (s.layer, s.name) in keys)
        for name, keys in DURATIONS.items()
    }
    for name, key in CALLS.items():
        metrics[name] = sum(1 for s in spans if (s.layer, s.name) == key)
    metrics["evaluation.self_s"] = layer_self_time(spans, "evaluation", within=("evaluation", "evaluate"))
    metrics["cli.self_s"] = layer_self_time(spans, "cli")
    metrics["gpr.chol_flops_computed"] = counts["chol_flops"]
    metrics["gpr.jitter_escalations"] = counts["jitter_escalations"]
    metrics["gpr.variance_clamps"] = counts["variance_clamps"]
    metrics["pipeline.rows_dropped"] = counts["rows_dropped"]
    return metrics
