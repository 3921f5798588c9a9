"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the library: each traced function is
replaced, for the duration of the run, at the module attribute its
callers look up. ``predictive`` and ``kernels`` import ``css_residuals``
and ``smo_solve`` by name, and ``ensemble`` imports ``estimate_period``
by name, so those are wrapped in the importing module; wrapping them in
``_hot`` or ``series`` would catch nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from ethsentinel import cli, clustering, ensemble, ingest, kernels, predictive, reduction

# (module, attribute looked up by the callers, span name)
SPANS = [
    (ensemble, "build_grids", "ensemble.build_grids"),
    (ensemble, "fit_bank", "ensemble.fit_bank"),
    (ensemble, "score_bank", "ensemble.score_bank"),
    (ensemble, "merge_group_votes", "ensemble.merge_votes"),
    (ensemble, "_window_matrix", "ensemble.window_matrix"),
    (ensemble, "stream_advance", "ensemble.stream_advance"),
    (ensemble, "estimate_period", "series.estimate_period"),
    (ingest, "read_csv", "ingest.read_csv"),
    (predictive, "arima_fit", "predictive.arima_fit"),
    (predictive, "cart_fit", "predictive.cart_fit"),
    (predictive, "arima_predict_in_sample", "predictive.arima_predict"),
    (predictive, "css_residuals", "predictive.css_residuals"),
    (predictive, "stl_decompose", "predictive.stl_decompose"),
    (kernels, "one_class_fit", "kernels.one_class_fit"),
    (kernels, "smo_solve", "kernels.smo_solve"),
    (kernels, "one_class_decision", "kernels.one_class_decision"),
    (kernels, "kernel_ridge_fit", "kernels.kernel_ridge_fit"),
    (reduction, "ae_train", "reduction.ae_train"),
    (reduction, "iforest_fit", "reduction.iforest_fit"),
    (reduction, "iforest_score", "reduction.iforest_score"),
    (reduction, "pca_fit", "reduction.pca_fit"),
    (clustering, "select_k", "clustering.select_k"),
    (clustering, "kmeans_fit", "clustering.kmeans_fit"),
    (clustering, "estimate_eps", "clustering.estimate_eps"),
    (cli, "cmd_detect_batch", "cli.detect_batch"),
]

# per-kind dispatch helpers: the span is named for the detector kind
KIND_SPANS = [
    (ensemble, "_fit_predictive", "fit", lambda args: args[0]),
    (ensemble, "_fit_row_detector", "fit", lambda args: args[0]),
    (ensemble, "_predictive_point_flags", "score", lambda args: args[0].kind),
    (ensemble, "_window_point_flags", "score", lambda args: args[0].kind),
]

KINDS = (
    "arima", "sarima", "stl", "knn", "cart", "kridge",
    "pca", "iforest", "ae", "kmeans", "dbscan", "ocsvm",
)
GROUPS = ("value", "gasprice", "gaslimit", "multi")
UNIVARIATE_GROUPS = GROUPS[:3]

SPAN_NAMES = [name for _, _, name in SPANS] + [
    f"{prefix}.{kind}" for prefix in ("fit", "score") for kind in KINDS
]

# spans reported as a share of the traced operation time
SHARE_SPANS = (
    "ensemble.fit_bank",
    "ensemble.window_matrix",
    "predictive.css_residuals",
    "kernels.smo_solve",
)

HEALTH = (
    [
        ("ensemble.fit_failures", "count"),
        ("kernels.smo_iterations", "count"),
        ("kernels.smo_converged", "count"),
    ]
    + [(f"clustering.k_selected.{g}", "count") for g in GROUPS]
    + [(f"clustering.dbscan_eps.{g}", "1") for g in GROUPS]
    + [(f"predictive.sarima_period.{g}", "cells") for g in UNIVARIATE_GROUPS]
    + [(f"predictive.stl_period.{g}", "cells") for g in UNIVARIATE_GROUPS]
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for span in SPAN_NAMES:
        if span == "cli.detect_batch":
            names.append(("cli.report_write_s", "s"))
        else:
            names.append((f"{span}_s", "s"))
        names.append((f"{span}.calls", "count"))
    names += [
        ("ensemble.windows_built", "count"),
        ("ensemble.windows_scored", "count"),
        ("ensemble.window_use_ratio", "ratio"),
    ]
    names += HEALTH
    names += [(f"{span}_share", "ratio") for span in SHARE_SPANS]
    names += [
        ("trace.op_s", "s"),
        ("trace.untraced_op_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def fit_health(detectors, warnings) -> dict[str, float]:
    """Fit-health counts read from what ``fit_bank`` returned."""
    health = dict.fromkeys((name for name, _ in HEALTH), 0)
    health["ensemble.fit_failures"] = len(warnings)
    for det in detectors:
        payload = det.payload
        if det.kind == "ocsvm":
            health["kernels.smo_iterations"] += int(payload["model"].iterations)
            health["kernels.smo_converged"] += int(payload["model"].converged)
        elif det.kind == "kmeans":
            health[f"clustering.k_selected.{det.group}"] = int(payload["model"].k)
        elif det.kind == "dbscan":
            health[f"clustering.dbscan_eps.{det.group}"] = float(payload["eps"])
        elif det.kind == "sarima":
            health[f"predictive.sarima_period.{det.group}"] = int(
                payload["model"].order.seasonal[3]
            )
        elif det.kind == "stl":
            health[f"predictive.stl_period.{det.group}"] = int(payload["period"])
    return health


class Tracer:
    """Records (name, start, end, parent) spans while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.windows_built = 0
        self.windows_scored = 0
        self.health: dict | None = None

    def _wrap(self, module, attr, name_of, after=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name_of(args), time.perf_counter(), 0.0, parent])
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _after_window_matrix(self, args, result):
        # only scoring-path windows count: training matrices are used whole
        if self._in_span("ensemble.score_bank"):
            self.windows_built += len(result[1])

    def _after_score_rows(self, args, result):
        self.windows_scored += len(args[2])

    def _after_fit_bank(self, args, result):
        if self.health is None:
            self.health = fit_health(*result)

    def install(self):
        after = {
            "ensemble.window_matrix": self._after_window_matrix,
            "ensemble.fit_bank": self._after_fit_bank,
        }
        for module, attr, name in SPANS:
            self._wrap(module, attr, lambda args, name=name: name, after.get(name))
        for module, attr, prefix, kind_of in KIND_SPANS:
            self._wrap(
                module, attr, lambda args, p=prefix, k=kind_of: f"{p}.{k(args)}"
            )
        # not reported as a span; counts the rows reaching the row detectors
        self._wrap(
            ensemble, "_score_rows", lambda args: "ensemble.score_rows", self._after_score_rows
        )

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, calls) per span name."""
        inclusive: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return inclusive, self_time, calls

    def metrics(self, op_s: float, untraced_op_s: float) -> dict[str, float]:
        inclusive, self_time, calls = self.totals()
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            if span == "cli.detect_batch":
                out["cli.report_write_s"] = self_time.get(span, 0.0)
            else:
                out[f"{span}_s"] = inclusive.get(span, 0.0)
            out[f"{span}.calls"] = calls.get(span, 0)
        out["ensemble.windows_built"] = self.windows_built
        out["ensemble.windows_scored"] = self.windows_scored
        out["ensemble.window_use_ratio"] = (
            self.windows_scored / self.windows_built if self.windows_built else 0.0
        )
        out.update(self.health or fit_health([], []))
        for span in SHARE_SPANS:
            out[f"{span}_share"] = inclusive.get(span, 0.0) / op_s if op_s else 0.0
        out["trace.op_s"] = op_s
        out["trace.untraced_op_s"] = untraced_op_s
        out["trace.overhead_ratio"] = op_s / untraced_op_s - 1.0 if untraced_op_s else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
