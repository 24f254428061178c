"""Spans around the public functions of misoid, wrapped by name.

A :class:`Tracer` replaces each named function, wherever a loaded
``misoid`` module binds it, with a wrapper that records one span per call:
name, start, end and the span that was open when the call began (its
parent).  Spans live in parallel lists and are written out once, by
:meth:`Tracer.dump`.  A name that the program no longer defines is listed
as absent instead of failing the run.

:func:`layer_metrics` turns a dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

from checks import VARIANTS

# (module, attribute path) of every function a traced run wraps.
TRACED = (
    ("misoid.regression", "load_dataset_csv"),
    ("misoid.sampler", "build_problem"),
    ("misoid.regression", "RegressorBank.partial_projection"),
    ("misoid.regression", "RegressorBank.residual_sumsq"),
    ("misoid.blocks", "compute_correlations"),
    ("misoid.blocks", "compute_block_probabilities"),
    ("misoid.blocks", "select_block"),
    ("misoid.kernel", "quad_form"),
    ("misoid.conditionals", "theta_k_conditional"),
    ("misoid.conditionals", "theta_block_conditional"),
    ("misoid.conditionals", "draw_gaussian"),
    ("misoid.conditionals", "sample_lambda_common"),
    ("misoid.conditionals", "sample_lambda_k"),
    ("misoid.conditionals", "sample_sigma2_from_sumsq"),
    ("misoid.sampler", "run"),
    ("misoid.sampler", "init_chain"),
    ("misoid.sampler", "sweep"),
    ("misoid.sampler", "save_record"),
    ("misoid.diagnostics", "build_report"),
)

# The coarse calls an untraced run times: set-up and one call per chain.
COARSE = (
    ("misoid.regression", "load_dataset_csv"),
    ("misoid.sampler", "build_problem"),
    ("misoid.sampler", "run"),
)

ROOT = "cli.main"
HYPER_DRAWS = ("conditionals.sample_lambda_common",
               "conditionals.sample_lambda_k",
               "conditionals.sample_sigma2_from_sumsq")


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def _variant_of(args, kwargs):
    """Variant of a ``run(problem, config)`` call, or None if unreadable."""
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return getattr(config, "variant", None)


LABELS = {"sampler.run": _variant_of}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.labels: dict[int, str] = {}
        self.stack = [-1]
        self.absent: list[str] = []
        self.origin = time.perf_counter()

    def install(self, targets) -> None:
        """Wrap each target wherever a loaded misoid module binds it."""
        for module_name, path in targets:
            name = span_name(module_name, path)
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:                       # a method: patch its class
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("misoid"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call."""
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, labels, label = self.stack, self.labels, LABELS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            if label is not None:
                labels[sid] = label(args, kwargs)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
        return wrapper

    def dump(self) -> dict:
        """The whole trace as one JSON-ready document, times in seconds
        from the tracer's creation."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        return {
            "names": table,
            "spans": [[index[n], parent, start - self.origin, end - self.origin]
                      for n, parent, start, end in zip(
                          self.names, self.parents, self.starts, self.ends)],
            "labels": {str(k): v for k, v in self.labels.items()},
            "absent": self.absent,
        }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def span_table(doc: dict) -> dict:
    """Per span name: calls, total seconds, and self seconds (span time
    minus the time of the spans directly under it)."""
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict = {}
    for sid, (k, _, start, end) in enumerate(spans):
        row = table.setdefault(names[k], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[sid]
    return table


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced process.

    ``*_us`` / ``*_ms`` are medians per call (or per sweep), ``*_s`` totals
    over the process except init/save/report, which are medians per chain.
    A wrapped name with no calls reports 0.
    """
    names = doc["names"]
    spans = doc["spans"]
    by_name: dict = {}
    for k, _, start, end in spans:
        by_name.setdefault(names[k], []).append(end - start)

    def total(name):
        return sum(by_name.get(name, ()))

    def median_us(name):
        return _median(by_name.get(name, ())) * 1e6

    sweep_variant: dict = {}
    hyper_per_sweep: dict = {}
    for sid, (k, parent, start, end) in enumerate(spans):
        name = names[k]
        if name == "sampler.sweep":
            sweep_variant[sid] = doc["labels"].get(str(parent))
            hyper_per_sweep.setdefault(sid, 0.0)
        elif name in HYPER_DRAWS and parent >= 0:
            hyper_per_sweep[parent] = (hyper_per_sweep.get(parent, 0.0)
                                       + end - start)

    metrics = {
        "regression.load_s": (total("regression.load_dataset_csv"), "s"),
        "regression.build_s": (total("sampler.build_problem"), "s"),
        "regression.partial_projection_us": (
            median_us("regression.RegressorBank.partial_projection"), "us"),
        "regression.partial_projection.calls": (
            len(by_name.get("regression.RegressorBank.partial_projection", ())),
            "count"),
        "regression.residual_sumsq_us": (
            median_us("regression.RegressorBank.residual_sumsq"), "us"),
        "blocks.schedule_s": (total("blocks.compute_correlations")
                              + total("blocks.compute_block_probabilities"),
                              "s"),
        "blocks.correlation_calls": (
            len(by_name.get("blocks.compute_correlations", ())), "count"),
        "blocks.select_us": (median_us("blocks.select_block"), "us"),
        "kernel.quad_form_us": (median_us("kernel.quad_form"), "us"),
        "conditionals.single_us": (
            median_us("conditionals.theta_k_conditional"), "us"),
        "conditionals.pair_us": (
            median_us("conditionals.theta_block_conditional"), "us"),
        "conditionals.draw_us": (median_us("conditionals.draw_gaussian"), "us"),
        "conditionals.hyper_us": (
            _median(list(hyper_per_sweep.values())) * 1e6, "us"),
        "sampler.init_s": (_median(by_name.get("sampler.init_chain", ())), "s"),
        "sampler.save_s": (_median(by_name.get("sampler.save_record", ())), "s"),
        "diagnostics.report_s": (
            _median(by_name.get("diagnostics.build_report", ())), "s"),
    }
    for variant in VARIANTS:
        times = [spans[sid][3] - spans[sid][2]
                 for sid, v in sweep_variant.items() if v == variant]
        metrics[f"sampler.sweep_ms.{variant}"] = (_median(times) * 1e3, "ms")
    metrics["cli.self_s"] = (
        span_table(doc).get(ROOT, {"self_s": 0.0})["self_s"], "s")
    return metrics
