"""Spans around the calls into somalloc's public functions.

The tracer replaces the traced functions with wrappers for the duration of
a ``with tracer.installed():`` block and puts the originals back on exit,
so untraced repetitions in the same process run the unmodified library.
A function is replaced on its defining module and on ``somalloc.pipeline``,
which imports several of them by name; calls inside a module that go
through its own globals (``reduce_codebook`` -> ``train_som``,
``load_dataset`` -> ``load_continuous``) become child spans.

Each span holds its name, start, end, parent and the counts taken at that
boundary.  Per-layer figures are sums of self time: a span's duration minus
the part covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# span name -> layer; every traced function appears here exactly once
LAYER_OF = {
    "dataset.load_dataset": "dataset.parse",
    "dataset.load_continuous": "dataset.parse",
    "dataset.load_categorical": "dataset.parse",
    "dataset.save_dataset": "dataset.write",
    "dataset.save_continuous": "dataset.write",
    "dataset.save_categorical": "dataset.write",
    "dataset.save_labels": "dataset.write",
    "dataset.subset_continuous": "dataset.prep",
    "dataset.renormalize_composition": "dataset.prep",
    "dataset.split_dataset": "dataset.prep",
    "varselect.select_variables": "varselect.screen",
    "som.train_som": "som.train",
    # the level-2 map is a child train_som span; reduce's own work is < 1 ms
    "som.reduce_codebook": "som.train",
    "som.cluster_labels": "som.assign",
    "som.quantization_error": "som.assign",
    "allocation.true_classes": "som.assign",
    "profiles.describe_clusters": "profiles.describe",
    "logit.fit_logit": "logit.fit",
    "allocation.allocate": "allocation.allocate",
    "allocation.build_contingency": "allocation.score",
    "allocation.evaluate": "allocation.score",
}

# layers whose spans also measure the traced (tracemalloc) allocation peak
_MEMORY_LAYERS = {"som.assign"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    # time the tracer itself spent inside this span, around its children
    bookkeeping: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dead_units(codebook, data) -> int:
    """Units that win no row of their own training data."""
    som = importlib.import_module("somalloc.som")
    wins = np.bincount(som.assign_all(codebook, data), minlength=codebook.units)
    return int((wins == 0).sum())


def _counts(name: str, args: tuple, result) -> dict:
    """Work done at one boundary, read from the call's arguments and result."""
    if name in ("dataset.load_continuous", "dataset.load_categorical"):
        return {"bytes": os.path.getsize(args[0])}
    if name == "varselect.select_variables":
        return {"vars_kept": len(result.selected_indices)}
    if name == "som.train_som":
        data, cfg = args[0], args[1]
        return {
            "steps": cfg.epochs * data.n_rows,
            "dead_units": _dead_units(result, data),
        }
    if name in ("som.cluster_labels", "som.quantization_error", "allocation.true_classes"):
        return {"rows": args[1].n_rows}
    if name == "logit.fit_logit":
        diag = result.diagnostics
        return {"newton_iters": diag.iterations, "ridge_refit": int(diag.ridge > 0.0)}
    if name == "allocation.allocate":
        return {"rows": result.n_rows, "missing_cells": int(result.missing_counts.sum())}
    return {}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        measure_memory = LAYER_OF[name] in _MEMORY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if measure_memory:
                tracemalloc.start()
            try:
                with self.span(name) as record:
                    result = fn(*args, **kwargs)
            finally:
                if measure_memory:
                    record.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            record.counts.update(_counts(name, args, result))
            if record.parent is not None:
                self.spans[record.parent].bookkeeping += (
                    record.start - entered + time.perf_counter() - record.end
                )
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        pipeline = importlib.import_module("somalloc.pipeline")
        saved = []
        try:
            for name in LAYER_OF:
                module_name, attr = name.split(".")
                module = importlib.import_module(f"somalloc.{module_name}")
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for target in (module, pipeline):
                    if getattr(target, attr, None) is original:
                        saved.append((target, attr, original))
                        setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's and the tracer's own work."""
        own = [s.duration - s.bookkeeping for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_list(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer self times, counts and ratios from one traced run.

    The roots' self time is ``pipeline.self_s``: time outside every layer
    span, i.e. the pipeline's own artifact writing.  ``untraced_wall_s`` is
    the untraced wall time of the operations the roots cover; the traced
    wall time minus it is ``trace.overhead_s``.
    """
    t: dict[str, float] = defaultdict(float)  # layer -> self time
    n: dict[str, int] = defaultdict(int)  # "layer.count" -> total
    peak = 0
    outside = traced_wall = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.parent is None:
            outside += own
            traced_wall += span.duration
            continue
        layer = LAYER_OF[span.name]
        t[layer] += own
        for key, value in span.counts.items():
            if key == "peak_bytes":
                peak = max(peak, value)
            else:
                n[f"{layer}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "dataset.parse_s": t["dataset.parse"],
        "dataset.parse_mb_per_s": ratio(n["dataset.parse.bytes"] / 1e6, t["dataset.parse"]),
        "dataset.write_s": t["dataset.write"],
        "dataset.prep_s": t["dataset.prep"],
        "varselect.screen_s": t["varselect.screen"],
        "varselect.vars_kept": n["varselect.screen.vars_kept"],
        "som.train_s": t["som.train"],
        "som.steps": n["som.train.steps"],
        "som.us_per_step": ratio(t["som.train"] * 1e6, n["som.train.steps"]),
        "som.dead_units": n["som.train.dead_units"],
        "som.assign_s": t["som.assign"],
        "som.assign_rows": n["som.assign.rows"],
        "som.assign_peak_mb": peak / 1e6,
        "profiles.describe_s": t["profiles.describe"],
        "logit.fit_s": t["logit.fit"],
        "logit.newton_iters": n["logit.fit.newton_iters"],
        "logit.s_per_iter": ratio(t["logit.fit"], n["logit.fit.newton_iters"]),
        "logit.ridge_refit": n["logit.fit.ridge_refit"],
        "allocation.allocate_s": t["allocation.allocate"],
        "allocation.us_per_row": ratio(t["allocation.allocate"] * 1e6,
                                       n["allocation.allocate.rows"]),
        "allocation.missing_cells": n["allocation.allocate.missing_cells"],
        "allocation.score_s": t["allocation.score"],
        "pipeline.self_s": outside,
        "trace.overhead_s": traced_wall - untraced_wall_s,
    }
