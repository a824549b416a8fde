"""Spans around noisebench's layer boundaries, recorded from outside the package.

The package imports its functions by name (noisebench.noise.estimate_normals,
noisebench.pipeline.corrupt_cloud, ...), so each function is wrapped at the
module attribute its caller looks up, and restored afterwards. The program's
source is not edited.

A span is (id, name, start, end, parent, sample, ok, count): `parent` is the
id of the span that caused it, `sample` the id shared by every span of one
corrupted sample, `count` a number the layer produced (bytes, outliers, ...).
Spans stay in memory until the caller writes them out.
"""

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _file_size(result, args):
    return os.path.getsize(args[0])


# (module, attribute the caller looks up, span name, role, count)
# role "pool": its samples run on worker threads; role "sample": one sample
TARGETS = [
    ("noisebench.cli", "main", "cli.main", None, None),
    ("noisebench.pipeline", "read_manifest", "pipeline.read_manifest", None, None),
    ("noisebench.pipeline", "generate_benchmark", "pipeline.generate_benchmark", "pool", None),
    ("noisebench.pipeline", "_corrupt_one", "pipeline.sample", "sample", None),
    ("noisebench.pipeline", "read_cloud", "pipeline.read_cloud", None, _file_size),
    ("noisebench.pipeline", "write_annotated", "pipeline.write_annotated", None,
     _file_size),
    ("noisebench.pipeline", "corrupt_cloud", "noise.corrupt_cloud", None, None),
    ("noisebench.noise", "range_to_sensor", "geometry.range_to_sensor", None, None),
    ("noisebench.noise", "estimate_normals", "geometry.estimate_normals", None,
     lambda result, args: int(result.degenerate.sum())),
    ("noisebench.noise", "incidence_cosine", "geometry.incidence_cosine", None, None),
    ("noisebench.noise", "inject_outliers", "noise.inject_outliers", None,
     lambda result, args: int(result[1].sum())),
    ("noisebench.metrics", "read_predictions", "metrics.read_predictions", None,
     lambda result, args: len(result)),
    ("noisebench.metrics", "read_sigma_summary", "metrics.read_sigma_summary", None, None),
    ("noisebench.metrics", "evaluate", "metrics.evaluate", None, None),
    ("noisebench.metrics", "accuracy", "metrics.accuracy", None, None),
    ("noisebench.metrics", "reliability_curve", "metrics.reliability_curve", None, None),
    ("noisebench.metrics", "ece", "metrics.ece", None, None),
    ("noisebench.metrics", "uncertainty_correlation", "metrics.uncertainty_correlation",
     None, None),
    ("noisebench.metrics", "quartile_bins", "metrics.quartile_bins", None, None),
    ("noisebench.metrics", "stratified_ece", "metrics.stratified_ece", None, None),
    ("noisebench.metrics", "write_report", "metrics.write_report", None, None),
]

SPAN_NAMES = [name for _, _, name, _, _ in TARGETS]

# per-layer count metric -> span whose `count` it sums
COUNTS = {
    "pipeline.bytes_read": "pipeline.read_cloud",
    "pipeline.bytes_written": "pipeline.write_annotated",
    "geometry.degenerate_normals": "geometry.estimate_normals",
    "noise.outliers": "noise.inject_outliers",
    "metrics.rows_read": "metrics.read_predictions",
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._samples = itertools.count(1)
        self._local = threading.local()
        self._pool_span = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, role=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = next(self._ids)
            if role == "sample":
                parent, sample = self._pool_span, next(self._samples)
            elif stack:
                parent, sample = stack[-1]
            else:
                parent, sample = None, None
            if role == "pool":
                outer, self._pool_span = self._pool_span, span
            stack.append((span, sample))
            ok, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if role == "pool":
                    self._pool_span = outer
                n = count(result, args) if ok and count else 0
                self.spans.append((span, name, start, end, parent, sample, ok, n))
            return result
        return traced


@contextmanager
def installed(tracer):
    """Route every TARGETS lookup through `tracer` until the block exits."""
    saved = []
    try:
        for module, attr, name, role, count in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, role, count))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for span, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {span: end - start - _covered(children[span], start, end)
            for span, _, start, end, *_ in spans}


def layer_metrics(spans, passes, threads):
    """Per-layer metrics, each per traced pass, plus how the tail was chosen."""
    own = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s[1] == name]
        out[f"{name}.self_s"] = sum(own[s[0]] for s in mine) / passes
        out[f"{name}.calls"] = len(mine) / passes
    for metric, name in COUNTS.items():
        out[metric] = sum(s[7] for s in spans if s[1] == name) / passes
    out["trace.total_self_s"] = sum(own.values()) / passes

    samples = [s for s in spans if s[1] == "pipeline.sample"]
    ms = np.array([(s[3] - s[2]) * 1e3 for s in samples])
    tail = next((p for p in TAIL_PERCENTILES if len(ms) * (1 - p / 100) >= 10), None)
    out["pipeline.sample_ms_p50"] = float(np.median(ms)) if len(ms) else 0.0
    if tail is None:
        out["pipeline.sample_ms_tail"] = float(ms.max()) if len(ms) else 0.0
        tail_label = f"max of {len(ms)} samples"
    else:
        out["pipeline.sample_ms_tail"] = float(np.percentile(ms, tail))
        tail_label = f"p{tail:g} of {len(ms)} samples"
    pool_wall = sum(s[3] - s[2] for s in spans if s[1] == "pipeline.generate_benchmark")
    out["pipeline.worker_occupancy"] = (
        float(ms.sum()) / 1e3 / (threads * pool_wall) if pool_wall else 0.0)
    out["pipeline.failed_samples"] = sum(1 for s in samples if not s[6]) / passes
    return out, tail_label
