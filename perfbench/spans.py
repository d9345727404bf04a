"""Spans and counters recorded around calls into the eof layers.

The tracer wraps public functions of the library from outside: each wrapped
function is replaced, in every eof module that binds it, by a wrapper that
times the call as a span and adds the layer's work counts.  Nothing inside
the library changes.  A span's self time is its duration minus the time its
child spans cover.  Spans are kept in memory and summed per name; the
benchmark runs one client in one thread, so one stack suffices.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

EOF_MODULES = ("eof", "eof.bench", "eof.cli", "eof.learn", "eof.embedding",
               "eof.design", "eof.baselines")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Per-name span totals and counters for one traced pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []    # [name, seconds covered by child spans]

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def call(self, name, fn, args, kwargs):
        # a layer that calls itself through a patched name is one span
        if any(frame[0] == name for frame in self._stack):
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.seconds[name] += dt
            self.self_seconds[name] += dt - frame[1]


def _count_embedding(t, args, kwargs, F):
    S, X = _arg(args, kwargs, 1, "S"), _arg(args, kwargs, 2, "X")
    rows = len(X)
    levels = len({idx.l for idx in S})
    t.add("embedding.rows", rows)
    t.add("embedding.nnz", F.nnz)
    t.add("embedding.row_levels", rows * levels)
    t.peak("embedding.levels", levels)


def _count_ridge(t, args, kwargs, model):
    M = _arg(args, kwargs, 0, "F").shape[1]
    t.peak("learn.ridge_fit.M", M)
    t.add("learn.ridge_fit.M3", float(M) ** 3)
    t.add("learn.ridge_fit.nnz", model.nnz_F)
    t.add("learn.nnz_F", model.nnz_F)


def _count_logistic(t, args, kwargs, model):
    t.add("learn.nnz_F", model.nnz_F)


def _count_select(t, args, kwargs, fmap):
    pool, X = _arg(args, kwargs, 0, "pool"), _arg(args, kwargs, 2, "X")
    t.add("baselines.pool_cells", len(X) * pool.M)


def _count_rf_embed(t, args, kwargs, Z):
    t.add("baselines.rf_embed.cells", Z.size)


def _count_design(t, args, kwargs, result):
    t.add("design.calls", 1)
    if hasattr(result, "__len__"):
        t.add("design.features", len(result))


# (module, function, span name, counter); each must exist in the library,
# so that a moved or renamed layer stops the traced run instead of reading 0
LAYERS = (
    ("eof.embedding", "embed_batch", "embedding", _count_embedding),
    ("eof.learn", "ridge_fit", "learn.ridge_fit", _count_ridge),
    ("eof.learn", "logistic_fit", "learn.logistic_fit", _count_logistic),
    ("eof.learn", "predict", "learn.predict", None),
    ("eof.learn", "save_model", "learn.save_model", None),
    ("eof.baselines", "lkrf_select", "baselines.select", _count_select),
    ("eof.baselines", "eerf_select", "baselines.select", _count_select),
    ("eof.baselines", "rks_map", "baselines.map", None),
    ("eof.baselines", "orf_map", "baselines.map", None),
    ("eof.baselines", "rf_embed", "baselines.rf_embed", _count_rf_embed),
    ("eof.design", "enumerate_sparse_grid", "design", _count_design),
    ("eof.design", "truncate_random", "design", _count_design),
    ("eof.design", "entropic_select", "design", _count_design),
    ("eof.design", "level_for_feature_count", "design", _count_design),
    ("eof.bench", "estimate_sigma", "bench.estimate_sigma", None),
    ("eof.bench", "run_benchmark", "bench.run_benchmark", None),
    ("eof.bench", "load_csv", "bench.load_csv", None),
    ("eof.bench", "standardize", "bench.standardize", None),
    ("eof.cli", "main", "cli", None),
)


def _wrap(tracer, name, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Route the LAYERS functions through ``tracer`` while the block runs.

    Each function is patched in every loaded eof module that binds the same
    object, since modules import some of them by name; all are restored on
    exit.  A LAYERS entry the library lacks raises LookupError.
    """
    modules = [sys.modules[m] for m in EOF_MODULES if m in sys.modules]
    saved = []
    try:
        for mod_name, fn_name, span, counter in LAYERS:
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if fn is None:
                raise LookupError(f"layer {mod_name}.{fn_name} not found in eof")
            wrapper = _wrap(tracer, span, fn, counter)
            for mod in modules:
                if mod.__dict__.get(fn_name) is fn:
                    saved.append((mod, fn_name, fn))
                    setattr(mod, fn_name, wrapper)
        yield tracer
    finally:
        for mod, fn_name, fn in reversed(saved):
            setattr(mod, fn_name, fn)


TIME_UNITS = ("s", "us", "ns")


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_row"):
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    s, c = t.seconds, t.counts
    return {
        "embedding.s": s["embedding"],
        "embedding.rows": c["embedding.rows"],
        "embedding.nnz": c["embedding.nnz"],
        "embedding.levels": c["embedding.levels"],
        "embedding.us_per_row": _ratio(s["embedding"], c["embedding.rows"], 1e6),
        "embedding.ns_per_row_level": _ratio(s["embedding"],
                                             c["embedding.row_levels"], 1e9),
        "learn.ridge_fit.s": s["learn.ridge_fit"],
        "learn.ridge_fit.M": c["learn.ridge_fit.M"],
        "learn.ridge_fit.nnz": c["learn.ridge_fit.nnz"],
        "learn.ridge_fit.ns_per_nnz": _ratio(s["learn.ridge_fit"],
                                             c["learn.ridge_fit.nnz"], 1e9),
        "learn.ridge_fit.ns_per_M3": _ratio(s["learn.ridge_fit"],
                                            c["learn.ridge_fit.M3"], 1e9),
        "learn.nnz_F": c["learn.nnz_F"],
        "learn.logistic_fit.s": s["learn.logistic_fit"],
        "learn.predict.s": s["learn.predict"],
        "learn.save_model.s": s["learn.save_model"],
        "baselines.select.s": s["baselines.select"],
        "baselines.pool_cells": c["baselines.pool_cells"],
        "baselines.map.s": s["baselines.map"],
        "baselines.rf_embed.s": s["baselines.rf_embed"],
        "baselines.rf_embed.cells": c["baselines.rf_embed.cells"],
        "design.s": s["design"],
        "design.calls": c["design.calls"],
        "design.features": c["design.features"],
        "bench.estimate_sigma.s": s["bench.estimate_sigma"],
        "bench.run_benchmark.self_s": t.self_seconds["bench.run_benchmark"],
        "bench.load_csv.s": s["bench.load_csv"],
        "bench.standardize.s": s["bench.standardize"],
        "cli.self_s": t.self_seconds["cli"],
    }
