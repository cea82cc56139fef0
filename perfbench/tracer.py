"""Spans around the layer boundaries of kestenlab, installed from outside.

Only the traced run imports this module.  It replaces the functions and
methods named in BOUNDARIES, in every kestenlab module that holds them
(including ``from x import f`` copies and dispatch tables such as
``cli.STAGE_FUNCS``), by wrappers that record a span: name, start, end and
the index of the enclosing span.  Spans stay in memory until the process
ends.  ``summarize`` turns them into per-name self time (span time minus the
time of its direct children), inclusive time and call counts; the work
counts used by the ratio metrics are taken from arguments and results.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc

from layers import STAGES

# (module, attribute) -> span name.  An attribute "Class.method" wraps the
# method on the class.  Each span is one layer boundary of a per-layer metric.
BOUNDARIES = {
    ("recursion", "sample_stationary"): "recursion.sample_stationary",
    ("recursion", "birkhoff_sums"): "recursion.birkhoff_sums",
    ("recursion", "lyapunov"): "recursion.lyapunov",
    ("env_models", "check_assumptions"): "env_models.check_assumptions",
    ("env_models", "ScalarTwoPoint.sample"): "env_models.sample.scalar_two_point",
    ("env_models", "Similarity.sample"): "env_models.sample.similarity",
    ("env_models", "GaussianMatrix.sample"): "env_models.sample.gaussian",
    ("env_models", "DiagonalTimesRotation.sample"): "env_models.sample.diag_rotation",
    ("env_models", "ConstantMatrix.sample"): "env_models.sample.constant",
    ("spectral", "build_operator_draws"): "spectral.build_operator_draws",
    ("spectral", "OperatorDraws.matrix"): "spectral.operator_rebuild",
    ("spectral", "solve_kappa"): "spectral.solve_kappa",
    ("spectral", "fixed_point_residuals"): "spectral.fixed_point_residuals",
    ("spectral", "goldie_constant"): "spectral.goldie_constant",
    ("tails", "summarize_tails"): "tails.summarize_tails",
    ("tails", "direct_K"): "tails.direct_K",
    ("tails", "estimate_sigma"): "tails.estimate_sigma",
    ("tails", "check_sigma_invariance"): "tails.check_sigma_invariance",
    ("stable_limit", "sample_w_matrices"): "stable_limit.sample_w_matrices",
    ("stable_limit", "compute_stable_law"): "stable_limit.compute_stable_law",
    ("stable_limit", "empirical_cf"): "stable_limit.empirical_cf",
    ("stable_limit", "transposed_positivity_check"): "stable_limit.transposed_positivity_check",
    ("batches", "SampleBatch.to_csv"): "batches.to_csv",
    ("batches", "SampleBatch.from_csv"): "batches.from_csv",
    ("cli", "main"): "cli.main",
    ("cli", "write_canonical_json"): "cli.artifact_write",
    ("cli", "need_stationary"): "cli.artifact_load",
    ("cli", "need_solution"): "cli.artifact_load",
    ("cli", "need_sigma"): "cli.artifact_load",
    ("cli", "need_stable_law"): "cli.artifact_load",
    **{("cli", f"stage_{s}"): f"cli.stage.{s}" for s in STAGES},
}

# spans whose tracemalloc peak is recorded (tracing memory only inside them)
MEMORY_SPANS = {"spectral.goldie_constant"}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count(name):
    """Work counts taken from a call's arguments and result, by span name."""
    if name == "recursion.sample_stationary":
        return {"recursion.series_terms":
                lambda f, a, k, r: round(r.info["mean_depth"] * r.count)}
    if name == "recursion.birkhoff_sums":
        return {"recursion.forward_steps":
                lambda f, a, k, r: _arg(f, a, k, "cfg").n_steps * _arg(f, a, k, "cfg").replicas}
    if name == "recursion.lyapunov":
        return {"recursion.lyapunov_steps":
                lambda f, a, k, r: _arg(f, a, k, "n_steps") * _arg(f, a, k, "replicas")}
    if name.startswith("env_models.sample."):
        return {"env_models.draws." + name.rsplit(".", 1)[1]: lambda f, a, k, r: r.shape[0]}
    if name == "spectral.solve_kappa":
        return {"spectral.rho_evaluations": lambda f, a, k, r: len(r.rho_history)}
    if name == "stable_limit.sample_w_matrices":
        return {"stable_limit.w_terms": lambda f, a, k, r: round(r.mean_depth * r.count)}
    if name == "batches.to_csv":
        return {"batches.rows_written": lambda f, a, k, r: _arg(f, a, k, "self").count,
                "batches.bytes_written":
                    lambda f, a, k, r: os.path.getsize(_arg(f, a, k, "path"))}
    if name == "batches.from_csv":
        return {"batches.rows_read": lambda f, a, k, r: r.count}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.peak_bytes = {}
        self.warnings = []

    def wrap(self, name, fn):
        counters = _count(name)
        track_memory = name in MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if track_memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[name] = max(tracer.peak_bytes.get(name, 0), peak)
            for key, count in counters.items():
                try:
                    tracer.counts[key] = tracer.counts.get(key, 0) + count(fn, args, kwargs, result)
                except Exception as exc:  # a count must never break the traced program
                    tracer.warnings.append(f"{key}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def summarize(self) -> dict:
        """Per span name: self seconds, inclusive seconds and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, incl_s, calls = {}, {}, {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls,
                "counts": self.counts, "peak_bytes": self.peak_bytes,
                "warnings": self.warnings}


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES; a missing one is reported, not fatal."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "kestenlab" or n.startswith("kestenlab.")]
    for (mod_name, attr), span_name in BOUNDARIES.items():
        module = sys.modules.get(f"kestenlab.{mod_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(method) if owner is not None else None
        if raw is None:
            tracer.warnings.append(f"kestenlab.{mod_name}.{attr} not found; not traced")
            continue
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(tracer.wrap(span_name, raw.__func__)))
            else:
                setattr(owner, method, tracer.wrap(span_name, raw))
            continue
        new = tracer.wrap(span_name, raw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = new
