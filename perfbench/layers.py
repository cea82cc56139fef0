"""Per-layer metrics of one round, from the span summaries of its processes.

A `*_s` metric is the self time of a span name (span time minus the time of
the spans directly inside it), summed over the round's processes.  A count
is summed the same way.  A `ns_per_*` or `s_per_*` ratio divides the
inclusive time of the span by its work count, so it is the cost of one unit
of work including the layers below.  A ratio with no work reads 0.
"""
from __future__ import annotations

STAGES = ("assumptions", "simulate", "lyapunov", "kappa", "tail", "sigma", "limit", "nondeg")
FAMILIES = ("similarity", "scalar_two_point")

METRICS = {
    "recursion.sample_stationary_s": "s",
    "recursion.series_terms": "count",
    "recursion.ns_per_series_term": "ns",
    "recursion.birkhoff_sums_s": "s",
    "recursion.ns_per_forward_step": "ns",
    "recursion.lyapunov_s": "s",
    "recursion.ns_per_lyapunov_step": "ns",
    "env_models.matrix_draws": "count",
    **{f"env_models.ns_per_matrix_draw.{f}": "ns" for f in FAMILIES},
    "env_models.check_assumptions_s": "s",
    "spectral.build_operator_draws_s": "s",
    "spectral.operator_rebuilds": "count",
    "spectral.s_per_operator_rebuild": "s",
    "spectral.solve_kappa_s": "s",
    "spectral.rho_evaluations": "count",
    "spectral.fixed_point_residuals_s": "s",
    "spectral.goldie_constant_s": "s",
    "spectral.goldie_constant_peak_mb": "MB",
    "tails.summarize_tails_s": "s",
    "tails.direct_K_s": "s",
    "tails.estimate_sigma_s": "s",
    "tails.check_sigma_invariance_s": "s",
    "stable_limit.sample_w_matrices_s": "s",
    "stable_limit.w_terms": "count",
    "stable_limit.compute_stable_law_s": "s",
    "stable_limit.empirical_cf_s": "s",
    "stable_limit.transposed_positivity_check_s": "s",
    "batches.to_csv_s": "s",
    "batches.from_csv_s": "s",
    "batches.csv_mb": "MB",
    "batches.ns_per_row_written": "ns",
    "batches.ns_per_row_read": "ns",
    "cli.import_s": "s",
    **{f"cli.stage.{s}_s": "s" for s in STAGES},
    "cli.artifact_write_s": "s",
    "cli.artifact_load_s": "s",
}

# ratio metric -> (span name, work count, unit scale)
RATIOS = {
    "recursion.ns_per_series_term": ("recursion.sample_stationary", "recursion.series_terms", 1e9),
    "recursion.ns_per_forward_step": ("recursion.birkhoff_sums", "recursion.forward_steps", 1e9),
    "recursion.ns_per_lyapunov_step": ("recursion.lyapunov", "recursion.lyapunov_steps", 1e9),
    **{f"env_models.ns_per_matrix_draw.{f}": (f"env_models.sample.{f}", f"env_models.draws.{f}", 1e9)
       for f in FAMILIES},
    "spectral.s_per_operator_rebuild": ("spectral.operator_rebuild", "spectral.operator_rebuilds", 1.0),
    "batches.ns_per_row_written": ("batches.to_csv", "batches.rows_written", 1e9),
    "batches.ns_per_row_read": ("batches.from_csv", "batches.rows_read", 1e9),
}


def derive(records: list) -> dict:
    """Per-layer metrics of one round from its processes' records."""
    self_s, incl_s, counts, peak = {}, {}, {}, 0
    import_s = 0.0
    for rec in records:
        layer = rec.get("layers")
        if layer is None:
            continue
        import_s += rec.get("import_s", 0.0)
        for src, dst in ((layer["self_s"], self_s), (layer["incl_s"], incl_s),
                         (layer["counts"], counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        counts["spectral.operator_rebuilds"] = (counts.get("spectral.operator_rebuilds", 0)
                                                + layer["calls"].get("spectral.operator_rebuild", 0))
        peak = max(peak, layer["peak_bytes"].get("spectral.goldie_constant", 0))
    # a self-time metric is named after its span: "<span>_s"
    out = {name: self_s.get(name[:-2], 0.0) for name in METRICS if name.endswith("_s")}
    for name, (span, work, scale) in RATIOS.items():
        out[name] = incl_s.get(span, 0.0) * scale / counts[work] if counts.get(work) else 0.0
    out["recursion.series_terms"] = counts.get("recursion.series_terms", 0)
    out["env_models.matrix_draws"] = sum(v for k, v in counts.items()
                                         if k.startswith("env_models.draws."))
    out["spectral.operator_rebuilds"] = counts.get("spectral.operator_rebuilds", 0)
    out["spectral.rho_evaluations"] = counts.get("spectral.rho_evaluations", 0)
    out["spectral.goldie_constant_peak_mb"] = peak / 1e6
    out["stable_limit.w_terms"] = counts.get("stable_limit.w_terms", 0)
    out["batches.csv_mb"] = counts.get("batches.bytes_written", 0) / 1e6
    out["cli.import_s"] = import_s
    return {name: out[name] for name in METRICS}
