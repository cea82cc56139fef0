"""Batch front-end: parse a run configuration, orchestrate the pipeline,
and emit machine-readable results.

All randomness flows from one root seed; every stage derives its own
substreams, so stage-by-stage runs reproduce the numbers of a full run.
Reports are written as canonical JSON (sorted keys, floats at 17
significant digits) so identical configurations give byte-identical
numeric payloads.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import recursion, spectral, stable_limit, tails
from .batches import SampleBatch, atomic_write
from .env_models import (ConfigurationError, Environment, build_environment,
                         check_assumptions)
from .rng import substream
from .spectral import build_grid

THREADS_ENV_VAR = "KESTENLAB_THREADS"
LOCK_NAME = ".kestenlab.lock"

STAGES = ("assumptions", "simulate", "lyapunov", "kappa", "tail", "sigma",
          "limit", "nondeg")
STAGE_INDEX = {name: i + 1 for i, name in enumerate(STAGES)}
STAGE_DEPENDENCIES = {
    "assumptions": (),
    "simulate": (),
    "lyapunov": (),
    "kappa": (),
    "tail": ("simulate", "kappa"),
    "sigma": ("simulate", "kappa"),
    "limit": ("simulate", "kappa", "sigma"),
    "nondeg": ("limit",),
}
ARTIFACTS = {
    "simulate": "stationary_samples.csv",
    "kappa": "spectral_solution.json",
    "sigma": "sigma.json",
    "limit": "stable_law.json",
}


class CliConfigError(ConfigurationError):
    """Schema violation; the message carries the offending field path."""


class MissingArtifactError(FileNotFoundError):
    """A stage needs an upstream output that is not on disk."""


class StageCheckFailure(RuntimeError):
    """An invariant check requested by the configuration failed."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    obj = _jsonable(obj)

    def emit(x) -> str:
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        if isinstance(x, float):
            if not math.isfinite(x):
                return json.dumps(str(x))
            return format(x, ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        if isinstance(x, list):
            return "[" + ",".join(emit(v) for v in x) + "]"
        if isinstance(x, dict):
            return "{" + ",".join(
                f"{json.dumps(k)}:{emit(v)}" for k, v in sorted(x.items())) + "}"
        raise TypeError(f"cannot serialize {type(x)!r}")

    return emit(obj)


def write_canonical_json(obj, path: Path) -> None:
    with atomic_write(path) as fh:
        fh.write(canonical_json(obj) + "\n")


def _write_csv(path: Path, rows: np.ndarray, header: str) -> None:
    """The bytes of np.savetxt, written through a temporary file so that a
    failed write leaves the previous file in place."""
    with atomic_write(path) as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header)


def env_hash(env_block: dict) -> str:
    return hashlib.sha256(canonical_json(env_block).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "grid": {"resolution": 32},
    "mc": {
        "seed": None,
        "assumptions_n": 20_000,
        "lyapunov": {"n_steps": 10_000, "replicas": 100},
        "stationary": {"count": 200_000, "tolerance": 1e-9, "truncation": None},
        "spectral": {"mc_per_point": 10_000, "bracket": [0.2, 3.0]},
        "tails": {"top_fraction": 0.01,
                  "threshold_quantiles": [0.98, 0.99, 0.995],
                  "n_directions": 4},
        "sigma": {"threshold_quantile": 0.99, "invariance_mc": 10_000},
        "limit": {"log2_n": 12, "replicas": 4_000, "w_draws": 2_000,
                  "s_values": [0.1, 0.25, 0.5, 1.0, 1.5, 2.0],
                  "n_directions": 4},
    },
    "checks": {
        "rho_band": 0.01,
        "eigen_residual_max": 0.05,
        "sigma_invariance_max": 0.10,
        "cf_deviation_max": 0.15,
    },
    "output": {"directory": "out", "formats": ["json", "csv"]},
}


def _fail(path: str, message: str):
    raise CliConfigError(f"{path}: {message}")


def _expect_positive_int(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _expect_number(value, path: str, positive: bool = False) -> float:
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        _fail(path, f"expected a finite number, got {value!r}")
    if positive and value <= 0:
        _fail(path, f"expected a positive number, got {value!r}")
    return float(value)


def _expect_in(value, path: str, lo: float, hi: float, hi_closed: bool = False) -> float:
    """A number in (lo, hi), or in (lo, hi] with hi_closed."""
    x = _expect_number(value, path)
    if not (lo < x < hi or (hi_closed and x == hi)):
        _fail(path, f"expected a number in ({lo:g}, {hi:g}{']' if hi_closed else ')'}, "
                    f"got {value!r}")
    return x


def _expect_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, f"expected a non-empty list, got {value!r}")
    return list(value)


def _merge_defaults(block, defaults: dict, path: str) -> dict:
    """The defaults overlaid with a config block; a key the defaults do not
    know is refused with its path, so a misspelled key cannot silently
    leave its default in place."""
    if block is None:
        block = {}
    if not isinstance(block, dict):
        _fail(path, f"expected a mapping, got {block!r}")
    out = copy.deepcopy(defaults)
    for k, v in block.items():
        if k not in defaults:
            _fail(f"{path}.{k}", f"unknown key; valid: {', '.join(defaults)}")
        out[k] = _merge_defaults(v, defaults[k], f"{path}.{k}") \
            if isinstance(defaults[k], dict) else v
    return out


@dataclass
class RunConfig:
    env: Environment
    env_block: dict
    grid: dict
    mc: dict
    checks: dict
    pipeline: list
    output: dict
    seed: int

    @property
    def env_hash(self) -> str:
        return env_hash(self.env_block)


def validate_config(raw: dict, *, seed_override: int | None = None,
                    out_override: str | None = None,
                    count_override: int | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise CliConfigError("config: expected a mapping at the top level")
    for key in raw:
        if key not in ("env", "pipeline", *_DEFAULTS):
            _fail(str(key), f"unknown key; valid: env, pipeline, {', '.join(_DEFAULTS)}")
    try:
        env = build_environment(raw.get("env"), "env")
    except ConfigurationError as exc:
        raise CliConfigError(str(exc)) from exc

    grid = _merge_defaults(raw.get("grid"), _DEFAULTS["grid"], "grid")
    _expect_positive_int(grid["resolution"], "grid.resolution", minimum=2)

    mc = _merge_defaults(raw.get("mc"), _DEFAULTS["mc"], "mc")
    if count_override is not None:
        mc["stationary"]["count"] = _expect_positive_int(count_override, "--n")
    _expect_positive_int(mc["assumptions_n"], "mc.assumptions_n", minimum=1000)
    _expect_positive_int(mc["lyapunov"]["n_steps"], "mc.lyapunov.n_steps", minimum=100)
    _expect_positive_int(mc["lyapunov"]["replicas"], "mc.lyapunov.replicas")
    _expect_positive_int(mc["stationary"]["count"], "mc.stationary.count")
    _expect_positive_int(mc["spectral"]["mc_per_point"], "mc.spectral.mc_per_point", minimum=100)
    bracket = mc["spectral"]["bracket"]
    if (not isinstance(bracket, (list, tuple)) or len(bracket) != 2
            or not 0 < bracket[0] < bracket[1]):
        _fail("mc.spectral.bracket", f"expected [lo, hi] with 0 < lo < hi, got {bracket!r}")
    tails_block = mc["tails"]
    _expect_in(tails_block["top_fraction"], "mc.tails.top_fraction", 0.0, 0.05, hi_closed=True)
    quantiles = _expect_list(tails_block["threshold_quantiles"], "mc.tails.threshold_quantiles")
    for i, q in enumerate(quantiles):
        _expect_in(q, f"mc.tails.threshold_quantiles[{i}]", 0.0, 1.0)
    if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
        _fail("mc.tails.threshold_quantiles",
              f"expected strictly increasing values, got {quantiles!r}")
    _expect_positive_int(tails_block["n_directions"], "mc.tails.n_directions")
    _expect_in(mc["sigma"]["threshold_quantile"], "mc.sigma.threshold_quantile", 0.0, 1.0)
    _expect_positive_int(mc["sigma"]["invariance_mc"], "mc.sigma.invariance_mc", minimum=100)
    _expect_positive_int(mc["limit"]["log2_n"], "mc.limit.log2_n")
    _expect_positive_int(mc["limit"]["replicas"], "mc.limit.replicas")
    _expect_positive_int(mc["limit"]["w_draws"], "mc.limit.w_draws", minimum=100)
    _expect_positive_int(mc["limit"]["n_directions"], "mc.limit.n_directions")
    for i, s in enumerate(_expect_list(mc["limit"]["s_values"], "mc.limit.s_values")):
        _expect_number(s, f"mc.limit.s_values[{i}]", positive=True)

    pipeline = raw.get("pipeline", [])
    if not isinstance(pipeline, list):
        _fail("pipeline", "expected a list of stage names")
    seen: set[str] = set()
    for i, stage in enumerate(pipeline):
        if stage not in STAGES:
            _fail(f"pipeline[{i}]", f"unknown stage {stage!r}; valid: {', '.join(STAGES)}")
        for dep in STAGE_DEPENDENCIES[stage]:
            if dep not in seen:
                _fail(f"pipeline[{i}]",
                      f"stage {stage!r} needs {dep!r} earlier in the pipeline")
        seen.add(stage)

    output = _merge_defaults(raw.get("output"), _DEFAULTS["output"], "output")
    if out_override:
        output["directory"] = out_override
    for i, fmt in enumerate(output["formats"]):
        if fmt not in ("json", "csv"):
            _fail(f"output.formats[{i}]", f"unknown format {fmt!r}")

    checks = _merge_defaults(raw.get("checks"), _DEFAULTS["checks"], "checks")
    for name, value in checks.items():
        if _expect_number(value, f"checks.{name}") < 0:
            _fail(f"checks.{name}", f"expected a nonnegative number, got {value!r}")

    seed = seed_override if seed_override is not None else mc["seed"]
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big") >> 1
    if not isinstance(seed, int) or seed < 0:
        _fail("mc.seed", f"expected a nonnegative integer, got {seed!r}")

    return RunConfig(env=env, env_block=raw["env"], grid=grid, mc=mc,
                     checks=checks, pipeline=list(pipeline), output=output,
                     seed=int(seed))


def load_config(path, **overrides) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise CliConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise CliConfigError(f"config: not parseable YAML ({exc})")
    return validate_config(raw, **overrides)


def derive_seed(root: int, *key: int) -> int:
    """A 63-bit integer seed derived from the root by a counter split."""
    ss = np.random.SeedSequence(int(root), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# run context and artifact plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    config: RunConfig
    outdir: Path
    threads: int = 1
    fragments: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    @property
    def env(self) -> Environment:
        return self.config.env

    @property
    def seed(self) -> int:
        return self.config.seed

    def stream(self, stage: str, *key: int):
        return substream(self.seed, STAGE_INDEX[stage], *key)

    def stage_seed(self, stage: str, *key: int) -> int:
        return derive_seed(self.seed, STAGE_INDEX[stage], *key)

    def wants_csv(self) -> bool:
        return "csv" in self.config.output["formats"]

    def direction_set(self, n_directions: int) -> np.ndarray:
        grid = self.grid()
        if grid.n <= n_directions:
            return grid.points.copy()
        idx = np.linspace(0, grid.n, n_directions, endpoint=False).astype(int)
        return grid.points[idx]

    def grid(self) -> spectral.SphereGrid:
        if "grid" not in self.cache:
            self.cache["grid"] = build_grid(self.env.dim, self.config.grid["resolution"])
        return self.cache["grid"]


def _artifact_path(ctx: RunContext, stage: str) -> Path:
    return ctx.outdir / ARTIFACTS[stage]


def _require_artifact(ctx: RunContext, stage: str) -> Path:
    path = _artifact_path(ctx, stage)
    if not path.exists():
        raise MissingArtifactError(
            f"stage needs '{path}' from the '{stage}' stage; run it first")
    return path


def _check_env_hash(ctx: RunContext, recorded, source: str) -> None:
    if recorded != ctx.config.env_hash:
        raise StageCheckFailure(
            f"{source}: environment hash {recorded!r} does not match the "
            f"current config ({ctx.config.env_hash!r}); refusing to mix runs")


def need_stationary(ctx: RunContext) -> SampleBatch:
    if "stationary" not in ctx.cache:
        path = _require_artifact(ctx, "simulate")
        batch = SampleBatch.from_csv(path)
        _check_env_hash(ctx, batch.info.get("env_hash"), str(path))
        ctx.cache["stationary"] = batch
    return ctx.cache["stationary"]


def _read_artifact(ctx: RunContext, stage: str) -> dict:
    """The parsed JSON artifact of an upstream stage, refused when it was
    written for a different environment."""
    path = _require_artifact(ctx, stage)
    doc = json.loads(path.read_text())
    _check_env_hash(ctx, doc.get("env_hash"), str(path))
    return doc


def need_solution(ctx: RunContext) -> spectral.SpectralSolution:
    if "solution" not in ctx.cache:
        ctx.cache["solution"] = spectral.SpectralSolution.from_json_dict(
            _read_artifact(ctx, "kappa"))
    return ctx.cache["solution"]


def need_sigma(ctx: RunContext) -> tails.SpectralMeasure:
    if "sigma" not in ctx.cache:
        ctx.cache["sigma"] = tails.SpectralMeasure.from_json_dict(
            _read_artifact(ctx, "sigma"))
    return ctx.cache["sigma"]


def need_stable_law(ctx: RunContext) -> stable_limit.StableLaw:
    if "stable_law" not in ctx.cache:
        ctx.cache["stable_law"] = stable_limit.StableLaw.from_json_dict(
            _read_artifact(ctx, "limit"))
    return ctx.cache["stable_law"]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_assumptions(ctx: RunContext) -> dict:
    report = check_assumptions(ctx.env, ctx.config.mc["assumptions_n"],
                               ctx.stream("assumptions"))
    entries = {}
    for name, e in report.entries.items():
        entries[name] = {"verdict": e.verdict, "estimate": e.estimate,
                         "std_error": e.std_error, "detail": e.detail}
    ctx.checks["assumptions_checkable_pass"] = report.all_checkable_pass()
    return {"entries": entries, "mc_n": report.mc_n,
            "seed": ctx.stage_seed("assumptions")}


def stage_simulate(ctx: RunContext) -> dict:
    pre = recursion.lyapunov(ctx.env, 1000, 32, ctx.stream("simulate", 0))
    if not pre.contractive:
        raise StageCheckFailure(
            f"Lyapunov precheck beta = {pre.beta:.4f} >= 0: the chain has "
            "no stationary law to sample")
    block = ctx.config.mc["stationary"]
    cfg = recursion.SeriesConfig(
        truncation=block.get("truncation"),
        tolerance=block.get("tolerance") if block.get("truncation") is None else None,
        seed=ctx.stage_seed("simulate", 1))
    batch = recursion.sample_stationary(ctx.env, cfg, block["count"],
                                        threads=ctx.threads)
    batch.info["env_hash"] = ctx.config.env_hash
    batch.to_csv(_artifact_path(ctx, "simulate"))  # the samples are the artifact
    ctx.cache["stationary"] = batch
    # quantiles, not a mean: at kappa <= 1 the law of R has no mean
    return {"count": batch.count, "truncation": batch.info["truncation"],
            "mean_depth": batch.info["mean_depth"],
            "depth_quantiles": batch.info["depth_quantiles"],
            "norm_quantiles": recursion.quantiles(batch.norms()),
            "beta_precheck": pre.beta, "seed": cfg.seed}


def stage_lyapunov(ctx: RunContext) -> dict:
    block = ctx.config.mc["lyapunov"]
    est = recursion.lyapunov(ctx.env, block["n_steps"], block["replicas"],
                             ctx.stream("lyapunov"))
    ctx.checks["lyapunov_contractive"] = est.contractive
    return {"beta": est.beta, "std_error": est.std_error,
            "contractive": est.contractive, "n_steps": block["n_steps"],
            "replicas": block["replicas"], "seed": ctx.stage_seed("lyapunov")}


def stage_kappa(ctx: RunContext) -> dict:
    block = ctx.config.mc["spectral"]
    grid = ctx.grid()
    sol = spectral.solve_kappa(ctx.env, grid, tuple(block["bracket"]),
                               block["mc_per_point"], ctx.stream("kappa", 0))
    r_res, eta_res = spectral.fixed_point_residuals(
        sol, ctx.env, block["mc_per_point"], ctx.stream("kappa", 1))
    doc = sol.to_json_dict()
    doc["env_hash"] = ctx.config.env_hash
    doc["residuals"] = {"r_sup": r_res, "eta_tv": eta_res}
    write_canonical_json(doc, _artifact_path(ctx, "kappa"))
    if ctx.wants_csv():
        hist = np.asarray(sol.rho_history, dtype=float)
        _write_csv(ctx.outdir / "rho_history.csv", hist, "kappa,rho")
    ctx.cache["solution"] = sol
    ctx.checks["kappa_rho_band"] = abs(sol.rho_at_kappa - 1.0) <= ctx.config.checks["rho_band"]
    ctx.checks["kappa_eigen_residuals"] = (
        r_res <= ctx.config.checks["eigen_residual_max"]
        and eta_res <= ctx.config.checks["eigen_residual_max"])
    return {"kappa": sol.kappa, "alpha": sol.alpha, "rho": sol.rho_at_kappa,
            "r_residual": r_res, "eta_residual": eta_res,
            "evaluations": len(sol.rho_history),
            "reducible_directions": sol.reducible_directions,
            "mc_per_point": block["mc_per_point"], "seed": ctx.stage_seed("kappa", 0)}


def stage_tail(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sol = need_solution(ctx)
    block = ctx.config.mc["tails"]
    norms = batch.norms()
    thresholds = np.quantile(norms, np.asarray(block["threshold_quantiles"]))
    dirs = ctx.direction_set(block["n_directions"])
    estimate = tails.summarize_tails(batch, sol.kappa, dirs, thresholds,
                                     top_fraction=block["top_fraction"])
    goldie = spectral.goldie_constant(sol, ctx.env, batch, dirs,
                                      ctx.stream("tail", 0))
    direct = {}
    for v, k_g in zip(dirs, goldie.values):
        key = "(" + ",".join(f"{c:.6g}" for c in v) + ")"
        try:
            plateau = tails.direct_K(batch, v, sol.kappa, thresholds)
            direct[key] = {"direct": plateau.value, "goldie": float(k_g),
                           "dispersion": plateau.dispersion}
        except tails.TailRegimeError as exc:
            direct[key] = {"direct": None, "goldie": float(k_g), "error": str(exc)}
    doc = estimate.to_json_dict()
    doc["env_hash"] = ctx.config.env_hash
    doc["tail_constants"] = direct
    write_canonical_json(doc, ctx.outdir / "tail_estimate.json")
    if ctx.wants_csv():
        curve = np.column_stack([estimate.thresholds, estimate.radial_scaled_freq])
        _write_csv(ctx.outdir / "tail_curves.csv", curve, "threshold,scaled_freq")
    ctx.checks["tail_hill_matches_kappa"] = abs(estimate.hill.index - sol.kappa) <= 0.1
    return {"hill_index": estimate.hill.index,
            "hill_ci": [estimate.hill.ci_low, estimate.hill.ci_high],
            "constants": direct, "thresholds": thresholds.tolist(),
            "seed": ctx.stage_seed("tail", 0)}


def stage_sigma(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sol = need_solution(ctx)
    block = ctx.config.mc["sigma"]
    u = float(np.quantile(batch.norms(), block["threshold_quantile"]))
    # resolve the exponent the way the limit stage will, so one angular
    # measure serves the whole pipeline
    kappa = stable_limit.effective_kappa(
        sol.kappa, stable_limit.classify_regime(sol.kappa))
    sigma = tails.estimate_sigma(batch, u, ctx.grid(), kappa,
                                 ctx.env.q_symmetric)
    residual = tails.check_sigma_invariance(sigma, ctx.env, kappa,
                                            block["invariance_mc"],
                                            ctx.stream("sigma", 0))
    doc = sigma.to_json_dict()
    doc["env_hash"] = ctx.config.env_hash
    doc["invariance_residual"] = residual
    write_canonical_json(doc, _artifact_path(ctx, "sigma"))
    ctx.cache["sigma"] = sigma
    ctx.checks["sigma_invariance"] = residual <= ctx.config.checks["sigma_invariance_max"]
    return {"threshold": u, "total_mass": sigma.total_mass,
            "exceedances": sigma.exceedances, "invariance_residual": residual,
            "seed": ctx.stage_seed("sigma", 0)}


def stage_limit(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sol = need_solution(ctx)
    sigma = need_sigma(ctx)
    block = ctx.config.mc["limit"]
    n = 2 ** block["log2_n"]
    dirs = ctx.direction_set(block["n_directions"])
    regime = stable_limit.classify_regime(sol.kappa)
    cent = stable_limit.centering(ctx.env, sol.kappa, batch, regime=regime)
    law = stable_limit.compute_stable_law(
        ctx.env, sol.kappa, sigma, dirs, block["w_draws"],
        ctx.stream("limit", 0), regime=regime, cent=cent)
    sums = recursion.birkhoff_sums(ctx.env, recursion.PathConfig(
        n_steps=n, start_x=tuple(np.zeros(ctx.env.dim)),
        replicas=block["replicas"], seed=ctx.stage_seed("limit", 1)))
    ecf = stable_limit.empirical_cf(sums, (n, law.kappa, cent),
                                    (np.asarray(block["s_values"]), dirs))
    fit = stable_limit.stable_fit_check(ecf, law)
    doc = law.to_json_dict()
    doc["env_hash"] = ctx.config.env_hash
    doc["fit_sup_deviation"] = fit.sup_deviation
    doc["n"] = n
    write_canonical_json(doc, _artifact_path(ctx, "limit"))
    if ctx.wants_csv():
        rows = []
        for i, s in enumerate(ecf.s_values):
            for j in range(dirs.shape[0]):
                rows.append([s, j, ecf.values[i, j].real, ecf.values[i, j].imag])
        _write_csv(ctx.outdir / "ecf.csv", np.asarray(rows), "s,direction_index,re,im")
    result = {"n": n, "replicas": block["replicas"],
              "sup_deviation": fit.sup_deviation,
              "error_budget": law.error_budget,
              "c_values": [[z.real, z.imag] for z in law.c_values],
              "w_depth_quantiles": law.provenance["w_depth_quantiles"],
              "seed": ctx.stage_seed("limit", 1)}
    ctx.checks["limit_cf_deviation"] = (
        fit.sup_deviation <= ctx.config.checks["cf_deviation_max"] + law.error_budget)
    ctx.cache["stable_law"] = law
    return result


def stage_nondeg(ctx: RunContext) -> dict:
    law = need_stable_law(ctx)
    sigma = need_sigma(ctx)
    verdict = stable_limit.nondegeneracy(law)
    tp = stable_limit.transposed_positivity_check(
        ctx.env, law.kappa, sigma, law.directions[0],
        ctx.config.mc["limit"]["w_draws"], ctx.stream("nondeg", 0))
    ctx.checks["nondegenerate"] = verdict.nondegenerate
    ctx.checks["transposed_positivity"] = tp.positive
    return {"verdict": verdict.to_json_dict(),
            "plus_integral": tp.plus_integral, "plus_se": tp.plus_se,
            "minus_integral": tp.minus_integral, "minus_se": tp.minus_se,
            "seed": ctx.stage_seed("nondeg", 0)}


STAGE_FUNCS = {
    "assumptions": stage_assumptions,
    "simulate": stage_simulate,
    "lyapunov": stage_lyapunov,
    "kappa": stage_kappa,
    "tail": stage_tail,
    "sigma": stage_sigma,
    "limit": stage_limit,
    "nondeg": stage_nondeg,
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

class _Lock:
    """Exclusive claim on an output directory: a file holding the owner's PID.

    A lock whose process is gone (a crashed run) is replaced, and named on
    stderr; a lock held by a live process refuses the run.
    """

    def __init__(self, outdir: Path):
        self.path = outdir / LOCK_NAME

    def _acquire(self) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True

    def _dead_owner(self) -> int | None:
        """The PID recorded in the lock if that process no longer runs."""
        try:
            pid = int(self.path.read_text())
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except (OSError, ValueError):   # gone, unreadable, not a PID, or not ours
            return None
        return None

    def __enter__(self):
        if not self._acquire():
            pid = self._dead_owner()
            if pid is not None:
                print(f"replacing stale lock {self.path}: process {pid} is not running",
                      file=sys.stderr)
                self.path.unlink(missing_ok=True)
            if pid is None or not self._acquire():
                raise StageCheckFailure(
                    f"output directory is locked by {self.path}; another run owns it "
                    "(delete the lock if that run crashed)")
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def _run_stage(ctx: RunContext, stage: str) -> dict:
    """Run one stage and write its fragment, with the check verdicts the
    stage set beside its result so that `report` can rebuild them."""
    earlier, ctx.checks = ctx.checks, {}
    t0 = time.perf_counter()
    fragment = STAGE_FUNCS[stage](ctx)
    ctx.timing[stage] = time.perf_counter() - t0
    verdicts, ctx.checks = ctx.checks, {**earlier, **ctx.checks}
    ctx.fragments[stage] = fragment
    write_canonical_json({"stage": stage, "env_hash": ctx.config.env_hash,
                          "result": fragment, "checks": verdicts},
                         ctx.outdir / f"stage_{stage}.json")
    return fragment


def _assemble_report(ctx: RunContext) -> dict:
    return {
        "env_hash": ctx.config.env_hash,
        "seed": ctx.seed,
        "threads": ctx.threads,
        "pipeline": ctx.config.pipeline,
        "stages": ctx.fragments,
        "checks": ctx.checks,
        "timing": ctx.timing,
    }


def run(config_path, out_override: str | None = None,
        seed_override: int | None = None, threads: int = 1,
        stages: list | None = None, count_override: int | None = None) -> dict:
    """Execute the configured pipeline (or the given stages) and write the
    report; returns it."""
    config = load_config(config_path, seed_override=seed_override,
                         out_override=out_override, count_override=count_override)
    outdir = Path(config.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config=config, outdir=outdir, threads=threads)
    todo = stages if stages is not None else config.pipeline
    with _Lock(outdir):
        for stage in todo:
            _run_stage(ctx, stage)
        report = _assemble_report(ctx)
        write_canonical_json(report, outdir / "report.json")
    return report


def aggregate_report(outdir: Path) -> dict:
    """Rebuild report.json, verdicts included, from the stage fragments
    present on disk."""
    if not outdir.is_dir():
        raise MissingArtifactError(f"output directory '{outdir}' does not exist")
    fragments, checks = {}, {}
    env_hashes = set()
    for stage in STAGES:
        path = outdir / f"stage_{stage}.json"
        if path.exists():
            doc = json.loads(path.read_text())
            fragments[stage] = doc["result"]
            checks.update(doc.get("checks", {}))
            env_hashes.add(doc["env_hash"])
    if len(env_hashes) > 1:
        raise StageCheckFailure(
            f"stage fragments in {outdir} come from different environments: {env_hashes}")
    report = {
        "env_hash": env_hashes.pop() if env_hashes else None,
        "stages": fragments,
        "checks": checks,
        "aggregated": True,
    }
    write_canonical_json(report, outdir / "report.json")
    return report


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------

def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env_value = os.environ.get(THREADS_ENV_VAR)
    if env_value:
        try:
            return max(1, int(env_value))
        except ValueError:
            pass
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kestenlab",
        description="heavy-tailed random recursion pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration (YAML)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (fallback: ${THREADS_ENV_VAR})")

    add_common(sub.add_parser("run", help="execute the configured pipeline"))
    for name in STAGES:
        stage = sub.add_parser(name, help=f"run the {name} stage")
        add_common(stage)
        if name == "simulate":
            stage.add_argument("--n", type=int, default=None,
                               help="override the stationary sample count")
    rep = sub.add_parser("report", help="aggregate stage outputs from disk")
    rep.add_argument("--config", default=None)
    rep.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = aggregate_report(Path(args.out))
            for stage, frag in report["stages"].items():
                print(f"{stage}: {canonical_json(frag)}")
            return 0
        stages = None if args.command == "run" else [args.command]
        report = run(args.config, out_override=args.out, seed_override=args.seed,
                     threads=_threads_from(args), stages=stages,
                     count_override=getattr(args, "n", None))
        failed = [name for name, ok in report["checks"].items() if not ok]
        for stage, frag in report["stages"].items():
            summary = {k: v for k, v in frag.items()
                       if isinstance(v, (int, float, bool))}
            print(f"{stage}: {canonical_json(summary)}")
        if failed:
            print(f"FAILED checks: {', '.join(sorted(failed))}", file=sys.stderr)
            return 1
        return 0
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MissingArtifactError, StageCheckFailure, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
