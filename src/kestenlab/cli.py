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
import fcntl
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import recursion, spectral, stable_limit, tails
from .batches import (SampleBatch, _jsonable, canonical_json, from_json, write_canonical_json,
                      write_csv)
from .env_models import (ConfigurationError, Environment, bounded, build_environment,
                         check_assumptions, check_field, from_block)
from .rng import substream
from .spectral import build_grid

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
# stage -> the file it leaves for later stages, and the class in that file
ARTIFACTS = {
    "simulate": ("stationary_samples.csv", SampleBatch),
    "kappa": ("spectral_solution.json", spectral.SpectralSolution),
    "sigma": ("sigma.json", tails.SpectralMeasure),
    "limit": ("stable_law.json", stable_limit.StableLaw),
}


class CliConfigError(ConfigurationError):
    """Schema violation; the message carries the offending field path."""


class MissingArtifactError(RuntimeError):
    """An output a stage or `report` needs is missing or unreadable."""


class StageCheckFailure(RuntimeError):
    """An invariant check requested by the configuration failed."""


def env_hash(env_block: dict) -> str:
    return hashlib.sha256(canonical_json(env_block).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# Each block is a frozen dataclass: its fields are the block's keys, their
# defaults and their ranges, and `env_models.from_block` reads it, nested
# blocks included.  The rules that tie fields together are in
# validate_config.

@dataclass(frozen=True)
class GridConfig:
    resolution: int = bounded(32, "[2, inf)")


@dataclass(frozen=True)
class LyapunovConfig:
    n_steps: int = bounded(10_000, "[100, inf)")
    replicas: int = bounded(100, "[1, inf)")


@dataclass(frozen=True)
class StationaryConfig:
    count: int = bounded(200_000, "[1, inf)")
    tolerance: float = bounded(1e-9, "(0, inf)")


@dataclass(frozen=True)
class SpectralConfig:
    mc_per_point: int = bounded(10_000, "[100, inf)")
    bracket: tuple[float, ...] = (0.2, 3.0)


@dataclass(frozen=True)
class TailsConfig:
    top_fraction: float = bounded(0.01, "(0, 0.05]")  # hill_tail_index's range
    threshold_quantiles: tuple[float, ...] = bounded((0.98, 0.99, 0.995), "(0, 1)")
    n_directions: int = bounded(4, "[1, inf)")


@dataclass(frozen=True)
class SigmaConfig:
    threshold_quantile: float = bounded(0.99, "(0, 1)")
    invariance_mc: int = bounded(10_000, "[100, inf)")


@dataclass(frozen=True)
class LimitConfig:
    log2_n: int = bounded(12, "[1, inf)")
    replicas: int = bounded(4_000, "[1, inf)")
    w_draws: int = bounded(2_000, "[100, inf)")
    s_values: tuple[float, ...] = bounded((0.1, 0.25, 0.5, 1.0, 1.5, 2.0), "(0, inf)")
    n_directions: int = bounded(4, "[1, inf)")


@dataclass(frozen=True)
class McConfig:
    seed: int | None = bounded(None, "[0, inf)")  # None: drawn at validation
    assumptions_n: int = bounded(20_000, "[1000, inf)")
    lyapunov: LyapunovConfig = LyapunovConfig()
    stationary: StationaryConfig = StationaryConfig()
    spectral: SpectralConfig = SpectralConfig()
    tails: TailsConfig = TailsConfig()
    sigma: SigmaConfig = SigmaConfig()
    limit: LimitConfig = LimitConfig()


@dataclass(frozen=True)
class ChecksConfig:
    rho_band: float = bounded(0.01, "[0, inf)")
    eigen_residual_max: float = bounded(0.05, "[0, inf)")
    sigma_invariance_max: float = bounded(0.10, "[0, inf)")
    cf_deviation_max: float = bounded(0.15, "[0, inf)")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    """The whole config file; `env_hash` is not a key but the hash of the
    `env` block as written."""
    env: Environment
    env_hash: str
    grid: GridConfig = GridConfig()
    mc: McConfig = McConfig()
    checks: ChecksConfig = ChecksConfig()
    output: OutputConfig = OutputConfig()
    pipeline: tuple[str, ...] = ()

    @property
    def seed(self) -> int:
        return self.mc.seed


def _fail(path: str, message: str):
    raise CliConfigError(f"{path}: {message}")


def validate_config(raw: dict, *, seed_override: int | None = None,
                    out_override: str | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise CliConfigError("config: expected a mapping at the top level")
    try:
        env = build_environment(raw.get("env"), "env")
        config = from_block(RunConfig, {**raw, "env": env}, "",
                            env_hash=env_hash(raw["env"]))
        seed = config.seed if seed_override is None else check_field(
            McConfig, "seed", seed_override, "--seed")
    except ConfigurationError as exc:
        raise CliConfigError(str(exc)) from exc

    mc = config.mc
    bracket = mc.spectral.bracket
    if len(bracket) != 2 or not 0 < bracket[0] < bracket[1]:
        _fail("mc.spectral.bracket", f"expected [lo, hi] with 0 < lo < hi, got {list(bracket)!r}")
    quantiles = mc.tails.threshold_quantiles
    if not quantiles or any(b <= a for a, b in zip(quantiles, quantiles[1:])):
        _fail("mc.tails.threshold_quantiles",
              f"expected a non-empty, strictly increasing list, got {list(quantiles)!r}")
    if not mc.limit.s_values:
        _fail("mc.limit.s_values", "expected a non-empty list")
    sigma_q = mc.sigma.threshold_quantile
    if mc.stationary.count * (1.0 - sigma_q) < tails.MIN_EXCEEDANCES:
        _fail("mc.sigma.threshold_quantile",
              f"mc.stationary.count {mc.stationary.count} x (1 - {sigma_q!r}) leaves fewer "
              f"than the {tails.MIN_EXCEEDANCES} exceedances the sigma stage needs")
    seen: set[str] = set()
    for i, stage in enumerate(config.pipeline):
        if stage not in STAGES:
            _fail(f"pipeline[{i}]", f"unknown stage {stage!r}; valid: {', '.join(STAGES)}")
        for dep in STAGE_DEPENDENCIES[stage]:
            if dep not in seen:
                _fail(f"pipeline[{i}]",
                      f"stage {stage!r} needs {dep!r} earlier in the pipeline")
        seen.add(stage)

    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big") >> 1
    output = replace(config.output, directory=out_override) if out_override else config.output
    return replace(config, output=output, mc=replace(mc, seed=seed))


def load_config(path, **overrides) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise CliConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:   # a directory, say, or not UTF-8
        raise CliConfigError(f"config file {path} is unreadable ({exc})")
    except yaml.YAMLError as exc:
        raise CliConfigError(f"config: not parseable YAML ({exc})")
    return validate_config(raw, **overrides)


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

    def stream(self, stage: str, *key: int) -> np.random.Generator:
        return substream(self.seed, STAGE_INDEX[stage], *key)

    def direction_set(self, n_directions: int) -> np.ndarray:
        grid = self.grid()
        if grid.n <= n_directions:
            return grid.points.copy()
        idx = np.linspace(0, grid.n, n_directions, endpoint=False).astype(int)
        return grid.points[idx]

    def grid(self) -> spectral.SphereGrid:
        if "grid" not in self.cache:
            self.cache["grid"] = build_grid(self.env.dim, self.config.grid.resolution)
        return self.cache["grid"]


@contextmanager
def _reading(path: Path):
    """Refuse, with its name, a file that does not parse as the artifact
    its reader expects."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise MissingArtifactError(
            f"'{path}' is unreadable ({type(exc).__name__}: {exc})") from exc


def need(ctx: RunContext, stage: str):
    """The artifact an upstream stage left (see ARTIFACTS): this run's, or
    the one on disk, refused when it is missing, unreadable or written for
    a different environment."""
    if stage not in ctx.cache:
        name, cls = ARTIFACTS[stage]
        path = ctx.outdir / name
        if not path.exists():
            raise MissingArtifactError(
                f"stage needs '{path}' from the '{stage}' stage; run it first")
        with _reading(path):
            if cls is SampleBatch:
                obj = SampleBatch.from_csv(path)
                recorded = obj.info.get("env_hash")
            else:
                doc = json.loads(path.read_text())
                obj, recorded = from_json(cls, doc), doc.get("env_hash")
        if recorded != ctx.config.env_hash:
            raise StageCheckFailure(
                f"{path}: environment hash {recorded!r} does not match the "
                f"current config ({ctx.config.env_hash!r}); refusing to mix runs")
        ctx.cache[stage] = obj
    return ctx.cache[stage]


# The stages load through these typed names, which perfbench's tracer times
# as `cli.artifact_load`.
def need_stationary(ctx: RunContext) -> SampleBatch:
    return need(ctx, "simulate")


def need_solution(ctx: RunContext) -> spectral.SpectralSolution:
    return need(ctx, "kappa")


def need_sigma(ctx: RunContext) -> tails.SpectralMeasure:
    return need(ctx, "sigma")


def need_stable_law(ctx: RunContext) -> stable_limit.StableLaw:
    return need(ctx, "limit")


def _save(ctx: RunContext, stage: str, obj, **extra) -> None:
    """Write obj as the stage's artifact, its fields beside the env hash and
    the extras, and keep it for the stages after."""
    path = ctx.outdir / ARTIFACTS[stage][0]
    if isinstance(obj, SampleBatch):
        obj.info["env_hash"] = ctx.config.env_hash
        obj.to_csv(path)
    else:
        write_canonical_json({**_jsonable(obj), "env_hash": ctx.config.env_hash, **extra},
                             path)
    ctx.cache[stage] = obj


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_assumptions(ctx: RunContext) -> dict:
    report = check_assumptions(ctx.env, ctx.config.mc.assumptions_n,
                               ctx.stream("assumptions"))
    entries = {}
    for name, e in report.entries.items():
        entries[name] = {"verdict": e.verdict, "estimate": e.estimate,
                         "std_error": e.std_error, "detail": e.detail}
    ctx.checks["assumptions_checkable_pass"] = report.all_checkable_pass()
    return {"entries": entries, "mc_n": report.mc_n}


def stage_simulate(ctx: RunContext) -> dict:
    pre = recursion.lyapunov(ctx.env, 1000, 32, ctx.stream("simulate", 0))
    if not pre.contractive:
        raise StageCheckFailure(
            f"Lyapunov precheck beta = {pre.beta:.4f} >= 0: the chain has "
            "no stationary law to sample")
    block = ctx.config.mc.stationary
    batch = recursion.sample_stationary(
        ctx.env, recursion.SeriesConfig(tolerance=block.tolerance), block.count,
        ctx.stream("simulate", 1), threads=ctx.threads)
    _save(ctx, "simulate", batch)  # the samples are the artifact
    # quantiles, not a mean: at kappa <= 1 the law of R has no mean
    return {"count": batch.count, "truncation": batch.info["truncation"],
            "mean_depth": batch.info["mean_depth"],
            "depth_quantiles": batch.info["depth_quantiles"],
            "pairs_drawn": batch.info["pairs_drawn"],
            "norm_quantiles": recursion.quantiles(batch.norms()),
            "beta_precheck": pre.beta}


def stage_lyapunov(ctx: RunContext) -> dict:
    block = ctx.config.mc.lyapunov
    est = recursion.lyapunov(ctx.env, block.n_steps, block.replicas,
                             ctx.stream("lyapunov"))
    ctx.checks["lyapunov_contractive"] = est.contractive
    return {"beta": est.beta, "std_error": est.std_error,
            "contractive": est.contractive, "n_steps": block.n_steps,
            "replicas": block.replicas}


def stage_kappa(ctx: RunContext) -> dict:
    block = ctx.config.mc.spectral
    grid = ctx.grid()
    sol = spectral.solve_kappa(ctx.env, grid, block.bracket, block.mc_per_point,
                               ctx.stream("kappa", 0))
    r_res, eta_res = spectral.fixed_point_residuals(
        sol, ctx.env, block.mc_per_point, ctx.stream("kappa", 1))
    _save(ctx, "kappa", sol, residuals={"r_sup": r_res, "eta_tv": eta_res})
    write_csv(ctx.outdir / "rho_history.csv", "kappa,rho", sol.rho_history)
    checks = ctx.config.checks
    ctx.checks["kappa_rho_band"] = abs(sol.rho_at_kappa - 1.0) <= checks.rho_band
    ctx.checks["kappa_eigen_residuals"] = (r_res <= checks.eigen_residual_max
                                           and eta_res <= checks.eigen_residual_max)
    return {"kappa": sol.kappa, "alpha": sol.alpha, "rho": sol.rho_at_kappa,
            "r_residual": r_res, "eta_residual": eta_res,
            "evaluations": len(sol.rho_history),
            "reducible_directions": sol.reducible_directions,
            "mc_per_point": block.mc_per_point}


def stage_tail(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sol = need_solution(ctx)
    block = ctx.config.mc.tails
    # norms() is a fresh array, so np.quantile may partition it in place
    thresholds = np.quantile(batch.norms(), np.asarray(block.threshold_quantiles),
                             overwrite_input=True)
    dirs = ctx.direction_set(block.n_directions)
    estimate = tails.summarize_tails(batch, sol.kappa, dirs, thresholds,
                                     top_fraction=block.top_fraction)
    goldie = spectral.goldie_constant(sol, ctx.env, batch, dirs,
                                      ctx.stream("tail", 0))
    direct = {}
    for (key, curve), k_g in zip(estimate.directional.items(), goldie.values):
        try:
            value, dispersion = curve.plateau()
            direct[key] = {"direct": value, "goldie": float(k_g), "dispersion": dispersion}
        except tails.TailRegimeError as exc:
            direct[key] = {"direct": None, "goldie": float(k_g), "error": str(exc)}
    write_canonical_json({**estimate.to_json_dict(), "env_hash": ctx.config.env_hash,
                          "tail_constants": direct}, ctx.outdir / "tail_estimate.json")
    write_csv(ctx.outdir / "tail_curves.csv", "threshold,scaled_freq",
              np.column_stack([estimate.radial.thresholds, estimate.radial.levels]))
    ctx.checks["tail_hill_matches_kappa"] = abs(estimate.hill.index - sol.kappa) <= 0.1
    return {"hill_index": estimate.hill.index,
            "hill_ci": [estimate.hill.ci_low, estimate.hill.ci_high],
            "constants": direct, "thresholds": thresholds.tolist()}


def stage_sigma(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sol = need_solution(ctx)
    block = ctx.config.mc.sigma
    u = float(np.quantile(batch.norms(), block.threshold_quantile, overwrite_input=True))
    # sigma carries kappa-hat to the limit stage; near 1 a Q that is not
    # symmetric is refused here, by the one near-integer rule
    sigma = tails.estimate_sigma(batch, u, ctx.grid(), sol.kappa, ctx.env.q_symmetric)
    residual = tails.check_sigma_invariance(sigma, ctx.env, block.invariance_mc,
                                            ctx.stream("sigma", 0))
    _save(ctx, "sigma", sigma, invariance_residual=residual)
    ctx.checks["sigma_invariance"] = residual <= ctx.config.checks.sigma_invariance_max
    return {"threshold": u, "total_mass": sigma.total_mass,
            "exceedances": sigma.exceedances, "invariance_residual": residual}


def stage_limit(ctx: RunContext) -> dict:
    batch = need_stationary(ctx)
    sigma = need_sigma(ctx)
    block = ctx.config.mc.limit
    n = 2 ** block.log2_n
    dirs = ctx.direction_set(block.n_directions)
    cent = stable_limit.centering(ctx.env, sigma.kappa, batch)
    cache = stable_limit.sample_w_matrices(ctx.env, stable_limit.W_SERIES, block.w_draws,
                                           ctx.stream("limit", 0))
    law = stable_limit.compute_stable_law(ctx.env, sigma, dirs, cache)
    tp = stable_limit.transposed_positivity_check(sigma, dirs[0], cache)
    sums = recursion.birkhoff_sums(ctx.env, recursion.PathConfig(
        n_steps=n, start_x=tuple(np.zeros(ctx.env.dim)), replicas=block.replicas),
        ctx.stream("limit", 1))
    ecf = stable_limit.empirical_cf(sums, n, cent, block.s_values, dirs)
    deviation = stable_limit.stable_fit_check(ecf, law)
    _save(ctx, "limit", law, fit_sup_deviation=deviation, n=n)
    rows = [[s, j, ecf.values[i, j].real, ecf.values[i, j].imag]
            for i, s in enumerate(ecf.s_values) for j in range(dirs.shape[0])]
    write_csv(ctx.outdir / "ecf.csv", "s,direction_index,re,im", rows)
    result = {"n": n, "replicas": block.replicas,
              "pairs_drawn": sums.info["pairs_drawn"],
              "sup_deviation": deviation,
              "error_budget": law.error_budget,
              "c_values": [[z.real, z.imag] for z in law.c_values],
              "w_depth_quantiles": law.provenance["w_depth_quantiles"], **asdict(tp)}
    ctx.checks["limit_cf_deviation"] = (
        deviation <= ctx.config.checks.cf_deviation_max + law.cf_budget(ecf.s_values))
    ctx.checks["transposed_positivity"] = tp.positive
    return result


def stage_nondeg(ctx: RunContext) -> dict:
    verdict = stable_limit.nondegeneracy(need_stable_law(ctx))
    ctx.checks["nondegenerate"] = verdict.nondegenerate
    return {"verdict": asdict(verdict)}


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

@contextmanager
def _locked(outdir: Path):
    """Exclusive claim on an output directory: a kernel lock (`flock`) on
    the file LOCK_NAME, which the kernel drops when its owner ends, however
    it ends.  The empty file stays: deleting it while another process may
    hold it open would let two runs own the directory."""
    path = outdir / LOCK_NAME
    with open(path, "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StageCheckFailure(
                f"output directory is locked by {path}; another run owns it") from None
        yield


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
        stages: list | None = None) -> dict:
    """Execute the configured pipeline (or the given stages) and write the
    report; returns it."""
    config = load_config(config_path, seed_override=seed_override,
                         out_override=out_override)
    todo = stages if stages is not None else config.pipeline
    if not todo:
        _fail("pipeline", "expected a non-empty list of stages to run; "
              f"valid: {', '.join(STAGES)}")
    outdir = Path(config.output.directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail("--out" if out_override else "output.directory",
              f"cannot make the directory '{outdir}' ({exc.strerror})")
    ctx = RunContext(config=config, outdir=outdir, threads=threads)
    with _locked(outdir):
        for stage in todo:
            _run_stage(ctx, stage)
        report = _assemble_report(ctx)
        write_canonical_json(report, outdir / "report.json")
    return report


def aggregate_report(outdir: Path) -> dict:
    """Rebuild report.json, verdicts included, from the stage fragments
    present on disk."""
    if not outdir.is_dir():
        problem = "is not a directory" if outdir.exists() else "does not exist"
        raise MissingArtifactError(f"output directory '{outdir}' {problem}")
    with _locked(outdir):
        fragments, checks = {}, {}
        env_hashes = set()
        for stage in STAGES:
            path = outdir / f"stage_{stage}.json"
            if path.exists():
                with _reading(path):
                    doc = json.loads(path.read_text())
                    fragments[stage] = doc["result"]
                    checks.update(doc.get("checks", {}))
                    env_hashes.add(doc["env_hash"])
        if not fragments:
            raise MissingArtifactError(f"output directory '{outdir}' holds no stage_*.json")
        if len(env_hashes) > 1:
            raise StageCheckFailure(
                f"stage fragments in {outdir} come from different environments: {env_hashes}")
        report = {
            "env_hash": env_hashes.pop(),
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
    """--threads, else the cores this process may use; results do not
    depend on it.  A value below 1 is refused."""
    if args.threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.threads < 1:
        _fail("--threads", f"expected an integer >= 1, got {args.threads!r}")
    return args.threads


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
                       help="worker threads (default: the available cores)")

    add_common(sub.add_parser("run", help="execute the configured pipeline"))
    for name in STAGES:
        add_common(sub.add_parser(name, help=f"run the {name} stage"))
    sub.add_parser("report", help="aggregate stage outputs from disk").add_argument(
        "--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = aggregate_report(Path(args.out))
        else:
            report = run(args.config, out_override=args.out, seed_override=args.seed,
                         threads=_threads_from(args),
                         stages=None if args.command == "run" else [args.command])
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
    except (MissingArtifactError, StageCheckFailure, ConfigurationError,
            recursion.NonContractionError, recursion.TrajectoryOverflowError,
            spectral.SpectralError, spectral.SingularDrawError,
            tails.TailRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
