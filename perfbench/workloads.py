"""The three workloads: generated configs, the operations of one round, and
the checks each operation's output must pass.

An operation is one kestenlab command-line invocation.  Configs are built
from the two checked-in configs; the seed reaches the program only through
``--seed``.  ``tiny`` shrinks every Monte Carlo size for the self-test.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

import checks as ck

PLANAR_CONFIG = Path("scripts/configs/similarity_2d.yaml")
SCALAR_CONFIG = Path("scripts/configs/scalar_two_point.yaml")
STAGES = ("simulate", "lyapunov", "kappa", "tail", "sigma", "limit", "nondeg")

# Self-test sizes: small, but large enough for the program's own checks and
# minimums (10^4 draws for Hill, 500 exceedances for sigma).
TINY = {"grid": {"resolution": 8}, "mc": {"assumptions_n": 2000,
           "lyapunov": {"n_steps": 1000, "replicas": 20},
           "stationary": {"count": 60000},
           "sigma": {"threshold_quantile": 0.95, "invariance_mc": 4000},
           "limit": {"log2_n": 8, "replicas": 1000, "w_draws": 500}}}
TINY_GRID_3D = 16


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[], list]         # problems with the operation's output


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _load(root: Path, rel: Path, tiny: bool) -> dict:
    cfg = yaml.safe_load((root / rel).read_text())
    return _merge(cfg, TINY) if tiny else cfg


def _law(cfg: dict) -> ck.TwoPointScale:
    law = cfg["env"]["matrix_law"]
    if law["family"] == "scalar_two_point":
        return ck.TwoPointScale(tuple(law["values"]), tuple(law["probs"]))
    return ck.TwoPointScale(tuple(law["scale_values"]), tuple(law["scale_probs"]))


class Checks:
    """The checks of one config, one method per artifact."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.mc = cfg["mc"]
        self.law = _law(cfg)
        self.dim = cfg["env"]["dim"]

    def simulate(self, out: Path) -> list:
        count = self.mc["stationary"]["count"]
        frag = ck.read_fragment(out, "simulate")
        return (ck.check_sizes(frag, {"count": count}, "stage_simulate")
                or ck.check_stationary_csv(out / "stationary_samples.csv", count, self.dim))

    def lyapunov(self, out: Path) -> list:
        frag = ck.read_fragment(out, "lyapunov")
        return (ck.check_sizes(frag, self.mc["lyapunov"], "stage_lyapunov")
                or ck.check_lyapunov(frag, self.law))

    def kappa(self, out: Path) -> list:
        frag = ck.read_fragment(out, "kappa")
        sol = ck.read_json(out, "spectral_solution.json")
        rows = ck.grid_size(self.dim, self.cfg["grid"]["resolution"])
        problems = (ck.check_sizes(frag, {"mc_per_point": self.mc["spectral"]["mc_per_point"]},
                                   "stage_kappa")
                    + ck.check_sizes({"grid": len(sol["grid"]["points"])}, {"grid": rows},
                                     "spectral_solution.json"))
        if problems:
            return problems
        problems = ck.check_kappa(sol, self.law, self.mc["spectral"]["bracket"],
                                  self.cfg.get("checks", {}).get("rho_band", 0.01))
        return problems + ck.check_eigen_isotropy(sol, self.law)

    def tail(self, out: Path) -> list:
        tail = ck.read_json(out, "tail_estimate.json")
        count = self.mc["stationary"]["count"]
        problems = ck.check_hill(tail, ck.read_json(out, "spectral_solution.json")["kappa"])
        if self.dim == 1:
            problems += ck.check_scalar_K_symmetry(tail, count)
        return problems

    def sigma(self, out: Path) -> list:
        sigma = ck.read_json(out, "sigma.json")
        return (ck.check_sizes(sigma, {"sample_count": self.mc["stationary"]["count"]},
                               "sigma.json")
                or ck.check_sigma_uniform(sigma))

    def limit(self, out: Path) -> list:
        frag = ck.read_fragment(out, "limit")
        block = self.mc["limit"]
        return (ck.check_sizes(frag, {"n": 2 ** block["log2_n"], "replicas": block["replicas"]},
                               "stage_limit")
                or ck.check_limit_isotropy(ck.read_json(out, "stable_law.json")))

    def nondeg(self, out: Path) -> list:
        return ck.check_nondegenerate(ck.read_fragment(out, "nondeg"))

    def report(self, out: Path, stages) -> list:
        # the aggregated report carries no verdicts; it must hold every stage run
        found = ck.read_json(out, "report.json").get("stages", {})
        missing = [s for s in stages if s not in found]
        return [f"report.json lacks stages {missing}"] if missing else []

    def full_run(self, out: Path) -> list:
        checks = ck.read_json(out, "report.json")["checks"]
        problems = [f"the program's own check {name} failed"
                    for name, ok in sorted(checks.items()) if not ok]
        for stage in STAGES:
            problems += getattr(self, stage)(out)
        return problems


def _cli(command: str, config: Path, out: Path, seed: int) -> list:
    return [command, "--config", str(config), "--out", str(out),
            "--seed", str(seed), "--threads", "1"]


class Workload:
    """Writes its configs once per run; ``ops`` lays out one round."""

    def __init__(self, root: Path, config_dir: Path, seed: int, tiny: bool):
        self.seed = seed
        self.configs = {}
        for name, cfg in self.make_configs(root, tiny).items():
            path = config_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=False))
            self.configs[name] = (path, Checks(cfg))

    def make_configs(self, root: Path, tiny: bool) -> dict:
        raise NotImplementedError

    def ops(self, round_dir: Path) -> list:
        raise NotImplementedError


class PlanarRun(Workload):
    """The full pipeline on the checked-in planar config, in one process."""

    def make_configs(self, root, tiny):
        return {"planar": _load(root, PLANAR_CONFIG, tiny)}

    def ops(self, round_dir):
        path, checks = self.configs["planar"]
        out = round_dir / "planar"
        return [Op("run", _cli("run", path, out, self.seed), lambda o=out: checks.full_run(o))]


class KappaSolve(Workload):
    """Two tail-index solves: d = 3 similarity on a 64-direction grid, and
    the sign-flipping scalar law (-2, -1/2), which fails today."""

    def make_configs(self, root, tiny):
        spatial = _merge(_load(root, PLANAR_CONFIG, tiny),
                         {"env": {"dim": 3},
                          "grid": {"resolution": TINY_GRID_3D if tiny else 64}})
        spatial["pipeline"] = ["kappa"]
        flip = _load(root, SCALAR_CONFIG, tiny)
        flip["env"]["matrix_law"]["values"] = [-2.0, -0.5]
        return {"spatial_d3": spatial, "scalar_sign_flip": flip}

    def ops(self, round_dir):
        out = []
        for name in ("spatial_d3", "scalar_sign_flip"):
            path, checks = self.configs[name]
            dest = round_dir / name
            out.append(Op(name, _cli("kappa", path, dest, self.seed),
                          lambda o=dest, c=checks: c.kappa(o)))
        return out


class ScalarStaged(Workload):
    """The checked-in scalar config, one process per stage, then report.

    The limit stage, and nondeg which reads its output, are left out: on
    this config `kestenlab limit` fails its own cf-deviation check on about
    one seed in seven, and an operation that fails on some seeds only would
    make the failed count depend on the seed."""

    stages = ("simulate", "lyapunov", "kappa", "tail", "sigma")

    def make_configs(self, root, tiny):
        return {"scalar": _load(root, SCALAR_CONFIG, tiny)}

    def ops(self, round_dir):
        path, checks = self.configs["scalar"]
        out = round_dir / "scalar"
        ops = [Op(stage, _cli(stage, path, out, self.seed),
                  lambda o=out, s=stage: getattr(checks, s)(o)) for stage in self.stages]
        ops.append(Op("report", ["report", "--out", str(out)],
                      lambda o=out: checks.report(o, self.stages)))
        return ops


WORKLOADS = {"planar_run": PlanarRun, "kappa_solve": KappaSolve,
             "scalar_staged": ScalarStaged}
