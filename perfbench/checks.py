"""Correctness checks for the benchmark's operations.

Every reference value is computed here, apart from the program: the tail
index is the root of E|c|^kappa = 1 for the two-point scale law (found with
brentq), and alpha, the Lyapunov exponent and the noise levels are
expectations over that law.  No check compares against a stored copy of an
earlier output.  Tolerances come from the method's own error terms: the
Monte Carlo standard error of each estimate, the bisection width and the
distance of the solved rho from 1.

Each check takes parsed artifacts and returns a list of problems; an empty
list means the output passed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize, stats

# Two-sided normal tail of 6e-5 for a single estimate, and a family-wise
# tail below 1e-4 for the largest deviation over a grid of at most 64
# cells.  A check that fires on one seed in a few thousand would make the
# failed-operation count differ between sets of runs.
Z = 4.0
Z_MAX = 5.0
P_MIN = 2 * stats.norm.sf(Z)

# solve_kappa stops bisecting at this bracket width (its width_tol default)
BISECTION_WIDTH = 1e-3


@dataclass(frozen=True)
class TwoPointScale:
    """The law of |c| shared by every matrix law in the benchmark: the
    scalar two-point law and the similarity c * (rotation)."""

    values: tuple
    probs: tuple

    def moment(self, k: float, log_power: int = 0) -> float:
        """E |c|^k (log |c|)^log_power."""
        c = np.abs(np.asarray(self.values, dtype=float))
        return float(np.asarray(self.probs) @ (c ** k * np.log(c) ** log_power))

    def kappa(self, bracket) -> float:
        return optimize.brentq(lambda k: self.moment(k) - 1.0, *bracket, xtol=1e-14)

    def sd(self, k: float, log_power: int = 0) -> float:
        """Standard deviation of |c|^k (log |c|)^log_power under one draw."""
        first = self.moment(k, log_power)
        second = self.moment(2 * k, 2 * log_power)
        return math.sqrt(max(second - first * first, 0.0))


def read_fragment(out: Path, stage: str) -> dict:
    return json.loads((out / f"stage_{stage}.json").read_text())["result"]


def read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


# ---------------------------------------------------------------------------
# the sizes asked for took effect
# ---------------------------------------------------------------------------

def check_sizes(actual: dict, expected: dict, where: str) -> list:
    """The configuration is not validated for unknown keys, so a misspelled
    size would silently run the default; compare what the program recorded."""
    return [f"{where}: {key} = {actual.get(key)!r}, asked for {value!r}"
            for key, value in expected.items() if actual.get(key) != value]


def grid_size(dim: int, resolution: int) -> int:
    return 2 if dim == 1 else resolution


# ---------------------------------------------------------------------------
# kappa, alpha and the eigen-objects
# ---------------------------------------------------------------------------

def check_kappa(solution: dict, law: TwoPointScale, bracket, rho_band: float) -> list:
    """kappa against the root of E|c|^kappa = 1; alpha against
    E[|c|^kappa log|c|] at that root.

    The Perron root pools mc_per_point draws per grid row, so its standard
    error is sd(|c|^kappa) / sqrt(mc * rows); an error in rho moves kappa by
    that error over d rho / d kappa = alpha.
    """
    problems = []
    kappa_true = law.kappa(bracket)
    alpha_true = law.moment(kappa_true, 1)
    kappa, alpha, rho = solution["kappa"], solution["alpha"], solution["rho_at_kappa"]
    draws = solution["mc_per_point"] * len(solution["grid"]["points"])
    if abs(rho - 1.0) > rho_band:
        problems.append(f"rho at the solved kappa is {rho:.6g}, outside 1 +- {rho_band}")
    rho_se = law.sd(kappa_true) / math.sqrt(draws)
    tol = BISECTION_WIDTH + (abs(rho - 1.0) + Z * rho_se) / alpha_true
    if not abs(kappa - kappa_true) <= tol:
        problems.append(f"kappa = {kappa:.6g}, root of E|c|^k = 1 is "
                        f"{kappa_true:.6g} (tolerance {tol:.3g})")
    alpha_se = law.sd(kappa_true, 1) / math.sqrt(draws)
    alpha_tol = Z * alpha_se + law.moment(kappa_true, 2) * abs(kappa - kappa_true)
    if not abs(alpha - alpha_true) <= alpha_tol:
        problems.append(f"alpha = {alpha:.6g}, E[|c|^k log|c|] = {alpha_true:.6g} "
                        f"(tolerance {alpha_tol:.3g})")
    return problems


def check_eigen_isotropy(solution: dict, law: TwoPointScale) -> list:
    """For a similarity law every row of the operator has the same law, so
    r is constant and eta uniform up to Monte Carlo noise.

    r_i is a row sum of mc draws of |c|^kappa, relative noise
    sd(|c|^kappa) / sqrt(mc); eta_j pools about mc draws landing in cell j,
    relative noise sqrt(E|c|^{2 kappa} / mc) (kernel smoothing for d >= 3
    only lowers it).
    """
    problems = []
    kappa, mc = solution["kappa"], solution["mc_per_point"]
    mean = law.moment(kappa)
    r = np.asarray(solution["r"], dtype=float)
    eta = np.asarray(solution["eta"], dtype=float)
    r_dev = float(np.max(np.abs(r / r.mean() - 1.0)))
    r_tol = Z_MAX * law.sd(kappa) / mean / math.sqrt(mc)
    if not r_dev <= r_tol:
        problems.append(f"r is not constant: max relative deviation {r_dev:.3g} > {r_tol:.3g}")
    eta_dev = float(np.max(np.abs(eta * eta.size - 1.0)))
    eta_tol = Z_MAX * math.sqrt(law.moment(2 * kappa) / mc) / mean
    if not eta_dev <= eta_tol:
        problems.append(f"eta is not uniform: max relative deviation {eta_dev:.3g} > {eta_tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# Lyapunov exponent, Hill index and stationary draws
# ---------------------------------------------------------------------------

def check_lyapunov(fragment: dict, law: TwoPointScale) -> list:
    """||c_1 O_1 ... c_n O_n|| = c_1 ... c_n, so beta is a mean of
    n_steps * replicas draws of log|c|, with exactly known variance."""
    beta_true = law.moment(0.0, 1)
    se = law.sd(0.0, 1) / math.sqrt(fragment["n_steps"] * fragment["replicas"])
    if not abs(fragment["beta"] - beta_true) <= Z * se:
        return [f"beta = {fragment['beta']:.6g}, E log|c| = {beta_true:.6g} "
                f"(tolerance {Z * se:.3g})"]
    return []


def check_hill(tail: dict, kappa: float) -> list:
    """The Hill estimate on k order statistics has standard error kappa / sqrt(k)."""
    tol = Z * kappa / math.sqrt(tail["hill_k"])
    if not abs(tail["hill_index"] - kappa) <= tol:
        return [f"Hill index {tail['hill_index']:.6g} is not near kappa "
                f"{kappa:.6g} (tolerance {tol:.3g})"]
    return []


def check_stationary_csv(path: Path, count: int, dim: int) -> list:
    """The requested number of draws, all finite."""
    lines = [ln for ln in path.read_bytes().split(b"\n") if ln and not ln.startswith(b"#")]
    if len(lines) != count:
        return [f"{path.name}: {len(lines)} draws, asked for {count}"]
    values = np.array(b",".join(lines).split(b","), dtype=float)
    if values.size != count * dim:
        return [f"{path.name}: {values.size} values, expected {count} rows of {dim}"]
    if not np.all(np.isfinite(values)):
        return [f"{path.name}: {int(np.sum(~np.isfinite(values)))} non-finite values"]
    return []


# ---------------------------------------------------------------------------
# symmetry and isotropy of the tail measure and of the limit
# ---------------------------------------------------------------------------

def check_sigma_uniform(sigma: dict) -> list:
    """Exceedance counts per cell are multinomial with equal cell
    probabilities for a symmetric (d = 1) or isotropic law; a chi-square
    test at the benchmark's tail probability.  For d = 1 it compares the
    masses at +1 and -1."""
    mass = np.asarray(sigma["mass"], dtype=float)
    scale = sigma["kappa"] * sigma["threshold_used"] ** sigma["kappa"] / sigma["sample_count"]
    counts = mass / scale
    n_exc = sigma["exceedances"]
    if abs(counts.sum() - n_exc) > 1e-6 * n_exc:
        return [f"sigma masses add up to {counts.sum():.6g} exceedances, not {n_exc}"]
    weights = np.asarray(sigma["grid"]["weights"], dtype=float)
    expected = n_exc * weights
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = float(stats.chi2.sf(chi2, counts.size - 1))
    if not p >= P_MIN:
        return [f"sigma is not uniform over the grid: chi-square {chi2:.4g} "
                f"on {counts.size - 1} df, p = {p:.3g} < {P_MIN:.3g}"]
    return []


def check_scalar_K_symmetry(tail: dict, n: int) -> list:
    """Plateau estimates K(+1) and K(-1) of a symmetric law agree within
    their noise.  Each plateau is a count-weighted mean of levels
    t^kappa * count / n with relative noise 1 / sqrt(count); the sum of
    weighted standard errors bounds its standard error."""
    kappa = tail["kappa_used"]
    thresholds = np.asarray(tail["thresholds"], dtype=float)
    values, ses = [], []
    for key in ("(1)", "(-1)"):
        levels = np.asarray(tail["directional_scaled_freq"][key], dtype=float)
        counts = levels * n / thresholds ** kappa
        weights = np.maximum(counts, 1.0)
        values.append(float(tail["tail_constants"][key]["direct"]))
        ses.append(float(np.sum(weights * levels / np.sqrt(weights)) / weights.sum()))
    tol = Z * math.hypot(*ses)
    if not abs(values[0] - values[1]) <= tol:
        return [f"K(+1) = {values[0]:.6g} and K(-1) = {values[1]:.6g} differ by "
                f"more than {tol:.3g}"]
    return []


def check_limit_isotropy(law: dict) -> list:
    """For an isotropic law Re C(v) is the same in every direction and
    Im C(v) vanishes.  The program's error budget is three standard errors
    of its draw mean, per direction."""
    c = np.asarray(law["c_values"], dtype=float)
    se = law["error_budget"] / 3.0
    problems = []
    spread = float(c[:, 0].max() - c[:, 0].min())
    if not spread <= Z * math.sqrt(2.0) * se:
        problems.append(f"Re C(v) differs across directions by {spread:.4g} "
                        f"> {Z * math.sqrt(2.0) * se:.3g}")
    imag = float(np.max(np.abs(c[:, 1])))
    if not imag <= Z * se:
        problems.append(f"|Im C(v)| reaches {imag:.4g} > {Z * se:.3g}")
    return problems


def check_nondegenerate(fragment: dict) -> list:
    if not fragment["verdict"]["nondegenerate"]:
        return ["the stable limit is reported degenerate"]
    return []
