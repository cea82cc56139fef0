"""Empirical tail analysis of the stationary law.

Estimates the tail index from order statistics, the directional tail
constants from exceedance plateaus, and the angular tail measure from
threshold exceedances; verifies the polar product structure and the
invariance of the angular measure under the column-action operator.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .batches import data_of
from .env_models import ConfigurationError, Environment
from .rng import as_generator
from .spectral import COLUMN_ACTION, SphereGrid, build_operator_draws


class TailRegimeError(RuntimeError):
    """The requested statistic is outside the resolvable tail regime."""


class RegularVariationError(ValueError):
    """The exponent/symmetry combination does not guarantee a product tail."""


def _require_regular_variation(kappa: float, q_symmetric: bool,
                               integer_tol: float = 0.05) -> None:
    nearest = round(kappa)
    if nearest >= 1 and abs(kappa - nearest) <= integer_tol:
        if nearest % 2 == 0:
            raise RegularVariationError(
                f"kappa ~ {nearest} is an even integer; the angular tail "
                "measure may not exist for this exponent")
        if not q_symmetric:
            raise RegularVariationError(
                f"kappa ~ {nearest} is an odd integer; a symmetric Q law is "
                "required for the product tail structure")


# ---------------------------------------------------------------------------
# tail index from order statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HillEstimate:
    index: float
    ci_low: float
    ci_high: float
    k_used: int


def hill_tail_index(samples, top_fraction: float) -> HillEstimate:
    """Hill estimator on the top order statistics of |R|, with the usual
    asymptotic-normal 95% interval index * (1 +- 1.96 / sqrt(k))."""
    data = data_of(samples)
    if data.shape[0] < 10_000:
        raise ConfigurationError("hill estimator: need at least 10^4 samples")
    if not 0.0 < top_fraction <= 0.05:
        raise ConfigurationError("hill estimator: top_fraction must be in (0, 0.05]")
    norms = np.sort(np.linalg.norm(data, axis=1))[::-1]
    k = max(2, int(top_fraction * norms.shape[0]))
    top = norms[:k]
    pivot = norms[k]
    if pivot <= 0:
        raise TailRegimeError("threshold order statistic is not positive")
    if np.unique(top).shape[0] < 0.5 * k:
        raise TailRegimeError(
            "more than half of the top order statistics are tied "
            "(discrete-looking law); use a larger sample")
    h = float(np.mean(np.log(top)) - math.log(pivot))
    index = 1.0 / h
    half = 1.96 * index / math.sqrt(k)
    return HillEstimate(index=index, ci_low=index - half, ci_high=index + half, k_used=k)


def hill_stability(samples, fractions=(0.005, 0.01, 0.02, 0.05)) -> dict:
    """Hill indices across tail fractions plus a crude heavy-tail verdict:
    bounded-support inputs make the index blow up as the fraction shrinks."""
    by_fraction = {f: hill_tail_index(samples, f).index for f in fractions}
    vals = np.array(list(by_fraction.values()))
    stable = bool(vals.max() / max(vals.min(), 1e-12) <= 2.0)
    return {"indices": by_fraction, "heavy_tail": stable}


# ---------------------------------------------------------------------------
# directional tail constant by exceedance plateau
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauEstimate:
    value: float
    dispersion: float
    thresholds: tuple
    levels: tuple

    def __float__(self):
        return self.value


def direct_K(samples, x: np.ndarray, kappa: float, thresholds) -> PlateauEstimate:
    """Plateau of u^kappa P(<x, R> > u) over the given thresholds.

    The plateau is the count-weighted least-squares constant through the
    per-threshold levels; a dispersion above half the level means the
    thresholds never reached the power-law regime.
    """
    data = data_of(samples)
    x = np.asarray(x, dtype=float)
    proj = data @ x
    thresholds = np.sort(np.asarray(thresholds, dtype=float))
    if thresholds[0] <= 0:
        raise ConfigurationError("thresholds must be positive")
    if thresholds[-1] >= float(np.max(proj)):
        raise TailRegimeError("largest threshold is outside the sample range")
    n = proj.shape[0]
    counts = np.array([(proj > u).sum() for u in thresholds], dtype=float)
    levels = thresholds ** kappa * counts / n
    weights = np.maximum(counts, 1.0)
    value = float(np.sum(weights * levels) / np.sum(weights))
    dispersion = float(np.max(np.abs(levels - value)))
    if dispersion > 0.5 * abs(value):
        raise TailRegimeError(
            f"no plateau: dispersion {dispersion:.3g} exceeds half the level {value:.3g}")
    return PlateauEstimate(value=value, dispersion=dispersion,
                           thresholds=tuple(thresholds), levels=tuple(levels))


# ---------------------------------------------------------------------------
# angular tail measure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SpectralMeasure:
    """Angular tail mass per Voronoi cell of the direction grid."""

    grid: SphereGrid
    mass: np.ndarray
    threshold_used: float
    total_mass: float
    kappa: float
    sample_count: int
    exceedances: int

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "threshold_used": self.threshold_used,
            "total_mass": self.total_mass,
            "mass": self.mass.tolist(),
            "sample_count": self.sample_count,
            "exceedances": self.exceedances,
            "grid": self.grid.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralMeasure":
        return cls(grid=SphereGrid.from_json_dict(doc["grid"]),
                   mass=np.asarray(doc["mass"], dtype=float),
                   threshold_used=doc["threshold_used"], total_mass=doc["total_mass"],
                   kappa=doc["kappa"], sample_count=doc["sample_count"],
                   exceedances=doc["exceedances"])


def estimate_sigma(samples, u: float, grid: SphereGrid, kappa: float,
                   q_symmetric: bool) -> SpectralMeasure:
    """Angular measure from exceedances of |R| over u:
    cell mass = kappa * u^kappa * (fraction exceeding with direction in the cell)."""
    _require_regular_variation(kappa, q_symmetric)
    data = data_of(samples)
    norms = np.linalg.norm(data, axis=1)
    exceed = norms > u
    n_exc = int(exceed.sum())
    if n_exc < 500:
        suggestion = float(np.quantile(norms, max(0.0, 1.0 - 500.0 / norms.shape[0])))
        raise TailRegimeError(
            f"only {n_exc} exceedances above u={u:.4g}; use u <= {suggestion:.4g}")
    dirs = data[exceed] / norms[exceed, None]
    cells = grid.cell_index(dirs)
    counts = np.bincount(cells, minlength=grid.n).astype(float)
    scale = kappa * u ** kappa / data.shape[0]
    mass = scale * counts
    return SpectralMeasure(grid=grid, mass=mass, threshold_used=float(u),
                           total_mass=float(mass.sum()), kappa=float(kappa),
                           sample_count=int(data.shape[0]), exceedances=n_exc)


def check_sigma_invariance(sigma: SpectralMeasure, env: Environment, kappa: float,
                           mc_n: int, rng) -> float:
    """Relative total-variation residual of sigma under the column-action
    operator: ||sigma A* - sigma||_TV / total mass."""
    if sigma.total_mass <= 0:
        raise ConfigurationError("invariance check needs a measure with positive mass")
    draws = build_operator_draws(env, sigma.grid, COLUMN_ACTION, mc_n, as_generator(rng))
    a = draws.matrix(kappa)
    pushed = a.T @ sigma.mass
    return float(np.sum(np.abs(pushed - sigma.mass)) / sigma.total_mass)


@dataclass(frozen=True)
class ProductStructureReport:
    angular_distance: float
    radial_index: float
    exceedances_low: int
    exceedances_high: int


def check_product_structure(samples, u1: float, u2: float,
                            grid: SphereGrid) -> ProductStructureReport:
    """Polar product diagnostics: the angular law of exceedance directions
    should not depend on the threshold, and the radius should be Pareto.

    Returns the total-variation distance (half L1) between the normalized
    angular histograms at u1 < u2, and the maximum-likelihood Pareto index
    of |R| exceedances over u1.
    """
    if not 0 < u1 < u2:
        raise ConfigurationError("need thresholds 0 < u1 < u2")
    data = data_of(samples)
    norms = np.linalg.norm(data, axis=1)
    hists = []
    counts = []
    for u in (u1, u2):
        exceed = norms > u
        n_exc = int(exceed.sum())
        if n_exc < 500:
            raise TailRegimeError(f"only {n_exc} exceedances above u={u:.4g}")
        counts.append(n_exc)
        dirs = data[exceed] / norms[exceed, None]
        h = np.bincount(grid.cell_index(dirs), minlength=grid.n).astype(float)
        hists.append(h / h.sum())
    tv = 0.5 * float(np.sum(np.abs(hists[0] - hists[1])))
    tail = norms[norms > u1]
    radial_index = 1.0 / float(np.mean(np.log(tail / u1)))
    return ProductStructureReport(angular_distance=tv, radial_index=radial_index,
                                  exceedances_low=counts[0], exceedances_high=counts[1])


# ---------------------------------------------------------------------------
# whitelisted tail test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailTestFunction:
    """A tail test function with a certified growth bound.

    Only these forms are accepted by tail_functional: each satisfies
    sup |x|^(-kappa) |log|x||^(1+eps) |f(x)| < infinity, which keeps the
    limit functional finite.
    """

    kind: str
    params: tuple

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.kind == "half_space":
            (v,) = self.params
            return (x @ np.asarray(v) > 1.0).astype(float)
        if self.kind == "annulus_cone":
            r_lo, r_hi, axis, min_cos = self.params
            norms = np.linalg.norm(x, axis=1)
            ok = (norms > r_lo) & (norms <= r_hi)
            if axis is not None:
                with np.errstate(invalid="ignore"):
                    cosines = (x @ np.asarray(axis)) / np.where(norms > 0, norms, 1.0)
                ok &= cosines >= min_cos
            return ok.astype(float)
        raise ConfigurationError(f"unknown test function kind {self.kind!r}")

    def polar_integral(self, sigma: SpectralMeasure) -> float:
        """integral of f against the product measure sigma x s^(-kappa-1) ds,
        computed atom by atom with closed radial forms where available."""
        kappa = sigma.kappa
        w = sigma.grid.points
        m = sigma.mass
        if self.kind == "half_space":
            (v,) = self.params
            a = np.maximum(w @ np.asarray(v), 0.0)
            return float(np.sum(m * a ** kappa) / kappa)
        if self.kind == "annulus_cone":
            r_lo, r_hi, axis, min_cos = self.params
            radial = (r_lo ** -kappa - (r_hi ** -kappa if np.isfinite(r_hi) else 0.0)) / kappa
            if axis is None:
                ang = float(np.sum(m))
            else:
                ang = float(np.sum(m[(w @ np.asarray(axis)) >= min_cos]))
            return ang * radial
        raise ConfigurationError(f"unknown test function kind {self.kind!r}")


def half_space(v) -> TailTestFunction:
    v = np.asarray(v, dtype=float)
    return TailTestFunction(kind="half_space", params=(tuple(v),))


def annulus_cone(r_lo: float, r_hi: float = math.inf, axis=None,
                 min_cos: float = -1.0) -> TailTestFunction:
    if r_lo < 0 or r_hi < r_lo:
        raise ConfigurationError("annulus bounds must satisfy 0 <= r_lo <= r_hi")
    if r_lo == 0 and not math.isinf(r_hi):
        raise ConfigurationError("annulus must stay away from the origin (r_lo > 0)")
    ax = None if axis is None else tuple(np.asarray(axis, dtype=float))
    return TailTestFunction(kind="annulus_cone", params=(float(r_lo), float(r_hi), ax, float(min_cos)))


# ---------------------------------------------------------------------------
# tail functionals with extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFunctionalResult:
    t_values: tuple
    values: tuple
    limit: float
    fit_exponent: float | None
    polar_value: float | None


def _extrapolate(t: np.ndarray, v: np.ndarray) -> tuple[float, float | None]:
    """Fit value(t) = L + c t^gamma through the three smallest t and return L.

    Falls back to the smallest-t value when the three points do not show a
    consistent power-law correction.
    """
    from scipy.optimize import brentq

    t3, v3 = t[:3], v[:3]
    d1, d2 = v3[1] - v3[0], v3[2] - v3[1]
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return float(v3[0]), None

    def gap(gamma: float) -> float:
        return (t3[1] ** gamma - t3[0] ** gamma) / (t3[2] ** gamma - t3[1] ** gamma) - d1 / d2

    try:
        gamma = brentq(gap, 1e-3, 10.0)
    except ValueError:
        return float(v3[0]), None
    c = d1 / (t3[1] ** gamma - t3[0] ** gamma)
    return float(v3[0] - c * t3[0] ** gamma), float(gamma)


def tail_functional(samples, func: TailTestFunction, kappa: float, t_grid,
                    sigma: SpectralMeasure | None = None) -> TailFunctionalResult:
    """Curve t -> t^(-kappa) E f(tR) with a power-law extrapolation to t -> 0.

    When an angular measure is supplied, the limiting value is cross-checked
    through the polar representation of the tail measure.
    """
    if not isinstance(func, TailTestFunction):
        raise ConfigurationError(
            "test function outside the whitelist: growth bound not certified")
    data = data_of(samples)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= 0:
        raise ConfigurationError("t grid must be positive")
    values = np.array([t ** -kappa * float(np.mean(func.evaluate(t * data)))
                       for t in t_grid])
    limit, gamma = _extrapolate(t_grid, values)
    polar = func.polar_integral(sigma) if sigma is not None else None
    return TailFunctionalResult(t_values=tuple(t_grid), values=tuple(values),
                                limit=limit, fit_exponent=gamma, polar_value=polar)


# ---------------------------------------------------------------------------
# aggregate summary for reporting
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TailEstimate:
    thresholds: np.ndarray
    radial_scaled_freq: np.ndarray
    directional_scaled_freq: dict
    hill: HillEstimate
    kappa_used: float

    def to_json_dict(self) -> dict:
        return {
            "kappa_used": self.kappa_used,
            "thresholds": self.thresholds.tolist(),
            "radial_scaled_freq": self.radial_scaled_freq.tolist(),
            "directional_scaled_freq": {k: v.tolist() for k, v in
                                        self.directional_scaled_freq.items()},
            "hill_index": self.hill.index,
            "hill_ci": [self.hill.ci_low, self.hill.ci_high],
            "hill_k": self.hill.k_used,
        }


def summarize_tails(samples, kappa: float, directions, thresholds,
                    top_fraction: float = 0.01) -> TailEstimate:
    """Scaled exceedance frequencies u^kappa P(|R| > u) and the directional
    analogues, plus the Hill index, packaged for the report."""
    data = data_of(samples)
    thresholds = np.sort(np.asarray(thresholds, dtype=float))
    n = data.shape[0]
    norms = np.linalg.norm(data, axis=1)
    radial = thresholds ** kappa * np.array([(norms > u).mean() for u in thresholds])
    if np.any(np.diff([np.mean(norms > u) for u in thresholds]) > 0):
        warnings.warn("exceedance frequencies are not monotone; thresholds overlap ties")
    directional = {}
    for v in np.atleast_2d(np.asarray(directions, dtype=float)):
        proj = data @ v
        key = "(" + ",".join(f"{c:.6g}" for c in v) + ")"
        directional[key] = thresholds ** kappa * np.array(
            [(proj > u).mean() for u in thresholds])
    hill = hill_tail_index(samples, top_fraction)
    return TailEstimate(thresholds=thresholds, radial_scaled_freq=radial,
                        directional_scaled_freq=directional, hill=hill,
                        kappa_used=float(kappa))
