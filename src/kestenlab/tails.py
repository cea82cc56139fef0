"""Empirical tail analysis of the stationary law.

R is regularly varying with index kappa, so every empirical route to the
tail constant K(v) reads one exceedance curve: u^kappa P(X > u) over sorted
thresholds u, for X = |R| or X = <v, R>.  The curve has two summaries: its
plateau, the count-weighted mean level, and its extrapolated limit, a
power-law fit in t = 1/u continued to t -> 0.  Besides the curve: the Hill
estimate of the tail index, the angular tail measure from threshold
exceedances, the polar product structure, and the invariance of the angular
measure under the column-action operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batches import data_of
from .env_models import ConfigurationError, Environment
from .spectral import COLUMN_ACTION, SphereGrid, bisect, build_operator_draws

_INTEGER_TOL = 0.05  # a kappa this close to an integer is treated as that integer
MIN_EXCEEDANCES = 500  # fewest draws over the threshold that sigma is estimated from


class TailRegimeError(RuntimeError):
    """The requested statistic is outside the resolvable tail regime."""


class RegularVariationError(ConfigurationError):
    """The exponent/symmetry combination does not guarantee a product tail."""


def _require_regular_variation(kappa: float, q_symmetric: bool) -> None:
    """The one rule for a kappa near an integer, closed at both ends of the
    band: the angular measure, C(v) and the centering all refuse an even
    integer, and an odd one without a symmetric Q."""
    nearest = round(kappa)
    if nearest >= 1 and nearest - _INTEGER_TOL <= kappa <= nearest + _INTEGER_TOL:
        if nearest % 2 == 0:
            raise RegularVariationError(
                f"kappa ~ {nearest} is an even integer; the angular tail "
                "measure may not exist for this exponent")
        if not q_symmetric:
            raise RegularVariationError(
                f"kappa ~ {nearest} is an odd integer; a symmetric Q law is "
                "required for the product tail structure and the centered limit")


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


# ---------------------------------------------------------------------------
# the exceedance curve and its two summaries
# ---------------------------------------------------------------------------

def _extrapolate(t: np.ndarray, v: np.ndarray) -> tuple[float, float | None]:
    """Fit value(t) = L + c t^gamma through the three smallest t and return L.

    Falls back to the smallest-t value when the three points do not show a
    consistent power-law correction.
    """
    t3, v3 = t[:3], v[:3]
    d1, d2 = v3[1] - v3[0], v3[2] - v3[1]
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return float(v3[0]), None

    def gap(gamma: float) -> float:
        return (t3[1] ** gamma - t3[0] ** gamma) / (t3[2] ** gamma - t3[1] ** gamma) - d1 / d2

    if gap(1e-3) * gap(10.0) > 0.0:
        return float(v3[0]), None
    gamma = bisect(gap, 1e-3, 10.0)
    c = d1 / (t3[1] ** gamma - t3[0] ** gamma)
    return float(v3[0] - c * t3[0] ** gamma), float(gamma)


@dataclass(frozen=True, eq=False)
class ExceedanceCurve:
    """u^kappa P(X > u) over sorted thresholds u: the exceedance counts and
    the levels u^kappa * (count / n)."""

    thresholds: np.ndarray
    counts: np.ndarray
    levels: np.ndarray

    def plateau(self) -> tuple[float, float]:
        """The count-weighted least-squares constant through the levels and
        their largest deviation from it; a deviation above half the level
        means the thresholds never reached the power-law regime."""
        if self.counts[-1] == 0:
            raise TailRegimeError("largest threshold is outside the sample range")
        weights = np.maximum(self.counts, 1.0)
        value = float(np.sum(weights * self.levels) / np.sum(weights))
        dispersion = float(np.max(np.abs(self.levels - value)))
        if dispersion > 0.5 * abs(value):
            raise TailRegimeError(
                f"no plateau: dispersion {dispersion:.3g} exceeds half the level {value:.3g}")
        return value, dispersion

    def limit(self) -> float:
        """The level at u -> infinity: `_extrapolate` in t = 1/u through the
        three largest thresholds."""
        return _extrapolate(1.0 / self.thresholds[::-1], self.levels[::-1])[0]


def exceedance_curve(x, kappa: float, thresholds) -> ExceedanceCurve:
    """The exceedance curve of the sample x (|R| or <v, R>, one value per
    draw) over the thresholds, sorted."""
    x = np.asarray(x, dtype=float)
    thresholds = np.sort(np.asarray(thresholds, dtype=float))
    if thresholds[0] <= 0:
        raise ConfigurationError("thresholds must be positive")
    counts = np.array([(x > u).sum() for u in thresholds])
    return ExceedanceCurve(thresholds=thresholds, counts=counts,
                           levels=thresholds ** kappa * (counts / x.shape[0]))


# ---------------------------------------------------------------------------
# angular tail measure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SpectralMeasure:
    """Angular tail mass per cell of the direction grid."""

    grid: SphereGrid
    mass: np.ndarray
    threshold_used: float
    total_mass: float
    kappa: float
    sample_count: int
    exceedances: int

    def tail_constant(self, v) -> float:
        """K(v) through the polar form of the tail measure:
        (1/kappa) sum_j m_j (<v, w_j>^+)^kappa over the cell points w_j."""
        a = np.maximum(self.grid.points @ np.asarray(v, dtype=float), 0.0)
        return float(np.sum(self.mass * a ** self.kappa) / self.kappa)


def _exceedance_cells(data: np.ndarray, norms: np.ndarray, u: float,
                      grid: SphereGrid, symmetric: bool = False) -> np.ndarray:
    """Per grid cell, the number of draws with |R| > u whose direction lies
    in it, averaged with the count of -R when symmetric; fewer than
    MIN_EXCEEDANCES in all are refused."""
    exceed = norms > u
    n_exc = int(exceed.sum())
    if n_exc < MIN_EXCEEDANCES:
        suggestion = float(np.quantile(norms, max(0.0, 1.0 - MIN_EXCEEDANCES / norms.shape[0])))
        raise TailRegimeError(
            f"only {n_exc} exceedances above u={u:.4g}; use u <= {suggestion:.4g}")
    dirs = data[exceed] / norms[exceed, None]
    counts = np.bincount(grid.cell_index(dirs), minlength=grid.n).astype(float)
    if symmetric:
        counts = 0.5 * (counts + np.bincount(grid.cell_index(-dirs), minlength=grid.n))
    return counts


def estimate_sigma(samples, u: float, grid: SphereGrid, kappa: float,
                   q_symmetric: bool) -> SpectralMeasure:
    """Angular measure from exceedances of |R| over u:
    cell mass = kappa * u^kappa * (fraction exceeding with direction in the cell).
    A symmetric Q makes R symmetric, so then the cell counts are those of R
    and of -R averaged, and sigma(A) = sigma(-A) holds on an antipodal grid."""
    _require_regular_variation(kappa, q_symmetric)
    data = data_of(samples)
    counts = _exceedance_cells(data, np.linalg.norm(data, axis=1), u, grid, q_symmetric)
    mass = kappa * u ** kappa / data.shape[0] * counts
    return SpectralMeasure(grid=grid, mass=mass, threshold_used=float(u),
                           total_mass=float(mass.sum()), kappa=float(kappa),
                           sample_count=int(data.shape[0]), exceedances=int(counts.sum()))


def check_sigma_invariance(sigma: SpectralMeasure, env: Environment, mc_n: int,
                           rng: np.random.Generator) -> float:
    """Relative total-variation residual of sigma under the column-action
    operator at sigma's exponent: ||sigma A* - sigma||_TV / total mass."""
    if sigma.total_mass <= 0:
        raise ConfigurationError("invariance check needs a measure with positive mass")
    draws = build_operator_draws(env, sigma.grid, COLUMN_ACTION, mc_n, rng)
    a = draws.matrix(sigma.kappa)
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
    low, high = (_exceedance_cells(data, norms, u, grid) for u in (u1, u2))
    tv = 0.5 * float(np.sum(np.abs(low / low.sum() - high / high.sum())))
    tail = norms[norms > u1]
    radial_index = 1.0 / float(np.mean(np.log(tail / u1)))
    return ProductStructureReport(angular_distance=tv, radial_index=radial_index,
                                  exceedances_low=int(low.sum()),
                                  exceedances_high=int(high.sum()))


# ---------------------------------------------------------------------------
# aggregate summary for reporting
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TailEstimate:
    radial: ExceedanceCurve
    directional: dict
    hill: HillEstimate
    kappa_used: float

    def to_json_dict(self) -> dict:
        return {
            "kappa_used": self.kappa_used,
            "thresholds": self.radial.thresholds.tolist(),
            "radial_scaled_freq": self.radial.levels.tolist(),
            "directional_scaled_freq": {k: c.levels.tolist() for k, c in
                                        self.directional.items()},
            "hill_index": self.hill.index,
            "hill_ci": [self.hill.ci_low, self.hill.ci_high],
            "hill_k": self.hill.k_used,
        }


def summarize_tails(samples, kappa: float, directions, thresholds,
                    top_fraction: float = 0.01) -> TailEstimate:
    """The exceedance curve of |R| and, keyed "(v_1,...,v_d)", that of
    <v, R> for each direction v, plus the Hill index, packaged for the report."""
    data = data_of(samples)
    radial = exceedance_curve(np.linalg.norm(data, axis=1), kappa, thresholds)
    directional = {"(" + ",".join(f"{c:.6g}" for c in v) + ")":
                   exceedance_curve(data @ v, kappa, radial.thresholds)
                   for v in np.atleast_2d(np.asarray(directions, dtype=float))}
    return TailEstimate(radial=radial, directional=directional,
                        hill=hill_tail_index(samples, top_fraction),
                        kappa_used=float(kappa))
