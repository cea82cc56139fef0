"""Direction-space transfer operators, the tail index, and eigen-objects.

The operator averaging f over the projective action of M with weight
|vM|^kappa is discretized on a finite direction grid by Monte Carlo: each
grid row caches its own draws of M, and matrices for different kappa are
rebuilt from the cached draws.  That reuse (common random numbers) makes
the spectral radius a smooth function of kappa, so a bisection root-find
for rho(kappa) = 1 is stable.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .batches import SampleBatch, data_of
from .env_models import ConfigurationError, Environment, sample_pairs
from .rng import as_generator

ROW_ACTION = "T_kappa"        # direction of vM, weight |vM|^kappa
COLUMN_ACTION = "T_kappa_star"  # direction of Mv, weight |Mv|^kappa
_GOLDIE_BLOCK = 8192          # stationary samples per block of the K(v) brackets


class SpectralBracketError(ConfigurationError):
    """The kappa bracket does not straddle rho = 1."""


class SpectralError(RuntimeError):
    """Inconsistent eigen-objects (for example a nonpositive alpha)."""


class SingularDrawError(RuntimeError):
    """Too many draws mapped a direction to zero or a non-finite vector."""


# ---------------------------------------------------------------------------
# sphere grids and grid-indexed data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Finite set of unit directions with quadrature weights summing to 1.

    Each point labels one cell of a partition of the sphere: the sign at
    d = 1, an arc at d = 2, an equal-area zonal cell at d = 3 and the
    nearest-point (Voronoi) cell above that.
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cell_index(self, dirs: np.ndarray) -> np.ndarray:
        """Label of the cell holding each direction."""
        dirs = np.atleast_2d(dirs)
        if self.dim == 1:       # the points are [-1], [1]
            return (dirs[:, 0] > 0).astype(np.int64)
        if self.dim == 2:
            step = 2.0 * np.pi / self.n
            ang = np.arctan2(dirs[:, 1], dirs[:, 0])
            return np.rint(ang / step).astype(np.int64) % self.n
        if self.dim == 3:
            upper, sectors, first = equal_area_zones(self.n)
            zone = np.searchsorted(upper[:-1], dirs[:, 2], side="right")
            m = sectors[zone]
            lon = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
            # the mod can return 2 pi itself for tiny negative angles
            sector = np.minimum((lon * m / (2.0 * np.pi)).astype(np.int64), m - 1)
            return first[zone] + sector
        # chunk the dot products so huge direction sets stay in memory
        out = np.empty(dirs.shape[0], dtype=np.int64)
        for lo in range(0, dirs.shape[0], 65536):
            hi = min(lo + 65536, dirs.shape[0])
            out[lo:hi] = np.argmax(dirs[lo:hi] @ self.points.T, axis=1)
        return out

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SphereGrid":
        grid = cls(points=np.asarray(doc["points"], dtype=float),
                   weights=np.asarray(doc["weights"], dtype=float))
        # up to d = 3 the cells are fixed by (d, n), not by the points, so a
        # grid from another layout (the d = 3 spiral of older versions)
        # would read its values in the wrong cells
        if grid.dim <= 3 and not np.array_equal(grid.points,
                                                build_grid(grid.dim, grid.n).points):
            raise ConfigurationError(
                f"the stored d = {grid.dim} grid of {grid.n} points is not the "
                "layout this version builds; rerun the stage that wrote it")
        return grid


@functools.lru_cache(maxsize=None)
def equal_area_zones(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leopardi's partition of the 2-sphere into n cells of equal area
    (Leopardi 2006, *A partition of the unit sphere into regions of equal
    area and small diameter*).

    Zones run from the south pole to the north pole: a polar cap at each
    end and collars between them, each collar cut into equal longitude
    sectors.  Returns the upper z of each zone, its number of sectors and
    the label of its first cell.  n = 2 is two hemispheres.
    """
    if n == 2:
        sectors = [1, 1]
    else:
        cap = 2.0 * math.asin(1.0 / math.sqrt(n))
        n_collars = max(1, round((math.pi - 2.0 * cap) / math.sqrt(4.0 * math.pi / n)))
        step = (math.pi - 2.0 * cap) / n_collars
        sectors, carry = [1], 0.0
        for k in range(n_collars):
            # collar area over the cell area 4 pi / n
            ideal = 0.5 * n * (math.cos(cap + k * step) - math.cos(cap + (k + 1) * step))
            count = round(ideal + carry)
            carry += ideal - count
            sectors.append(count)
        sectors.append(1)
    sectors = np.array(sectors, dtype=np.int64)
    total = np.cumsum(sectors)
    zones = (-1.0 + 2.0 * total / n, sectors, total - sectors)
    for a in zones:
        a.setflags(write=False)      # the cache hands them to every caller
    return zones


def build_grid(d: int, resolution: int) -> SphereGrid:
    """Direction grid: signs for d=1, uniform angles for d=2, the centres
    of equal-area cells for d=3, and a low-discrepancy Gaussian map above
    that."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    if resolution < 2:
        raise ConfigurationError("resolution must be >= 2")
    if d == 1:
        points = np.array([[-1.0], [1.0]])
        weights = np.array([0.5, 0.5])
        return SphereGrid(points=points, weights=weights)
    if d == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        points = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 3:
        upper, sectors, _ = equal_area_zones(resolution)
        lower = np.concatenate([[-1.0], upper[:-1]])
        z = np.repeat(0.5 * (lower + upper), sectors)
        # the caps' points sit at the poles
        z[0], z[-1] = -1.0, 1.0
        lon = np.concatenate([2.0 * np.pi * (np.arange(m) + 0.5) / m for m in sectors])
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        points = np.column_stack([r * np.cos(lon), r * np.sin(lon), z])
    else:
        from scipy.stats import norm, qmc

        sampler = qmc.Halton(d=d, scramble=False)
        sampler.fast_forward(1)  # skip the all-zero first point
        u = sampler.random(resolution)
        g = norm.ppf(u)
        points = g / np.linalg.norm(g, axis=1, keepdims=True)
    weights = np.full(resolution, 1.0 / resolution)
    return SphereGrid(points=points, weights=weights)


# ---------------------------------------------------------------------------
# operator discretization with cached draws
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class OperatorDraws:
    """Per-row Monte-Carlo draws for one operator kind on one grid.

    Rebuilding matrices for different exponents from the same draws is the
    common-random-numbers device that keeps rho(kappa) smooth in kappa.
    """

    grid: SphereGrid
    kind: str
    norms: np.ndarray                 # (n_rows, mc)
    cells: np.ndarray                 # (n_rows, mc) int
    mc_count: int
    resampled_fraction: float

    def matrix(self, kappa: float) -> np.ndarray:
        n = self.grid.n
        out = np.empty((n, n))
        with np.errstate(over="ignore"):
            wk = self.norms ** kappa
        for i in range(n):
            out[i] = np.bincount(self.cells[i], weights=wk[i], minlength=n)
        out /= self.mc_count
        if not np.all(np.isfinite(out)):
            raise SpectralError(f"operator matrix overflowed at kappa={kappa}")
        return out


def _mapped(kind: str, points: np.ndarray, m: np.ndarray) -> np.ndarray:
    if kind == ROW_ACTION:
        return np.einsum("gj,njk->gnk", points, m)
    if kind == COLUMN_ACTION:
        return np.einsum("njk,gk->gnj", m, points)
    raise ConfigurationError(f"unknown operator kind {kind!r}")


def build_operator_draws(env: Environment, grid: SphereGrid, kind: str,
                         mc_n: int, rng) -> OperatorDraws:
    """Sample mc_n matrices per grid row and cache the mapped directions.

    Draws whose image is zero or non-finite are resampled and counted; more
    than 0.1% of them aborts the build.
    """
    if mc_n < 100:
        raise ConfigurationError("operator draws: need mc_n >= 100")
    rng = as_generator(rng)
    row_streams = rng.spawn(grid.n)
    n = grid.n
    norms = np.empty((n, mc_n))
    cells = np.empty((n, mc_n), dtype=np.int64)
    resampled = 0
    for i in range(n):
        stream = row_streams[i]
        m = env.matrix_law.sample(stream, mc_n)
        w = _mapped(kind, grid.points[i:i + 1], m)[0]
        nm = np.linalg.norm(w, axis=1)
        for _ in range(100):
            bad = ~np.isfinite(nm) | (nm == 0.0)
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            resampled += n_bad
            m_new = env.matrix_law.sample(stream, n_bad)
            w[bad] = _mapped(kind, grid.points[i:i + 1], m_new)[0]
            nm[bad] = np.linalg.norm(w[bad], axis=1)
        else:
            raise SingularDrawError("resampling of singular draws did not terminate")
        norms[i] = nm
        cells[i] = grid.cell_index(w / nm[:, None])
    frac = resampled / (n * mc_n)
    if frac > 1e-3:
        raise SingularDrawError(
            f"{100 * frac:.3f}% of draws were singular or non-finite")
    return OperatorDraws(grid=grid, kind=kind, norms=norms, cells=cells,
                         mc_count=mc_n, resampled_fraction=frac)


# ---------------------------------------------------------------------------
# spectral radius and the tail index
# ---------------------------------------------------------------------------

def _is_direction_reducible(a: np.ndarray) -> bool:
    """True when the discretized direction chain never mixes cells (the
    off-diagonal mass is numerically zero, e.g. positive scalar M)."""
    diag = np.abs(np.diagonal(a)).max()
    off = np.abs(a - np.diag(np.diagonal(a))).max()
    return off <= 1e-12 * max(diag, 1.0)


def _perron(a: np.ndarray, grid: SphereGrid) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Perron root, right vector r (max 1), left probability eta and the
    reducibility flag of a nonnegative operator matrix.

    The eigenvalue of largest real part of a nonnegative matrix is its
    Perron root, also when the direction chain is periodic and other
    eigenvalues share its modulus.
    """
    if _is_direction_reducible(a):
        # rows are independent estimates of one growth factor (the true
        # eigenfunction is continuous, hence constant across disconnected
        # cells of equal law); pooling avoids the upward bias of a max, and
        # the eigenspace left open by a diagonal matrix gets the continuous
        # symmetric representative
        rho = float(grid.weights @ a.sum(axis=1))
        return rho, np.ones(grid.n), grid.weights.copy(), True
    vals, vecs = np.linalg.eig(a)
    lead = int(np.argmax(vals.real))
    r = np.abs(vecs[:, lead].real)
    vals_t, vecs_t = np.linalg.eig(a.T)
    eta = np.abs(vecs_t[:, int(np.argmax(vals_t.real))].real)
    return float(vals[lead].real), r / r.max(), eta / eta.sum(), False


def spectral_radius(kappa: float, env: Environment, grid: SphereGrid,
                    mc_n: int, rng,
                    draws: OperatorDraws | None = None) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and positive leading vector of the discretized operator."""
    if draws is None:
        draws = build_operator_draws(env, grid, ROW_ACTION, mc_n, rng)
    rho, vec, _, _ = _perron(draws.matrix(kappa), grid)
    return rho, vec


@dataclass(eq=False)
class SpectralSolution:
    """Solved tail index with the eigen-objects that normalize the tail limit:
    the function r and the measures eta and pi, one entry per grid cell."""

    kappa: float
    rho_at_kappa: float
    rho_history: list
    grid: SphereGrid
    r: np.ndarray
    eta: np.ndarray
    pi: np.ndarray
    alpha: float
    mc_per_point: int
    reducible_directions: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "rho_at_kappa": self.rho_at_kappa,
            "alpha": self.alpha,
            "grid": self.grid.to_json_dict(),
            "r": self.r.tolist(),
            "eta": self.eta.tolist(),
            "pi": self.pi.tolist(),
            "rho_history": [[k, r] for k, r in self.rho_history],
            "mc_per_point": self.mc_per_point,
            "reducible_directions": self.reducible_directions,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralSolution":
        return cls(
            kappa=doc["kappa"], rho_at_kappa=doc["rho_at_kappa"],
            rho_history=[tuple(x) for x in doc["rho_history"]],
            grid=SphereGrid.from_json_dict(doc["grid"]),
            r=np.asarray(doc["r"], dtype=float),
            eta=np.asarray(doc["eta"], dtype=float),
            pi=np.asarray(doc["pi"], dtype=float),
            alpha=doc["alpha"], mc_per_point=doc["mc_per_point"],
            reducible_directions=doc["reducible_directions"])


def solve_kappa(env: Environment, grid: SphereGrid, bracket: tuple[float, float],
                mc_n: int, rng, *, rho_tol: float = 1e-3, width_tol: float = 1e-3,
                accept_band: float = 0.01) -> SpectralSolution:
    """Bisection for rho(kappa) = 1 with shared draws across evaluations.

    After the root is bracketed to width_tol (or the spectral radius is
    within rho_tol of 1), the eigen-objects are extracted at the solved
    exponent: right vector r (normalized so its eta-integral is 1), left
    probability eta, the twisted stationary law pi = r * eta, and the mean
    log-expansion alpha under the kappa-shifted kernel.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ConfigurationError("bracket must satisfy 0 < lo < hi")
    draws = build_operator_draws(env, grid, ROW_ACTION, mc_n, rng)
    history: list[tuple[float, float]] = []

    def rho_at(k: float) -> float:
        rho = _perron(draws.matrix(k), grid)[0]
        history.append((k, rho))
        return rho

    rho_lo = rho_at(lo)
    rho_hi = rho_at(hi)
    if rho_lo >= 1.0:
        raise SpectralBracketError(
            f"rho({lo}) = {rho_lo:.4f} >= 1; decrease the lower bracket")
    if rho_hi <= 1.0:
        raise SpectralBracketError(
            f"rho({hi}) = {rho_hi:.4f} <= 1; increase the upper bracket "
            "(the moment condition may fail below this exponent)")
    kappa = 0.5 * (lo + hi)
    while hi - lo > width_tol:
        kappa = 0.5 * (lo + hi)
        rho_mid = rho_at(kappa)
        if abs(rho_mid - 1.0) <= rho_tol:
            break
        if math.log(rho_mid) > 0.0:
            hi = kappa
        else:
            lo = kappa
    else:
        kappa = 0.5 * (lo + hi)

    rho_final, r_vals, eta, reducible = _perron(draws.matrix(kappa), grid)
    if abs(rho_final - 1.0) > accept_band:
        warnings.warn(f"rho at the solved kappa is {rho_final:.4f}; "
                      "the fixed point is outside the acceptance band")
    r_vals = r_vals / float(r_vals @ eta)
    pi = r_vals * eta
    pi = pi / pi.sum()

    alpha = _alpha_from_draws(draws, kappa, r_vals, pi)
    if alpha <= 0.0:
        raise SpectralError(
            f"alpha = {alpha:.4g} <= 0; the mean log-expansion under the "
            "shifted kernel must be positive")
    return SpectralSolution(
        kappa=float(kappa), rho_at_kappa=float(rho_final), rho_history=history,
        grid=grid, r=r_vals, eta=eta, pi=pi,
        alpha=float(alpha), mc_per_point=mc_n, reducible_directions=reducible)


def _alpha_from_draws(draws: OperatorDraws, kappa: float, r_vals: np.ndarray,
                      pi: np.ndarray) -> float:
    with np.errstate(over="ignore", divide="ignore"):
        wk = draws.norms ** kappa
        logs = np.log(draws.norms)
    contrib = np.mean(logs * r_vals[draws.cells] * wk, axis=1)
    return float(np.sum(pi / r_vals * contrib))


def fixed_point_residuals(sol: SpectralSolution, env: Environment,
                          mc_n: int, rng) -> tuple[float, float]:
    """Residuals of r and eta under a fresh Monte-Carlo operator build:
    sup-norm for the function, total-variation mass for the measure."""
    a = build_operator_draws(env, sol.grid, ROW_ACTION, mc_n, rng).matrix(sol.kappa)
    tr = a @ sol.r
    r_res = float(np.max(np.abs(tr - sol.r)) / np.max(np.abs(sol.r)))
    pushed = a.T @ sol.eta
    eta_res = float(np.sum(np.abs(pushed - sol.eta)))
    return r_res, eta_res


# ---------------------------------------------------------------------------
# the directional tail constant
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GoldieEstimate:
    """Directional tail constants K with the Monte-Carlo context attached."""

    directions: np.ndarray
    values: np.ndarray
    aggregate: float
    aggregate_se: float
    kappa: float
    alpha: float


def goldie_constant(sol: SpectralSolution, env: Environment,
                    stationary_samples: SampleBatch, v_dirs: np.ndarray,
                    rng, max_pairs: int = 200_000) -> GoldieEstimate:
    """Tail constants K(v) from the eigen-objects and stationary draws.

    The inner expectation is the compensated difference
    E[((y R')^+)^kappa - ((y M R)^+)^kappa] with R' = M R + Q, R drawn from
    the stationary batch independently of (M, Q).  Writing the first term
    through the one-step update leaves the summands bounded by a function
    of |Q| (for kappa <= 1) instead of a difference of two heavy-tailed
    terms, so the estimator has finite variance at every kappa in (0, 2).
    """
    rng = as_generator(rng)
    kappa, alpha = sol.kappa, sol.alpha
    r_data = data_of(stationary_samples)
    n_pairs = min(r_data.shape[0], max_pairs)
    r = r_data[:n_pairs]
    m, q = sample_pairs(env, rng, n_pairs)
    mr = np.einsum("nij,nj->ni", m, r)
    r_one_step = mr + q
    v_dirs = np.atleast_2d(np.asarray(v_dirs, dtype=float))

    reducible = sol.reducible_directions
    # absorbing direction chain: the invariant law seen from v is the point
    # mass at v, so the grid mixing collapses and r cancels
    points = v_dirs if reducible else sol.grid.points
    coeff = None if reducible else sol.pi / sol.r
    per_sample = np.empty(n_pairs)
    row_sums = np.zeros(points.shape[0])
    # one block of samples at a time, so the (rows, samples) brackets take
    # rows x _GOLDIE_BLOCK floats whatever n_pairs is
    for start in range(0, n_pairs, _GOLDIE_BLOCK):
        part = slice(start, start + _GOLDIE_BLOCK)
        # ((y R')^+)^kappa - ((y MR)^+)^kappa per row y and sample
        diff = (np.maximum(points @ r_one_step[part].T, 0.0) ** kappa
                - np.maximum(points @ mr[part].T, 0.0) ** kappa)
        if reducible:
            row_sums += diff.sum(axis=1)
            per_sample[part] = diff.mean(axis=0)
        else:
            per_sample[part] = coeff @ diff
    if reducible:
        values = row_sums / n_pairs / (alpha * kappa)
    else:
        r_at_v = sol.r[sol.grid.cell_index(v_dirs)]
        values = r_at_v * float(per_sample.mean()) / (alpha * kappa)
    agg = float(per_sample.mean())
    agg_se = float(np.std(per_sample) / math.sqrt(n_pairs))
    if agg < 0.0:
        if agg < -3.0 * agg_se:
            raise SpectralError(
                f"tail-constant bracket is negative beyond noise ({agg:.4g}, se {agg_se:.2g})")
        warnings.warn("tail-constant bracket is slightly negative (finite-sample noise)")
    return GoldieEstimate(directions=v_dirs, values=np.asarray(values, dtype=float),
                          aggregate=agg, aggregate_se=agg_se, kappa=kappa, alpha=alpha)
