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
from .recursion import _STATIONARY_CHUNK

ROW_ACTION = "T_kappa"        # direction of vM, weight |vM|^kappa
COLUMN_ACTION = "T_kappa_star"  # direction of Mv, weight |Mv|^kappa
_GOLDIE_BLOCK = 4096          # stationary samples per block of the K(v) brackets
_RHO_TOL = 1e-3               # the kappa bisection stops once |rho - 1| is this small
_WIDTH_TOL = 1e-3             # ... or once its bracket is this narrow
_ACCEPT_BAND = 0.01           # warn when rho at the solved kappa is further from 1


class SpectralBracketError(ConfigurationError):
    """The kappa bracket does not straddle rho = 1."""


class SpectralError(RuntimeError):
    """Inconsistent eigen-objects (for example a nonpositive alpha)."""


class SingularDrawError(RuntimeError):
    """A draw mapped a grid direction to zero or to a non-finite vector."""


# ---------------------------------------------------------------------------
# sphere grids and grid-indexed data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Finite set of unit directions, each labelling one of n cells of equal
    area: the sign at d = 1, an arc at d = 2 and a cell of Leopardi's
    equal-area partition (`equal_area_zones`) above that.
    """

    points: np.ndarray

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
        return _zonal_cells(dirs, self.n)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "points": self.points.tolist(),
            # the cell weights, all 1/n, stay in the file for its readers
            "weights": [1.0 / self.n] * self.n,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SphereGrid":
        grid = cls(points=np.asarray(doc["points"], dtype=float))
        # the cells are fixed by (d, n), not by the points, so a grid from
        # another layout (the d = 3 spiral or the d >= 4 Halton points of
        # older versions) would read its values in the wrong cells
        if not np.array_equal(grid.points, build_grid(grid.dim, grid.n).points):
            raise ConfigurationError(
                f"the stored d = {grid.dim} grid of {grid.n} points is not the "
                "layout this version builds; rerun the stage that wrote it")
        return grid


def bisect(f, lo: float, hi: float) -> float:
    """A root of f between lo and hi, where f changes sign, to the last float."""
    lo_positive = f(lo) > 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if (f(mid) > 0) == lo_positive else (lo, mid)
    return mid


def _sin_power_integral(m: int, t: float) -> float:
    """The antiderivative F_m of sin^m with F_0(t) = t and F_1(t) = -cos t."""
    if m < 2:
        return t if m == 0 else -math.cos(t)
    return (-math.sin(t) ** (m - 1) * math.cos(t) + (m - 1) * _sin_power_integral(m - 2, t)) / m


@functools.lru_cache(maxsize=None)
def equal_area_zones(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leopardi's partition of the k-sphere (k >= 2) into n cells of equal
    area (Leopardi 2006, *A partition of the unit sphere into regions of
    equal area and small diameter*).

    Zones run from the south pole to the north pole along the last
    coordinate: a polar cap at each end and collars between them, each cut
    by the same partition of S^(k-1) (equal longitude sectors at k = 2).
    Returns the upper height of each zone, its number of cells and the label
    of its first cell.  n = 1 is the whole sphere and n = 2 two hemispheres.
    """
    F = functools.partial(_sin_power_integral, k - 1)
    whole = F(math.pi) - F(0.0)

    def colatitude(share: float) -> float:   # of the cap holding this share of S^k
        return bisect(lambda t: (F(t) - F(0.0)) / whole - share, 0.0, math.pi)

    if n <= 2:
        sectors = [1] * n
    else:
        # the closed forms at k = 2 keep the S^2 partition's float values
        cap = 2.0 * math.asin(1.0 / math.sqrt(n)) if k == 2 else colatitude(1.0 / n)
        # |S^k| / n, where |S^k| = |S^(k-1)| times the integral of sin^(k-1) over [0, pi]
        cell_area = 2.0 * math.pi * math.prod(
            _sin_power_integral(m, math.pi) - _sin_power_integral(m, 0.0) for m in range(1, k)) / n
        n_collars = max(1, round((math.pi - 2.0 * cap) / cell_area ** (1.0 / k)))
        step = (math.pi - 2.0 * cap) / n_collars
        sectors, carry = [1], 0.0
        for j in range(n_collars):
            # collar area over the cell area
            ideal = n * (F(cap + (j + 1) * step) - F(cap + j * step)) / whole
            count = round(ideal + carry)
            carry += ideal - count
            sectors.append(count)
        sectors.append(1)
    sectors = np.array(sectors, dtype=np.int64)
    total = np.cumsum(sectors)
    upper = (-1.0 + 2.0 * total / n if k == 2 else
             np.array([-math.cos(colatitude(c / n)) for c in total[:-1]] + [1.0]))
    zones = (upper, sectors, total - sectors)
    for a in zones:
        a.setflags(write=False)      # the cache hands them to every caller
    return zones


def _zonal_cells(x: np.ndarray, n: int) -> np.ndarray:
    """Labels in equal_area_zones(k, n) of directions x with k + 1 columns: the
    zone from the last coordinate, then its cell from the normalized rest."""
    k = x.shape[1] - 1
    upper, sectors, first = equal_area_zones(k, n)
    zone = np.searchsorted(upper[:-1], x[:, -1], side="right")
    if k == 2:
        m = sectors[zone]
        lon = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
        # the mod can return 2 pi itself for tiny negative angles
        return first[zone] + np.minimum((lon * m / (2.0 * np.pi)).astype(np.int64), m - 1)
    out = first[zone]
    for j in np.flatnonzero(sectors > 1):
        rest = x[zone == j, :-1]
        out[zone == j] += _zonal_cells(rest / np.linalg.norm(rest, axis=1, keepdims=True),
                                       int(sectors[j]))
    return out


def _zonal_points(k: int, n: int) -> np.ndarray:
    """The points of equal_area_zones(k, n): each zone's mid-height over the
    points of its own partition; the caps' points sit at the poles."""
    upper, sectors, _ = equal_area_zones(k, n)
    lower = np.concatenate([[-1.0], upper[:-1]])
    z = np.repeat(0.5 * (lower + upper), sectors)
    z[0], z[-1] = -1.0, 1.0
    if k == 2:
        lon = np.concatenate([2.0 * np.pi * (np.arange(m) + 0.5) / m for m in sectors])
        rest = np.column_stack([np.cos(lon), np.sin(lon)])
    else:
        rest = np.concatenate([_zonal_points(k - 1, int(m)) for m in sectors])
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r[:, None] * rest, z])


def build_grid(d: int, resolution: int) -> SphereGrid:
    """Direction grid: signs for d=1, uniform angles for d=2, and the points
    of the equal-area cells of `equal_area_zones` above that."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    if resolution < 2:
        raise ConfigurationError("resolution must be >= 2")
    if d == 1:
        return SphereGrid(points=np.array([[-1.0], [1.0]]))
    if d == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        points = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        points = _zonal_points(d - 1, resolution)
    return SphereGrid(points=points)


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
    cells: np.ndarray                 # (n_rows, mc) int32
    mc_count: int

    def matrix(self, kappa: float) -> np.ndarray:
        """The operator at exponent kappa, powered one row of draws at a time."""
        n = self.grid.n
        out = np.empty((n, n))
        with np.errstate(over="ignore"):
            for i in range(n):
                out[i] = np.bincount(self.cells[i], weights=self.norms[i] ** kappa, minlength=n)
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
                         mc_n: int, rng: np.random.Generator) -> OperatorDraws:
    """Sample mc_n matrices per grid row and cache the mapped directions.

    A draw that maps its row's point to zero or to a non-finite vector is
    refused with SingularDrawError, not redrawn: a zero image has weight
    0^kappa = 0 in the operator, so redrawing it would inflate rho.
    """
    if mc_n < 100:
        raise ConfigurationError("operator draws: need mc_n >= 100")
    n = grid.n
    norms = np.empty((n, mc_n))
    cells = np.empty((n, mc_n), dtype=np.int32)
    for i, stream in enumerate(rng.spawn(n)):
        m = env.matrix_law.sample(stream, mc_n)
        w = _mapped(kind, grid.points[i:i + 1], m)[0]
        nm = np.linalg.norm(w, axis=1)
        bad = mc_n - np.count_nonzero((nm > 0.0) & (nm < np.inf))
        if bad:
            raise SingularDrawError(
                f"{bad} of {mc_n} draws of grid row {i} map its direction to zero or "
                "to a non-finite vector; the matrix law must be invertible (A3)")
        norms[i] = nm
        cells[i] = grid.cell_index(w / nm[:, None])
    return OperatorDraws(grid=grid, kind=kind, norms=norms, cells=cells, mc_count=mc_n)


# ---------------------------------------------------------------------------
# spectral radius and the tail index
# ---------------------------------------------------------------------------

def _is_direction_reducible(a: np.ndarray) -> bool:
    """True when the discretized direction chain never mixes cells (the
    off-diagonal mass is numerically zero, e.g. positive scalar M)."""
    diag = np.abs(np.diagonal(a)).max()
    off = np.abs(a - np.diag(np.diagonal(a))).max()
    return off <= 1e-12 * max(diag, 1.0)


def _perron(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, bool]:
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
        n = a.shape[0]
        return float(np.mean(a.sum(axis=1))), np.ones(n), np.full(n, 1.0 / n), True
    vals, vecs = np.linalg.eig(a)
    lead = int(np.argmax(vals.real))
    r = np.abs(vecs[:, lead].real)
    vals_t, vecs_t = np.linalg.eig(a.T)
    eta = np.abs(vecs_t[:, int(np.argmax(vals_t.real))].real)
    return float(vals[lead].real), r / r.max(), eta / eta.sum(), False


def spectral_radius(draws: OperatorDraws, kappa: float) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and positive leading vector of the operator built
    from draws at exponent kappa."""
    rho, vec, _, _ = _perron(draws.matrix(kappa))
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


def solve_kappa(env: Environment, grid: SphereGrid, bracket: tuple[float, float],
                mc_n: int, rng: np.random.Generator) -> SpectralSolution:
    """Bisection for rho(kappa) = 1 with shared draws across evaluations.

    After the root is bracketed to _WIDTH_TOL (or the spectral radius is
    within _RHO_TOL of 1), the eigen-objects are extracted at the solved
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
        rho = spectral_radius(draws, k)[0]
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
    while hi - lo > _WIDTH_TOL:
        kappa = 0.5 * (lo + hi)
        rho_mid = rho_at(kappa)
        if abs(rho_mid - 1.0) <= _RHO_TOL:
            break
        if math.log(rho_mid) > 0.0:
            hi = kappa
        else:
            lo = kappa
    else:
        kappa = 0.5 * (lo + hi)

    rho_final, r_vals, eta, reducible = _perron(draws.matrix(kappa))
    if abs(rho_final - 1.0) > _ACCEPT_BAND:
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
    contrib = np.empty(draws.grid.n)
    with np.errstate(over="ignore", divide="ignore"):
        for i, (norms, cells) in enumerate(zip(draws.norms, draws.cells)):
            contrib[i] = np.mean(np.log(norms) * r_vals[cells] * norms ** kappa)
    return float(np.sum(pi / r_vals * contrib))


def fixed_point_residuals(sol: SpectralSolution, env: Environment,
                          mc_n: int, rng: np.random.Generator) -> tuple[float, float]:
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

def positive_power(x: np.ndarray, kappa: float, mirrored: bool = False):
    """np.maximum(x, 0.0) ** kappa bit for bit, a zero as +0, paired with
    ((-x)^+)^kappa when mirrored.  The power runs once, in place, on |x|, as
    numpy's SIMD pow turns scalar on an array that holds zeros; the sign then
    goes back on and is clipped (a product with the mask x > 0 would turn an
    |x|^kappa that overflows at a negative x into inf * 0 = NaN)."""
    signed = np.abs(x)
    signed **= kappa
    np.copysign(signed, x, out=signed)
    if not mirrored:
        return np.maximum(signed, 0.0, out=signed)
    minus = np.negative(signed)
    return np.maximum(signed, 0.0, out=signed), np.maximum(minus, 0.0, out=minus)


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
                    rng: np.random.Generator, max_pairs: int = 200_000) -> GoldieEstimate:
    """Tail constants K(v) from the eigen-objects and stationary draws.

    The inner expectation is the compensated difference
    E[((y R')^+)^kappa - ((y M R)^+)^kappa] with R' = M R + Q, R drawn from
    the stationary batch independently of (M, Q).  Writing the first term
    through the one-step update leaves the summands bounded by a function
    of |Q| (for kappa <= 1) instead of a difference of two heavy-tailed
    terms, so the estimator has finite variance at every kappa in (0, 2).
    Each bracket is one `positive_power` of its block of products.  The
    pairs are drawn one tile of `_STATIONARY_CHUNK` rows at a time, so the
    working set is a tile of pairs whatever n_pairs is.
    """
    kappa, alpha = sol.kappa, sol.alpha
    r_data = data_of(stationary_samples)
    n_pairs = min(r_data.shape[0], max_pairs)
    v_dirs = np.atleast_2d(np.asarray(v_dirs, dtype=float))

    reducible = sol.reducible_directions
    # absorbing direction chain: the invariant law seen from v is the point
    # mass at v, so the grid mixing collapses and r cancels
    points = v_dirs if reducible else sol.grid.points
    coeff = None if reducible else sol.pi / sol.r
    per_sample = np.empty(n_pairs)
    row_sums = np.zeros(points.shape[0])
    for tile in range(0, n_pairs, _STATIONARY_CHUNK):
        r = r_data[tile:min(tile + _STATIONARY_CHUNK, n_pairs)]
        out = per_sample[tile:tile + r.shape[0]]
        m, q = sample_pairs(env, rng, r.shape[0])
        # one block of samples at a time, so the (rows, samples) brackets
        # take rows x _GOLDIE_BLOCK floats
        for start in range(0, r.shape[0], _GOLDIE_BLOCK):
            part = slice(start, start + _GOLDIE_BLOCK)
            mr = np.einsum("nij,nj->ni", m[part], r[part])
            # ((y R')^+)^kappa - ((y MR)^+)^kappa per row y and sample
            diff = positive_power(points @ (mr + q[part]).T, kappa)
            diff -= positive_power(points @ mr.T, kappa)
            if reducible:
                row_sums += diff.sum(axis=1)
                out[part] = diff.mean(axis=0)
            else:
                out[part] = coeff @ diff
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
