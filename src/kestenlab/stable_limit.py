"""The stable limit of normalized partial sums.

The limit characteristic function has the form exp(s^kappa C(v)) where C is
the integral of a corrected plane-wave increment against the product tail
measure.  The correction function h_v(x) = E exp(i <v, W(x)>) involves the
series W(x) = sum_k M_k ... M_1 x, which is linear in x: C(v) and the
transposed positivity read one cache of matrix-series draws A, W(x) = A x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batches import SampleBatch, data_of
from .env_models import ConfigurationError, Environment
from .recursion import SeriesConfig, _walk_products, quantiles
from .tails import SpectralMeasure, _require_regular_variation

_EULER_GAMMA = 0.5772156649015329
_SPAN_TOL = 1e-6      # Re C(v) below -_SPAN_TOL counts v as strictly damped
W_SERIES = SeriesConfig(tolerance=1e-10)  # the W series behind C(v) and positivity


# ---------------------------------------------------------------------------
# the matrix series behind W and its transpose
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class WMatrixCache:
    """Draws of A = sum_k M_k ... M_1; then W(x) = A x and the transposed
    series acting on column vectors is A^T v."""

    matrices: np.ndarray          # (count, d, d)
    max_depth: int
    mean_depth: float
    depth_quantiles: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.matrices.shape[0]

    def apply_transposed(self, v: np.ndarray) -> np.ndarray:
        return np.swapaxes(self.matrices, 1, 2) @ np.asarray(v, dtype=float)


def sample_w_matrices(env: Environment, cfg: SeriesConfig, count: int,
                      rng: np.random.Generator) -> WMatrixCache:
    """Monte-Carlo draws of the summed left-product series.

    With N_k = M_k^T and P_k = N_1 ... N_k, A^T = sum_{k>=1} P_{k-1} N_k is
    the product walker with M and Q both set to N; its adaptive rule bounds
    the next term P_n N_{n+1} by the tolerance times |N_{n+1}|.
    """
    def draw(rng, rows):
        n = np.swapaxes(env.matrix_law.sample(rng, rows), 1, 2)
        return n, n

    sums, _, _, depths, _ = _walk_products(draw, count, cfg, rng)
    return WMatrixCache(matrices=np.swapaxes(sums, 1, 2).copy(), max_depth=int(depths.max()),
                        mean_depth=float(depths.mean()), depth_quantiles=quantiles(depths))


def _phases(v, sigma: SpectralMeasure, cache: WMatrixCache) -> tuple[np.ndarray, np.ndarray]:
    """a_j = <v, w_j> and phases[i, j] = <A_i^T v, w_j> over sigma's cells w_j."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ConfigurationError("the limit functionals need a unit direction v")
    points = sigma.grid.points
    return points @ v, cache.apply_transposed(v) @ points.T


# ---------------------------------------------------------------------------
# the limit exponent C(v)
# ---------------------------------------------------------------------------

def _levy_radial_integral(b: np.ndarray, kappa: float) -> np.ndarray:
    """Exact integral over s in (0, inf) of the compensated plane wave
    (e^{ibs} - 1 - centering) against s^(-kappa-1) ds, vectorized in b.

    The compensation is the centering at kappa: none below 1, the full
    linear term above 1, and the 1/(1+s^2)-truncated term at 1 exactly.
    """
    if not 0.0 < kappa < 2.0:
        raise ConfigurationError(f"the stable limit needs kappa in (0, 2), got {kappa}")
    b = np.asarray(b, dtype=float)
    out = np.zeros(b.shape, dtype=complex)
    nz = b != 0.0
    bb = b[nz]
    if kappa == 1.0:
        out[nz] = (-0.5 * math.pi * np.abs(bb)
                   + 1j * bb * (1.0 - _EULER_GAMMA - np.log(np.abs(bb))))
        return out
    # Gamma(-kappa) through the reflection-free identity; negative on (0,1),
    # positive on (1,2), so the real part below is negative either way
    gamma_neg = math.gamma(2.0 - kappa) / (kappa * (kappa - 1.0))
    phase = complex(math.cos(0.5 * math.pi * kappa), -math.sin(0.5 * math.pi * kappa))
    out[nz] = gamma_neg * np.abs(bb) ** kappa * np.where(bb > 0, phase, np.conj(phase))
    return out


def c_kappa(v, sigma: SpectralMeasure, env: Environment,
            cache: WMatrixCache) -> tuple[complex, float]:
    """Limit exponent C(v) at sigma's exponent kappa, with its error budget:
    the integral of the corrected plane-wave increment against the product
    tail measure in polar form.

    Per angular atom w the radial integrand along direction w is
        (exp(i s <v,w>) - 1) h_v(s w) - centering(s, <v,w>)
    against s^(-kappa-1) ds.  Expanding h_v(s w) over the matrix-series
    draws of the cache turns each draw into a compensated plane-wave
    integral with a closed form at the phase <v, W(w)>, so there is no
    radial discretization error at all; one (draws, cells) array of phases
    gives every draw, and the budget is three standard errors of their mean.
    A symmetric Q makes C(v) real, so then each draw keeps its real part.
    """
    kappa = sigma.kappa
    _require_regular_variation(kappa, env.q_symmetric)
    a, phases = _phases(v, sigma, cache)
    per_draw = (_levy_radial_integral(a + phases, kappa)
                - _levy_radial_integral(phases, kappa)) @ sigma.mass
    if env.q_symmetric:
        per_draw = per_draw.real
    value = complex(np.mean(per_draw))
    se = float(np.sqrt(np.var(per_draw.real) + np.var(per_draw.imag))
               / math.sqrt(cache.count))
    return value, 3.0 * se


def cos_tail_constant(kappa: float) -> float:
    """integral of (cos s - 1) / s^(kappa+1) over (0, inf), always negative:
    the real part of the radial integral at b = 1, which no centering
    changes.  That is Gamma(2 - kappa) cos(pi kappa / 2) / (kappa (kappa - 1)),
    and -pi/2 at kappa = 1 exactly."""
    return float(_levy_radial_integral(np.ones(1), kappa)[0].real)


# ---------------------------------------------------------------------------
# centering and normalized sums
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CenteringResult:
    kappa: float                    # the tail index the sums are scaled by
    m: np.ndarray | None = None     # the stationary mean, or None: no centering


def centering(env: Environment, kappa: float, samples) -> CenteringResult:
    """The centering of S_n at the tail index kappa in (0, 2): n E R above 1
    and n xi(1/n) at 1, with xi(t) = E[tR / (1 + |tR|^2)], none below 1.

    A symmetric Q makes R symmetric, so both centerings vanish exactly and
    nothing is subtracted.  Near 1 a Q that is not symmetric would need a
    log-corrected centering, so the near-integer rule of the angular
    measure refuses it here too.  Otherwise, above 1, m is the stationary
    sample mean.
    """
    if not 0.0 < kappa < 2.0:
        raise ConfigurationError(f"the stable limit needs kappa in (0, 2), got {kappa}")
    _require_regular_variation(kappa, env.q_symmetric)
    if env.q_symmetric or kappa < 1.0:
        return CenteringResult(kappa)
    return CenteringResult(kappa, m=data_of(samples).mean(axis=0))


def normalized_sums(sums, n: int, cent: CenteringResult) -> np.ndarray:
    """(S_n - n m) / n^(1/kappa) at the centering's exponent kappa."""
    data = data_of(sums)
    if cent.m is not None:
        data = data - n * cent.m
    return data / n ** (1.0 / cent.kappa)


# ---------------------------------------------------------------------------
# empirical characteristic function and the fitted law
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EcfGrid:
    s_values: np.ndarray
    directions: np.ndarray
    values: np.ndarray              # (n_s, n_dirs) complex


def empirical_cf(sums, n: int, cent: CenteringResult, s_values,
                 directions) -> EcfGrid:
    """Empirical characteristic function of the normalized sums on a
    (radii s, unit directions v) grid."""
    s_values = np.asarray(s_values, dtype=float)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    y = normalized_sums(sums, n, cent)
    phases = y @ directions.T                     # (count, n_dirs)
    out = np.empty((s_values.size, directions.shape[0]), dtype=complex)
    for i, s in enumerate(s_values):
        out[i] = np.mean(np.exp(1j * s * phases), axis=0)
    return EcfGrid(s_values=s_values, directions=directions, values=out)


@dataclass(eq=False)
class StableLaw:
    """Limit law as (kappa, per-direction complex exponents C(v)):
    the characteristic function along s*v is exp(s^kappa C(v))."""

    kappa: float
    directions: np.ndarray
    c_values: np.ndarray
    error_budget: float = 0.0
    provenance: dict | None = None

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        c = np.asarray(self.c_values)
        if c.ndim == 2:                 # [re, im] pairs, as canonical JSON writes them
            c = np.array([complex(re, im) for re, im in c])
        self.c_values = np.asarray(c, dtype=complex)
        worst = float(np.max(self.c_values.real))
        if worst > self.error_budget + 1e-12:
            raise ConfigurationError(
                f"Re C(v) = {worst:.4g} exceeds the error budget; "
                "the law would not be a valid characteristic function")

    def cf(self, s_values) -> np.ndarray:
        """exp(s^kappa C(v)) on the outer grid, shape (n_s, n_dirs)."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        return np.exp(s[:, None] ** self.kappa * self.c_values[None, :])

    def cf_budget(self, s_values) -> float:
        """error_budget carried from C(v) to the cf on the s values: an
        error e in C moves exp(s^kappa C) by about s^kappa |cf| e, so by
        f e with f the largest s^kappa |cf|, capped at 1."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        f = float(np.max(s[:, None] ** self.kappa * np.abs(self.cf(s))))
        return min(f, 1.0) * self.error_budget


def compute_stable_law(env: Environment, sigma: SpectralMeasure, directions,
                       cache: WMatrixCache) -> StableLaw:
    """C(v) at sigma's exponent on a direction set, every direction read
    from the one matrix-series cache; the budget is the largest of theirs."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    c_vals = np.empty(directions.shape[0], dtype=complex)
    budget = 0.0
    for i, v in enumerate(directions):
        c_vals[i], error_budget = c_kappa(v, sigma, env, cache)
        budget = max(budget, error_budget)
    return StableLaw(kappa=sigma.kappa, directions=directions, c_values=c_vals,
                     error_budget=budget,
                     provenance={"w_draws": cache.count, "w_depth": cache.max_depth,
                                 "w_depth_quantiles": cache.depth_quantiles,
                                 "sigma_threshold": sigma.threshold_used})


def stable_fit_check(ecf: EcfGrid, law: StableLaw) -> float:
    """Sup over the (s, v) grid of |empirical CF - exp(s^kappa C(v))|."""
    return float(np.abs(ecf.values - law.cf(ecf.s_values)).max())


def self_similarity_check(sums_small: SampleBatch, sums_large: SampleBatch,
                          cent: CenteringResult, directions) -> np.ndarray:
    """Model-free stability check: normalized sums at n and 2n should agree
    in law, so each one-dimensional projection is compared by a two-sample
    Kolmogorov distance after the n^(-1/kappa) rescalings; one distance
    per direction."""
    n_small = int(sums_small.info["n_steps"])
    n_large = int(sums_large.info["n_steps"])
    y_small = normalized_sums(sums_small, n_small, cent)
    y_large = normalized_sums(sums_large, n_large, cent)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    ks = np.empty(directions.shape[0])
    for i, v in enumerate(directions):
        # the gap of the two empirical CDFs peaks on the pooled sample
        a, b = np.sort(y_small @ v), np.sort(y_large @ v)
        pooled = np.concatenate([a, b])
        ks[i] = np.max(np.abs(np.searchsorted(a, pooled, side="right") / a.size
                              - np.searchsorted(b, pooled, side="right") / b.size))
    return ks


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NondegeneracyVerdict:
    nondegenerate: bool
    all_negative: bool
    span_rank: int
    dim: int
    offending_basis: np.ndarray | None


def nondegeneracy(law: StableLaw) -> NondegeneracyVerdict:
    """Support spans the whole space iff the strictly-damped directions do:
    Re C(v) < 0 everywhere and {v : Re C(v) < -_SPAN_TOL} has full rank."""
    re = law.c_values.real
    all_negative = bool(np.all(re < 0.0))
    active = law.directions[re < -_SPAN_TOL]
    rank = int(np.linalg.matrix_rank(active)) if active.size else 0
    dim = law.directions.shape[1]
    offending = None
    if rank < dim:
        _, _, vt = np.linalg.svd(active if active.size else np.zeros((1, dim)))
        offending = vt[rank:]
    return NondegeneracyVerdict(nondegenerate=all_negative and rank == dim,
                                all_negative=all_negative, span_rank=rank, dim=dim,
                                offending_basis=offending)


@dataclass(frozen=True)
class TransposedPositivity:
    plus_integral: float
    plus_se: float
    minus_integral: float
    minus_se: float

    @property
    def positive(self) -> bool:
        # a mirror whose every draw is 0 meets no mass of sigma and is skipped
        mirrors = ((self.plus_integral, self.plus_se), (self.minus_integral, self.minus_se))
        charged = [(value, se) for value, se in mirrors if value or se]
        return bool(charged) and all(value > 3.0 * se for value, se in charged)


def transposed_positivity_check(sigma: SpectralMeasure, v,
                                cache: WMatrixCache) -> TransposedPositivity:
    """Positivity of the transposed-series tail brackets at sigma's exponent.

    With the transposed series acting on v (draws A^T v from the matrix
    cache C(v) reads), both
        integral of E[(<W*v + v, w>^+)^k - (<W*v, w>^+)^k] d sigma(w)
    and its v -> -v mirror must be positive where sigma charges them; a
    nonpositive value beyond noise indicates a bad angular measure or exponent.
    """
    a, phases = _phases(v, sigma, cache)

    def integral(sign: float) -> tuple[float, float]:
        per_draw = (np.maximum(sign * (phases + a), 0.0) ** sigma.kappa
                    - np.maximum(sign * phases, 0.0) ** sigma.kappa) @ sigma.mass
        return float(per_draw.mean()), float(per_draw.std() / math.sqrt(cache.count))

    return TransposedPositivity(*integral(1.0), *integral(-1.0))
