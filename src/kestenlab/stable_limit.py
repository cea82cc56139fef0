"""The stable limit of normalized partial sums.

The limit characteristic function has the form exp(s^kappa C(v)) where C is
the integral of a corrected plane-wave increment against the product tail
measure.  The correction function h_v(x) = E exp(i <v, W(x)>) involves the
series W(x) = sum_k M_k ... M_1 x, which is linear in x: all draws of W
come from one cache of random matrix-series draws A with W(x) = A x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batches import SampleBatch, data_of
from .env_models import ConfigurationError, Environment
from .recursion import SeriesConfig, _walk_products, quantiles
from .rng import as_generator
from .tails import SpectralMeasure

# each regime is named after its centering (CenteringResult.kind)
REGIME_BELOW_ONE = "none"
REGIME_ONE = "xi"
REGIME_ABOVE_ONE = "mean"

_REGIME_TOL = 0.02
_EULER_GAMMA = 0.5772156649015329


def classify_regime(kappa: float, tol: float = _REGIME_TOL) -> str:
    """Map a numerically solved exponent onto the centering regime."""
    if not 0.0 < kappa < 2.0:
        raise ConfigurationError("stable regime needs kappa in (0, 2)")
    if abs(kappa - 1.0) <= tol:
        return REGIME_ONE
    return REGIME_BELOW_ONE if kappa < 1.0 else REGIME_ABOVE_ONE


def effective_kappa(kappa: float, regime: str) -> float:
    """The exponent the limit computations run at.

    A solved exponent within the regime tolerance of 1 is snapped to 1
    exactly: the centered limit at 1 uses its own compensation and
    normalization, and mixing it with a nearby exponent would shift the
    n^(-1/kappa) scale by several percent.
    """
    return 1.0 if regime == REGIME_ONE else kappa


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrices @ np.asarray(x, dtype=float)

    def apply_transposed(self, v: np.ndarray) -> np.ndarray:
        return np.swapaxes(self.matrices, 1, 2) @ np.asarray(v, dtype=float)


def sample_w_matrices(env: Environment, cfg: SeriesConfig, count: int,
                      rng) -> WMatrixCache:
    """Monte-Carlo draws of the summed left-product series.

    With N_k = M_k^T and P_k = N_1 ... N_k, A^T = sum_{k>=1} P_{k-1} N_k is
    the product walker with M and Q both set to N; its adaptive rule bounds
    the next term, and so the missing tail per unit |x|, by the tolerance.
    """
    def draw(rng, lanes):
        n = np.swapaxes(env.matrix_law.sample(rng, lanes), 1, 2)
        return n, n

    sums, _, _, depths = _walk_products(draw, count, cfg, as_generator(rng))
    return WMatrixCache(matrices=np.swapaxes(sums, 1, 2).copy(), max_depth=int(depths.max()),
                        mean_depth=float(depths.mean()), depth_quantiles=quantiles(depths))


# ---------------------------------------------------------------------------
# the limit exponent C(v)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CKappaValue:
    value: complex
    error_budget: float

    def __complex__(self):
        return self.value


def _levy_radial_integral(b: np.ndarray, kappa: float, regime: str) -> np.ndarray:
    """Exact integral over s in (0, inf) of the compensated plane wave
    (e^{ibs} - 1 - centering) against s^(-kappa-1) ds, vectorized in b.

    The compensation matches the regime: none below 1, the full linear
    term above 1, and the 1/(1+s^2)-truncated term at 1.
    """
    b = np.asarray(b, dtype=float)
    out = np.zeros(b.shape, dtype=complex)
    nz = b != 0.0
    bb = b[nz]
    if regime == REGIME_ONE:
        out[nz] = (-0.5 * math.pi * np.abs(bb)
                   + 1j * bb * (1.0 - _EULER_GAMMA - np.log(np.abs(bb))))
        return out
    # Gamma(-kappa) through the reflection-free identity; negative on (0,1),
    # positive on (1,2), so the real part below is negative either way
    gamma_neg = math.gamma(2.0 - kappa) / (kappa * (kappa - 1.0))
    phase = complex(math.cos(0.5 * math.pi * kappa), -math.sin(0.5 * math.pi * kappa))
    out[nz] = gamma_neg * np.abs(bb) ** kappa * np.where(bb > 0, phase, np.conj(phase))
    return out


def c_kappa(v, kappa: float, sigma: SpectralMeasure, env: Environment,
            cache: WMatrixCache, regime: str | None = None) -> CKappaValue:
    """Limit exponent C(v): the integral of the corrected plane-wave
    increment against the product tail measure in polar form.

    Per angular atom w the radial integrand along direction w is
        (exp(i s <v,w>) - 1) h_v(s w) - centering(s, <v,w>)
    against s^(-kappa-1) ds.  Expanding h_v(s w) over the matrix-series
    draws of the cache turns each draw into a compensated plane-wave
    integral with a closed form, so there is no radial discretization error
    at all; the budget is three standard errors of the draw mean.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ConfigurationError("c_kappa needs a unit direction v")
    regime = regime or classify_regime(kappa)
    if regime == REGIME_ONE and not env.q_symmetric:
        raise ConfigurationError(
            "kappa = 1 requires a symmetric Q law for the centered limit")
    kappa = effective_kappa(kappa, regime)
    if abs(sigma.kappa - kappa) > 1e-9:
        raise ConfigurationError(
            f"angular measure was estimated at exponent {sigma.kappa}, but the "
            f"limit runs at {kappa}; re-estimate it at the matching exponent")
    per_draw = np.zeros(cache.count, dtype=complex)
    for mass_j, w_j in zip(sigma.mass, sigma.grid.points):
        if mass_j == 0.0:
            continue
        a = float(v @ w_j)
        u = cache.apply(w_j) @ v            # (mc,) phases of W(w_j) along v
        per_draw += mass_j * (_levy_radial_integral(a + u, kappa, regime)
                              - _levy_radial_integral(u, kappa, regime))
    value = complex(np.mean(per_draw))
    se = float(np.sqrt(np.var(per_draw.real) + np.var(per_draw.imag))
               / math.sqrt(cache.count))
    return CKappaValue(value=value, error_budget=3.0 * se)


def cos_tail_constant(kappa: float) -> float:
    """integral of (cos s - 1) / s^(kappa+1) over (0, inf), always negative:
    the real part of the radial integral at b = 1, which no centering
    changes.  That is Gamma(2 - kappa) cos(pi kappa / 2) / (kappa (kappa - 1)),
    and -pi/2 at kappa = 1 exactly."""
    if not 0.0 < kappa < 2.0:
        raise ConfigurationError("the cosine tail constant needs kappa in (0, 2)")
    # tol = 0: the kappa = 1 branch only at 1 exactly, not in the snap band
    regime = classify_regime(kappa, tol=0.0)
    return float(_levy_radial_integral(np.ones(1), kappa, regime)[0].real)


# ---------------------------------------------------------------------------
# centering and normalized sums
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CenteringResult:
    kind: str                       # the regime: "none" | "mean" | "xi"
    m: np.ndarray | None = None
    m_se: np.ndarray | None = None
    samples: np.ndarray | None = None

    def xi(self, t: float) -> np.ndarray:
        if self.kind != "xi":
            raise ConfigurationError("xi is only defined in the kappa = 1 regime")
        tr = t * self.samples
        return np.mean(tr / (1.0 + np.sum(tr * tr, axis=1))[:, None], axis=0)

    def shift(self, n: int, dim: int) -> np.ndarray:
        """d_n: the additive centering of S_n before rescaling."""
        if self.kind == "none":
            return np.zeros(dim)
        if self.kind == "mean":
            return n * self.m
        return n * n * self.xi(1.0 / n)


def centering(env: Environment, kappa: float, samples,
              regime: str | None = None) -> CenteringResult:
    """Centering data per regime: nothing below 1, the stationary mean in
    (1, 2), and the truncated-mean function xi at 1.

    For symmetric Q the stationary law is symmetric, so the draws are
    augmented with their reflections; the odd centering integrands then
    average to zero exactly instead of carrying O(n * se) noise into the
    normalized sums.
    """
    regime = regime or classify_regime(kappa)
    data = data_of(samples)
    if env.q_symmetric:
        data = np.concatenate([data, -data], axis=0)
    if regime == REGIME_BELOW_ONE:
        return CenteringResult(kind=regime)
    if regime == REGIME_ABOVE_ONE:
        m = data.mean(axis=0)
        se = data.std(axis=0) / math.sqrt(data.shape[0])
        return CenteringResult(kind=regime, m=m, m_se=se)
    if not env.q_symmetric:
        raise ConfigurationError(
            "kappa = 1 centering requires a symmetric Q law")
    return CenteringResult(kind=regime, samples=data)


def normalized_sums(sums, n: int, kappa: float, cent: CenteringResult) -> np.ndarray:
    """n^(-1/kappa) (S_n - d_n); at kappa = 1 this is S_n / n - n xi(1/n)."""
    data = data_of(sums)
    if cent.kind == "xi":
        return data / n - n * cent.xi(1.0 / n)[None, :]
    shift = cent.shift(n, data.shape[1])
    return (data - shift[None, :]) / n ** (1.0 / kappa)


# ---------------------------------------------------------------------------
# empirical characteristic function and the fitted law
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EcfGrid:
    s_values: np.ndarray
    directions: np.ndarray
    values: np.ndarray              # (n_s, n_dirs) complex


def empirical_cf(sums, normalization: tuple, sv_grid: tuple) -> EcfGrid:
    """Empirical characteristic function of the normalized sums on a
    (radii s, unit directions v) grid.

    normalization = (n, kappa, CenteringResult); sv_grid = (s values, directions).
    """
    n, kappa, cent = normalization
    s_values, directions = sv_grid
    s_values = np.asarray(s_values, dtype=float)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    y = normalized_sums(sums, n, kappa, cent)
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
    centering_kind: str
    m_kappa: np.ndarray | None = None
    error_budget: float = 0.0
    provenance: dict | None = None

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        self.c_values = np.asarray(self.c_values, dtype=complex)
        worst = float(np.max(self.c_values.real))
        if worst > self.error_budget + 1e-12:
            raise ConfigurationError(
                f"Re C(v) = {worst:.4g} exceeds the error budget; "
                "the law would not be a valid characteristic function")

    def cf(self, s_values) -> np.ndarray:
        """exp(s^kappa C(v)) on the outer grid, shape (n_s, n_dirs)."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        return np.exp(s[:, None] ** self.kappa * self.c_values[None, :])

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "directions": self.directions.tolist(),
            "c_values": [[z.real, z.imag] for z in self.c_values],
            "centering_kind": self.centering_kind,
            "m_kappa": None if self.m_kappa is None else np.asarray(self.m_kappa).tolist(),
            "error_budget": self.error_budget,
            "provenance": self.provenance or {},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StableLaw":
        return cls(kappa=doc["kappa"],
                   directions=np.asarray(doc["directions"], dtype=float),
                   c_values=np.asarray([complex(re, im) for re, im in doc["c_values"]]),
                   centering_kind=doc["centering_kind"],
                   m_kappa=None if doc["m_kappa"] is None else np.asarray(doc["m_kappa"]),
                   error_budget=doc["error_budget"], provenance=doc.get("provenance"))


def compute_stable_law(env: Environment, kappa: float, sigma: SpectralMeasure,
                       directions, mc: int, rng,
                       regime: str | None = None,
                       cent: CenteringResult | None = None) -> StableLaw:
    """C(v) on a direction set with one shared matrix-series cache."""
    rng = as_generator(rng)
    regime = regime or classify_regime(kappa)
    kappa = effective_kappa(kappa, regime)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    cache = sample_w_matrices(env, SeriesConfig(tolerance=1e-10), mc, rng)
    c_vals = np.empty(directions.shape[0], dtype=complex)
    budget = 0.0
    for i, v in enumerate(directions):
        ck = c_kappa(v, kappa, sigma, env, cache, regime=regime)
        c_vals[i] = ck.value
        budget = max(budget, ck.error_budget)
    m_kappa = cent.m if (cent is not None and cent.kind == "mean") else None
    return StableLaw(kappa=kappa, directions=directions, c_values=c_vals,
                     centering_kind=regime, m_kappa=m_kappa, error_budget=budget,
                     provenance={"w_draws": mc, "w_depth": cache.max_depth,
                                 "w_depth_quantiles": cache.depth_quantiles,
                                 "sigma_threshold": sigma.threshold_used})


@dataclass(frozen=True)
class StableFit:
    sup_deviation: float
    deviations: np.ndarray


def stable_fit_check(ecf: EcfGrid, law: StableLaw) -> StableFit:
    """Sup over the (s, v) grid of |empirical CF - exp(s^kappa C(v))|."""
    model = law.cf(ecf.s_values)
    dev = np.abs(ecf.values - model)
    return StableFit(sup_deviation=float(dev.max()), deviations=dev)


@dataclass(frozen=True)
class SelfSimilarity:
    ks_by_direction: np.ndarray
    max_ks: float


def self_similarity_check(sums_small: SampleBatch, sums_large: SampleBatch,
                          kappa: float, cent: CenteringResult,
                          directions) -> SelfSimilarity:
    """Model-free stability check: normalized sums at n and 2n should agree
    in law, so each one-dimensional projection is compared by a two-sample
    Kolmogorov distance after the n^(-1/kappa) rescalings."""
    from scipy.stats import ks_2samp

    n_small = int(sums_small.info["n_steps"])
    n_large = int(sums_large.info["n_steps"])
    y_small = normalized_sums(sums_small, n_small, kappa, cent)
    y_large = normalized_sums(sums_large, n_large, kappa, cent)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    ks = np.empty(directions.shape[0])
    for i, v in enumerate(directions):
        ks[i] = ks_2samp(y_small @ v, y_large @ v).statistic
    return SelfSimilarity(ks_by_direction=ks, max_ks=float(ks.max()))


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NondegeneracyVerdict:
    nondegenerate: bool
    all_negative: bool
    span_rank: int
    dim: int
    c_of_kappa: float
    offending_basis: np.ndarray | None

    def to_json_dict(self) -> dict:
        return {
            "nondegenerate": self.nondegenerate,
            "all_negative": self.all_negative,
            "span_rank": self.span_rank,
            "dim": self.dim,
            "c_of_kappa": self.c_of_kappa,
            "offending_basis": None if self.offending_basis is None
            else self.offending_basis.tolist(),
        }


def nondegeneracy(law: StableLaw, span_tol: float = 1e-6) -> NondegeneracyVerdict:
    """Support spans the whole space iff the strictly-damped directions do:
    Re C(v) < 0 everywhere and {v : Re C(v) < -span_tol} has full rank."""
    re = law.c_values.real
    all_negative = bool(np.all(re < 0.0))
    active = law.directions[re < -span_tol]
    rank = int(np.linalg.matrix_rank(active)) if active.size else 0
    dim = law.directions.shape[1]
    offending = None
    if rank < dim:
        _, _, vt = np.linalg.svd(active if active.size else np.zeros((1, dim)))
        offending = vt[rank:]
    c_const = cos_tail_constant(law.kappa)
    ok = all_negative and rank == dim and c_const < 0.0
    return NondegeneracyVerdict(nondegenerate=ok, all_negative=all_negative,
                                span_rank=rank, dim=dim, c_of_kappa=float(c_const),
                                offending_basis=offending)


@dataclass(frozen=True)
class TransposedPositivity:
    plus_integral: float
    plus_se: float
    minus_integral: float
    minus_se: float

    @property
    def positive(self) -> bool:
        return (self.plus_integral > 3.0 * self.plus_se
                and self.minus_integral > 3.0 * self.minus_se)


def transposed_positivity_check(env: Environment, kappa: float,
                                sigma: SpectralMeasure, v, mc: int,
                                rng) -> TransposedPositivity:
    """Positivity of the transposed-series tail brackets.

    With the transposed series acting on v (draws A^T v from the shared
    matrix cache), both
        integral of E[(<W*v + v, w>^+)^k - (<W*v, w>^+)^k] d sigma(w)
    and its v -> -v mirror must be positive; a nonpositive value beyond
    noise indicates a bad angular measure or exponent.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ConfigurationError("transposed positivity check needs |v| = 1")
    rng = as_generator(rng)
    cache = sample_w_matrices(env, SeriesConfig(tolerance=1e-10), mc, rng)
    wstar = cache.apply_transposed(v)            # (mc, d)
    pts = sigma.grid.points
    mass = sigma.mass

    def integral(sign: float) -> tuple[float, float]:
        shifted = (sign * (wstar + v)) @ pts.T   # (mc, n_cells)
        base = (sign * wstar) @ pts.T
        g = np.maximum(shifted, 0.0) ** kappa - np.maximum(base, 0.0) ** kappa
        per_draw = g @ mass
        return (float(per_draw.mean()),
                float(per_draw.std() / math.sqrt(per_draw.shape[0])))

    plus, plus_se = integral(1.0)
    minus, minus_se = integral(-1.0)
    return TransposedPositivity(plus_integral=plus, plus_se=plus_se,
                                minus_integral=minus, minus_se=minus_se)
