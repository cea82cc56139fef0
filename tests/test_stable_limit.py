import cmath
import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import kestenlab as kl
from kestenlab import cli
from kestenlab.batches import SampleBatch, canonical_json, from_json
from kestenlab.env_models import ConfigurationError
from kestenlab.recursion import NonContractionError
from kestenlab.rng import substream
from kestenlab.stable_limit import (CenteringResult, StableLaw, _levy_radial_integral,
                                    normalized_sums, sample_w_matrices, self_similarity_check)
from kestenlab.tails import RegularVariationError, SpectralMeasure


@pytest.fixture(scope="module")
def heavy_mean_env():
    """Two-point M in {2, 1/2} with p = (0.3, 0.7): tail index ~ 1.222 and
    E M = 0.95, so with Q = 1 the stationary mean is exactly 20."""
    return kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (0.3, 0.7)),
                          vector_law=kl.ConstantVector((1.0,)), kappa0_hint=1.8)


def uniform_sigma(grid, kappa, total=1.0):
    return SpectralMeasure(grid=grid, mass=np.full(grid.n, total / grid.n),
                           threshold_used=1.0, total_mass=total, kappa=kappa,
                           sample_count=0, exceedances=0)


def w_cache(env, mc, rng):
    return sample_w_matrices(env, kl.W_SERIES, mc, rng)


# ---------------------------------------------------------------------------
# independent references for the closed-form radial integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialQuadrature:
    """Log-spaced Gauss panels on (s_min, s_max] plus analytic tail control."""

    s_max: float = 50.0
    points_per_panel: int = 16
    panels_per_log_unit: float = 2.0

    def nodes(self, kappa: float, kind: str) -> tuple[np.ndarray, np.ndarray, float]:
        """(s nodes, weights including the s^(-kappa-1) ds factor, s_min)."""
        # pick s_min so the analytic bound on the (0, s_min] head is tiny:
        # the combined integrand is O(s^2) with centering and O(s) without
        head_order = 1.0 - kappa if kind == "none" else 2.0 - kappa
        s_min = min(1e-8, 10.0 ** (-9.0 / head_order))
        y_lo, y_hi = math.log(s_min), math.log(self.s_max)
        n_panels = max(8, int(math.ceil((y_hi - y_lo) * self.panels_per_log_unit)))
        gl_x, gl_w = np.polynomial.legendre.leggauss(self.points_per_panel)
        edges = np.linspace(y_lo, y_hi, n_panels + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        y = (centers[:, None] + half[:, None] * gl_x[None, :]).ravel()
        wy = (half[:, None] * gl_w[None, :]).ravel()
        s = np.exp(y)
        # substitute s = e^y: ds s^(-kappa-1) = e^(-kappa y) dy
        weights = wy * np.exp(-kappa * y)
        return s, weights, s_min


def _centering_term(kind: str, s: np.ndarray, a: float) -> np.ndarray:
    if kind == "mean":
        return 1j * s * a
    if kind == "xi":
        return 1j * s * a / (1.0 + s * s)
    return np.zeros_like(s, dtype=complex)


def _tail_correction(kind: str, kappa: float, s_max: float, a: float) -> complex:
    """Exact integral of the centering term over (s_max, inf)."""
    if kind == "mean":
        return -1j * a * s_max ** (1.0 - kappa) / (kappa - 1.0)
    if kind == "xi":
        return -1j * a * 0.5 * math.log1p(s_max ** -2)
    return 0.0 + 0.0j


def c_kappa_panels(v: np.ndarray, kappa: float, sigma: SpectralMeasure,
                   radial_quadrature: RadialQuadrature, cache, kind: str):
    """(value, budget) of C(v) by panel quadrature of the polar integral,
    h_v averaged over the cache draws node by node, with the unresolved
    head, the bounded tail factor, and the uniform Monte-Carlo error of h
    folded into a certified budget."""
    s, wq, s_min = radial_quadrature.nodes(kappa, kind)
    total_mass = float(np.sum(sigma.mass))
    value = 0.0 + 0.0j
    head_budget = 0.0
    mc_budget = 0.0
    for mass_j, w_j in zip(sigma.mass, sigma.grid.points):
        if mass_j == 0.0:
            continue
        a = float(v @ w_j)
        u = (cache.matrices @ w_j) @ v
        integral = 0.0 + 0.0j
        for lo in range(0, s.size, 256):
            hi = min(lo + 256, s.size)
            sb, wb = s[lo:hi], wq[lo:hi]
            h_vals = np.mean(np.exp(1j * np.outer(sb, u)), axis=1)
            g = (np.exp(1j * sb * a) - 1.0) * h_vals - _centering_term(kind, sb, a)
            integral += complex(np.sum(wb * g))
        integral += _tail_correction(kind, kappa, radial_quadrature.s_max, a)
        value += mass_j * integral
        mean_abs_u = float(np.mean(np.abs(u)))
        if kind == "none":
            head = abs(a) * s_min ** (1.0 - kappa) / (1.0 - kappa)
        else:
            head = (0.5 * a * a + abs(a) * mean_abs_u) * s_min ** (2.0 - kappa) / (2.0 - kappa)
        head_budget += mass_j * head
        env_bound = np.minimum(s * abs(a), 2.0)
        mc_budget += mass_j * (2.0 / math.sqrt(cache.count)) * float(np.sum(wq * env_bound))
    tail_budget = 2.0 * total_mass * radial_quadrature.s_max ** -kappa / kappa
    return complex(value), float(tail_budget + head_budget + mc_budget)


def cos_tail_series(kappa: float) -> float:
    """integral of (cos s - 1) / s^(kappa+1) over (0, inf) by parts:
    -(1/kappa) * integral of sin(s) s^(-kappa), whose [0, 1] piece is an
    alternating series and the rest an oscillatory quadrature with the
    sine weight."""
    head = 0.0
    for m_idx in range(24):
        term = (-1.0) ** m_idx / (math.factorial(2 * m_idx + 1) * (2 * m_idx + 2 - kappa))
        head += term
        if abs(term) < 1e-18:
            break
    tail, _ = integrate.quad(lambda t: t ** -kappa, 1.0, np.inf,
                             weight="sin", wvar=1.0, limit=400)
    return -(head + tail) / kappa


# ---------------------------------------------------------------------------
# the matrix series behind W
# ---------------------------------------------------------------------------

def test_w_zero_start_is_zero(scalar_env):
    cache = w_cache(scalar_env, 64, substream(70))
    assert np.array_equal(cache.matrices @ np.array([0.0]), np.zeros((64, 1)))


def test_w_geometric_contraction():
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.ConstantVector((0.0, 0.0)))
    x = np.array([2.0, -1.0])
    for n in (3, 10):
        cache = sample_w_matrices(env, kl.SeriesConfig(truncation=n), 4, substream(71))
        draws = cache.matrices @ x
        expected = (1.0 - 2.0 ** -n) * x
        assert cache.max_depth == n
        assert np.allclose(draws, expected, atol=1e-14)
        assert np.linalg.norm(draws[0] - x) <= 2.0 ** -n * np.linalg.norm(x) + 1e-14


def test_w_linearity_exact_with_shared_cache(scalar_env):
    cache = w_cache(scalar_env, 128, substream(72))
    x = np.array([0.37])
    # power-of-two scales commute with every float operation bit-exactly
    a = cache.matrices @ (2.0 * x)
    b = cache.matrices @ x
    assert np.array_equal(a, 2.0 * b)
    c = cache.matrices @ (3.0 * x)
    np.testing.assert_allclose(c, 3.0 * b, rtol=1e-15, atol=0.0)


def test_w_mean_stable_in_truncation(heavy_mean_env):
    """E |W(1)| is finite above index one: deep and shallow truncations agree."""
    means = []
    for n in (200, 400):
        cache = sample_w_matrices(heavy_mean_env, kl.SeriesConfig(truncation=n),
                                  40_000, substream(73))
        w = (cache.matrices @ np.array([1.0]))[:, 0]
        means.append(float(np.mean(np.abs(w))))
    se = 3.0 / math.sqrt(40_000) * np.std(np.abs(w))
    assert abs(means[0] - means[1]) <= max(se, 0.05 * means[1])


def test_w_transposed_series():
    m = np.array([[0.5, 0.1], [0.0, 0.25]])
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(tuple(map(tuple, m))),
                         vector_law=kl.ConstantVector((0.0, 0.0)))
    cache = sample_w_matrices(env, kl.SeriesConfig(truncation=200), 2, substream(74))
    expected = np.linalg.solve(np.eye(2) - m, m)      # sum of m^k, k >= 1
    v = np.array([1.0, 2.0])
    assert np.allclose(cache.apply_transposed(v), (expected.T @ v)[None, :], atol=1e-12)


def reference_w_matrices(env, truncation, count, rng):
    """sum_{k <= truncation} M_k ... M_1 with one left matmul per step: the
    loop the product walker replaced (fixed-truncation mode), drawing the
    matrices as the walker does: one step first, then step-major blocks of
    up to 16384 // count steps that end at each multiple of 50 steps."""
    prod = np.broadcast_to(np.eye(env.dim), (count, env.dim, env.dim)).copy()
    acc = np.zeros_like(prod)
    k = 0
    while k < truncation:
        size = 1 if k == 0 else min(max(1, 16_384 // count), 50 - k % 50, truncation - k)
        block = env.matrix_law.sample(rng, count * size)
        for t in range(size):
            k += 1
            prod = np.matmul(block[t * count:(t + 1) * count], prod)
            acc += prod
    return acc


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_w_fixed_truncation_matches_reference_loop(scalar_env, dim):
    env = scalar_env if dim == 1 else kl.Environment(
        dim=dim, matrix_law=kl.Similarity(dim, (2.0, 0.5), (1 / 3, 2 / 3)),
        vector_law=kl.GaussianVector(dim))
    cache = sample_w_matrices(env, kl.SeriesConfig(truncation=130), 500, substream(76, dim))
    ref = reference_w_matrices(env, 130, 500, substream(76, dim))
    scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert np.max(np.abs(cache.matrices - ref) / scale) <= 1e-12


def test_w_adaptive_stop_bounds_next_term():
    # M = I/2: |P_n|_F = sqrt(2) 2^-n is first under 1e-6 at n = 21, which
    # bounds the next term 2^-(n+1) I by 1e-6 |M|_F
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.ConstantVector((0.0, 0.0)))
    cache = sample_w_matrices(env, kl.SeriesConfig(tolerance=1e-6), 3, substream(77))
    assert cache.max_depth == 21
    assert np.array_equal(cache.matrices, np.broadcast_to((1.0 - 2.0 ** -21) * np.eye(2),
                                                          (3, 2, 2)))


def test_w_depth_quantiles_recorded(scalar_env):
    cache = sample_w_matrices(scalar_env, kl.SeriesConfig(tolerance=1e-6), 4000, substream(78))
    q = cache.depth_quantiles
    assert list(q) == ["0.5", "0.9", "0.99"]
    assert 1 <= q["0.5"] <= q["0.9"] <= q["0.99"] <= cache.max_depth


def test_w_fixed_truncation_expanding_law_raises():
    env = kl.Environment(dim=1, matrix_law=kl.ConstantMatrix(((2.0,),)),
                         vector_law=kl.ConstantVector((0.0,)))
    with pytest.raises(NonContractionError):
        sample_w_matrices(env, kl.SeriesConfig(truncation=1100), 3, substream(79))


# ---------------------------------------------------------------------------
# the limit exponent C
# ---------------------------------------------------------------------------

def test_c_kappa_classical_oracle_below_one(grid1):
    """Degenerate M = 0 collapses h to 1; the exponent must match the
    classical one-dimensional stable integral, computed here by an
    independent quadrature."""
    env = kl.Environment(dim=1, matrix_law=kl.ConstantMatrix(((0.0,),)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=True)
    kappa = 0.5
    sigma = uniform_sigma(grid1, kappa)
    value, _ = kl.c_kappa(np.array([1.0]), sigma, env, w_cache(env, 400, substream(79)))
    # oracle: int_0^inf (cos s - 1) s^(-1-kappa) ds over both antipodes
    finite = integrate.quad(lambda s: (math.cos(s) - 1.0) * s ** (-1 - kappa),
                            0, 50, limit=400)[0]
    osc = integrate.quad(lambda s: s ** (-1 - kappa), 50, np.inf,
                         weight="cos", wvar=1.0)[0]
    drop = -(50.0 ** -kappa) / kappa
    oracle = finite + osc + drop
    assert value.imag == pytest.approx(0.0, abs=1e-12)
    assert value.real == pytest.approx(oracle, rel=1e-6)


def test_c_kappa_panel_route_agrees_within_budget(scalar_env, grid1):
    kappa = 0.5
    sigma = uniform_sigma(grid1, kappa)
    cache = w_cache(scalar_env, 1000, substream(80))
    exact, budget = kl.c_kappa(np.array([1.0]), sigma, scalar_env, cache)
    panels, panels_budget = c_kappa_panels(np.array([1.0]), kappa, sigma,
                                           RadialQuadrature(s_max=200.0), cache, "none")
    assert abs(exact - panels) <= panels_budget + budget


def c_kappa_per_cell(v, sigma, env, cache):
    """(C(v), budget) by the per-cell loop that the one phase array
    replaced: A w_j rebuilt for each cell, and zero-mass cells skipped."""
    kappa = sigma.kappa
    per_draw = np.zeros(cache.count, dtype=complex)
    for mass_j, w_j in zip(sigma.mass, sigma.grid.points):
        if mass_j == 0.0:
            continue
        a = float(v @ w_j)
        u = (cache.matrices @ w_j) @ v
        per_draw += mass_j * (_levy_radial_integral(a + u, kappa)
                              - _levy_radial_integral(u, kappa))
    if env.q_symmetric:
        per_draw = per_draw.real
    se = float(np.sqrt(np.var(per_draw.real) + np.var(per_draw.imag))
               / math.sqrt(cache.count))
    return complex(np.mean(per_draw)), 3.0 * se


@pytest.mark.parametrize("case", ["scalar", "planar", "d3", "zero_mass_cells"])
def test_c_kappa_matches_per_cell_loop(case, scalar_env, similarity_env, grid1, grid2):
    rng = substream(96, len(case))
    # the last two take the complex exponent of a Q that is not symmetric
    if case == "scalar":
        env, grid, kappa = scalar_env, grid1, 1.0
    elif case == "planar":
        env, grid, kappa = similarity_env, grid2, 1.0
    elif case == "d3":
        env = kl.Environment(dim=3, matrix_law=kl.Similarity(3, (2.0, 0.5), (1 / 3, 2 / 3)),
                             vector_law=kl.GaussianVector(3))
        grid, kappa = kl.build_grid(3, 16), 0.7
    else:
        env, grid, kappa = replace(similarity_env, q_symmetric=False), grid2, 1.4
    mass = rng.uniform(0.0, 1.0, grid.n)
    if case == "zero_mass_cells":
        mass[::2] = 0.0
    sigma = SpectralMeasure(grid=grid, mass=mass, threshold_used=1.0,
                            total_mass=float(mass.sum()), kappa=kappa,
                            sample_count=0, exceedances=0)
    cache = w_cache(env, 300, rng)
    directions = np.vstack([grid.points[:: max(1, grid.n // 4)],
                            np.full(env.dim, 1.0 / math.sqrt(env.dim))])
    for v in directions:
        value, budget = kl.c_kappa(v, sigma, env, cache)
        ref_value, ref_budget = c_kappa_per_cell(v, sigma, env, cache)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert abs(budget - ref_budget) <= 1e-12 * ref_budget


def test_c_kappa_symmetric_sigma_gives_real_exponent(scalar_env, scalar_batch,
                                                     scalar_solution, grid1):
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, scalar_solution.kappa, True)
    symmetric = SpectralMeasure(grid=grid1,
                                mass=np.full(2, float(sigma.mass.mean())),
                                threshold_used=sigma.threshold_used,
                                total_mass=float(sigma.mass.mean() * 2),
                                kappa=1.0, sample_count=sigma.sample_count,
                                exceedances=sigma.exceedances)
    value, _ = kl.c_kappa(np.array([1.0]), symmetric, scalar_env,
                          w_cache(scalar_env, 2000, substream(81)))
    assert value.real < 0
    assert abs(value.imag) <= 1e-12 * abs(value.real)


def test_c_kappa_requires_symmetry_at_one(grid1):
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=False)
    with pytest.raises(ConfigurationError):
        kl.c_kappa(np.array([1.0]), uniform_sigma(grid1, 1.0), env,
                   w_cache(env, 200, substream(82)))


def test_near_integer_rule_boundary(grid1, scalar_batch):
    """One closed band around 1 decides for the angular measure, C(v) and
    the centering alike; off it, and with a symmetric Q, the limit runs at
    the exponent it is given."""
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (0.3, 0.7)),
                         vector_law=kl.ConstantVector((1.0,)))
    samples = np.ones((3, 1))
    cache = w_cache(env, 50, substream(82, 1))
    for kappa in (0.95, 1.0, 1.05):
        with pytest.raises(RegularVariationError):
            kl.estimate_sigma(scalar_batch, 1.0, grid1, kappa, env.q_symmetric)
        with pytest.raises(RegularVariationError):
            kl.centering(env, kappa, samples)
        with pytest.raises(RegularVariationError):
            kl.c_kappa(np.array([1.0]), uniform_sigma(grid1, kappa), env, cache)
    assert kl.centering(env, 0.9499, samples).m is None
    np.testing.assert_array_equal(kl.centering(env, 1.0501, samples).m, [1.0])
    for kappa in (0.0, 2.0):
        with pytest.raises(ConfigurationError, match=r"\(0, 2\)"):
            kl.centering(env, kappa, samples)
    symmetric = replace(env, q_symmetric=True)
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, 0.99, True)
    assert sigma.kappa == 0.99
    assert kl.centering(symmetric, 0.99, samples).kappa == 0.99
    law = kl.compute_stable_law(symmetric, sigma, np.array([[1.0]]),
                                w_cache(symmetric, 200, substream(82, 2)))
    assert law.kappa == 0.99 and law.c_values[0].real < 0.0


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------

def test_centering_below_one_is_zero(scalar_env, scalar_batch):
    cent = kl.centering(scalar_env, 0.7, scalar_batch)
    assert cent.m is None
    assert np.array_equal(normalized_sums(scalar_batch, 1000, cent),
                          scalar_batch.data / 1000 ** (1 / 0.7))


def test_centering_mean_regime(heavy_mean_env):
    batch = kl.sample_stationary(heavy_mean_env, kl.SeriesConfig(tolerance=1e-9),
                                 400_000, substream(83))
    cent = kl.centering(heavy_mean_env, 1.222, batch)
    # E R = E Q / (1 - E M) = 1 / 0.05 = 20 exactly
    se = float(batch.data[:, 0].std()) / math.sqrt(batch.count)
    assert abs(cent.m[0] - 20.0) <= 3 * se
    # S_n = n m maps to 0, and one scale unit n^(1/kappa) above it to 1
    n = 100
    sums = n * cent.m + np.array([[0.0], [n ** (1 / 1.222)]])
    np.testing.assert_allclose(normalized_sums(sums, n, cent), [[0.0], [1.0]],
                               rtol=0.0, atol=1e-12)


def test_centering_symmetric_mean_vanishes(similarity_env):
    """A symmetric Q makes R symmetric, so neither the kappa = 1 nor the
    mean centering subtracts anything, not even summation dust."""
    batch = kl.sample_stationary(similarity_env, kl.SeriesConfig(tolerance=1e-9),
                                 20_000, substream(83, 1))
    n = 4096
    assert np.array_equal(normalized_sums(batch, n, kl.centering(similarity_env, 1.0, batch)),
                          batch.data / n)
    assert kl.centering(similarity_env, 1.3, batch).m is None
    with pytest.raises(ConfigurationError):
        kl.centering(replace(similarity_env, q_symmetric=False), 1.0, batch)


def test_centering_xi_needs_symmetry(scalar_batch):
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=False)
    with pytest.raises(ConfigurationError):
        kl.centering(env, 1.0, scalar_batch)


# ---------------------------------------------------------------------------
# empirical characteristic function
# ---------------------------------------------------------------------------

def _ecf(batch, s_values, dirs):
    # n = 1 rescales by nothing at any exponent, and below 1 nothing centers
    return kl.empirical_cf(batch, 1, CenteringResult(kappa=0.5), s_values, dirs)


def test_ecf_at_zero_is_one(scalar_batch):
    ecf = _ecf(scalar_batch, np.array([0.0, 0.5]), np.array([[1.0]]))
    assert ecf.values[0, 0] == 1.0 + 0.0j
    assert np.all(np.abs(ecf.values) <= 1.0 + 1e-12)


def test_ecf_conjugate_symmetry(scalar_batch):
    dirs = np.array([[1.0], [-1.0]])
    ecf = _ecf(scalar_batch, np.array([0.3, 1.1]), dirs)
    assert np.array_equal(ecf.values[:, 1], np.conj(ecf.values[:, 0]))


def test_normalized_sums_scaling():
    data = np.arange(10.0).reshape(-1, 1)
    batch = SampleBatch(data=data, kind="sums", info={"n_steps": 16})
    y = normalized_sums(batch, 16, CenteringResult(kappa=0.5))
    assert np.allclose(y, data / 16.0 ** 2)


# ---------------------------------------------------------------------------
# the fitted law
# ---------------------------------------------------------------------------

def cms_symmetric_stable(alpha: float, count: int, seed: int) -> np.ndarray:
    """Classical inversion sampler for the symmetric alpha-stable law with
    characteristic function exp(-|t|^alpha)."""
    rng = substream(seed)
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=count)
    e = rng.exponential(1.0, size=count)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


def test_stable_fit_on_exact_synthetic_samples():
    alpha = 1.3
    count = 250_000
    samples = cms_symmetric_stable(alpha, count, 84)
    law = StableLaw(kappa=alpha, directions=np.array([[1.0], [-1.0]]),
                    c_values=np.array([-1.0 + 0.0j, -1.0 + 0.0j]))
    batch = SampleBatch(data=samples.reshape(-1, 1), kind="synthetic",
                        info={"n_steps": 1})
    ecf = _ecf(batch, np.linspace(0.1, 2.0, 12), law.directions)
    assert kl.stable_fit_check(ecf, law) <= 4.0 / math.sqrt(count)


def test_stable_fit_rejects_light_tails():
    gaussian = SampleBatch(data=substream(85).standard_normal((100_000, 1)),
                           kind="synthetic", info={"n_steps": 1})
    law = StableLaw(kappa=1.5, directions=np.array([[1.0]]),
                    c_values=np.array([-1.0 + 0.0j]))
    ecf = _ecf(gaussian, np.linspace(0.1, 2.0, 12), law.directions)
    assert kl.stable_fit_check(ecf, law) > 0.15


def test_stable_law_validates_damping():
    with pytest.raises(ConfigurationError):
        StableLaw(kappa=1.0, directions=np.array([[1.0]]),
                  c_values=np.array([0.5 + 0.0j]))


def test_cf_budget_carries_the_budget_to_the_cf():
    """An error e in C(v) moves exp(s^kappa C) by about s^kappa |cf| e: a
    heavy law's budget in exponent units no longer swamps the cf band."""
    law = StableLaw(kappa=1.5, directions=np.array([[1.0]]),
                    c_values=np.array([-40.0 + 0.0j]), error_budget=2.5)
    s_values = cli.LimitConfig().s_values
    f = max(s ** 1.5 * math.exp(-40.0 * s ** 1.5) for s in s_values)
    assert law.cf_budget(s_values) == pytest.approx(f * 2.5, rel=1e-12)
    assert cli.ChecksConfig().cf_deviation_max + law.cf_budget(s_values) < 1.0
    # f is capped at 1, so no band is wider than the budget itself makes it
    mild = StableLaw(kappa=1.0, directions=np.array([[1.0]]),
                     c_values=np.array([-0.01 + 0.0j]), error_budget=0.3)
    assert mild.cf_budget([0.1, 2.0, 50.0]) == 0.3


@pytest.mark.parametrize("law", [
    StableLaw(kappa=0.7, directions=np.array([[1.0], [-1.0]]),
              c_values=np.array([-1.0 + 0.25j, -1.0 - 0.25j])),
    StableLaw(kappa=1.3, directions=np.array([[0.6, 0.8], [-0.8, 0.6]]),
              c_values=np.array([-0.5 + 0.1j, -1 / 3 + 0.0j]),
              error_budget=0.01,
              provenance={"w_draws": 2000, "w_depth": 41}),
    # canonical JSON writes kappa = 1.0 as 1
    StableLaw(kappa=1.0, directions=np.array([[1.0], [-1.0]]),
              c_values=np.array([-1.5 + 0.5j, -1.5 - 0.5j])),
])
def test_stable_law_json_round_trip(law):
    text = canonical_json(law)
    back = from_json(StableLaw, json.loads(text))
    assert canonical_json(back) == text
    assert type(back.kappa) is float


@given(st.floats(min_value=0.2, max_value=1.9),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_stability_functional_equation(kappa, c_re, c_im, power):
    """(CF(s v))^n = CF(n^(1/kappa) s v) holds identically in the representation."""
    law = StableLaw(kappa=kappa, directions=np.array([[1.0]]),
                    c_values=np.array([complex(-c_re, c_im)]))
    s = np.array([0.7])
    lhs = law.cf(s)[0, 0] ** power
    rhs = law.cf(power ** (1.0 / kappa) * s)[0, 0]
    assert cmath.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)
    assert abs(law.cf(np.array([2.3]))[0, 0]) <= 1.0 + 1e-12


def test_convergence_in_n(scalar_env, scalar_batch, scalar_solution, grid1):
    """Deviation from the fitted law does not grow along a doubling ladder."""
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, scalar_solution.kappa, True)
    cent = kl.centering(scalar_env, scalar_solution.kappa, scalar_batch)
    dirs = np.array([[1.0], [-1.0]])
    law = kl.compute_stable_law(scalar_env, sigma, dirs, w_cache(scalar_env, 2000, substream(86)))
    reps = 4000
    devs = []
    for exp in (10, 12):
        sums = kl.birkhoff_sums(scalar_env, kl.PathConfig(
            n_steps=2 ** exp, start_x=(0.0,), replicas=reps), substream(87))
        ecf = kl.empirical_cf(sums, 2 ** exp, cent, [0.25, 0.5, 1.0, 2.0], dirs)
        devs.append(kl.stable_fit_check(ecf, law))
    assert devs[1] <= devs[0] + 2.0 / math.sqrt(reps)


def test_self_similarity_scalar_smoke(scalar_env, scalar_batch, scalar_solution):
    cent = kl.centering(scalar_env, scalar_solution.kappa, scalar_batch)
    a = kl.birkhoff_sums(scalar_env, kl.PathConfig(n_steps=2 ** 11, start_x=(0.0,),
                                                   replicas=6000), substream(88))
    b = kl.birkhoff_sums(scalar_env, kl.PathConfig(n_steps=2 ** 12, start_x=(0.0,),
                                                   replicas=6000), substream(89))
    ks = self_similarity_check(a, b, cent, np.array([[1.0], [-1.0]]))
    assert ks.max() <= 0.08


def test_self_similarity_ks_matches_scipy():
    # with n_steps = 1 and no centering the normalized sums are the data,
    # so each entry is the Kolmogorov distance of two samples
    rng = np.random.default_rng(90)
    dirs = np.array([[1.0, 0.0], [0.6, 0.8]])
    cent = CenteringResult(kappa=0.5)
    for trial in range(40):
        sizes = rng.integers(1, 400, size=2)
        if trial % 2:   # integer draws: ties within and across the samples
            small, large = (rng.integers(-3, 4, size=(m, 2)).astype(float) for m in sizes)
        else:
            small, large = (rng.standard_cauchy((m, 2)) for m in sizes)
        ks = self_similarity_check(SampleBatch(small, "sums", info={"n_steps": 1}),
                                   SampleBatch(large, "sums", info={"n_steps": 1}),
                                   cent, dirs)
        want = [stats.ks_2samp(small @ v, large @ v).statistic for v in dirs]
        np.testing.assert_allclose(ks, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------

def test_cosine_tail_constant_values():
    assert kl.cos_tail_constant(1.0) == pytest.approx(-math.pi / 2, abs=1e-6)
    for kappa in (0.5, 1.5):
        closed = math.cos(math.pi * kappa / 2) * math.gamma(2 - kappa) / (kappa * (kappa - 1))
        value = kl.cos_tail_constant(kappa)
        assert value < 0
        assert value == pytest.approx(closed, rel=1e-8)
    # the kappa = 1 branch is taken at 1 exactly, not across a band
    for kappa in (0.3, 0.5, 0.97, 0.99, 1.0, 1.03, 1.5, 1.9):
        assert kl.cos_tail_constant(kappa) == pytest.approx(cos_tail_series(kappa), rel=1e-9)
    for kappa in (0.0, 2.0):
        with pytest.raises(ConfigurationError):
            kl.cos_tail_constant(kappa)


def test_nondegeneracy_isotropic(similarity_env, grid2):
    sol_kappa = 1.0
    batch = kl.sample_stationary(similarity_env, kl.SeriesConfig(tolerance=1e-9),
                                 200_000, substream(90))
    u = float(np.quantile(batch.norms(), 0.99))
    sigma = kl.estimate_sigma(batch, u, grid2, sol_kappa, True)
    dirs = grid2.points[::8]
    law = kl.compute_stable_law(similarity_env, sigma, dirs,
                                w_cache(similarity_env, 1500, substream(91)))
    verdict = kl.nondegeneracy(law)
    assert verdict.nondegenerate
    assert verdict.span_rank == 2
    # rotational invariance: the exponent is constant across directions
    re = law.c_values.real
    assert np.ptp(re) <= 0.1 * abs(re.mean())


def test_nondegeneracy_detects_collapsed_span():
    law = StableLaw(kappa=1.2, directions=np.array([[1.0, 0.0], [-1.0, 0.0],
                                                    [0.0, 1.0], [0.0, -1.0]]),
                    c_values=np.array([-1.0, -1.0, -1e-9, -1e-9], dtype=complex))
    verdict = kl.nondegeneracy(law)
    assert not verdict.nondegenerate
    assert verdict.span_rank == 1
    assert verdict.offending_basis is not None
    # the undamped subspace is the second coordinate axis
    assert abs(verdict.offending_basis[0] @ np.array([0.0, 1.0])) > 0.99


# ---------------------------------------------------------------------------
# transposed-series positivity
# ---------------------------------------------------------------------------

def test_transposed_positivity_scalar(scalar_env, scalar_batch, scalar_solution, grid1):
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, scalar_solution.kappa, True)
    check = kl.transposed_positivity_check(sigma, np.array([1.0]),
                                           w_cache(scalar_env, 2000, substream(92)))
    assert check.positive
    assert check.plus_integral > 0 and check.minus_integral > 0


def test_transposed_positivity_symmetric_matrix_law(grid1):
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((0.6, -0.6), (0.5, 0.5)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=True)
    sigma = uniform_sigma(grid1, 1.3)
    check = kl.transposed_positivity_check(sigma, np.array([1.0]),
                                           w_cache(env, 20_000, substream(93)))
    spread = abs(check.plus_integral - check.minus_integral)
    assert spread <= 3 * math.hypot(check.plus_se, check.minus_se)


def test_transposed_positivity_one_sided_sigma(grid1):
    # M in {2, 0.3} at kappa = 0.6 with Q = 1: R > 0, so sigma is one atom at
    # +1, and the mirror at v = -1 meets none of it
    p = (1.0 - 0.3 ** 0.6) / (2.0 ** 0.6 - 0.3 ** 0.6)
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.3), (p, 1.0 - p)),
                         vector_law=kl.ConstantVector((1.0,)))
    sigma = SpectralMeasure(grid=grid1, mass=np.where(grid1.points[:, 0] > 0, 1.0, 0.0),
                            threshold_used=1.0, total_mass=1.0, kappa=0.6,
                            sample_count=0, exceedances=0)
    for v, uncharged in ((-1.0, "plus"), (1.0, "minus")):
        check = kl.transposed_positivity_check(sigma, np.array([v]),
                                               w_cache(env, 2000, substream(95)))
        assert getattr(check, f"{uncharged}_integral") == getattr(check, f"{uncharged}_se") == 0
        assert check.positive
    zero = replace(sigma, mass=np.zeros(grid1.n), total_mass=0.0)
    check = kl.transposed_positivity_check(zero, np.array([-1.0]),
                                           w_cache(env, 2000, substream(95)))
    assert (check.plus_integral, check.plus_se, check.minus_integral, check.minus_se) == (0,) * 4
    assert not check.positive


def four_pow_positivity(sigma, v, cache):
    """The two bracket integrals and their SEs with four clipped powers, one
    per term and mirror, as transposed_positivity_check first computed them."""
    a = sigma.grid.points @ v
    phases = cache.apply_transposed(v) @ sigma.grid.points.T

    def integral(sign):
        per_draw = (np.maximum(sign * (phases + a), 0.0) ** sigma.kappa
                    - np.maximum(sign * phases, 0.0) ** sigma.kappa) @ sigma.mass
        return float(per_draw.mean()), float(per_draw.std() / math.sqrt(cache.count))

    return (*integral(1.0), *integral(-1.0))


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 1.99])
def test_transposed_positivity_equals_four_pow_formula(similarity_env, grid2, kappa):
    sigma = replace(uniform_sigma(grid2, kappa), mass=np.linspace(0.5, 1.5, grid2.n) / grid2.n)
    v = np.array([0.6, 0.8])
    cache = w_cache(similarity_env, 2000, substream(96))
    check = kl.transposed_positivity_check(sigma, v, cache)
    assert (check.plus_integral, check.plus_se, check.minus_integral,
            check.minus_se) == four_pow_positivity(sigma, v, cache)


def test_transposed_positivity_rejects_non_unit(scalar_env, grid1):
    with pytest.raises(ConfigurationError):
        kl.transposed_positivity_check(uniform_sigma(grid1, 1.0), np.array([0.0]),
                                       w_cache(scalar_env, 200, substream(94)))
