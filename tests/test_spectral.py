import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

import kestenlab as kl
from kestenlab import spectral
from kestenlab.batches import canonical_json, from_json
from kestenlab.env_models import ConfigurationError
from kestenlab.rng import substream
from kestenlab.spectral import (COLUMN_ACTION, ROW_ACTION, SpectralBracketError,
                                SpectralSolution, SphereGrid, _perron,
                                build_operator_draws, equal_area_zones,
                                fixed_point_residuals)

ALPHA_SCALAR = math.log(2.0) / 3.0  # two-atom mean of M^kappa log M at kappa = 1
SD_SCALAR = math.sqrt(0.5)          # sd of |M| at kappa = 1: E M^2 = 3/2, E M = 1


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_dim1_is_sign_pair():
    g = kl.build_grid(1, 99)
    assert np.array_equal(g.points, np.array([[-1.0], [1.0]]))
    assert g.to_json_dict()["weights"] == [0.5, 0.5]


def test_grid_dim2_uniform_angles():
    g = kl.build_grid(2, 8)
    assert g.n == 8
    angles = np.arctan2(g.points[:, 1], g.points[:, 0])
    spacing = np.diff(np.sort(np.mod(angles, 2 * np.pi)))
    assert np.allclose(spacing, np.pi / 4, atol=1e-12)
    assert g.to_json_dict()["weights"] == [1 / 8] * 8


def reference_s2_zones(n):
    """The S^2 partition written out in its closed forms: the reference that
    equal_area_zones(2, n) must match bit for bit."""
    if n == 2:
        sectors = [1, 1]
    else:
        cap = 2.0 * math.asin(1.0 / math.sqrt(n))
        n_collars = max(1, round((math.pi - 2.0 * cap) / math.sqrt(4.0 * math.pi / n)))
        step = (math.pi - 2.0 * cap) / n_collars
        sectors, carry = [1], 0.0
        for k in range(n_collars):
            ideal = 0.5 * n * (math.cos(cap + k * step) - math.cos(cap + (k + 1) * step))
            count = round(ideal + carry)
            carry += ideal - count
            sectors.append(count)
        sectors.append(1)
    sectors = np.array(sectors, dtype=np.int64)
    total = np.cumsum(sectors)
    return -1.0 + 2.0 * total / n, sectors, total - sectors


def reference_d3_points(n):
    upper, sectors, _ = reference_s2_zones(n)
    lower = np.concatenate([[-1.0], upper[:-1]])
    z = np.repeat(0.5 * (lower + upper), sectors)
    z[0], z[-1] = -1.0, 1.0
    lon = np.concatenate([2.0 * np.pi * (np.arange(m) + 0.5) / m for m in sectors])
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(lon), r * np.sin(lon), z])


def test_s2_partition_matches_reference():
    for n in range(2, 1025):
        for got, want in zip(equal_area_zones(2, n), reference_s2_zones(n)):
            assert np.array_equal(got, want), n
        assert np.array_equal(kl.build_grid(3, n).points, reference_d3_points(n)), n


def cap_share(k, z):
    """Share of S^k with last coordinate <= z: (1 + z) / 2 ~ Beta(k/2, k/2)."""
    return special.betainc(k / 2, k / 2, (1.0 + np.asarray(z)) / 2.0)


def cell_shares(k, n):
    """Share of S^k in each cell of equal_area_zones(k, n): the share of its
    zone times its share of the zone's own partition."""
    upper, sectors, first = equal_area_zones(k, n)
    lower = np.concatenate([[-1.0], upper[:-1]])
    assert sectors.sum() == n and sectors.min() >= 1
    assert np.array_equal(first, np.cumsum(sectors) - sectors)
    zone_share = cap_share(k, upper) - cap_share(k, lower)
    return np.concatenate([
        share * (np.full(m, 1.0 / m) if k == 2 or m == 1 else cell_shares(k - 1, m))
        for share, m in zip(zone_share, sectors)])


def test_grid_equal_area():
    for d in (3, 4, 5):
        for n in range(2, 257):
            upper, sectors, _ = equal_area_zones(d - 1, n)
            lower = np.concatenate([[-1.0], upper[:-1]])
            zone_share = cap_share(d - 1, upper) - cap_share(d - 1, lower)
            np.testing.assert_allclose(zone_share / sectors, 1.0 / n, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(cell_shares(d - 1, n), 1.0 / n, rtol=0.0, atol=1e-12)
            g = kl.build_grid(d, n)
            assert g.n == n
            assert np.array_equal(g.cell_index(g.points), np.arange(n))


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_uniform_directions_fill_cells_equally(dim, resolution):
    # independent of any area formula: each cell of an equal-area partition
    # holds a uniform direction with probability 1 / n
    count = 400_000
    dirs = np.random.default_rng(dim * 1000 + resolution).standard_normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    freq = np.bincount(kl.build_grid(dim, resolution).cell_index(dirs),
                       minlength=resolution) / count
    p = 1.0 / resolution
    assert np.max(np.abs(freq - p)) <= 5.0 * math.sqrt(p * (1.0 - p) / count)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=64))
@settings(max_examples=25, deadline=None)
def test_grid_invariants(dim, resolution):
    g = kl.build_grid(dim, resolution)
    assert np.allclose(np.linalg.norm(g.points, axis=1), 1.0, atol=1e-12)
    assert g.to_json_dict()["weights"] == [1.0 / g.n] * g.n


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        kl.build_grid(0, 8)
    with pytest.raises(ConfigurationError):
        kl.build_grid(2, 1)


def assert_in_zonal_cell(x, n, label):
    """x on S^k lies in zone j of equal_area_zones(k, n) and, within it, in
    cell label - first[j] of the zone's own partition."""
    k = x.size - 1
    upper, sectors, first = equal_area_zones(k, n)
    lower = np.concatenate([[-1.0], upper[:-1]])
    (zone,) = np.flatnonzero((lower <= x[-1]) & (x[-1] < upper))
    cell = label - first[zone]
    assert 0 <= cell < sectors[zone]
    if k == 2:
        width = 2.0 * np.pi / sectors[zone]
        lon = np.mod(np.arctan2(x[1], x[0]), 2.0 * np.pi)
        assert cell * width <= lon < (cell + 1) * width
    elif sectors[zone] > 1:
        assert_in_zonal_cell(x[:-1] / np.linalg.norm(x[:-1]), sectors[zone], cell)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_cell_index_labels(dim, resolution, seed):
    g = kl.build_grid(dim, resolution)
    assert np.array_equal(g.cell_index(g.points), np.arange(g.n))
    dirs = np.random.default_rng(seed).standard_normal((200, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = g.cell_index(dirs)
    assert labels.dtype == np.int64
    assert np.all((labels >= 0) & (labels < g.n))
    if dim <= 2:
        # signs and arcs: the nearest grid point
        assert np.array_equal(labels, np.argmax(dirs @ g.points.T, axis=1))
        return
    for x, label in zip(dirs, labels):
        assert_in_zonal_cell(x, resolution, label)


def test_cell_index_nearest_point():
    g = kl.build_grid(2, 8)
    dirs = g.points.copy()
    assert np.array_equal(g.cell_index(dirs), np.arange(8))
    jiggled = np.array([[math.cos(0.1), math.sin(0.1)]])
    assert g.cell_index(jiggled)[0] == 0


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_operator_similarity_constant(similarity_env, grid2):
    # (T 1)(v) = E c^kappa, independent of v; at kappa = 1 this is exactly 1
    draws = build_operator_draws(similarity_env, grid2, ROW_ACTION, 4000, substream(30))
    out = draws.matrix(1.0) @ np.ones(grid2.n)
    expected = (1 / 3) * 2.0 + (2 / 3) * 0.5
    assert np.allclose(out, expected, atol=0.05)
    assert out.std() < 0.03


def test_operator_positive_scalar_preserves_direction(scalar_env, grid1):
    f = np.array([0.25, 4.0])
    kappa = 0.7
    draws = build_operator_draws(scalar_env, grid1, ROW_ACTION, 20_000, substream(31))
    out = draws.matrix(kappa) @ f
    moment = (1 / 3) * 2.0 ** kappa + (2 / 3) * 0.5 ** kappa
    assert np.allclose(out, f * moment, rtol=0.03)


def test_operator_kappa_zero_is_exact_mean(similarity_env, grid2):
    # at kappa = 0 each row is its draws' cell counts over mc_count, exactly;
    # whether the row then sums to 1 bit for bit depends on the summation order
    draws = build_operator_draws(similarity_env, grid2, ROW_ACTION, 500, substream(32))
    a = draws.matrix(0.0)
    for i in range(grid2.n):
        counts = np.bincount(draws.cells[i], minlength=grid2.n)
        assert counts.sum() == draws.mc_count
        assert np.array_equal(a[i], counts / draws.mc_count)


def test_operator_matrix_nonnegative(similarity_env, grid2):
    draws = build_operator_draws(similarity_env, grid2, COLUMN_ACTION, 500, substream(33))
    a = draws.matrix(1.3)
    assert draws.kind == COLUMN_ACTION
    assert a.shape == (grid2.n, grid2.n)
    assert np.all(a >= 0.0)


def test_operator_matrix_reproduces_indicator_estimate(scalar_env, grid1):
    # row-wise application on a cell indicator equals the Monte-Carlo
    # estimate of the weighted transition into that cell
    draws = build_operator_draws(scalar_env, grid1, ROW_ACTION, 5000, substream(34))
    a = draws.matrix(1.0)
    indicator = np.array([0.0, 1.0])
    manual = np.empty(2)
    for i in range(2):
        wk = draws.norms[i]
        manual[i] = np.mean(wk * (draws.cells[i] == 1))
    assert np.allclose(a @ indicator, manual, atol=0.0)


def matrix_full_array(draws, kappa):
    """`OperatorDraws.matrix` with every cached draw powered in one array:
    the reference for the row-by-row build."""
    n = draws.grid.n
    out = np.empty((n, n))
    with np.errstate(over="ignore"):
        wk = draws.norms ** kappa
    for i in range(n):
        out[i] = np.bincount(draws.cells[i], weights=wk[i], minlength=n)
    out /= draws.mc_count
    return out


def alpha_full_array(draws, kappa, r_vals, pi):
    """`_alpha_from_draws` over full-size copies of the cache: the reference
    for the row-by-row sum."""
    with np.errstate(over="ignore", divide="ignore"):
        wk = draws.norms ** kappa
        logs = np.log(draws.norms)
    contrib = np.mean(logs * r_vals[draws.cells] * wk, axis=1)
    return float(np.sum(pi / r_vals * contrib))


@pytest.mark.parametrize("case", ["scalar", "planar", "d3"])
def test_row_by_row_operator_equals_full_array_formulas(case, scalar_env, similarity_env,
                                                        grid1, grid2):
    if case == "scalar":
        env, grid = scalar_env, grid1
    elif case == "planar":
        env, grid = similarity_env, grid2
    else:
        env = kl.Environment(dim=3, matrix_law=kl.GaussianMatrix(3, 0.6),
                             vector_law=kl.GaussianVector(3), kappa0_hint=1.5)
        grid = kl.build_grid(3, 24)
    draws = build_operator_draws(env, grid, ROW_ACTION, 3000, substream(35))
    assert draws.cells.dtype == np.int32
    weights = substream(36).random((2, grid.n)) + 0.1
    r_vals, pi = weights[0], weights[1] / weights[1].sum()
    for kappa in (0.0, 0.37, 1.0, 1.5, 2.9):
        assert np.array_equal(draws.matrix(kappa), matrix_full_array(draws, kappa))
        assert spectral._alpha_from_draws(draws, kappa, r_vals, pi) \
            == alpha_full_array(draws, kappa, r_vals, pi)


def test_solve_kappa_working_set_is_its_cache_plus_a_row(similarity_env, grid2, traced_peak):
    # the cache takes 12 bytes a draw (a float norm, an int32 cell), 3.84 MB
    # at the planar config's 32 rows x 10 000; powering it a row at a time
    # adds a row's worth, where three full copies once peaked at 12.8 MB
    mc = 10_000
    peak = traced_peak(lambda: kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), mc,
                                              substream(37)))
    assert peak <= grid2.n * mc * 12 + 2 * 2 ** 20


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_operator_build_refuses_zero_and_non_finite_images(grid1, grid2):
    # a zero image has weight 0^kappa = 0, so a redrawn one would bias rho;
    # the build names the count and the row instead
    zero = kl.Environment(dim=2, matrix_law=kl.MatrixMixture(
        (kl.Similarity(2, (2.0,), (1.0,)), kl.ConstantMatrix(((0.0, 0.0), (0.0, 0.0)))),
        (0.5, 0.5)), vector_law=kl.GaussianVector(2))
    with pytest.raises(spectral.SingularDrawError, match=r"^\d+ of 500 draws of grid row 0 map"):
        build_operator_draws(zero, grid2, COLUMN_ACTION, 500, substream(50))
    infinite = kl.Environment(dim=1, matrix_law=kl.ConstantMatrix(((np.inf,),)),
                              vector_law=kl.ConstantVector((1.0,)))
    with pytest.raises(spectral.SingularDrawError, match="^500 of 500 draws of grid row 0 map"):
        build_operator_draws(infinite, grid1, ROW_ACTION, 500, substream(51))


def test_rho_scalar_benchmark(scalar_env, grid1):
    rho1, _ = kl.spectral_radius(
        build_operator_draws(scalar_env, grid1, ROW_ACTION, 20_000, substream(35)), 1.0)
    assert abs(rho1 - 1.0) < 0.02
    rho_half, _ = kl.spectral_radius(
        build_operator_draws(scalar_env, grid1, ROW_ACTION, 20_000, substream(36)), 0.5)
    expected = (1 / 3) * math.sqrt(2.0) + (2 / 3) / math.sqrt(2.0)
    assert abs(rho_half - expected) < 0.02


def test_rho_deterministic_similarity():
    env = kl.Environment(dim=2, matrix_law=kl.Similarity(2, (0.8,), (1.0,)),
                         vector_law=kl.GaussianVector(2))
    draws = build_operator_draws(env, kl.build_grid(2, 16), ROW_ACTION, 400, substream(37))
    for kappa in (0.5, 1.0, 2.0):
        rho, lead = kl.spectral_radius(draws, kappa)
        assert rho == pytest.approx(0.8 ** kappa, rel=1e-9)
        assert np.all(lead > 0)


def test_perron_periodic_matrix():
    # a cyclic chain of period 3: the eigenvalues 24^(1/3) * (cube roots of
    # unity) all share the Perron root's modulus
    a = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [4.0, 0.0, 0.0]])
    rho, r, eta, reducible = _perron(a)
    assert rho == pytest.approx(24.0 ** (1 / 3), rel=1e-12)
    assert not reducible
    assert np.all(r > 0) and np.all(eta > 0)
    assert np.allclose(a @ r, rho * r, rtol=1e-12)
    assert np.allclose(eta @ a, rho * eta, rtol=1e-12)
    assert r.max() == 1.0 and eta.sum() == pytest.approx(1.0, abs=1e-15)


def test_perron_reducible_pools_rows():
    # a chain that never leaves its cell: the rows' growth factors are
    # pooled by their plain mean, with the uniform left probability
    rho, r, eta, reducible = _perron(np.diag([1.0, 2.0, 3.0, 6.0]))
    assert reducible and rho == 3.0
    assert np.array_equal(r, np.ones(4)) and np.array_equal(eta, np.full(4, 0.25))


def test_rho_log_convexity_with_shared_draws(scalar_env, grid1):
    draws = build_operator_draws(scalar_env, grid1, ROW_ACTION, 20_000, substream(38))
    rhos = {}
    for kappa in (0.5, 1.0, 1.5):
        rhos[kappa], _ = kl.spectral_radius(draws, kappa)
    chord = 0.5 * (math.log(rhos[0.5]) + math.log(rhos[1.5]))
    assert math.log(rhos[1.0]) <= chord + 0.02


# ---------------------------------------------------------------------------
# the tail index solver
# ---------------------------------------------------------------------------

def test_solve_kappa_scalar(scalar_solution):
    sol = scalar_solution
    assert abs(sol.kappa - 1.0) <= 0.03
    assert abs(sol.rho_at_kappa - 1.0) <= 0.01
    assert abs(sol.alpha - ALPHA_SCALAR) <= 0.1 * ALPHA_SCALAR
    assert sol.reducible_directions          # positive scalar M never mixes signs
    assert np.all(sol.r > 0)
    assert abs(float(sol.r @ sol.eta) - 1.0) <= 1e-8
    assert np.allclose(sol.pi, sol.r * sol.eta, atol=1e-12)


def test_solve_kappa_sign_flip():
    # M in {-2, -1/2}: every step flips the sign, so the direction chain is
    # periodic; |M| has the law of the scalar benchmark, hence kappa = 1 and
    # alpha = (1/3) log 2
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((-2.0, -0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=True,
                         kappa0_hint=1.5)
    sol = kl.solve_kappa(env, kl.build_grid(1, 2), (0.2, 3.0), 50_000, substream(48))
    assert abs(sol.kappa - 1.0) <= 0.03
    assert abs(sol.rho_at_kappa - 1.0) <= 0.01
    assert abs(sol.alpha - ALPHA_SCALAR) <= 0.1 * ALPHA_SCALAR
    assert sol.reducible_directions is False
    assert np.all(sol.r > 0)
    assert np.all(sol.eta > 0)
    assert abs(float(sol.r @ sol.eta) - 1.0) <= 1e-8


def test_solve_kappa_similarity(similarity_env, grid2):
    sol = kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), 5000, substream(41, 2))
    assert abs(sol.kappa - 1.0) <= 0.05
    assert not sol.reducible_directions
    m = similarity_env.matrix_law.sample(substream(39), 50_000)
    assert abs(float(np.mean(np.linalg.norm(m, ord=2, axis=(-2, -1)) ** sol.kappa)) - 1.0) <= 0.02
    assert abs(sol.alpha - ALPHA_SCALAR) <= 0.1 * ALPHA_SCALAR


def test_solve_kappa_width_stop(scalar_env, grid1, monkeypatch):
    # with the rho stop off, the bisection halves [0.2, 3.0] until it is at
    # most _WIDTH_TOL wide: 2.8 / 2^12 <= 1e-3 < 2.8 / 2^11
    monkeypatch.setattr(spectral, "_RHO_TOL", 0.0)
    sol = kl.solve_kappa(scalar_env, grid1, (0.2, 3.0), 5000, substream(49))
    assert len(sol.rho_history) == 2 + 12
    # the root of the same cache's rho-hat lies in the last bracket
    draws = build_operator_draws(scalar_env, grid1, ROW_ACTION, 5000, substream(49))
    root = optimize.brentq(lambda k: kl.spectral_radius(draws, k)[0] - 1.0, 0.2, 3.0,
                           xtol=1e-12)
    assert abs(sol.kappa - root) <= 0.5 * spectral._WIDTH_TOL


def test_solve_kappa_rejects_bad_bracket(scalar_env, grid1):
    with pytest.raises(SpectralBracketError):
        kl.solve_kappa(scalar_env, grid1, (0.2, 0.5), 2000, substream(40))
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((0.5, 0.25), (0.5, 0.5)),
                         vector_law=kl.ConstantVector((1.0,)))
    with pytest.raises(SpectralBracketError):
        # strictly contracting law: rho stays below 1 on the whole bracket
        kl.solve_kappa(env, grid1, (0.2, 3.0), 2000, substream(41))


def test_fixed_point_residuals(scalar_env, scalar_solution):
    r_res, eta_res = fixed_point_residuals(scalar_solution, scalar_env,
                                           20_000, substream(42))
    assert r_res <= 0.05
    assert eta_res <= 0.05


def test_rho_consistent_with_matrix_products(scalar_env, scalar_solution):
    """Independent growth estimate: (E ||M_1...M_n||^kappa)^(1/n) at n = 30."""
    kappa = scalar_solution.kappa
    rng = substream(43)
    n, reps = 30, 200_000
    prods = np.ones(reps)
    for _ in range(n):
        m = scalar_env.matrix_law.sample(rng, reps)
        prods *= np.abs(m[:, 0, 0]) ** kappa
    rho_mc = float(np.mean(prods)) ** (1.0 / n)
    assert abs(rho_mc - scalar_solution.rho_at_kappa) <= 0.05


def test_rho_consistent_with_products_similarity(similarity_env, grid2):
    sol = kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), 5000, substream(44))
    rng = substream(45)
    n, reps = 30, 20_000
    prod = np.broadcast_to(np.eye(2), (reps, 2, 2)).copy()
    for _ in range(n):
        prod = np.matmul(prod, similarity_env.matrix_law.sample(rng, reps))
    norms = np.linalg.norm(prod, ord=2, axis=(1, 2))
    rho_mc = float(np.mean(norms ** sol.kappa)) ** (1.0 / n)
    assert abs(rho_mc - sol.rho_at_kappa) <= 0.05


def test_solution_json_round_trip(scalar_solution):
    text = canonical_json(scalar_solution)
    back = from_json(SpectralSolution, json.loads(text))
    assert canonical_json(back) == text


def test_grid_json_round_trip():
    for d in (3, 4):
        grid = kl.build_grid(d, 20)
        back = SphereGrid.from_json_dict(json.loads(canonical_json(grid.to_json_dict())))
        assert np.array_equal(back.points, grid.points)
        # the file keeps the uniform cell weights for its readers
        assert back.to_json_dict()["weights"] == [1 / 20] * 20


def test_grid_artifact_of_older_versions():
    # planar grids kept their points; their artifacts still carry the
    # bandwidth key of the removed kernel smoother
    doc = {**kl.build_grid(2, 8).to_json_dict(), "kernel_bandwidth": None}
    back = SphereGrid.from_json_dict(json.loads(canonical_json(doc)))
    assert np.array_equal(back.points, kl.build_grid(2, 8).points)
    # a d = 3 grid on the old spiral would read its values in the wrong cells
    i = np.arange(20)
    z = 1.0 - (2.0 * i + 1.0) / 20
    phi = i * np.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    spiral = {"dim": 3, "points": np.column_stack([r * np.cos(phi), r * np.sin(phi), z]).tolist(),
              "weights": [0.05] * 20, "kernel_bandwidth": 0.9}
    with pytest.raises(ConfigurationError, match="layout"):
        SphereGrid.from_json_dict(spiral)
    # so would a d = 4 grid on the unscrambled Halton points mapped to the
    # sphere through the normal quantile
    sampler = stats.qmc.Halton(d=4, scramble=False)
    sampler.fast_forward(1)
    g = stats.norm.ppf(sampler.random(32))
    halton = {"dim": 4, "points": (g / np.linalg.norm(g, axis=1, keepdims=True)).tolist(),
              "weights": [1 / 32] * 32}
    with pytest.raises(ConfigurationError, match="layout"):
        SphereGrid.from_json_dict(halton)


# ---------------------------------------------------------------------------
# laws in d >= 3
# ---------------------------------------------------------------------------

def kappa_tolerance(sol, sd, alpha):
    """Bisection width plus the distance of rho from 1 and four standard
    errors of the Perron root (sd of |xM|^kappa over all draws), moved to
    kappa through d rho / d kappa = alpha."""
    se = sd / math.sqrt(sol.mc_per_point * sol.grid.n)
    return 1e-3 + (abs(sol.rho_at_kappa - 1.0) + 4.0 * se) / alpha


def test_solve_kappa_similarity_d3():
    env = kl.Environment(dim=3, matrix_law=kl.Similarity(3, (2.0, 0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.GaussianVector(3))
    sol = kl.solve_kappa(env, kl.build_grid(3, 64), (0.2, 3.0), 10_000, substream(60))
    assert abs(sol.kappa - 1.0) <= kappa_tolerance(sol, SD_SCALAR, ALPHA_SCALAR)
    # every row has the law of |c|: eta is uniform up to the noise of about
    # mc draws per cell, sqrt(E|c|^2 / mc), at five standard errors
    eta_dev = float(np.max(np.abs(sol.eta * sol.grid.n - 1.0)))
    assert eta_dev <= 5.0 * math.sqrt(1.5 / 10_000)


def test_solve_kappa_ginibre_d3():
    # i.i.d. N(0, s^2) entries: xM ~ N(0, s^2 I) for unit x, so
    # rho(kappa) = s^kappa 2^(kappa/2) Gamma((3 + kappa)/2) / Gamma(3/2),
    # and s = 0.600290 puts the root at kappa = 1.5
    env = kl.Environment(dim=3, matrix_law=kl.GaussianMatrix(3, scale=0.600290),
                         vector_law=kl.GaussianVector(3))
    sol = kl.solve_kappa(env, kl.build_grid(3, 64), (0.2, 3.0), 10_000, substream(61))
    assert abs(sol.kappa - 1.5) <= 0.03


def test_solve_kappa_d3_law_without_one_step_mixing():
    # half the draws are diag(1.5, .5, .5), which keeps a direction near the
    # first axis there, so the direction law does not mix to uniform in one
    # step and the cells must carry the operator's shape.  Reference: a
    # particle (Feynman-Kac) estimate of log rho(kappa) as the mean log of
    # the average weight |xM|^kappa, with 20 000 directions reweighted and
    # resampled for 50 burn-in and 400 recorded steps, gave rho(0.92) =
    # 0.9987, rho(0.93) = 1.0000 and rho(0.94) = 1.0012 on two seeds each;
    # runs of the same estimate put the root between 0.930 and 0.933.
    law = kl.MatrixMixture(components=(kl.GaussianMatrix(3, scale=0.5),
                                       kl.ConstantMatrix(((1.5, 0.0, 0.0), (0.0, 0.5, 0.0),
                                                          (0.0, 0.0, 0.5)))),
                           weights=(0.5, 0.5))
    env = kl.Environment(dim=3, matrix_law=law, vector_law=kl.GaussianVector(3))
    sol = kl.solve_kappa(env, kl.build_grid(3, 128), (0.2, 3.0), 10_000, substream(62))
    assert abs(sol.kappa - 0.933) <= 0.05


def test_solve_kappa_similarity_d4():
    env = kl.Environment(dim=4, matrix_law=kl.Similarity(4, (2.0, 0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.GaussianVector(4))
    sol = kl.solve_kappa(env, kl.build_grid(4, 32), (0.2, 3.0), 10_000, substream(63))
    assert abs(sol.kappa - 1.0) <= kappa_tolerance(sol, SD_SCALAR, ALPHA_SCALAR)


# ---------------------------------------------------------------------------
# the directional tail constant
# ---------------------------------------------------------------------------

# IEEE edge cases, subnormals, values whose power overflows, and a spread of
# ordinary magnitudes that fills numpy's SIMD loops on both sides of zero
EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                        -1e-310, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308,
                        1.0, -1.0])
SPREAD_VALUES = (np.random.default_rng(50).standard_normal(997)
                 * np.logspace(-300, 300, 997))


def assert_same_bits(new, old):
    """Equal bit for bit, except that a NaN is compared as NaN only and a zero
    must be +0: pow keeps no defined NaN sign, and np.maximum(-0.0, 0.0) is
    -0.0 on some numpy versions and +0.0 on others."""
    nan, zero = np.isnan(old), old == 0.0
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(new == 0.0, zero) and not np.signbit(new[zero]).any()
    rest = ~nan & ~zero
    assert np.array_equal(new[rest].view(np.uint64), old[rest].view(np.uint64))


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 1.99])
@pytest.mark.parametrize("values", [EDGE_VALUES, np.concatenate([EDGE_VALUES, SPREAD_VALUES]),
                                    np.abs(SPREAD_VALUES), -np.abs(SPREAD_VALUES)],
                         ids=["edge", "mixed", "positive", "negative"])
def test_positive_power_equals_clipped_power(values, kappa):
    x = np.tile(values, (3, 1))
    before = x.copy()
    with np.errstate(over="ignore"):
        old_plus = np.maximum(x, 0.0) ** kappa
        old_minus = np.maximum(-x, 0.0) ** kappa
        plus = spectral.positive_power(x, kappa)
        pair = spectral.positive_power(x, kappa, mirrored=True)
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
    assert_same_bits(plus, old_plus)
    assert_same_bits(pair[0], old_plus)
    assert_same_bits(pair[1], old_minus)


def test_goldie_constant_positive_and_symmetric(scalar_env, scalar_solution,
                                                scalar_batch):
    est = kl.goldie_constant(scalar_solution, scalar_env, scalar_batch,
                             np.array([[1.0], [-1.0]]), substream(46))
    assert np.all(est.values > 0)
    spread = abs(est.values[0] - est.values[1])
    assert spread <= 3 * est.aggregate_se / (est.alpha * est.kappa) + 0.05 * est.values.mean()


def test_goldie_constant_matches_direct_tail(scalar_env, scalar_solution,
                                             scalar_batch):
    est = kl.goldie_constant(scalar_solution, scalar_env, scalar_batch,
                             np.array([[1.0]]), substream(47))
    proj = scalar_batch.data[:, 0]
    # plateau of u^kappa P(R > u) at Pareto-extrapolated thresholds
    levels = [u ** scalar_solution.kappa * float(np.mean(proj > u))
              for u in (10.0, 20.0, 40.0)]
    direct = float(np.mean(levels))
    assert abs(est.values[0] - direct) <= 0.25 * direct


@pytest.mark.parametrize("case", ["scalar_reducible", "similarity_grid"])
def test_goldie_constant_blocks_do_not_change_estimate(case, scalar_env, scalar_solution,
                                                       scalar_batch, similarity_env,
                                                       grid2, monkeypatch):
    if case == "scalar_reducible":
        env, sol, batch = scalar_env, scalar_solution, scalar_batch
        dirs = np.array([[1.0], [-1.0]])
    else:
        env = similarity_env
        sol = kl.solve_kappa(env, grid2, (0.2, 3.0), 2000, substream(48))
        batch = kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9), 20_000, substream(48))
        dirs = grid2.points[:4]
    assert sol.reducible_directions == (case == "scalar_reducible")
    monkeypatch.setattr(spectral, "_GOLDIE_BLOCK", 10 ** 9)
    whole = kl.goldie_constant(sol, env, batch, dirs, substream(49), max_pairs=20_000)
    monkeypatch.setattr(spectral, "_GOLDIE_BLOCK", 3000)
    blocked = kl.goldie_constant(sol, env, batch, dirs, substream(49), max_pairs=20_000)
    np.testing.assert_allclose(blocked.values, whole.values, rtol=1e-12, atol=0.0)
    assert blocked.aggregate == pytest.approx(whole.aggregate, rel=1e-12, abs=0.0)
    assert blocked.aggregate_se == pytest.approx(whole.aggregate_se, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def planar_goldie_case(similarity_env, grid2):
    sol = kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), 10_000, substream(60))
    batch = kl.sample_stationary(similarity_env, kl.SeriesConfig(tolerance=1e-9),
                                 200_000, substream(61))
    return sol, batch


def goldie_single_draw(sol, env, batch, v_dirs, rng, max_pairs=200_000):
    """`goldie_constant` with all of its (M, Q) pairs drawn in one call, as
    before they were drawn per tile: the reference for the tile stream.
    Returns K(v), each with its standard error, and the aggregate with its."""
    r = batch.data[:max_pairs]
    n = r.shape[0]
    m, q = kl.sample_pairs(env, rng, n)
    mr = np.einsum("nij,nj->ni", m, r)
    r_one_step = mr + q
    reducible = sol.reducible_directions
    points = v_dirs if reducible else sol.grid.points
    per_sample = np.empty(n)
    rows = np.empty((points.shape[0], n))
    for start in range(0, n, 8192):
        part = slice(start, start + 8192)
        diff = (spectral.positive_power(points @ r_one_step[part].T, sol.kappa)
                - spectral.positive_power(points @ mr[part].T, sol.kappa))
        if reducible:
            rows[:, part] = diff
            per_sample[part] = diff.mean(axis=0)
        else:
            per_sample[part] = (sol.pi / sol.r) @ diff
    scale = sol.alpha * sol.kappa
    agg, agg_se = per_sample.mean(), per_sample.std() / math.sqrt(n)
    if reducible:
        return rows.mean(axis=1) / scale, rows.std(axis=1) / math.sqrt(n) / scale, agg, agg_se
    r_at_v = sol.r[sol.grid.cell_index(v_dirs)]
    return r_at_v * agg / scale, r_at_v * agg_se / scale, agg, agg_se


@pytest.mark.parametrize("case", ["scalar", "planar"])
def test_goldie_tile_stream_agrees_with_one_draw(case, scalar_env, scalar_solution,
                                                 scalar_batch, similarity_env,
                                                 planar_goldie_case):
    if case == "scalar":
        env, sol, batch = scalar_env, scalar_solution, scalar_batch
        dirs = np.array([[1.0], [-1.0]])
    else:
        env, (sol, batch) = similarity_env, planar_goldie_case
        dirs = sol.grid.points[::8]
    est = kl.goldie_constant(sol, env, batch, dirs, substream(62))
    values, values_se, agg, agg_se = goldie_single_draw(sol, env, batch, dirs, substream(62))
    assert abs(est.aggregate - agg) <= 4.0 * agg_se
    assert np.all(np.abs(est.values - values) <= 4.0 * values_se)
    assert est.aggregate_se == pytest.approx(agg_se, rel=0.05)


def test_goldie_working_set_is_one_tile(similarity_env, planar_goldie_case, traced_peak):
    # the per-sample brackets (8 bytes a pair, 1.6 MB at 200 000 pairs), one
    # tile of pairs and one block of brackets; drawing all pairs at once
    # and holding M R and R' for all of them once peaked at 26.0 MB
    sol, batch = planar_goldie_case
    n_pairs = 200_000
    assert batch.count >= n_pairs and sol.grid.n == 32
    peak = traced_peak(lambda: kl.goldie_constant(sol, similarity_env, batch, sol.grid.points[:4],
                                                  substream(63), max_pairs=n_pairs))
    assert peak <= n_pairs * 8 + 6 * 2 ** 20
