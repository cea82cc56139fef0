import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kestenlab as kl
from kestenlab.cli import canonical_json
from kestenlab.env_models import ConfigurationError, operator_norm
from kestenlab.rng import substream
from kestenlab.spectral import (COLUMN_ACTION, ROW_ACTION, SpectralBracketError,
                                SpectralSolution, SphereGrid, _perron,
                                build_operator_draws, fixed_point_residuals)

ALPHA_SCALAR = math.log(2.0) / 3.0  # two-atom mean of M^kappa log M at kappa = 1


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_dim1_is_sign_pair():
    g = kl.build_grid(1, 99)
    assert np.array_equal(g.points, np.array([[-1.0], [1.0]]))
    assert np.array_equal(g.weights, np.array([0.5, 0.5]))


def test_grid_dim2_uniform_angles():
    g = kl.build_grid(2, 8)
    assert g.n == 8
    angles = np.arctan2(g.points[:, 1], g.points[:, 0])
    spacing = np.diff(np.sort(np.mod(angles, 2 * np.pi)))
    assert np.allclose(spacing, np.pi / 4, atol=1e-12)
    assert np.allclose(g.weights, 1 / 8)


def test_grid_dim3_spiral_balance():
    g = kl.build_grid(3, 100)
    assert g.n == 100
    assert np.linalg.norm(g.weights @ g.points) < 0.05
    assert g.kernel_bandwidth is not None and g.kernel_bandwidth > 0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=64))
@settings(max_examples=25, deadline=None)
def test_grid_invariants(dim, resolution):
    g = kl.build_grid(dim, resolution)
    assert np.allclose(np.linalg.norm(g.points, axis=1), 1.0, atol=1e-12)
    assert abs(float(g.weights.sum()) - 1.0) <= 1e-10
    assert np.all(g.weights >= 0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        kl.build_grid(0, 8)
    with pytest.raises(ConfigurationError):
        kl.build_grid(2, 1)


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
    draws = build_operator_draws(similarity_env, grid2, ROW_ACTION, 500, substream(32))
    out = draws.matrix(0.0) @ np.ones(grid2.n)
    assert np.array_equal(out, np.ones(grid2.n))


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


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_rho_scalar_benchmark(scalar_env, grid1):
    rho1, _ = kl.spectral_radius(1.0, scalar_env, grid1, 20_000, substream(35))
    assert abs(rho1 - 1.0) < 0.02
    rho_half, _ = kl.spectral_radius(0.5, scalar_env, grid1, 20_000, substream(36))
    expected = (1 / 3) * math.sqrt(2.0) + (2 / 3) / math.sqrt(2.0)
    assert abs(rho_half - expected) < 0.02


def test_rho_deterministic_similarity():
    env = kl.Environment(dim=2, matrix_law=kl.Similarity(2, (0.8,), (1.0,)),
                         vector_law=kl.GaussianVector(2))
    grid = kl.build_grid(2, 16)
    for kappa in (0.5, 1.0, 2.0):
        rho, lead = kl.spectral_radius(kappa, env, grid, 400, substream(37))
        assert rho == pytest.approx(0.8 ** kappa, rel=1e-9)
        assert np.all(lead.values > 0)


def test_perron_periodic_matrix():
    # a cyclic chain of period 3: the eigenvalues 24^(1/3) * (cube roots of
    # unity) all share the Perron root's modulus
    a = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [4.0, 0.0, 0.0]])
    rho, r, eta, reducible = _perron(a, kl.build_grid(2, 3))
    assert rho == pytest.approx(24.0 ** (1 / 3), rel=1e-12)
    assert not reducible
    assert np.all(r > 0) and np.all(eta > 0)
    assert np.allclose(a @ r, rho * r, rtol=1e-12)
    assert np.allclose(eta @ a, rho * eta, rtol=1e-12)
    assert r.max() == 1.0 and eta.sum() == pytest.approx(1.0, abs=1e-15)


def test_rho_log_convexity_with_shared_draws(scalar_env, grid1):
    draws = build_operator_draws(scalar_env, grid1, ROW_ACTION, 20_000, substream(38))
    rhos = {}
    for kappa in (0.5, 1.0, 1.5):
        rhos[kappa], _ = kl.spectral_radius(kappa, scalar_env, grid1, 0,
                                            substream(38), draws=draws)
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
    assert np.all(sol.r.values > 0)
    assert abs(float(sol.r.values @ sol.eta.masses) - 1.0) <= 1e-8
    assert np.allclose(sol.pi.masses, sol.r.values * sol.eta.masses, atol=1e-12)


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
    assert np.all(sol.r.values > 0)
    assert np.all(sol.eta.masses > 0)
    assert abs(float(sol.r.values @ sol.eta.masses) - 1.0) <= 1e-8


def test_solve_kappa_similarity(similarity_env, grid2):
    sol = kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), 5000, substream(41, 2))
    assert abs(sol.kappa - 1.0) <= 0.05
    assert not sol.reducible_directions
    m = similarity_env.matrix_law.sample(substream(39), 50_000)
    assert abs(float(np.mean(operator_norm(m) ** sol.kappa)) - 1.0) <= 0.02
    assert abs(sol.alpha - ALPHA_SCALAR) <= 0.1 * ALPHA_SCALAR


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
    text = canonical_json(scalar_solution.to_json_dict())
    back = SpectralSolution.from_json_dict(json.loads(text))
    assert canonical_json(back.to_json_dict()) == text


def test_grid_json_round_trip():
    grid = kl.build_grid(3, 20)
    back = SphereGrid.from_json_dict(json.loads(canonical_json(grid.to_json_dict())))
    assert np.array_equal(back.points, grid.points)
    assert np.array_equal(back.weights, grid.weights)
    assert back.kernel_bandwidth == grid.kernel_bandwidth


# ---------------------------------------------------------------------------
# the directional tail constant
# ---------------------------------------------------------------------------

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
