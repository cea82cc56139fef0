import json
import math

import numpy as np
import pytest
from scipy import optimize

import kestenlab as kl
from kestenlab.batches import SampleBatch, canonical_json, from_json
from kestenlab.env_models import ConfigurationError
from kestenlab.rng import substream
from kestenlab.tails import (RegularVariationError, SpectralMeasure, TailRegimeError,
                             _extrapolate, exceedance_curve, summarize_tails)


@pytest.fixture(scope="module")
def sim_batch(similarity_env):
    return kl.sample_stationary(similarity_env,
                                kl.SeriesConfig(tolerance=1e-9), 300_000, substream(310))


def pareto_batch(index: float, count: int, seed: int) -> SampleBatch:
    u = substream(seed).random(count)
    return SampleBatch(data=(u ** (-1.0 / index)).reshape(-1, 1), kind="synthetic")


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

def test_hill_exact_pareto():
    est = kl.hill_tail_index(pareto_batch(1.0, 200_000, 50), 0.01)
    assert est.ci_low <= 1.0 <= est.ci_high
    assert abs(est.index - 1.0) < 0.1


def test_hill_matches_solved_kappa(scalar_batch, scalar_solution):
    est = kl.hill_tail_index(scalar_batch, 0.01)
    assert abs(est.index - scalar_solution.kappa) <= 0.1


def test_hill_flags_bounded_support():
    """On bounded support the index blows up as the tail fraction shrinks;
    on a power law it stays put."""
    def spread(batch):
        indices = [kl.hill_tail_index(batch, f).index for f in (0.005, 0.01, 0.02, 0.05)]
        return max(indices) / min(indices)

    uniform = SampleBatch(data=substream(51).random(200_000).reshape(-1, 1),
                          kind="synthetic")
    assert spread(uniform) > 2.0
    assert spread(pareto_batch(1.0, 200_000, 52)) <= 2.0


def test_hill_rejects_massive_ties():
    data = np.ones((20_000, 1))
    data[:100, 0] = 2.0
    with pytest.raises(TailRegimeError):
        kl.hill_tail_index(SampleBatch(data=data, kind="synthetic"), 0.05)


def test_hill_preconditions():
    small = pareto_batch(1.0, 5000, 53)
    with pytest.raises(ConfigurationError):
        kl.hill_tail_index(small, 0.01)
    with pytest.raises(ConfigurationError):
        kl.hill_tail_index(pareto_batch(1.0, 20_000, 54), 0.2)


# ---------------------------------------------------------------------------
# direct directional constants: the plateau of the exceedance curve
# ---------------------------------------------------------------------------

def test_direct_k_symmetry(scalar_batch, scalar_solution):
    norms = scalar_batch.norms()
    thresholds = np.quantile(norms, [0.98, 0.99, 0.995])
    x = scalar_batch.data[:, 0]
    plus, _ = exceedance_curve(x, scalar_solution.kappa, thresholds).plateau()
    minus, _ = exceedance_curve(-x, scalar_solution.kappa, thresholds).plateau()
    n_exc = (norms > thresholds[0]).sum()
    se = 3 * plus / math.sqrt(n_exc)
    assert abs(plus - minus) <= se


def test_direct_k_scaling_doubles_at_index_one(scalar_batch, scalar_solution):
    thresholds = np.quantile(scalar_batch.norms(), [0.98, 0.99, 0.995])
    x = scalar_batch.data[:, 0]
    base, _ = exceedance_curve(x, 1.0, thresholds).plateau()
    doubled, _ = exceedance_curve(2.0 * x, 1.0, 2.0 * thresholds).plateau()
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_direct_k_no_plateau_error():
    gaussian = substream(55).standard_normal(200_000)
    with pytest.raises(TailRegimeError, match="no plateau"):
        exceedance_curve(gaussian, 1.0, [2.0, 3.0, 4.0]).plateau()


def test_direct_k_threshold_range(scalar_batch):
    x = scalar_batch.data[:, 0]
    with pytest.raises(TailRegimeError, match="outside the sample range"):
        exceedance_curve(x, 1.0, [1e9]).plateau()
    # a threshold at the sample maximum has no exceedance either
    with pytest.raises(TailRegimeError, match="outside the sample range"):
        exceedance_curve(x, 1.0, [1.0, float(x.max())]).plateau()
    with pytest.raises(ConfigurationError):
        exceedance_curve(x, 1.0, [0.0, 1.0])


# ---------------------------------------------------------------------------
# angular tail measure
# ---------------------------------------------------------------------------

def test_sigma_scalar_symmetric(scalar_batch, grid1):
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, 1.0, True)
    assert sigma.total_mass > 0
    assert sigma.exceedances >= 500
    # both signs carry half the mass, up to exceedance-count noise
    se = 3 * sigma.total_mass / math.sqrt(sigma.exceedances)
    assert abs(sigma.mass[0] - sigma.mass[1]) <= se
    assert sigma.total_mass == pytest.approx(float(sigma.mass.sum()), abs=1e-15)


def test_pooled_sigma_is_antipodally_symmetric(scalar_batch, sim_batch, grid1):
    # a symmetric Q averages the cell counts of R and -R, so sigma(A) = sigma(-A)
    for batch, grid in ((scalar_batch, grid1), (sim_batch, kl.build_grid(2, 32))):
        u = float(np.quantile(batch.norms(), 0.99))
        sigma = kl.estimate_sigma(batch, u, grid, 1.0, True)
        antipode = grid.cell_index(-grid.points)
        assert sorted(antipode) == list(range(grid.n))
        assert np.array_equal(sigma.mass[antipode], sigma.mass)
        assert sigma.exceedances == int(np.sum(batch.norms() > u))


def test_sigma_isotropic_is_uniform(sim_batch):
    # ~3000 exceedances: a 16-cell grid keeps per-cell counts near 200,
    # where the rotational invariance shows within the 20% band
    grid = kl.build_grid(2, 16)
    u = float(np.quantile(sim_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(sim_batch, u, grid, 1.0, True)
    mean_mass = sigma.mass.mean()
    assert np.all(np.abs(sigma.mass - mean_mass) <= 0.2 * mean_mass)


def test_sigma_json_round_trip(scalar_batch, grid1):
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, 1.0, True)
    text = canonical_json(sigma)
    back = from_json(SpectralMeasure, json.loads(text))
    assert canonical_json(back) == text


def test_sigma_requires_enough_exceedances(scalar_batch, grid1):
    with pytest.raises(TailRegimeError):
        kl.estimate_sigma(scalar_batch, 1e9, grid1, 1.0, True)


def test_sigma_refuses_unsafe_exponents(scalar_batch, grid1):
    with pytest.raises(RegularVariationError):
        kl.estimate_sigma(scalar_batch, 10.0, grid1, 2.0, True)
    with pytest.raises(RegularVariationError):
        kl.estimate_sigma(scalar_batch, 10.0, grid1, 1.0, False)
    # non-integer exponents need no symmetry
    kl.estimate_sigma(scalar_batch, 10.0, grid1, 1.4, False)


def test_sigma_invariance_exact_for_deterministic_rotation(grid2):
    theta = 3 * (2 * np.pi / 32)  # rotation by three grid cells
    rot = ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(rot),
                         vector_law=kl.GaussianVector(2))
    sigma = kl.SpectralMeasure(grid=grid2, mass=np.full(32, 1.0 / 32),
                               threshold_used=1.0, total_mass=1.0, kappa=1.0,
                               sample_count=0, exceedances=0)
    residual = kl.check_sigma_invariance(sigma, env, 500, substream(56))
    assert residual <= 1e-12


def test_sigma_invariance_scalar(scalar_batch, scalar_solution, scalar_env, grid1):
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, scalar_solution.kappa, True)
    residual = kl.check_sigma_invariance(sigma, scalar_env, 10_000, substream(57))
    assert residual <= 0.10


def test_sigma_invariance_rejects_zero_mass(scalar_env, grid1):
    sigma = kl.SpectralMeasure(grid=grid1, mass=np.zeros(2), threshold_used=1.0,
                               total_mass=0.0, kappa=1.0, sample_count=0,
                               exceedances=0)
    with pytest.raises(ConfigurationError):
        kl.check_sigma_invariance(sigma, scalar_env, 500, substream(58))


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------

def test_product_structure_scalar(scalar_batch, grid1):
    norms = scalar_batch.norms()
    rep = kl.check_product_structure(scalar_batch, float(np.quantile(norms, 0.98)),
                                     float(np.quantile(norms, 0.995)), grid1)
    assert rep.angular_distance <= 0.05
    assert abs(rep.radial_index - 1.0) <= 0.1


def test_product_structure_synthetic_product_law(grid2):
    # direction from a fixed angular law, radius an independent Pareto(1)
    rng = substream(59)
    n = 1_000_000
    angles = rng.choice(np.array([0.3, 1.2, 2.8, 4.4]), size=n,
                        p=[0.4, 0.3, 0.2, 0.1])
    radii = rng.random(n) ** -1.0
    data = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    batch = SampleBatch(data=data, kind="synthetic")
    norms = batch.norms()
    rep = kl.check_product_structure(batch, float(np.quantile(norms, 0.98)),
                                     float(np.quantile(norms, 0.995)), grid2)
    assert rep.angular_distance <= 0.02
    assert abs(rep.radial_index - 1.0) <= 0.05


def test_product_structure_light_tail_control(grid2):
    gaussian = SampleBatch(data=substream(60).standard_normal((400_000, 2)),
                           kind="synthetic")
    norms = gaussian.norms()
    rep = kl.check_product_structure(gaussian, float(np.quantile(norms, 0.98)),
                                     float(np.quantile(norms, 0.995)), grid2)
    # Gaussian radii are far lighter than any power law near the index
    assert rep.radial_index > 3.0


def test_product_structure_validation(scalar_batch, grid1):
    with pytest.raises(ConfigurationError):
        kl.check_product_structure(scalar_batch, 5.0, 5.0, grid1)


# ---------------------------------------------------------------------------
# tail functionals t^(-kappa) E f(tR): the exceedance curve at u = 1/t
# ---------------------------------------------------------------------------

T_GRID = np.array([0.002, 0.004, 0.008, 0.016])


def test_tail_functional_ball_complement(scalar_batch, scalar_solution, grid1):
    """f = 1{|x| > 1}: the radial curve's limit is the mass of the tail
    measure outside the unit ball, sigma's total mass / kappa."""
    kappa = scalar_solution.kappa
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, kappa, True)
    expected = sigma.total_mass / kappa
    # at d = 1 the half-lines +-1 split the ball complement
    polar = sigma.tail_constant([1.0]) + sigma.tail_constant([-1.0])
    assert polar == pytest.approx(expected, rel=1e-12)
    limit = exceedance_curve(scalar_batch.norms(), kappa, 1.0 / T_GRID).limit()
    assert abs(limit - expected) <= 0.15 * expected


def test_tail_functional_half_space_matches_direct(scalar_batch, scalar_solution, grid1):
    """f = 1{<v, x> > 1}: the extrapolated limit, the plateau and sigma's
    polar form of K(v) agree."""
    kappa = scalar_solution.kappa
    x = scalar_batch.data[:, 0]
    thresholds = np.quantile(scalar_batch.norms(), [0.98, 0.99, 0.995])
    direct, _ = exceedance_curve(x, kappa, thresholds).plateau()
    limit = exceedance_curve(x, kappa, 1.0 / T_GRID).limit()
    assert abs(limit - direct) <= 0.3 * direct
    u = float(np.quantile(scalar_batch.norms(), 0.99))
    sigma = kl.estimate_sigma(scalar_batch, u, grid1, kappa, True)
    assert abs(sigma.tail_constant([1.0]) - direct) <= 0.3 * direct


def test_tail_functional_zero_function(scalar_batch):
    """Thresholds beyond the sample: every level is zero, and so is the limit."""
    curve = exceedance_curve(scalar_batch.norms(), 1.0, [1e9, 2e9, 4e9])
    assert np.all(curve.counts == 0) and np.all(curve.levels == 0.0)
    assert curve.limit() == 0.0


def test_exceedance_curve_levels(scalar_batch, scalar_solution):
    """Counts over sorted thresholds and levels u^kappa * (count / n), the
    expression summarize_tails records."""
    kappa = scalar_solution.kappa
    norms = scalar_batch.norms()
    thresholds = np.quantile(norms, [0.995, 0.98, 0.99])
    curve = exceedance_curve(norms, kappa, thresholds)
    assert np.all(np.diff(curve.thresholds) > 0)
    want = np.array([(norms > u).sum() for u in np.sort(thresholds)])
    assert np.array_equal(curve.counts, want)
    assert np.array_equal(curve.levels, np.sort(thresholds) ** kappa * (want / norms.size))
    assert np.all(np.diff(curve.counts) <= 0)


def test_scaling_law_of_exceedances(scalar_batch, scalar_solution):
    """u^kappa P(|R| > u) is threshold-stable: compare u and 2u at 3 SE."""
    kappa = scalar_solution.kappa
    norms = scalar_batch.norms()
    n = norms.shape[0]
    u = float(np.quantile(norms, 0.98))
    p1 = float(np.mean(norms > u))
    p2 = float(np.mean(norms > 2 * u))
    level1 = u ** kappa * p1
    level2 = (2 * u) ** kappa * p2
    se = math.hypot(u ** kappa * math.sqrt(p1 / n), (2 * u) ** kappa * math.sqrt(p2 / n))
    assert abs(level1 - level2) <= 3 * se


def test_m_action_leaves_tail_functional_invariant(scalar_env, scalar_batch,
                                                   scalar_solution):
    """Averaging f over the matrix action preserves the tail functional,
    here f = 1{1 < |x| <= 8}: t^(-kappa) P(1 < t|R| <= 8) is the level of
    the radial curve at u = 1/t minus 8^(-kappa) times its level at 8/t."""
    kappa = scalar_solution.kappa
    t_grid = [0.002, 0.004, 0.008]
    inner = exceedance_curve(scalar_batch.norms(), kappa, 1.0 / np.array(t_grid))
    outer = exceedance_curve(scalar_batch.norms(), kappa, 8.0 / np.array(t_grid))
    base_values = inner.levels - 8.0 ** -kappa * outer.levels
    m = scalar_env.matrix_law.sample(substream(61), 256)[:, 0, 0]
    data = scalar_batch.data[:, 0]
    values = []
    for t in t_grid:
        fx = np.zeros(data.shape[0])
        for mk in m:
            scaled = np.abs(mk * t * data)
            fx += (scaled > 1.0) & (scaled <= 8.0)
        values.append(t ** -kappa * float(np.mean(fx / m.size)))
    mixed = float(np.mean(values))
    plain = float(np.mean(base_values))
    assert abs(mixed - plain) <= 0.15 * plain


def test_summarize_tails(scalar_batch, scalar_solution, grid1):
    thresholds = np.quantile(scalar_batch.norms(), [0.98, 0.99, 0.995])
    estimate = summarize_tails(scalar_batch, scalar_solution.kappa, grid1.points,
                               thresholds)
    assert estimate.hill.index > 0
    assert estimate.radial.levels.shape == (3,)
    assert list(estimate.directional) == ["(-1)", "(1)"]
    doc = estimate.to_json_dict()
    assert set(doc) >= {"hill_index", "thresholds", "radial_scaled_freq"}
    x = scalar_batch.data[:, 0]
    assert doc["directional_scaled_freq"]["(-1)"] == exceedance_curve(
        -x, scalar_solution.kappa, thresholds).levels.tolist()


def brentq_extrapolate(t, v):
    """The power-law extrapolation with scipy's root-finder, as a reference."""
    d1, d2 = v[1] - v[0], v[2] - v[1]
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return float(v[0]), None

    def gap(gamma):
        return (t[1] ** gamma - t[0] ** gamma) / (t[2] ** gamma - t[1] ** gamma) - d1 / d2

    try:
        gamma = optimize.brentq(gap, 1e-3, 10.0)
    except ValueError:
        return float(v[0]), None
    return float(v[0] - d1 / (t[1] ** gamma - t[0] ** gamma) * t[0] ** gamma), gamma


def test_extrapolate_matches_brentq():
    rng = np.random.default_rng(330)
    fitted = 0
    for _ in range(300):
        t = np.sort(rng.uniform(0.01, 1.0, 3))
        v = 2.0 + rng.normal() * t ** rng.uniform(0.05, 6.0) + 1e-3 * rng.normal(size=3)
        (limit, gamma), (want_limit, want_gamma) = _extrapolate(t, v), brentq_extrapolate(t, v)
        if want_gamma is None:
            assert gamma is None and limit == want_limit
            continue
        fitted += 1
        assert abs(gamma - want_gamma) <= 1e-9
        assert abs(limit - want_limit) <= 1e-9 * max(1.0, abs(want_limit))
    assert fitted >= 100
