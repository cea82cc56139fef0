import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import kestenlab as kl
from kestenlab.env_models import ConfigurationError
from kestenlab.env_models import sample_pairs
from kestenlab.recursion import (NonContractionError, TrajectoryOverflowError,
                                 _forward_steps, _stationary_chunk)
from kestenlab.rng import as_generator, substream

BETA_SCALAR = -math.log(2.0) / 3.0  # (1/3) log 2 + (2/3) log (1/2)


def constant_env(matrix, vector):
    return kl.Environment(dim=len(vector), matrix_law=kl.ConstantMatrix(matrix),
                          vector_law=kl.ConstantVector(vector))


@dataclass
class ForwardPaths:
    """states[r, k] = R_k for replica r (k = 0 is the start); sums[r, k] = S_k."""

    states: np.ndarray
    sums: np.ndarray


def iterate_forward(env, cfg) -> ForwardPaths:
    """All replicas of (R_k, S_k), k = 0..n_steps, from the configured seed."""
    states = np.empty((cfg.replicas, cfg.n_steps + 1, env.dim))
    sums = np.empty((cfg.replicas, cfg.n_steps + 1, env.dim))
    states[:, 0] = cfg.start_x
    sums[:, 0] = 0.0
    for k, r, s in _forward_steps(env, cfg):
        states[:, k] = r.T
        sums[:, k] = s.T
    return ForwardPaths(states=states, sums=sums)


# ---------------------------------------------------------------------------
# forward iteration
# ---------------------------------------------------------------------------

def test_forward_zero_matrix_freezes_at_q():
    env = constant_env(((0.0, 0.0), (0.0, 0.0)), (2.0, -1.0))
    paths = iterate_forward(env, kl.PathConfig(n_steps=5, start_x=(9.0, 9.0),
                                               replicas=3, seed=1))
    q = np.array([2.0, -1.0])
    for k in range(1, 6):
        assert np.array_equal(paths.states[:, k], np.broadcast_to(q, (3, 2)))
        assert np.array_equal(paths.sums[:, k], np.broadcast_to(k * q, (3, 2)))


def test_forward_geometric_contraction():
    env = constant_env(((0.5, 0.0), (0.0, 0.5)), (1.0, 0.0))
    paths = iterate_forward(env, kl.PathConfig(n_steps=30, start_x=(0.0, 0.0), seed=2))
    for n in (1, 5, 30):
        expected = (2.0 - 2.0 ** (1 - n))
        assert paths.states[0, n, 0] == pytest.approx(expected, abs=1e-12)
        assert paths.states[0, n, 1] == 0.0


def test_forward_replay_is_bit_identical(scalar_env):
    cfg = kl.PathConfig(n_steps=64, start_x=(0.5,), replicas=7, seed=3)
    a = iterate_forward(scalar_env, cfg)
    b = iterate_forward(scalar_env, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.sums, b.sums)


def test_forward_overflow_aborts():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(TrajectoryOverflowError):
        iterate_forward(env, kl.PathConfig(n_steps=1200, start_x=(1.0, 0.0), seed=4))


def test_forward_matches_stationary_law(scalar_env):
    """Forward chain at n = 200 vs the backward-series sampler: same law."""
    n = 200
    paths = iterate_forward(scalar_env, kl.PathConfig(
        n_steps=n, start_x=(0.0,), replicas=100_000, seed=5))
    forward_final = paths.states[:, n, 0]
    backward = kl.sample_stationary(scalar_env, kl.SeriesConfig(truncation=n, seed=6),
                                    100_000)
    ks = stats.ks_2samp(forward_final, backward.data[:, 0]).statistic
    assert ks < 0.02


# ---------------------------------------------------------------------------
# stationary sampling
# ---------------------------------------------------------------------------

def test_series_zero_matrix_collapses_to_first_q():
    env = kl.Environment(dim=1, matrix_law=kl.ConstantMatrix(((0.0,),)),
                         vector_law=kl.TwoPointVector((1.0,), (-2.0,), 0.5))
    for truncation in (1, 7):
        batch = kl.sample_stationary(env, kl.SeriesConfig(truncation=truncation, seed=7), 64)
        direct = kl.sample_q(env, substream(7, 0), 64)
        assert np.array_equal(batch.data, direct)


def test_series_geometric_truncation_error():
    env = constant_env(((0.5, 0.0), (0.0, 0.5)), (1.0, 0.0))
    limit = np.array([2.0, 0.0])
    errors = []
    for n in (2, 4, 8, 16):
        batch = kl.sample_stationary(env, kl.SeriesConfig(truncation=n, seed=8), 1)
        err = np.linalg.norm(batch.data[0] - limit)
        assert err <= 2.0 ** (1 - n) + 1e-12
        errors.append(err)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_series_symmetric_mean_is_centered(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9, seed=9),
                                 1_000_000)
    x = batch.data[:, 0]
    se = float(np.std(x) / math.sqrt(len(x)))
    assert abs(float(np.mean(x))) <= 3 * se


def test_series_adaptive_depth_recorded(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-6, seed=10), 5000)
    deep = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-12, seed=10), 5000)
    assert batch.info["truncation"] < deep.info["truncation"]
    assert 1 <= batch.info["mean_depth"] <= batch.info["truncation"]


def test_series_noncontraction_error():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(NonContractionError):
        kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9, seed=11, max_terms=500), 8)


def test_series_thread_count_does_not_change_draws(scalar_env):
    cfg = kl.SeriesConfig(tolerance=1e-9, seed=12)
    a = kl.sample_stationary(scalar_env, cfg, 300_000, threads=1)
    b = kl.sample_stationary(scalar_env, cfg, 300_000, threads=4)
    assert np.array_equal(a.data, b.data)


def per_lane_series(env, count, cfg, rng):
    """Reference backward series: one (d,) vector and one (d, d) product per
    lane, renormalized every 50 steps, each lane retired by its log-norm."""
    d = env.dim
    out = np.zeros((count, d))
    depths = np.zeros(count, dtype=np.int64)
    r = np.zeros((count, d))
    prod = np.broadcast_to(np.eye(d), (count, d, d)).copy()
    log_scale = np.zeros(count)
    idx = np.arange(count)
    adaptive = cfg.tolerance is not None
    log_tol = math.log(cfg.tolerance) if adaptive else -math.inf
    log_q99 = None
    n = 0
    while idx.size:
        n += 1
        m, q = sample_pairs(env, rng, idx.size)
        if log_q99 is None:
            q99 = float(np.quantile(np.linalg.norm(q, axis=1), 0.99))
            log_q99 = math.log(q99) if q99 > 0 else -math.inf
        r += np.exp(log_scale)[:, None] * np.einsum("nij,nj->ni", prod, q)
        prod = np.matmul(prod, m)
        if adaptive:
            with np.errstate(divide="ignore"):
                log_norm = np.log(np.linalg.norm(prod, axis=(1, 2)))
            retire = log_scale + log_norm + log_q99 < log_tol
        else:
            retire = np.full(idx.size, n >= cfg.truncation)
        out[idx[retire]] = r[retire]
        depths[idx[retire]] = n
        keep = ~retire
        idx, r, prod, log_scale = idx[keep], r[keep], prod[keep], log_scale[keep]
        if n % 50 == 0 and idx.size:
            norms = np.maximum(np.linalg.norm(prod, axis=(1, 2)), 1e-290)
            prod /= norms[:, None, None]
            log_scale += np.log(norms)
    return out, depths


def similarity_env(dim):
    return kl.Environment(dim=dim, matrix_law=kl.Similarity(dim, (2.0, 0.5), (1 / 3, 2 / 3)),
                          vector_law=kl.GaussianVector(dim), q_symmetric=True)


@pytest.mark.parametrize("env_name", ["scalar", "similarity_2d", "similarity_3d"])
@pytest.mark.parametrize("cfg", [kl.SeriesConfig(tolerance=1e-9),
                                 kl.SeriesConfig(truncation=120)],
                         ids=["adaptive", "fixed"])
def test_tile_matches_per_lane_series(scalar_env, env_name, cfg):
    env = scalar_env if env_name == "scalar" else similarity_env(int(env_name[-2]))
    ref_values, ref_depths = per_lane_series(env, 3000, cfg, substream(24, 3))
    values, depths = _stationary_chunk(env, 3000, cfg, substream(24, 3))
    assert np.array_equal(depths, ref_depths)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=0.0)


def reference_tile(env, count, cfg, rng):
    """The backward-series tile as written before the product walker was
    shared: d scalar rows per product row, R and Q in (lanes, d) layout."""
    d = env.dim
    dd = d * d
    log_row, scale_row, thr_row, lane_row = dd + d, dd + d + 1, dd + d + 2, dd + d + 3
    state = np.zeros((dd + d + 4, count))
    state[d:d + dd:d + 1] = 1.0
    state[scale_row] = 1.0
    state[lane_row] = np.arange(count)
    out = np.zeros((count, d))
    depths = np.zeros(count, dtype=np.int64)
    nxt = np.empty((dd, count))
    acc_buf, tmp_buf = np.empty(count), np.empty(count)
    adaptive = cfg.tolerance is not None
    log_tol = math.log(cfg.tolerance) if adaptive else -math.inf
    log_q99 = None

    def refresh_threshold(state):
        with np.errstate(over="ignore"):
            np.exp(2.0 * (log_tol - log_q99 - state[log_row]), out=state[thr_row])

    n = 0
    with np.errstate(under="ignore"):
        while state.shape[1]:
            n += 1
            lanes = state.shape[1]
            m, q = sample_pairs(env, rng, lanes)
            if log_q99 is None:
                q99 = float(np.quantile(np.linalg.norm(q, axis=1), 0.99))
                log_q99 = math.log(q99) if q99 > 0 else -math.inf
                if adaptive:
                    refresh_threshold(state)
            r, prod = state[:d], state[d:d + dd]
            m_rows = m.reshape(lanes, dd).T
            tmp = tmp_buf[:lanes]
            for i in range(d):
                row = prod[i * d:(i + 1) * d]
                acc = np.multiply(row[0], q[:, 0], out=acc_buf[:lanes])
                for j in range(1, d):
                    acc += np.multiply(row[j], q[:, j], out=tmp)
                acc *= state[scale_row]
                r[i] += acc
                for k in range(d):
                    cell = np.multiply(row[0], m_rows[k], out=nxt[i * d + k, :lanes])
                    for j in range(1, d):
                        cell += np.multiply(row[j], m_rows[j * d + k], out=tmp)
            prod[...] = nxt[:, :lanes]
            retire = None
            if adaptive:
                retire = np.einsum("ij,ij->j", prod, prod) < state[thr_row]
            elif n >= cfg.truncation:
                retire = np.ones(lanes, dtype=bool)
            if retire is not None and retire.any():
                done = np.flatnonzero(retire)
                lane = state[lane_row, done].astype(np.intp)
                out[lane] = state[:d, done].T
                depths[lane] = n
                state = state.take(np.flatnonzero(~retire), axis=1)
            if n % 50 == 0 and state.shape[1]:
                prod = state[d:d + dd]
                safe = np.maximum(np.sqrt(np.einsum("ij,ij->j", prod, prod)), 1e-290)
                prod /= safe
                state[log_row] += np.log(safe)
                np.exp(state[log_row], out=state[scale_row])
                if adaptive:
                    refresh_threshold(state)
    return out, depths


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cfg", [kl.SeriesConfig(tolerance=1e-9, seed=27),
                                 kl.SeriesConfig(truncation=120, seed=27)],
                         ids=["adaptive", "fixed"])
def test_stationary_bit_identical_to_reference_tile(scalar_env, dim, cfg):
    # 2000 draws fill one tile, drawn from substream(seed, 0)
    env = scalar_env if dim == 1 else similarity_env(dim)
    ref_values, ref_depths = reference_tile(env, 2000, cfg, substream(27, 0))
    batch = kl.sample_stationary(env, cfg, 2000)
    assert np.array_equal(batch.data, ref_values)
    assert batch.info["truncation"] == ref_depths.max()
    assert batch.info["mean_depth"] == ref_depths.mean()


def test_fixed_truncation_expanding_law_raises():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(NonContractionError, match="floating range"):
        kl.sample_stationary(env, kl.SeriesConfig(truncation=1100, seed=28), 4)


def test_series_retires_every_lane_at_once_without_q():
    env = kl.Environment(dim=2, matrix_law=kl.Similarity(2, (2.0, 0.5), (0.5, 0.5)),
                         vector_law=kl.ConstantVector((0.0, 0.0)))
    batch = kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9, seed=25), 100)
    assert np.array_equal(batch.data, np.zeros((100, 2)))
    assert batch.info["truncation"] == 1


def test_series_depth_quantiles_recorded(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9, seed=26), 5000)
    q = batch.info["depth_quantiles"]
    assert list(q) == ["0.5", "0.9", "0.99"]
    assert 1 <= q["0.5"] <= q["0.9"] <= q["0.99"] <= batch.info["truncation"]


def test_series_config_validation():
    with pytest.raises(ConfigurationError):
        kl.SeriesConfig()
    with pytest.raises(ConfigurationError):
        kl.SeriesConfig(truncation=5, tolerance=1e-9)
    with pytest.raises(ConfigurationError):
        kl.SeriesConfig(tolerance=-1.0)


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def test_lyapunov_exact_for_similarity():
    env = kl.Environment(dim=2, matrix_law=kl.Similarity(2, (0.7,), (1.0,)),
                         vector_law=kl.GaussianVector(2))
    est = kl.lyapunov(env, 400, 3, substream(13))
    assert est.beta == pytest.approx(math.log(0.7), abs=1e-6)
    assert est.contractive


def test_lyapunov_scalar_benchmark(scalar_env):
    est = kl.lyapunov(scalar_env, 10_000, 100, substream(14))
    assert abs(est.beta - BETA_SCALAR) <= 3 * est.std_error


def test_lyapunov_flags_expansion():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (0.0, 0.0))
    est = kl.lyapunov(env, 200, 2, substream(15))
    assert est.beta == pytest.approx(math.log(2.0), abs=1e-9)
    assert not est.contractive


def reference_lyapunov(env, n_steps, replicas, rng):
    """Per-replica log-norm growth with one matmul per step, renormalized
    every 50 steps: the loop the product walker replaced."""
    rng = as_generator(rng)
    d = env.dim
    prod = np.broadcast_to(np.eye(d), (replicas, d, d)).copy()
    log_scale = np.zeros(replicas)
    for k in range(1, n_steps + 1):
        prod = np.matmul(prod, env.matrix_law.sample(rng, replicas))
        if k % 50 == 0:
            safe = np.maximum(np.linalg.norm(prod, axis=(1, 2)), 1e-290)
            prod /= safe[:, None, None]
            log_scale += np.log(safe)
    per_replica = (log_scale + np.log(np.linalg.norm(prod, ord=2, axis=(1, 2)))) / n_steps
    return float(np.mean(per_replica)), float(np.std(per_replica) / math.sqrt(replicas))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lyapunov_matches_reference_loop(scalar_env, dim):
    env = scalar_env if dim == 1 else kl.Environment(
        dim=dim, matrix_law=kl.GaussianMatrix(dim, scale=0.6), vector_law=kl.GaussianVector(dim))
    est = kl.lyapunov(env, 1030, 20, substream(29, dim))
    beta, se = reference_lyapunov(env, 1030, 20, substream(29, dim))
    assert est.beta == pytest.approx(beta, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-9, abs=0.0)


def test_lyapunov_consistent_when_doubling(scalar_env):
    a = kl.lyapunov(scalar_env, 4000, 50, substream(16))
    b = kl.lyapunov(scalar_env, 8000, 50, substream(17))
    combined = math.hypot(a.std_error, b.std_error)
    assert abs(a.beta - b.beta) <= 3 * combined


def test_lyapunov_preconditions(scalar_env):
    with pytest.raises(ConfigurationError):
        kl.lyapunov(scalar_env, 50, 10, substream(18))


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_birkhoff_degenerate_sum():
    env = constant_env(((0.0,),), (3.0,))
    batch = kl.birkhoff_sums(env, kl.PathConfig(n_steps=11, start_x=(5.0,),
                                                replicas=4, seed=19))
    assert np.array_equal(batch.data, np.full((4, 1), 33.0))


def test_birkhoff_single_step_matches_pair(scalar_env):
    cfg = kl.PathConfig(n_steps=1, start_x=(0.7,), replicas=16, seed=20)
    batch = kl.birkhoff_sums(scalar_env, cfg)
    m, q = kl.sample_pairs(scalar_env, substream(20), 16)
    expected = m[:, 0, 0] * 0.7 + q[:, 0]
    assert np.allclose(batch.data[:, 0], expected, atol=0.0)


def test_birkhoff_matches_forward_paths(scalar_env):
    cfg = kl.PathConfig(n_steps=50, start_x=(0.0,), replicas=25, seed=21)
    batch = kl.birkhoff_sums(scalar_env, cfg)
    paths = iterate_forward(scalar_env, cfg)
    assert np.array_equal(batch.data, paths.sums[:, -1])


def test_birkhoff_symmetric_sums_have_centered_median(scalar_env):
    # law(S_n) is symmetric for every n, so the median of S_n / n is 0;
    # the sign counts give a distribution-free check of that
    for n in (64, 512):
        batch = kl.birkhoff_sums(scalar_env, kl.PathConfig(
            n_steps=n, start_x=(0.0,), replicas=4000, seed=22))
        positive = int(np.sum(batch.data[:, 0] > 0))
        assert abs(positive - 2000) <= 3 * math.sqrt(4000 * 0.25)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_degenerate_recursion_property(q, n):
    env = constant_env(((0.0,),), (q,))
    paths = iterate_forward(env, kl.PathConfig(n_steps=n, start_x=(1.0,), seed=23))
    assert paths.states[0, n, 0] == q
    assert paths.sums[0, n, 0] == pytest.approx(n * q, rel=1e-15, abs=1e-12)
