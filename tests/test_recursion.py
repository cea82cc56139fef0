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
                                 _STATIONARY_CHUNK, _forward_steps, _gram_root,
                                 _stationary_chunk, _walk_products)
from kestenlab.rng import substream

BETA_SCALAR = -math.log(2.0) / 3.0  # (1/3) log 2 + (2/3) log (1/2)


def constant_env(matrix, vector):
    return kl.Environment(dim=len(vector), matrix_law=kl.ConstantMatrix(matrix),
                          vector_law=kl.ConstantVector(vector))


@dataclass
class ForwardPaths:
    """states[r, k] = R_k for replica r (k = 0 is the start); sums[r, k] = S_k."""

    states: np.ndarray
    sums: np.ndarray


def iterate_forward(env, cfg, rng) -> ForwardPaths:
    """All replicas of (R_k, S_k), k = 0..n_steps, drawn from rng."""
    states = np.empty((cfg.replicas, cfg.n_steps + 1, env.dim))
    sums = np.empty((cfg.replicas, cfg.n_steps + 1, env.dim))
    states[:, 0] = cfg.start_x
    sums[:, 0] = 0.0
    for k, r, s in _forward_steps(env, cfg, rng):
        states[:, k] = r.T
        sums[:, k] = s.T
    return ForwardPaths(states=states, sums=sums)


# ---------------------------------------------------------------------------
# forward iteration
# ---------------------------------------------------------------------------

def test_forward_zero_matrix_freezes_at_q():
    env = constant_env(((0.0, 0.0), (0.0, 0.0)), (2.0, -1.0))
    paths = iterate_forward(env, kl.PathConfig(n_steps=5, start_x=(9.0, 9.0),
                                               replicas=3), substream(1))
    q = np.array([2.0, -1.0])
    for k in range(1, 6):
        assert np.array_equal(paths.states[:, k], np.broadcast_to(q, (3, 2)))
        assert np.array_equal(paths.sums[:, k], np.broadcast_to(k * q, (3, 2)))


def test_forward_geometric_contraction():
    env = constant_env(((0.5, 0.0), (0.0, 0.5)), (1.0, 0.0))
    paths = iterate_forward(env, kl.PathConfig(n_steps=30, start_x=(0.0, 0.0)), substream(2))
    for n in (1, 5, 30):
        expected = (2.0 - 2.0 ** (1 - n))
        assert paths.states[0, n, 0] == pytest.approx(expected, abs=1e-12)
        assert paths.states[0, n, 1] == 0.0


def test_forward_replay_is_bit_identical(scalar_env):
    cfg = kl.PathConfig(n_steps=64, start_x=(0.5,), replicas=7)
    a = iterate_forward(scalar_env, cfg, substream(3))
    b = iterate_forward(scalar_env, cfg, substream(3))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.sums, b.sums)


def test_forward_overflow_aborts():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(TrajectoryOverflowError):
        iterate_forward(env, kl.PathConfig(n_steps=1200, start_x=(1.0, 0.0)), substream(4))


def test_forward_matches_stationary_law(scalar_env):
    """Forward chain at n = 200 vs the backward-series sampler: same law."""
    n = 200
    paths = iterate_forward(scalar_env, kl.PathConfig(
        n_steps=n, start_x=(0.0,), replicas=100_000), substream(5))
    forward_final = paths.states[:, n, 0]
    backward = kl.sample_stationary(scalar_env, kl.SeriesConfig(truncation=n),
                                    100_000, substream(6))
    ks = stats.ks_2samp(forward_final, backward.data[:, 0]).statistic
    assert ks < 0.02


# ---------------------------------------------------------------------------
# stationary sampling
# ---------------------------------------------------------------------------

def test_series_zero_matrix_collapses_to_first_q():
    env = kl.Environment(dim=1, matrix_law=kl.ConstantMatrix(((0.0,),)),
                         vector_law=kl.TwoPointVector((1.0,), (-2.0,), 0.5))
    for truncation in (1, 7):
        batch = kl.sample_stationary(env, kl.SeriesConfig(truncation=truncation), 64, substream(7))
        direct = kl.sample_q(env, substream(7, 0), 64)
        assert np.array_equal(batch.data, direct)


def test_series_geometric_truncation_error():
    env = constant_env(((0.5, 0.0), (0.0, 0.5)), (1.0, 0.0))
    limit = np.array([2.0, 0.0])
    errors = []
    for n in (2, 4, 8, 16):
        batch = kl.sample_stationary(env, kl.SeriesConfig(truncation=n), 1, substream(8))
        err = np.linalg.norm(batch.data[0] - limit)
        assert err <= 2.0 ** (1 - n) + 1e-12
        errors.append(err)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_series_symmetric_mean_is_centered(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9),
                                 1_000_000, substream(9))
    x = batch.data[:, 0]
    se = float(np.std(x) / math.sqrt(len(x)))
    assert abs(float(np.mean(x))) <= 3 * se


def test_series_adaptive_depth_recorded(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-6), 5000, substream(10))
    deep = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-12), 5000, substream(10))
    assert batch.info["truncation"] < deep.info["truncation"]
    assert 1 <= batch.info["mean_depth"] <= batch.info["truncation"]


def test_series_noncontraction_error():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(NonContractionError):
        kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9, max_terms=500), 8, substream(11))


def test_series_thread_count_does_not_change_draws(scalar_env):
    cfg = kl.SeriesConfig(tolerance=1e-9)
    a = kl.sample_stationary(scalar_env, cfg, 300_000, substream(12), threads=1)
    b = kl.sample_stationary(scalar_env, cfg, 300_000, substream(12), threads=4)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("threads", [1, 2])
def test_stationary_tiles_draw_from_child_substreams(scalar_env, threads):
    # tile c draws from substream(s).spawn(n)[c], the stream substream(s, c)
    cfg = kl.SeriesConfig(tolerance=1e-6)
    count = 2 * _STATIONARY_CHUNK + 500
    batch = kl.sample_stationary(scalar_env, cfg, count, substream(37), threads=threads)
    tiles = [_stationary_chunk(scalar_env, min(_STATIONARY_CHUNK, count - start), cfg,
                               substream(37, c))[0]
             for c, start in enumerate(range(0, count, _STATIONARY_CHUNK))]
    assert np.array_equal(batch.data, np.concatenate(tiles))


def block_terms(n, lanes, cfg):
    """Terms per draw call after the first, as the walker blocks them: the
    lanes share 16384 rows, and a block ends at every multiple of 50 terms
    and at the truncation or the term cap."""
    k = max(1, 16_384 // lanes)
    last = cfg.truncation if cfg.tolerance is None else cfg.max_terms
    return min(k, 50 - n % 50, last - n)


def per_lane_series(env, count, cfg, rng):
    """Reference backward series: one (d,) vector and one (d, d) product per
    lane, renormalized every 50 steps, each lane retired by its log-norm.
    Draws come in step-major blocks of block_terms; a lane retired inside a
    block keeps its value from its own term."""
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
        lanes = idx.size
        k = 1 if n == 0 else block_terms(n, lanes, cfg)
        m_block, q_block = sample_pairs(env, rng, lanes * k)
        if log_q99 is None:
            q99 = float(np.quantile(np.linalg.norm(q_block, axis=1), 0.99))
            log_q99 = math.log(q99) if q99 > 0 else -math.inf
        live = np.ones(lanes, dtype=bool)
        for t in range(k):
            n += 1
            m, q = m_block[t * lanes:(t + 1) * lanes], q_block[t * lanes:(t + 1) * lanes]
            r += np.exp(log_scale)[:, None] * np.einsum("nij,nj->ni", prod, q)
            prod = np.matmul(prod, m)
            if adaptive:
                with np.errstate(divide="ignore"):
                    log_norm = np.log(np.linalg.norm(prod, axis=(1, 2)))
                retire = live & (log_scale + log_norm + log_q99 < log_tol)
            else:
                retire = live & (n >= cfg.truncation)
            out[idx[retire]] = r[retire]
            depths[idx[retire]] = n
            live &= ~retire
        idx, r, prod, log_scale = idx[live], r[live], prod[live], log_scale[live]
        if n % 50 == 0 and idx.size:
            norms = np.maximum(np.linalg.norm(prod, axis=(1, 2)), 1e-290)
            prod /= norms[:, None, None]
            log_scale += np.log(norms)
    return out, depths


def similarity_env(dim):
    return kl.Environment(dim=dim, matrix_law=kl.Similarity(dim, (2.0, 0.5), (1 / 3, 2 / 3)),
                          vector_law=kl.GaussianVector(dim), q_symmetric=True)


def two_point_q_env(dim):
    """The similarity law with a two-point Q whose atoms are not parallel:
    a Gaussian Q would take the Gram path, this one the general walker."""
    q = kl.TwoPointVector((1.0, -0.5, 0.25)[:dim], (0.3, 2.0, -1.0)[:dim], 0.4)
    return kl.Environment(dim=dim, matrix_law=kl.Similarity(dim, (2.0, 0.5), (1 / 3, 2 / 3)),
                          vector_law=q, q_symmetric=True)


@pytest.mark.parametrize("env_name", ["scalar", "similarity_2d", "similarity_3d"])
@pytest.mark.parametrize("cfg", [kl.SeriesConfig(tolerance=1e-9),
                                 kl.SeriesConfig(truncation=120)],
                         ids=["adaptive", "fixed"])
def test_tile_matches_per_lane_series(scalar_env, env_name, cfg):
    env = scalar_env if env_name == "scalar" else two_point_q_env(int(env_name[-2]))
    ref_values, ref_depths = per_lane_series(env, 3000, cfg, substream(24, 3))
    values, depths, _ = _stationary_chunk(env, 3000, cfg, substream(24, 3))
    assert np.array_equal(depths, ref_depths)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=0.0)


def reference_tile(env, count, cfg, rng):
    """The backward-series tile as written before the product walker was
    shared: d scalar rows per product row, R and Q in (lanes, d) layout,
    with the walker's draw blocks (block_terms) and its retirement inside a
    block: copied out at its term, compacted out at the block end."""
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
            lanes = state.shape[1]
            k = 1 if n == 0 else block_terms(n, lanes, cfg)
            m_block, q_block = sample_pairs(env, rng, lanes * k)
            if log_q99 is None:
                q99 = float(np.quantile(np.linalg.norm(q_block, axis=1), 0.99))
                log_q99 = math.log(q99) if q99 > 0 else -math.inf
                if adaptive:
                    refresh_threshold(state)
            live = np.ones(lanes, dtype=bool)
            for t in range(k):
                n += 1
                m, q = m_block[t * lanes:(t + 1) * lanes], q_block[t * lanes:(t + 1) * lanes]
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
                    for c in range(d):
                        cell = np.multiply(row[0], m_rows[c], out=nxt[i * d + c, :lanes])
                        for j in range(1, d):
                            cell += np.multiply(row[j], m_rows[j * d + c], out=tmp)
                prod[...] = nxt[:, :lanes]
                retire = None
                if adaptive:
                    retire = live & (np.einsum("ij,ij->j", prod, prod) < state[thr_row])
                elif n >= cfg.truncation:
                    retire = live.copy()
                if retire is not None and retire.any():
                    done = np.flatnonzero(retire)
                    lane = state[lane_row, done].astype(np.intp)
                    out[lane] = state[:d, done].T
                    depths[lane] = n
                    live &= ~retire
            state = state.take(np.flatnonzero(live), axis=1)
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
@pytest.mark.parametrize("cfg", [kl.SeriesConfig(tolerance=1e-9),
                                 kl.SeriesConfig(truncation=120)],
                         ids=["adaptive", "fixed"])
def test_stationary_bit_identical_to_reference_tile(scalar_env, dim, cfg):
    # 2000 draws fill one tile, drawn from substream(seed, 0)
    env = scalar_env if dim == 1 else two_point_q_env(dim)
    ref_values, ref_depths = reference_tile(env, 2000, cfg, substream(27, 0))
    batch = kl.sample_stationary(env, cfg, 2000, substream(27))
    assert np.array_equal(batch.data, ref_values)
    assert batch.info["truncation"] == ref_depths.max()
    assert batch.info["mean_depth"] == ref_depths.mean()


def test_fixed_truncation_expanding_law_raises():
    env = constant_env(((2.0, 0.0), (0.0, 2.0)), (1.0, 0.0))
    with pytest.raises(NonContractionError, match="floating range"):
        kl.sample_stationary(env, kl.SeriesConfig(truncation=1100), 4, substream(28))


# ---------------------------------------------------------------------------
# a Gaussian Q integrated out: the Gram path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlainGaussian:
    """N(0, scale^2 I) Q's that are not a GaussianVector, so the series
    draws them term by term on the general walker."""
    dim: int
    scale: float = 1.0

    def sample(self, rng, count):
        return self.scale * rng.standard_normal((count, self.dim))


def test_gram_path_closed_form_covariance():
    # M = I / 2 at depth n: R = sum_k 2^-k Q_k, so Cov R = s^2 (1 - 4^-n) / (3/4) I
    s, n, count = 1.5, 3, 200_000
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.GaussianVector(2, s))
    batch = kl.sample_stationary(env, kl.SeriesConfig(truncation=n), count, substream(40))
    var = s * s * (1.0 - 4.0 ** -n) / 0.75
    cov = np.cov(batch.data.T)
    # sd of a sample variance is var sqrt(2 / count), of a covariance var / sqrt(count)
    np.testing.assert_allclose(np.diag(cov), var, rtol=0.0, atol=4 * var * math.sqrt(2 / count))
    assert abs(cov[0, 1]) <= 4 * var / math.sqrt(count)
    assert (batch.info["truncation"], batch.info["pairs_drawn"]) == (n, n * count)


@pytest.mark.parametrize("threads", [1, 2])
def test_gram_tiles_draw_from_child_substreams(threads):
    env, cfg = similarity_env(2), kl.SeriesConfig(tolerance=1e-9)
    count = 2 * _STATIONARY_CHUNK + 500
    batch = kl.sample_stationary(env, cfg, count, substream(41), threads=threads)
    tiles = [_stationary_chunk(env, min(_STATIONARY_CHUNK, count - start), cfg,
                               substream(41, c))[0]
             for c, start in enumerate(range(0, count, _STATIONARY_CHUNK))]
    assert np.array_equal(batch.data, np.concatenate(tiles))


@pytest.mark.parametrize("cfg", [kl.SeriesConfig(truncation=1100),
                                 kl.SeriesConfig(tolerance=1e-9, max_terms=500)],
                         ids=["fixed", "adaptive"])
def test_gram_path_expanding_law_raises(cfg):
    env = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(((2.0, 0.0), (0.0, 2.0))),
                         vector_law=kl.GaussianVector(2))
    with pytest.raises(NonContractionError):
        kl.sample_stationary(env, cfg, 4, substream(42))


def test_gram_path_matches_general_walker_in_law():
    env, cfg = similarity_env(2), kl.SeriesConfig(tolerance=1e-9)
    plain = kl.Environment(dim=2, matrix_law=env.matrix_law,
                           vector_law=PlainGaussian(2), q_symmetric=True)
    gram = kl.sample_stationary(env, cfg, 200_000, substream(43))
    walked = kl.sample_stationary(plain, cfg, 200_000, substream(44))
    for i in range(2):
        assert stats.ks_2samp(gram.data[:, i], walked.data[:, i]).pvalue > 1e-3
    r_gram, r_walked = np.linalg.norm(gram.data, axis=1), np.linalg.norm(walked.data, axis=1)
    for level in (0.99, 0.999):
        u = np.quantile(r_walked, level)
        p, q = np.mean(r_gram > u), 1.0 - level
        assert abs(p - q) <= 4 * math.sqrt(2 * q * (1 - q) / 200_000)


@pytest.mark.parametrize("cfg", [kl.SeriesConfig(tolerance=1e-9),
                                 kl.SeriesConfig(truncation=120)],
                         ids=["adaptive", "fixed"])
def test_gram_walk_keeps_the_stop_rule(cfg):
    # the same M's and the same first Q's, which give q99: every lane
    # retires at the same term on the Gram walk as on the general walk
    law = similarity_env(2).matrix_law
    q_first = substream(47, 1).standard_normal((3000, 2, 1))

    def draws():
        stream, first = substream(47, 0), [q_first]
        return lambda rng, rows: (law.sample(stream, rows),
                                  first.pop() if first else np.zeros((rows, 2, 1)))

    walked = _walk_products(draws(), 3000, cfg, None)
    gram = _walk_products(draws(), 3000, cfg, None, gram_q=q_first[:, :, 0])
    assert np.array_equal(gram[3], walked[3]) and gram[4] == walked[4]
    # P_{n-1} = c O gives P P^T = c^2 I, so G is a multiple of I, at least I
    g = gram[0]
    np.testing.assert_allclose(g, g[:, :1, :1] * np.eye(2), rtol=0.0, atol=1e-12 * g.max())
    assert (g[:, 0, 0] >= 1.0).all()


def test_gram_root_survives_lost_eigenvalues():
    # I + 1e20 (1 1; 1 1) rounds to a singular G, which has no Cholesky factor
    gram = np.stack([np.eye(2), np.eye(2) + np.full((2, 2), 1e20)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    root = _gram_root(gram)
    np.testing.assert_allclose(root @ root.transpose(0, 2, 1), gram, rtol=1e-12, atol=1e5)
    # a heavy-tailed Ginibre law (kappa near 1/2) meets such a G in this tile
    env = kl.Environment(dim=2, matrix_law=kl.GaussianMatrix(2, 0.8607),
                         vector_law=kl.GaussianVector(2))
    batch = kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9), 16_384, substream(46))
    assert np.isfinite(batch.data).all()


def recorded_walk(env, count, cfg, seed):
    """_walk_products over sample_pairs, with the rows of every draw call."""
    calls = []

    def draw(rng, rows):
        calls.append(rows)
        m, q = sample_pairs(env, rng, rows)
        return m, q[:, :, None]

    *_, depths, pairs = _walk_products(draw, count, cfg, substream(seed))
    assert pairs == sum(calls)
    return calls, depths


def block_spans(calls, depths):
    """(first term, terms) of each draw call: the lanes active after term n
    are those deeper than n, and a call draws the same terms for each."""
    spans, n = [], 0
    for rows in calls:
        lanes = int(np.sum(depths > n))
        assert rows % lanes == 0
        spans.append((n + 1, rows // lanes))
        n += rows // lanes
    return spans


def test_walker_draws_blocks_of_terms_between_renormalizations(scalar_env):
    calls, depths = recorded_walk(scalar_env, 100, kl.SeriesConfig(truncation=10_000), 30)
    assert len(calls) <= 202
    assert calls[0] == 100 and (depths == 10_000).all()
    spans = block_spans(calls, depths)
    assert sum(k for _, k in spans) == 10_000
    full_tile = kl.SeriesConfig(tolerance=1e-9)
    calls, depths = recorded_walk(scalar_env, 16_384, full_tile, 31)
    assert calls[:2] == [16_384, 16_384]
    spans += block_spans(calls, depths)
    assert max(k for _, k in spans) > 1
    for first, k in spans:
        # terms first .. first + k - 1 hold no multiple of 50 but the last
        assert (first + k - 2) // 50 == (first - 1) // 50


def test_series_retires_every_lane_at_once_without_q():
    env = kl.Environment(dim=2, matrix_law=kl.Similarity(2, (2.0, 0.5), (0.5, 0.5)),
                         vector_law=kl.ConstantVector((0.0, 0.0)))
    batch = kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9), 100, substream(25))
    assert np.array_equal(batch.data, np.zeros((100, 2)))
    assert batch.info["truncation"] == 1


def test_series_depth_quantiles_recorded(scalar_env):
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9), 5000, substream(26))
    q = batch.info["depth_quantiles"]
    assert list(q) == ["0.5", "0.9", "0.99"]
    assert 1 <= q["0.5"] <= q["0.9"] <= q["0.99"] <= batch.info["truncation"]


def test_series_records_pairs_drawn(scalar_env):
    # a fixed depth discards nothing; an adaptive tile discards the rest of
    # the block each retired lane was drawn for
    fixed = kl.sample_stationary(scalar_env, kl.SeriesConfig(truncation=120), 20_000,
                                 substream(32))
    assert fixed.info["pairs_drawn"] == 20_000 * 120
    batch = kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9), 20_000,
                                 substream(32))
    used = round(batch.info["mean_depth"] * 20_000)
    assert used < batch.info["pairs_drawn"] <= 1.05 * used


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
    every 50 steps: the loop the product walker replaced, drawing the
    matrices in the walker's blocks (block_terms)."""
    d = env.dim
    cfg = kl.SeriesConfig(truncation=n_steps)
    prod = np.broadcast_to(np.eye(d), (replicas, d, d)).copy()
    log_scale = np.zeros(replicas)
    k = 0
    while k < n_steps:
        size = 1 if k == 0 else block_terms(k, replicas, cfg)
        block = env.matrix_law.sample(rng, replicas * size)
        for t in range(size):
            k += 1
            prod = np.matmul(prod, block[t * replicas:(t + 1) * replicas])
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
                                                replicas=4), substream(19))
    assert np.array_equal(batch.data, np.full((4, 1), 33.0))


def test_birkhoff_single_step_matches_pair(scalar_env):
    cfg = kl.PathConfig(n_steps=1, start_x=(0.7,), replicas=16)
    batch = kl.birkhoff_sums(scalar_env, cfg, substream(20))
    m, q = kl.sample_pairs(scalar_env, substream(20), 16)
    expected = m[:, 0, 0] * 0.7 + q[:, 0]
    assert np.allclose(batch.data[:, 0], expected, atol=0.0)


def test_birkhoff_matches_forward_paths(scalar_env):
    cfg = kl.PathConfig(n_steps=50, start_x=(0.0,), replicas=25)
    batch = kl.birkhoff_sums(scalar_env, cfg, substream(21))
    paths = iterate_forward(scalar_env, cfg, substream(21))
    assert np.array_equal(batch.data, paths.sums[:, -1])


def reference_birkhoff(env, cfg, rng):
    """S_n per replica with one matmul per step, R <- M R + Q, drawing the
    pairs in the forward blocks: max(1, 16384 // replicas) steps per call,
    the last block cut at n_steps."""
    k = max(1, 16_384 // cfg.replicas)
    r = np.broadcast_to(np.asarray(cfg.start_x), (cfg.replicas, env.dim)).copy()
    s = np.zeros_like(r)
    for first in range(0, cfg.n_steps, k):
        size = min(k, cfg.n_steps - first)
        m, q = sample_pairs(env, rng, cfg.replicas * size)
        for t in range(size):
            rows = slice(t * cfg.replicas, (t + 1) * cfg.replicas)
            r = np.matmul(m[rows], r[:, :, None])[:, :, 0] + q[rows]
            s += r
    return s


@pytest.mark.parametrize("dim, replicas", [(1, 3000), (2, 700), (3, 20_000)])
def test_birkhoff_matches_reference_loop(scalar_env, dim, replicas):
    env = scalar_env if dim == 1 else similarity_env(dim)
    cfg = kl.PathConfig(n_steps=45, start_x=(0.5,) * dim, replicas=replicas)
    batch = kl.birkhoff_sums(env, cfg, substream(33))
    assert batch.info["pairs_drawn"] == 45 * replicas
    ref = reference_birkhoff(env, cfg, substream(33))
    if dim == 1:
        assert np.array_equal(batch.data, ref)
    # at d >= 2 matmul may add in another order (or fuse): its rounding is
    # relative to the terms, which cancel in some sums
    np.testing.assert_allclose(batch.data, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_forward_steps_draw_blocks_of_steps(scalar_env, monkeypatch):
    calls = []

    def recording(env, rng, count):
        calls.append(count)
        return sample_pairs(env, rng, count)

    monkeypatch.setattr(kl.recursion, "sample_pairs", recording)
    batch = kl.birkhoff_sums(scalar_env, kl.PathConfig(n_steps=4096, start_x=(0.0,),
                                                       replicas=4000), substream(34))
    assert calls == [4 * 4000] * 1024
    assert batch.info["pairs_drawn"] == 4096 * 4000
    calls.clear()
    kl.birkhoff_sums(scalar_env, kl.PathConfig(n_steps=5, start_x=(0.0,),
                                               replicas=20_000), substream(35))
    assert calls == [20_000] * 5
    calls.clear()
    kl.birkhoff_sums(scalar_env, kl.PathConfig(n_steps=10, start_x=(0.0,),
                                               replicas=4000), substream(36))
    assert calls == [16_000, 16_000, 8000]


def test_birkhoff_symmetric_sums_have_centered_median(scalar_env):
    # law(S_n) is symmetric for every n, so the median of S_n / n is 0;
    # the sign counts give a distribution-free check of that
    for n in (64, 512):
        batch = kl.birkhoff_sums(scalar_env, kl.PathConfig(
            n_steps=n, start_x=(0.0,), replicas=4000), substream(22))
        positive = int(np.sum(batch.data[:, 0] > 0))
        assert abs(positive - 2000) <= 3 * math.sqrt(4000 * 0.25)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_degenerate_recursion_property(q, n):
    env = constant_env(((0.0,),), (q,))
    paths = iterate_forward(env, kl.PathConfig(n_steps=n, start_x=(1.0,)), substream(23))
    assert paths.states[0, n, 0] == q
    assert paths.sums[0, n, 0] == pytest.approx(n * q, rel=1e-15, abs=1e-12)
