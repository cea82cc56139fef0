"""Simulation of the matrix recursion, its stationary law, and growth rates.

Forward paths follow R_k = M_k R_{k-1} + Q_k from a given start.  The
stationary law is sampled through the truncated backward series
sum_n M_1...M_{n-1} Q_n, whose partial products contract at the rate of
the top Lyapunov exponent when that exponent is negative.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .batches import SampleBatch
from .env_models import (ConfigurationError, Environment, GaussianVector, Similarity,
                         sample_pairs)

_RENORM_EVERY = 50
_OVERFLOW_LIMIT = 1e300
_STATIONARY_CHUNK = 16_384


class TrajectoryOverflowError(RuntimeError):
    """A forward path left the floating range (expanding or bad parameters)."""


class NonContractionError(RuntimeError):
    """The adaptive backward series did not contract within the term cap."""


@dataclass(frozen=True)
class PathConfig:
    n_steps: int
    start_x: tuple
    replicas: int = 1

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        object.__setattr__(self, "start_x",
                           tuple(np.atleast_1d(np.asarray(self.start_x, dtype=float))))


@dataclass(frozen=True)
class SeriesConfig:
    """Backward-series truncation: a fixed depth or a tolerance on |M_1 ... M_n|_F."""

    truncation: int | None = None
    tolerance: float | None = None
    max_terms: int = 100_000

    def __post_init__(self):
        fixed = self.truncation is not None
        adaptive = self.tolerance is not None
        if fixed == adaptive:
            raise ConfigurationError("set exactly one of truncation / tolerance")
        if fixed and self.truncation < 1:
            raise ConfigurationError("truncation must be >= 1")
        if adaptive and self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")


@dataclass(frozen=True)
class LyapunovEstimate:
    beta: float
    std_error: float

    @property
    def contractive(self) -> bool:
        return self.beta < 0.0


def _check_finite(r: np.ndarray, step: int, what: str = "|R_n|",
                  at: str = "step") -> None:
    mx = float(np.max(np.abs(r))) if r.size else 0.0
    if not np.isfinite(mx) or mx > _OVERFLOW_LIMIT:
        raise TrajectoryOverflowError(
            f"{what} left the floating range at {at} {step} (max {mx:.3g}); "
            "the chain looks non-contractive or the parameters are bad")


def _forward_steps(env: Environment, cfg: PathConfig, rng: np.random.Generator):
    """Yield (k, R_k, S_k) for k = 1..n_steps, all replicas at once.

    The pairs come in blocks of max(1, _STATIONARY_CHUNK // replicas) steps,
    the last cut at n_steps, one sample_pairs call per block in step-major
    order, as the product walker draws them.  The state
    is component-major, shape (d, replicas), and M is read through views of
    each step's (replicas, d, d) slice of the block, so each step is d^2
    multiply-adds over contiguous rows.  The yielded arrays are reused by
    the next step.
    """
    d = env.dim
    reps = cfg.replicas
    r = np.empty((d, reps))
    r[:] = np.asarray(cfg.start_x, dtype=float)[:, None]
    s = np.zeros((d, reps))
    nxt = np.empty((d, reps))
    block = max(1, _STATIONARY_CHUNK // reps)
    # overflow (and the inf * 0 it leads to) is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, cfg.n_steps + 1, block):
            steps = min(block, cfg.n_steps + 1 - first)
            ms, qs = sample_pairs(env, rng, steps * reps)
            ms, qs = ms.reshape(steps, reps, d, d), qs.reshape(steps, reps, d)
            for k, m, q in zip(range(first, first + steps), ms, qs):
                for i in range(d):
                    row = np.multiply(m[:, i, 0], r[0], out=nxt[i])
                    for j in range(1, d):
                        row += m[:, i, j] * r[j]
                    row += q[:, i]
                r, nxt = nxt, r
                s += r
                yield k, r, s
                if k % 64 == 0:
                    _check_finite(r, k)
    _check_finite(r, cfg.n_steps)


def _integrated_sums(env: Environment, cfg: PathConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """S_n per replica, shape (replicas, 2), for a planar similarity with a
    Gaussian Q integrated out: M = c O multiplies x + iy by the complex
    w = c (cos t + i sin t) of ``Similarity.planar``.

    Given the M's, S_n = Phi x + sum_j A_j Q_j, with A_j = sum_{k=j}^n
    M_k ... M_{j+1} and Phi = M_1 A_1; with i.i.d. N(0, s^2 I) Q's it is
    N(Phi x, s^2 V I), V = sum_j |A_j|^2.  The w's commute and are i.i.d.,
    so the t-th drawn may stand for M_{n+1-t}: then B = M_j A_j runs
    B <- w (1 + B) from 0, each 1 + B is the next A_j, and B ends at Phi.
    The w's come in the forward blocks, max(1, _STATIONARY_CHUNK //
    replicas) steps per call, and one N(0, I_2) vector per replica is drawn
    at the end.  V is checked for overflow after each block.  It holds
    squares: it is refused past 1e300, the step loop's bound on |R_k|, so
    once |A_j| passes about 1e150.  On a non-contractive law both grow
    geometrically, and both paths refuse.
    """
    reps, n = cfg.replicas, cfg.n_steps
    block = max(1, _STATIONARY_CHUNK // reps)
    b = np.zeros(reps, dtype=complex)
    a = np.empty((min(block, n), reps), dtype=complex)
    # V by components: the squared real and imaginary parts of the A's,
    # read through a float view, summed over each replica's two at the end
    v_parts = np.zeros(2 * reps)
    # overflow (and the inf * 0 it leads to) is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, block):
            steps = min(block, n - first)
            w = env.matrix_law.planar(rng, steps * reps).reshape(steps, reps)
            for t in range(steps):
                np.add(b, 1.0, out=a[t])
                np.multiply(w[t], a[t], out=b)
            parts = a[:steps].view(np.float64)
            v_parts += np.einsum("ti,ti->i", parts, parts)
            _check_finite(v_parts, first + steps, "V = sum_j |A_j|^2", at="reversed draw")
    v = v_parts.reshape(reps, 2).sum(axis=1)
    mean = (b * complex(*cfg.start_x)).view(np.float64).reshape(reps, 2)
    return mean + env.vector_law.scale * np.sqrt(v)[:, None] * rng.standard_normal((reps, 2))


def birkhoff_sums(env: Environment, cfg: PathConfig,
                  rng: np.random.Generator) -> SampleBatch:
    """Final partial sums S_n per replica, without storing the paths; `info`
    records the pairs drawn, one M per step and replica.  A Gaussian Q is
    integrated out of a planar similarity's sums, which draw no Q; every
    other law steps the paths."""
    if (env.dim == 2 and isinstance(env.matrix_law, Similarity)
            and isinstance(env.vector_law, GaussianVector)):
        data = _integrated_sums(env, cfg, rng)
    else:
        for _, _, s in _forward_steps(env, cfg, rng):
            pass
        data = s.T.copy()
    return SampleBatch(data=data, kind="birkhoff",
                       info={"n_steps": cfg.n_steps, "start_x": list(cfg.start_x),
                             "pairs_drawn": cfg.n_steps * cfg.replicas})


def _walk_products(draw, count: int, cfg: SeriesConfig, rng: np.random.Generator):
    """The one random-product loop: count lanes of P_n = M_1 ... M_n, each
    summing sum_n P_{n-1} Q_n, with draw(rng, rows) -> (M, Q) of shapes
    (rows, d, d) and (rows, d, c); c = 0 walks the products alone.  A draw
    that returns (M, None) makes the lanes sum the Gram matrices
    e^{2 log_scale} P_{n-1} P_{n-1}^T instead (c = d).

    A lane retires at cfg.truncation terms or, adaptively, once |P_n|_F is
    under the tolerance, which bounds each term P_n M_{n+1} ... Q it leaves
    out by the tolerance times |M_{n+1} ... Q|.  The state is packed
    component-major into one array whose columns are the active lanes: rows
    sum and product (row-major), log_scale, the term weight exp(log_scale)
    (exp(2 log_scale) for Gram sums), the squared-norm threshold under which
    a lane retires, and the lane index.  P Q and P M take one broadcast
    multiply-add per column of P over a (d, c or d, lanes) block, reading
    the draws through views; the weighted P P^T is one einsum.

    The first call draws one term for every lane and fixes d and c; each
    later call draws a block of k terms for the active lanes in step-major
    order, k = _STATIONARY_CHUNK // lanes at least 1, and a block never
    crosses a renormalization step, the truncation or max_terms.
    Terms are applied one at a time; a lane that retires inside a block is
    copied out at its term, and retired lanes are compacted out with one
    take at the block end, their remaining draws discarded.
    Returns per lane the sum (count, d, c), the final product P / e^log_scale
    (count, d, d), log_scale and the int32 depth, and the number of pairs drawn.
    """
    m, q = draw(rng, count)
    pairs = count
    gram = q is None
    d = m.shape[1]
    c = d if gram else q.shape[2]
    dd, dc = d * d, d * c
    log_row, scale_row, thr_row, lane_row = dd + dc, dd + dc + 1, dd + dc + 2, dd + dc + 3
    state = np.zeros((dd + dc + 4, count))
    state[dc:dc + dd:d + 1] = 1.0         # the product starts at the identity
    state[scale_row] = 1.0
    state[lane_row] = np.arange(count)
    out = np.empty_like(state)
    depths = np.zeros(count, dtype=np.int32)
    # c <= d; the sum is done with its buffers before the product needs them
    nxt, tmp = np.empty((d, d, count)), np.empty((d, d, count))
    adaptive = cfg.tolerance is not None
    last_term = cfg.max_terms if adaptive else cfg.truncation
    log_tol = math.log(cfg.tolerance) if adaptive else -math.inf
    weight = 2.0 if gram else 1.0          # a term's weight is exp(weight * log_scale)

    def refresh_threshold(state):
        # retire once log_scale + log|prod| < log_tol: |prod|^2 < exp(2 (log_tol - log_scale))
        if adaptive:
            with np.errstate(over="ignore"):
                np.exp(2.0 * (log_tol - state[log_row]), out=state[thr_row])

    refresh_threshold(state)
    n, k = 0, 1
    # a sum that leaves the floating range is detected and raised below
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while True:
            lanes = state.shape[1]
            # views fixed for the block: the columns of P, each draw row j
            # as (k, 1, c or d, lanes), and the buffers
            p3 = state[dc:dc + dd].reshape(d, d, lanes)
            p_cols = [p3[:, j:j + 1] for j in range(d)]
            m4 = m.reshape(k, lanes, d, d).transpose(0, 2, 3, 1)
            m_rows = [m4[:, j:j + 1] for j in range(d)]
            block, part = nxt[..., :lanes], tmp[..., :lanes]
            if c:
                acc, acc_part = nxt[:, :c, :lanes], tmp[:, :c, :lanes]
                s3 = state[:dc].reshape(d, c, lanes)
            if c and not gram:
                q4 = q.reshape(k, lanes, d, c).transpose(0, 2, 3, 1)
                q_rows = [q4[:, j:j + 1] for j in range(d)]
            prod = state[dc:dc + dd]
            live = None             # lanes not yet retired in this block
            for t in range(k):
                n += 1
                # sum += weight * prod @ Q (or prod @ prod^T), then prod <- prod @ M
                if gram:
                    s3 += np.einsum("ikl,jkl,l->ijl", p3, p3, state[scale_row], out=acc)
                elif c:
                    np.multiply(p_cols[0], q_rows[0][t], out=acc)
                    for j in range(1, d):
                        acc += np.multiply(p_cols[j], q_rows[j][t], out=acc_part)
                    acc *= state[scale_row]
                    s3 += acc
                np.multiply(p_cols[0], m_rows[0][t], out=block)
                for j in range(1, d):
                    block += np.multiply(p_cols[j], m_rows[j][t], out=part)
                p3[...] = block
                retire = None
                if adaptive:
                    retire = np.einsum("ij,ij->j", prod, prod) < state[thr_row]
                    if live is not None:
                        retire &= live
                elif n >= cfg.truncation:
                    retire = np.ones(lanes, dtype=bool)
                if retire is not None and retire.any():
                    finished = state[:, retire]
                    if not np.isfinite(finished[:dc]).all():
                        raise NonContractionError(
                            f"the series sum left the floating range at {n} terms; "
                            "the products are not contracting")
                    lane = finished[lane_row].astype(np.intp)
                    out[:, lane] = finished
                    depths[lane] = n
                    live = ~retire if live is None else live & ~retire
            if live is not None:
                state = state.take(np.flatnonzero(live), axis=1)
            lanes = state.shape[1]
            if not lanes:
                break
            if n % _RENORM_EVERY == 0:
                # pull the product norm into a log accumulator so strongly
                # contractive chains do not underflow the matrix entries
                prod = state[dc:dc + dd]
                safe = np.maximum(np.sqrt(np.einsum("ij,ij->j", prod, prod)), 1e-290)
                prod /= safe
                state[log_row] += np.log(safe)
                np.exp(weight * state[log_row], out=state[scale_row])
                refresh_threshold(state)
            if adaptive and n >= cfg.max_terms:
                raise NonContractionError(
                    f"adaptive series exceeded {cfg.max_terms} terms; "
                    "the products are not contracting")
            k = max(1, _STATIONARY_CHUNK // lanes)
            k = min(k, _RENORM_EVERY - n % _RENORM_EVERY, last_term - n)
            m, q = draw(rng, lanes * k)
            pairs += lanes * k
    return (out[:dc].T.reshape(count, d, c), out[dc:dc + dd].T.reshape(count, d, d),
            out[log_row], depths, pairs)


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """Per lane a square root L of G, L L^T = G.  G >= I, since its first
    term is the identity, so the Cholesky factor exists; but where G holds
    eigenvalues beyond 1e16 times its least, rounding can lose that one, and
    then the whole tile takes the eigen-root with the lost values as 0."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(gram)
        return v * np.sqrt(np.maximum(w, 0.0))[:, None, :]


def _stationary_chunk(env: Environment, count: int, cfg: SeriesConfig,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Backward-series draws for one tile; returns (values, realized depths,
    pairs drawn).  A Gaussian Q is integrated out of the series, and pairs
    then counts the matrix draws (for a similarity, its scale draws)."""
    law, m_law = env.vector_law, env.matrix_law
    if isinstance(law, GaussianVector):
        # given the M's, sum_n P_{n-1} Q_n with i.i.d. N(0, s^2 I) Q's is
        # N(0, s^2 G), G = sum_n P_{n-1} P_{n-1}^T, and a random sign keeps Q
        # Gaussian: one z per lane, no Q drawn
        draw = lambda rng, rows: (m_law.sample(rng, rows), None)
        if isinstance(m_law, Similarity):
            # P_{n-1} = (prod c) O gives G = g I: walk the scales alone at d = 1, where
            # |P_n| = prod c is |P_n|_F / sqrt(d), and so is the tolerance
            draw = lambda rng, rows: (m_law.scales(rng, rows)[:, None, None], None)
            if cfg.tolerance is not None:
                cfg = replace(cfg, tolerance=cfg.tolerance / math.sqrt(env.dim))
        gram, _, _, depths, pairs = _walk_products(draw, count, cfg, rng)
        root = _gram_root(gram)
        z = rng.standard_normal((count, env.dim, 1))
        # the root sqrt(g) of a scalar G scales every entry of z
        return law.scale * (root * z if root.shape[1] == 1 else root @ z)[:, :, 0], depths, pairs

    def draw(rng, rows):
        m, q = sample_pairs(env, rng, rows)
        return m, q[:, :, None]

    sums, _, _, depths, pairs = _walk_products(draw, count, cfg, rng)
    return sums[:, :, 0], depths, pairs


def sample_stationary(env: Environment, cfg: SeriesConfig, count: int,
                      rng: np.random.Generator, threads: int = 1) -> SampleBatch:
    """count i.i.d. draws of the truncated backward series.

    Work is split into fixed-size tiles, small enough for a tile's state and
    draws to stay in a core's cache, each drawing from its own child of rng
    (``rng.spawn``), so the result is identical for any thread count.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    chunks = range(-(-count // _STATIONARY_CHUNK))
    tile_streams = rng.spawn(len(chunks))
    data = np.empty((count, env.dim))
    depths = np.empty(count, dtype=np.int32)   # under the max_terms cap

    def run_chunk(chunk_idx):
        start = chunk_idx * _STATIONARY_CHUNK
        part = slice(start, min(start + _STATIONARY_CHUNK, count))
        data[part], depths[part], pairs = _stationary_chunk(
            env, part.stop - start, cfg, tile_streams[chunk_idx])
        return pairs

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pairs = sum(pool.map(run_chunk, chunks))
    else:
        pairs = sum(map(run_chunk, chunks))
    info = {
        "truncation": int(depths.max()),
        "mean_depth": float(depths.mean()),
        "depth_quantiles": quantiles(depths),
        "tolerance": cfg.tolerance,
        "fixed_truncation": cfg.truncation,
        "pairs_drawn": int(pairs),
    }
    return SampleBatch(data=data, kind="stationary", info=info)


def quantiles(x: np.ndarray) -> dict:
    """The 0.5, 0.9 and 0.99 quantiles of x, keyed by level.  x is a
    temporary of the caller's, which np.quantile partitions in place."""
    levels = (0.5, 0.9, 0.99)
    values = np.quantile(x, levels, overwrite_input=True)
    return {str(p): float(v) for p, v in zip(levels, values)}


def lyapunov(env: Environment, n_steps: int, replicas: int,
             rng: np.random.Generator) -> LyapunovEstimate:
    """Averaged per-replica n^{-1} log ||M_1 ... M_n|| with renormalized products.

    The products are walked with no increment for exactly n_steps terms;
    the walker rescales them by their Frobenius norm every few steps (the
    factor is restored through a log accumulator, so the estimate is exact
    up to float rounding), and the final operator norm then gives
    log ||product|| = accumulator + log ||renormalized product||.
    """
    if n_steps < 100:
        raise ConfigurationError("lyapunov: need n_steps >= 100")
    if replicas < 1:
        raise ConfigurationError("lyapunov: need replicas >= 1")
    _, prod, log_scale, _, _ = _walk_products(
        lambda rng, rows: (env.matrix_law.sample(rng, rows), np.empty((rows, env.dim, 0))),
        replicas, SeriesConfig(truncation=n_steps), rng)
    op = np.linalg.norm(prod, ord=2, axis=(1, 2))
    per_replica = (log_scale + np.log(op)) / n_steps
    beta = float(np.mean(per_replica))
    se = float(np.std(per_replica) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return LyapunovEstimate(beta=beta, std_error=se)
