"""Simulation of the matrix recursion, its stationary law, and growth rates.

Forward paths follow R_k = M_k R_{k-1} + Q_k from a given start.  The
stationary law is sampled through the truncated backward series
sum_n M_1...M_{n-1} Q_n, whose partial products contract at the rate of
the top Lyapunov exponent when that exponent is negative.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batches import SampleBatch
from .env_models import ConfigurationError, Environment, sample_pairs
from .rng import as_generator, substream

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
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        object.__setattr__(self, "start_x",
                           tuple(np.atleast_1d(np.asarray(self.start_x, dtype=float))))


@dataclass(frozen=True)
class SeriesConfig:
    """Backward-series truncation: either a fixed depth or a stop tolerance."""

    truncation: int | None = None
    tolerance: float | None = None
    seed: int = 0
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


def _check_finite(r: np.ndarray, step: int) -> None:
    mx = float(np.max(np.abs(r))) if r.size else 0.0
    if not np.isfinite(mx) or mx > _OVERFLOW_LIMIT:
        raise TrajectoryOverflowError(
            f"|R_n| left the floating range at step {step} (max {mx:.3g}); "
            "the chain looks non-contractive or the parameters are bad")


def _forward_steps(env: Environment, cfg: PathConfig):
    """Yield (k, R_k, S_k) for k = 1..n_steps, all replicas at once.

    The state is component-major, shape (d, replicas), and M is read through
    views of the (replicas, d, d) draw, so each step is d^2 multiply-adds over
    contiguous rows.  The yielded arrays are reused by the next step.
    """
    rng = substream(cfg.seed)
    d = env.dim
    reps = cfg.replicas
    r = np.empty((d, reps))
    r[:] = np.asarray(cfg.start_x, dtype=float)[:, None]
    s = np.zeros((d, reps))
    nxt = np.empty((d, reps))
    # overflow (and the inf * 0 it leads to) is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):
            m, q = sample_pairs(env, rng, reps)
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


def birkhoff_sums(env: Environment, cfg: PathConfig) -> SampleBatch:
    """Final partial sums S_n per replica, without storing the paths."""
    for _, _, s in _forward_steps(env, cfg):
        pass
    return SampleBatch(data=s.T.copy(), kind="birkhoff", seed=cfg.seed,
                       info={"n_steps": cfg.n_steps, "start_x": list(cfg.start_x)})


def _walk_products(draw, count: int, cfg: SeriesConfig, rng: np.random.Generator):
    """The one random-product loop: count lanes of P_n = M_1 ... M_n, each
    summing sum_n P_{n-1} Q_n, with draw(rng, lanes) -> (M, Q) of shapes
    (lanes, d, d) and (lanes, d, c); c = 0 walks the products alone.

    A lane retires at cfg.truncation terms or, adaptively, once the
    0.99-quantile bound |P_n| q99(|Q|) on its next term is under the
    tolerance.  The state is packed component-major into one array whose
    columns are the active lanes: rows sum and product (row-major),
    log_scale, exp(log_scale), the squared-norm threshold under which a lane
    retires, and the lane index.  P Q and P M take one broadcast
    multiply-add per column of P over a (d, c or d, lanes) block, reading
    the draws through views; retired lanes are compacted out with one take.
    Returns per lane the sum (count, d, c), the final product P / e^log_scale
    (count, d, d), log_scale and the depth.
    """
    m, q = draw(rng, count)
    d, c = q.shape[1], q.shape[2]
    dd, dc = d * d, d * c
    log_row, scale_row, thr_row, lane_row = dd + dc, dd + dc + 1, dd + dc + 2, dd + dc + 3
    state = np.zeros((dd + dc + 4, count))
    state[dc:dc + dd:d + 1] = 1.0         # the product starts at the identity
    state[scale_row] = 1.0
    state[lane_row] = np.arange(count)
    out = np.empty_like(state)
    depths = np.zeros(count, dtype=np.int64)
    # c <= d; the sum is done with its buffers before the product needs them
    nxt, tmp = np.empty((d, d, count)), np.empty((d, d, count))
    adaptive = cfg.tolerance is not None
    log_tol = math.log(cfg.tolerance) if adaptive else -math.inf
    q99 = float(np.quantile(np.linalg.norm(q.reshape(count, dc), axis=1), 0.99))
    log_q99 = math.log(q99) if q99 > 0 else -math.inf

    def refresh_threshold(state):
        # retire once log_scale + log|prod| + log_q99 < log_tol, that is
        # |prod|^2 < exp(2 (log_tol - log_q99 - log_scale))
        if adaptive:
            with np.errstate(over="ignore"):
                np.exp(2.0 * (log_tol - log_q99 - state[log_row]), out=state[thr_row])

    refresh_threshold(state)
    n = 0
    # a sum that leaves the floating range is detected and raised below
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while True:
            n += 1
            # sum += exp(log_scale) * prod @ Q, then prod <- prod @ M
            lanes = state.shape[1]
            p3 = state[dc:dc + dd].reshape(d, d, lanes)
            if c:
                q3 = q.transpose(1, 2, 0)
                acc = np.multiply(p3[:, :1], q3[:1], out=nxt[:, :c, :lanes])
                for j in range(1, d):
                    acc += np.multiply(p3[:, j:j + 1], q3[j:j + 1], out=tmp[:, :c, :lanes])
                acc *= state[scale_row]
                s3 = state[:dc].reshape(d, c, lanes)
                s3 += acc
            m3 = m.transpose(1, 2, 0)
            block = np.multiply(p3[:, :1], m3[:1], out=nxt[..., :lanes])
            for j in range(1, d):
                block += np.multiply(p3[:, j:j + 1], m3[j:j + 1], out=tmp[..., :lanes])
            p3[...] = block
            retire = None
            if adaptive:
                prod = state[dc:dc + dd]
                retire = np.einsum("ij,ij->j", prod, prod) < state[thr_row]
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
                state = state.take(np.flatnonzero(~retire), axis=1)
            if not state.shape[1]:
                break
            if n % _RENORM_EVERY == 0:
                # pull the product norm into a log accumulator so strongly
                # contractive chains do not underflow the matrix entries
                prod = state[dc:dc + dd]
                safe = np.maximum(np.sqrt(np.einsum("ij,ij->j", prod, prod)), 1e-290)
                prod /= safe
                state[log_row] += np.log(safe)
                np.exp(state[log_row], out=state[scale_row])
                refresh_threshold(state)
            if adaptive and n >= cfg.max_terms:
                raise NonContractionError(
                    f"adaptive series exceeded {cfg.max_terms} terms; "
                    "the products are not contracting")
            m, q = draw(rng, state.shape[1])
    return (out[:dc].T.reshape(count, d, c), out[dc:dc + dd].T.reshape(count, d, d),
            out[log_row], depths)


def _stationary_chunk(env: Environment, count: int, cfg: SeriesConfig,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Backward-series draws for one tile; returns (values, realized depths)."""
    def draw(rng, lanes):
        m, q = sample_pairs(env, rng, lanes)
        return m, q[:, :, None]

    sums, _, _, depths = _walk_products(draw, count, cfg, rng)
    return sums[:, :, 0], depths


def sample_stationary(env: Environment, cfg: SeriesConfig, count: int,
                      threads: int = 1) -> SampleBatch:
    """count i.i.d. draws of the truncated backward series.

    Work is split into fixed-size tiles, small enough for a tile's state and
    draws to stay in a core's cache, each with its own substream, so the
    result is identical for any thread count.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    data = np.empty((count, env.dim))
    depths = np.empty(count, dtype=np.int64)

    def run_chunk(chunk_idx):
        start = chunk_idx * _STATIONARY_CHUNK
        part = slice(start, min(start + _STATIONARY_CHUNK, count))
        data[part], depths[part] = _stationary_chunk(
            env, part.stop - start, cfg, substream(cfg.seed, chunk_idx))

    chunks = range(-(-count // _STATIONARY_CHUNK))
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        list(map(run_chunk, chunks))
    info = {
        "truncation": int(depths.max()),
        "mean_depth": float(depths.mean()),
        "depth_quantiles": quantiles(depths),
        "tolerance": cfg.tolerance,
        "fixed_truncation": cfg.truncation,
    }
    return SampleBatch(data=data, kind="stationary", seed=cfg.seed, info=info)


def quantiles(x: np.ndarray) -> dict:
    """The 0.5, 0.9 and 0.99 quantiles of x, keyed by level."""
    levels = (0.5, 0.9, 0.99)
    return {str(p): float(v) for p, v in zip(levels, np.quantile(x, levels))}


def lyapunov(env: Environment, n_steps: int, replicas: int, rng) -> LyapunovEstimate:
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
    no_increment = np.empty((replicas, env.dim, 0))   # every lane runs all steps
    _, prod, log_scale, _ = _walk_products(
        lambda rng, lanes: (env.matrix_law.sample(rng, lanes), no_increment),
        replicas, SeriesConfig(truncation=n_steps), as_generator(rng))
    op = np.linalg.norm(prod, ord=2, axis=(1, 2))
    per_replica = (log_scale + np.log(op)) / n_steps
    beta = float(np.mean(per_replica))
    se = float(np.std(per_replica) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return LyapunovEstimate(beta=beta, std_error=se)
