import tracemalloc

import numpy as np
import pytest

import kestenlab as kl
from kestenlab.rng import substream


@pytest.fixture(scope="session")
def scalar_env():
    """M in {2, 1/2} with probabilities 1/3, 2/3; Q = +-1 equiprobable.
    Tail index exactly 1, log-growth rate -(1/3) log 2."""
    return kl.Environment(
        dim=1,
        matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (1 / 3, 2 / 3)),
        vector_law=kl.ConstantVector((1.0,)),
        q_symmetric=True,
        kappa0_hint=1.5,
    )


@pytest.fixture(scope="session")
def similarity_env():
    """M = c * (uniform planar rotation) with the same two-point c,
    Q standard Gaussian. Tail index 1 with E||M||^kappa = 1."""
    return kl.Environment(
        dim=2,
        matrix_law=kl.Similarity(2, (2.0, 0.5), (1 / 3, 2 / 3)),
        vector_law=kl.GaussianVector(2, 1.0),
        q_symmetric=True,
        kappa0_hint=1.5,
    )


@pytest.fixture(scope="session")
def grid1():
    return kl.build_grid(1, 2)


@pytest.fixture(scope="session")
def grid2():
    return kl.build_grid(2, 32)


@pytest.fixture(scope="session")
def scalar_batch(scalar_env):
    """Medium-size stationary sample of the scalar benchmark."""
    return kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9),
                                400_000, substream(301))


@pytest.fixture(scope="session")
def scalar_solution(scalar_env, grid1):
    return kl.solve_kappa(scalar_env, grid1, (0.2, 3.0), 50_000, kl.substream(301, 1))


def three_se(values: np.ndarray) -> float:
    return 3.0 * float(np.std(values) / np.sqrt(len(values)))


@pytest.fixture
def traced_peak():
    """The peak of the memory tracemalloc sees while call() runs, in bytes."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
