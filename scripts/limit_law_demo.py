#!/usr/bin/env python3
"""Watch the normalized partial sums converge to their stable limit.

For the scalar benchmark (tail index 1, symmetric driver) this solves
kappa-hat and runs the whole limit at it: the angular measure, C(v), and
the normalization n^(-1/kappa-hat).  It prints the sup distance between
the empirical characteristic function of n^(-1/kappa-hat) S_n and the
fitted limit exp(s^kappa-hat C(v)) along a doubling ladder of n, plus the
two-sample Kolmogorov distance between consecutive levels.
"""
import sys

import numpy as np

import kestenlab as kl
from kestenlab.rng import substream


def main() -> int:
    replicas = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint((2.0, 0.5), (1 / 3, 2 / 3)),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=True,
                         kappa0_hint=1.5)
    grid = kl.build_grid(1, 2)
    sol = kl.solve_kappa(env, grid, (0.2, 3.0), 20_000, substream(1, 1))
    batch = kl.sample_stationary(env, kl.SeriesConfig(tolerance=1e-9), 500_000, substream(1, 2))
    sigma = kl.estimate_sigma(batch, float(np.quantile(batch.norms(), 0.99)),
                              grid, sol.kappa, True)
    cent = kl.centering(env, sol.kappa, batch)
    dirs = np.array([[1.0], [-1.0]])
    cache = kl.sample_w_matrices(env, kl.W_SERIES, 4000, substream(1, 3))
    law = kl.compute_stable_law(env, sigma, dirs, cache)
    print(f"kappa = {sol.kappa:.4f}, C(+1) = {law.c_values[0]:.4f}, "
          f"budget = {law.error_budget:.4f}\n")
    s_values = np.linspace(0.1, 2.0, 16)
    previous = None
    for exp in (10, 11, 12, 13, 14):
        n = 2 ** exp
        sums = kl.birkhoff_sums(env, kl.PathConfig(n_steps=n, start_x=(0.0,), replicas=replicas),
                                substream(1, 4, exp))
        ecf = kl.empirical_cf(sums, n, cent, s_values, dirs)
        line = f"n = 2^{exp:<3d} sup |ecf - cf| = {kl.stable_fit_check(ecf, law):.4f}"
        if previous is not None:
            ks = kl.stable_limit.self_similarity_check(previous, sums, cent, dirs)
            line += f"   KS vs previous = {ks.max():.4f}"
        print(line)
        previous = sums
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
