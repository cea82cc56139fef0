"""Acceptance suite: every criterion at its stated tolerance.

Heavy artifacts (10^6-draw stationary batches, solved exponents, partial-sum
ensembles) are module-scoped fixtures shared across criteria.  Each test
prints one PASS/FAIL line; run with -s to see them on success.
"""
import json
import math
import time

import numpy as np
import pytest
import yaml

import kestenlab as kl
from kestenlab import cli
from kestenlab.env_models import operator_norm
from kestenlab.rng import substream
from kestenlab.spectral import fixed_point_residuals
from kestenlab.tails import exceedance_curve

BETA_TRUE = -math.log(2.0) / 3.0
SEED = 41


def criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scalar_solution_acc(scalar_env, grid1):
    t0 = time.perf_counter()
    sol = kl.solve_kappa(scalar_env, grid1, (0.2, 3.0), 10_000, substream(SEED, 1))
    sol.runtime = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="module")
def sim_solution_acc(similarity_env, grid2):
    t0 = time.perf_counter()
    sol = kl.solve_kappa(similarity_env, grid2, (0.2, 3.0), 10_000, substream(SEED, 2))
    sol.runtime = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="module")
def scalar_1m(scalar_env):
    return kl.sample_stationary(scalar_env, kl.SeriesConfig(tolerance=1e-9),
                                1_000_000, substream(4101))


@pytest.fixture(scope="module")
def sim_1m(similarity_env):
    return kl.sample_stationary(similarity_env, kl.SeriesConfig(tolerance=1e-9),
                                1_000_000, substream(4102))


@pytest.fixture(scope="module")
def scalar_sigma_acc(scalar_1m, scalar_solution_acc, grid1):
    u = float(np.quantile(scalar_1m.norms(), 0.99))
    return kl.estimate_sigma(scalar_1m, u, grid1, scalar_solution_acc.kappa, True)


@pytest.fixture(scope="module")
def sim_sigma_acc(sim_1m, sim_solution_acc, grid2):
    u = float(np.quantile(sim_1m.norms(), 0.99))
    return kl.estimate_sigma(sim_1m, u, grid2, sim_solution_acc.kappa, True)


@pytest.fixture(scope="module")
def scalar_centering_acc(scalar_env, scalar_1m, scalar_solution_acc):
    return kl.centering(scalar_env, scalar_solution_acc.kappa, scalar_1m)


@pytest.fixture(scope="module")
def scalar_law_acc(scalar_env, scalar_sigma_acc):
    cache = kl.sample_w_matrices(scalar_env, kl.W_SERIES, 4000, substream(SEED, 10))
    return kl.compute_stable_law(scalar_env, scalar_sigma_acc, np.array([[1.0], [-1.0]]),
                                 cache)


@pytest.fixture(scope="module")
def birkhoff_sums_acc(scalar_env):
    t0 = time.perf_counter()
    sums13 = kl.birkhoff_sums(scalar_env, kl.PathConfig(
        n_steps=2 ** 13, start_x=(0.0,), replicas=20_000), substream(77))
    sums14 = kl.birkhoff_sums(scalar_env, kl.PathConfig(
        n_steps=2 ** 14, start_x=(0.0,), replicas=20_000), substream(78))
    return sums13, sums14, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_kappa_solver_scalar(scalar_solution_acc):
    sol = scalar_solution_acc
    ok = 0.97 <= sol.kappa <= 1.03 and sol.runtime < 60.0
    criterion(1, "kappa solver, scalar two-point", ok,
              f"kappa={sol.kappa:.4f}, runtime={sol.runtime:.1f}s")


def test_c02_kappa_solver_similarity(similarity_env, sim_solution_acc):
    sol = sim_solution_acc
    m = similarity_env.matrix_law.sample(substream(SEED, 7), 100_000)
    moment = float(np.mean(operator_norm(m) ** sol.kappa))
    ok = 0.95 <= sol.kappa <= 1.05 and 0.98 <= moment <= 1.02
    criterion(2, "kappa solver, planar similarity", ok,
              f"kappa={sol.kappa:.4f}, E||M||^kappa={moment:.4f}")


def test_c03_lyapunov(scalar_env):
    t0 = time.perf_counter()
    est = kl.lyapunov(scalar_env, 10_000, 100, substream(SEED, 20))
    runtime = time.perf_counter() - t0
    ok = abs(est.beta - BETA_TRUE) <= 3 * est.std_error and runtime < 30.0
    criterion(3, "Lyapunov exponent", ok,
              f"beta={est.beta:.5f} vs {BETA_TRUE:.5f}, 3se={3 * est.std_error:.5f}, "
              f"runtime={runtime:.1f}s")


def test_c04_eigen_residuals(scalar_env, similarity_env, scalar_solution_acc,
                             sim_solution_acc):
    r1, e1 = fixed_point_residuals(scalar_solution_acc, scalar_env, 10_000,
                                   substream(SEED, 3))
    r2, e2 = fixed_point_residuals(sim_solution_acc, similarity_env, 10_000,
                                   substream(SEED, 8))
    ok = max(r1, r2) <= 0.05 and max(e1, e2) <= 0.05
    criterion(4, "eigen-residuals at solved kappa", ok,
              f"scalar r={r1:.4f} eta={e1:.4f}; similarity r={r2:.4f} eta={e2:.4f}")


def test_c05_sigma_invariance(scalar_env, similarity_env, scalar_solution_acc,
                              sim_solution_acc, scalar_sigma_acc, sim_sigma_acc):
    res1 = kl.check_sigma_invariance(scalar_sigma_acc, scalar_env, 10_000,
                                     substream(SEED, 4))
    res2 = kl.check_sigma_invariance(sim_sigma_acc, similarity_env, 10_000,
                                     substream(SEED, 9))
    ok = res1 <= 0.10 and res2 <= 0.10
    criterion(5, "angular-measure invariance", ok,
              f"scalar residual={res1:.4f}, similarity residual={res2:.4f}")


def test_c06_product_structure(scalar_1m, sim_1m, scalar_solution_acc,
                               sim_solution_acc, grid1, grid2):
    results = []
    for batch, sol, grid in ((scalar_1m, scalar_solution_acc, grid1),
                             (sim_1m, sim_solution_acc, grid2)):
        norms = batch.norms()
        rep = kl.check_product_structure(batch, float(np.quantile(norms, 0.98)),
                                         float(np.quantile(norms, 0.995)), grid)
        results.append((rep.angular_distance, abs(rep.radial_index - sol.kappa)))
    ok = all(tv <= 0.08 and gap <= 0.1 for tv, gap in results)
    criterion(6, "polar product structure", ok,
              "; ".join(f"tv={tv:.4f}, |radial-kappa|={gap:.4f}" for tv, gap in results))


def test_c07_tail_constant_triangulation(scalar_env, scalar_1m, scalar_solution_acc):
    sol = scalar_solution_acc
    goldie = kl.goldie_constant(sol, scalar_env, scalar_1m, np.array([[1.0]]),
                                substream(SEED, 5))
    k_goldie = float(goldie.values[0])
    # the exceedance curve of <+1, R>: its plateau over the tail quantiles,
    # and its limit extrapolated in t = 1/u from u = 1/t, t in 0.002...0.016
    x = scalar_1m.data[:, 0]
    thresholds = np.quantile(scalar_1m.norms(), [0.98, 0.99, 0.995])
    k_direct, _ = exceedance_curve(x, sol.kappa, thresholds).plateau()
    k_func = exceedance_curve(x, sol.kappa, 1.0 / np.array([0.002, 0.004, 0.008, 0.016])).limit()
    trio = (k_goldie, k_direct, k_func)
    ok = all(abs(a - b) <= 0.3 * min(abs(a), abs(b))
             for i, a in enumerate(trio) for b in trio[i + 1:])
    criterion(7, "tail-constant triangulation", ok,
              f"goldie={k_goldie:.4f}, direct={k_direct:.4f}, functional={k_func:.4f}")


def test_c08_hill_index(scalar_1m, scalar_solution_acc):
    est = kl.hill_tail_index(scalar_1m, 0.01)
    gap = abs(est.index - scalar_solution_acc.kappa)
    ok = gap <= 0.1
    criterion(8, "Hill index vs solved kappa", ok,
              f"hill={est.index:.4f}, kappa={scalar_solution_acc.kappa:.4f}, gap={gap:.4f}")


def test_c09_self_similarity(birkhoff_sums_acc, scalar_law_acc, scalar_centering_acc):
    sums13, sums14, sim_time = birkhoff_sums_acc
    t0 = time.perf_counter()
    max_ks = kl.stable_limit.self_similarity_check(
        sums13, sums14, scalar_centering_acc, np.array([[1.0], [-1.0]])).max()
    runtime = sim_time + (time.perf_counter() - t0)
    ok = max_ks <= 0.05 and runtime < 600.0
    criterion(9, "stable-limit self-similarity", ok,
              f"max KS={max_ks:.4f}, runtime={runtime:.0f}s")


def test_c10_cf_convergence(birkhoff_sums_acc, scalar_law_acc, scalar_centering_acc):
    _, sums14, _ = birkhoff_sums_acc
    s_values = np.linspace(0.1, 2.0, 16)
    ecf = kl.empirical_cf(sums14, 2 ** 14, scalar_centering_acc, s_values,
                          scalar_law_acc.directions)
    deviation = kl.stable_fit_check(ecf, scalar_law_acc)
    band = 0.15 + scalar_law_acc.error_budget
    ok = deviation <= band
    criterion(10, "characteristic-function convergence", ok,
              f"sup deviation={deviation:.4f}, band={band:.4f} "
              f"(budget {scalar_law_acc.error_budget:.4f})")


def test_c11_nondegeneracy(scalar_env, similarity_env, scalar_law_acc,
                           sim_solution_acc, sim_sigma_acc,
                           scalar_solution_acc, scalar_sigma_acc, grid2):
    sim_law = kl.compute_stable_law(
        similarity_env, sim_sigma_acc, grid2.points[::4],
        kl.sample_w_matrices(similarity_env, kl.W_SERIES, 3000, substream(SEED, 11)))
    verdict_scalar = kl.nondegeneracy(scalar_law_acc)
    verdict_sim = kl.nondegeneracy(sim_law)
    c1 = kl.cos_tail_constant(1.0)
    tp_scalar = kl.transposed_positivity_check(
        scalar_sigma_acc, np.array([1.0]),
        kl.sample_w_matrices(scalar_env, kl.W_SERIES, 4000, substream(SEED, 12)))
    tp_sim = kl.transposed_positivity_check(
        sim_sigma_acc, grid2.points[0],
        kl.sample_w_matrices(similarity_env, kl.W_SERIES, 4000, substream(SEED, 13)))
    ok = (verdict_scalar.all_negative and verdict_sim.all_negative
          and verdict_scalar.nondegenerate and verdict_sim.nondegenerate
          and abs(c1 + math.pi / 2) <= 1e-4
          and tp_scalar.positive and tp_sim.positive)
    criterion(11, "nondegeneracy of the limit law", ok,
              f"max Re C scalar={scalar_law_acc.c_values.real.max():.4f}, "
              f"similarity={sim_law.c_values.real.max():.4f}, "
              f"C(1)={c1:.6f}, positivity=({tp_scalar.positive}, {tp_sim.positive})")


def test_c12_reproducibility(tmp_path):
    cfg = {
        "env": {"dim": 1,
                "matrix_law": {"family": "scalar_two_point", "values": [2.0, 0.5],
                               "probs": [1 / 3, 2 / 3]},
                "vector_law": {"family": "constant", "values": [1.0]},
                "q_symmetric": True, "kappa0_hint": 1.5},
        "grid": {"resolution": 2},
        "mc": {"seed": 987654321,
               "lyapunov": {"n_steps": 2000, "replicas": 40},
               "stationary": {"count": 60000, "tolerance": 1e-9},
               "spectral": {"mc_per_point": 10000},
               "sigma": {"invariance_mc": 4000},
               "limit": {"log2_n": 11, "replicas": 1500, "w_draws": 800,
                         "n_directions": 2}},
        "pipeline": ["lyapunov", "simulate", "kappa", "tail", "sigma",
                     "limit", "nondeg"],
        "output": {"directory": ""},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    payloads = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 0
        # every file the run wrote, report.json without its wall times
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        report = json.loads(files["report.json"])
        report.pop("timing")
        files["report.json"] = cli.canonical_json(report).encode()
        payloads.append(files)
    differ = sorted(name for name in payloads[0].keys() | payloads[1].keys()
                    if payloads[0].get(name) != payloads[1].get(name))
    criterion(12, "byte-identical reruns", not differ,
              f"all {len(payloads[0])} files identical" if not differ
              else f"files differ: {', '.join(differ)}")
