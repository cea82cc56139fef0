"""Self-test of the benchmark: each workload at tiny sizes, and each
correctness check against a deliberately wrong answer.

    python3 -m pytest perfbench -q        (about a minute)
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks as ck
import layers
import run

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAW = ck.TwoPointScale((2.0, 0.5), (1 / 3, 2 / 3))
ALPHA = math.log(2.0) / 3.0


def test_benchmark_json_names_the_emitted_metrics():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in BENCH["end_to_end"]] == list(run.E2E_UNITS.values())
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(layers.METRICS.items())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


# layers each workload must exercise: (metric, must be positive)
EXERCISED = {
    "planar_run": ["recursion.series_terms", "recursion.ns_per_forward_step",
                   "env_models.ns_per_matrix_draw.similarity", "spectral.rho_evaluations",
                   "spectral.goldie_constant_peak_mb", "stable_limit.w_terms",
                   "batches.csv_mb", "cli.import_s", "cli.stage.assumptions_s"],
    "kappa_solve": ["spectral.operator_rebuilds", "spectral.s_per_operator_rebuild",
                    "env_models.ns_per_matrix_draw.similarity", "cli.stage.kappa_s"],
    "scalar_staged": ["recursion.series_terms", "recursion.ns_per_lyapunov_step",
                      "env_models.ns_per_matrix_draw.scalar_two_point", "batches.ns_per_row_read",
                      "cli.artifact_load_s", "cli.stage.sigma_s"],
}


OPS = {"planar_run": 1, "kappa_solve": 2, "scalar_staged": 6}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(workload):
    lines = []
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=False, tiny=True,
                               log=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] == run.MIN_ROUNDS * OPS[workload]
    if workload == "kappa_solve":
        # the sign-flipping law may fail (it does today); the d = 3 solve may not
        assert result["failed"] in (0, run.MIN_ROUNDS)
        assert sum(line.startswith("  spatial_d3: ok") for line in lines) == run.MIN_ROUNDS
    else:
        assert result["failed"] == 0, lines

    traced = run.run_benchmark(workload, seed=3, seconds=0, trace=True, tiny=True,
                               log=lines.append)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers.METRICS
    for name in EXERCISED[workload]:
        assert traced["metrics"][name]["value"] > 0, name


# ---------------------------------------------------------------------------
# every check accepts the analytic answer and rejects a wrong one
# ---------------------------------------------------------------------------

def solution(n=32, **over):
    doc = {"kappa": 1.0, "alpha": ALPHA, "rho_at_kappa": 1.0, "mc_per_point": 10_000,
           "grid": {"points": [[1.0, 0.0]] * n}, "r": [1.0] * n, "eta": [1.0 / n] * n}
    doc.update(over)
    return doc


def test_kappa_check():
    assert LAW.kappa((0.2, 3.0)) == pytest.approx(1.0, abs=1e-12)
    assert LAW.moment(1.0, 1) == pytest.approx(ALPHA, abs=1e-15)
    assert ck.check_kappa(solution(), LAW, (0.2, 3.0), 0.01) == []
    assert ck.check_kappa(solution(n=2), LAW, (0.2, 3.0), 0.01) == []
    for n in (2, 32, 64):
        assert ck.check_kappa(solution(n=n, kappa=1.1), LAW, (0.2, 3.0), 0.01)
        assert ck.check_kappa(solution(n=n, kappa=0.9), LAW, (0.2, 3.0), 0.01)
        assert ck.check_kappa(solution(n=n, alpha=ALPHA + 0.1), LAW, (0.2, 3.0), 0.01)
    assert ck.check_kappa(solution(rho_at_kappa=1.02), LAW, (0.2, 3.0), 0.01)


def test_eigen_isotropy_check():
    assert ck.check_eigen_isotropy(solution(), LAW) == []
    r = [1.0] * 32
    r[5] = 1.1
    assert ck.check_eigen_isotropy(solution(r=r), LAW)
    eta = np.full(32, 1.0)
    eta[:16] *= 1.2
    assert ck.check_eigen_isotropy(solution(eta=list(eta / eta.sum())), LAW)


def test_lyapunov_and_hill_checks():
    frag = {"beta": -math.log(2.0) / 3.0, "n_steps": 10_000, "replicas": 100}
    assert ck.check_lyapunov(frag, LAW) == []
    assert ck.check_lyapunov({**frag, "beta": frag["beta"] + 0.01}, LAW)
    assert ck.check_lyapunov({**frag, "beta": -frag["beta"]}, LAW)
    assert ck.check_hill({"hill_index": 1.02, "hill_k": 2000}, 1.0) == []
    assert ck.check_hill({"hill_index": 1.2, "hill_k": 2000}, 1.0)


def sigma_doc(counts, kappa=1.0, u=100.0, n=200_000):
    counts = np.asarray(counts, dtype=float)
    scale = kappa * u ** kappa / n
    return {"mass": list(scale * counts), "kappa": kappa, "threshold_used": u,
            "sample_count": n, "exceedances": int(counts.sum()),
            "grid": {"weights": [1.0 / counts.size] * counts.size}}


def test_sigma_check_rejects_broken_symmetry():
    assert ck.check_sigma_uniform(sigma_doc([1010, 990])) == []
    assert ck.check_sigma_uniform(sigma_doc([1200, 800]))          # lopsided +-1
    assert ck.check_sigma_uniform(sigma_doc([160] * 32)) == []
    assert ck.check_sigma_uniform(sigma_doc([200] * 16 + [120] * 16))


def tail_doc(k_plus, k_minus, n=200_000):
    thresholds = [50.0, 100.0, 200.0]
    return {"kappa_used": 1.0, "thresholds": thresholds,
            "directional_scaled_freq": {"(1)": [k_plus] * 3, "(-1)": [k_minus] * 3},
            "tail_constants": {"(1)": {"direct": k_plus}, "(-1)": {"direct": k_minus}}}


def test_scalar_K_symmetry_check():
    assert ck.check_scalar_K_symmetry(tail_doc(0.49, 0.50), 200_000) == []
    assert ck.check_scalar_K_symmetry(tail_doc(0.49, 0.65), 200_000)


def test_limit_isotropy_check():
    c = [[-0.355, 0.01], [-0.352, -0.01]] * 4
    assert ck.check_limit_isotropy({"c_values": c, "error_budget": 0.065}) == []
    assert ck.check_limit_isotropy(
        {"c_values": [[-0.5, 0.0]] + c[1:], "error_budget": 0.065})
    assert ck.check_limit_isotropy(
        {"c_values": [[-0.355, 0.2]] + c[1:], "error_budget": 0.065})
    assert ck.check_nondegenerate({"verdict": {"nondegenerate": True}}) == []
    assert ck.check_nondegenerate({"verdict": {"nondegenerate": False}})


def test_stationary_csv_and_size_checks(tmp_path):
    path = tmp_path / "stationary_samples.csv"
    rows = [f"{i}.5,{-i}" for i in range(100)]
    path.write_text("# kestenlab-batch {}\n# x0,x1\n" + "\n".join(rows) + "\n")
    assert ck.check_stationary_csv(path, 100, 2) == []
    assert ck.check_stationary_csv(path, 200_000, 2)
    rows[3] = "nan,-3"
    path.write_text("# x0,x1\n" + "\n".join(rows) + "\n")
    assert ck.check_stationary_csv(path, 100, 2)
    assert ck.check_sizes({"count": 200_000}, {"count": 200_000}, "stage_simulate") == []
    assert ck.check_sizes({"count": 200_000}, {"count": 500_000}, "stage_simulate")
