import json
import math

import pytest
import yaml

from kestenlab import cli
from kestenlab.cli import (CliConfigError, canonical_json, derive_seed,
                           env_hash, load_config, validate_config)


def mini_config(outdir, **overrides):
    cfg = {
        "env": {
            "dim": 1,
            "matrix_law": {"family": "scalar_two_point", "values": [2.0, 0.5],
                           "probs": [1 / 3, 2 / 3]},
            "vector_law": {"family": "constant", "values": [1.0]},
            "independent_mq": True, "q_symmetric": True, "kappa0_hint": 1.5,
        },
        "grid": {"resolution": 2},
        "mc": {
            "seed": 1234,
            "assumptions_n": 2000,
            "lyapunov": {"n_steps": 2000, "replicas": 40},
            "stationary": {"count": 60000, "tolerance": 1e-9},
            "spectral": {"mc_per_point": 20000, "bracket": [0.2, 3.0]},
            "tails": {"top_fraction": 0.01,
                      "threshold_quantiles": [0.98, 0.99, 0.995],
                      "n_directions": 2},
            "sigma": {"threshold_quantile": 0.99, "invariance_mc": 5000},
            "limit": {"log2_n": 11, "replicas": 1500, "w_draws": 800,
                      "s_values": [0.1, 0.5, 1.0, 2.0], "n_directions": 2},
        },
        "pipeline": ["assumptions", "lyapunov", "simulate", "kappa", "tail",
                     "sigma", "limit", "nondeg"],
        "output": {"directory": str(outdir), "formats": ["json", "csv"]},
    }
    for key, value in overrides.items():
        node = cfg
        *path, last = key.split(".")
        for part in path:
            node = node[part]
        node[last] = value
    return cfg


def write_config(tmp_path, name="config.yaml", **overrides):
    outdir = tmp_path / "out"
    cfg = mini_config(outdir, **overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path, outdir


# ---------------------------------------------------------------------------
# configuration and canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_json_is_sorted_and_precise():
    doc = {"b": 1.0 / 3.0, "a": [1, 2.5e-300, True, None], "c": "x"}
    text = canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.33333333333333331" in text
    assert json.loads(text)["b"] == 1.0 / 3.0


def test_failed_json_write_keeps_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    cli.write_canonical_json({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli.write_canonical_json({"a": 2, "b": object()}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_env_hash_ignores_key_order():
    a = {"dim": 1, "matrix_law": {"family": "x", "values": [1, 2]}}
    b = {"matrix_law": {"values": [1, 2], "family": "x"}, "dim": 1}
    assert env_hash(a) == env_hash(b)
    assert env_hash(a) != env_hash({**a, "dim": 2})


def test_derive_seed_is_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_config_schema_diagnostics(tmp_path):
    path, _ = write_config(tmp_path, **{"grid.resolution": -2})
    with pytest.raises(CliConfigError, match="grid.resolution"):
        load_config(path)


def test_config_rejects_unknown_stage(tmp_path):
    path, _ = write_config(tmp_path, pipeline=["frobnicate"])
    with pytest.raises(CliConfigError, match="pipeline"):
        load_config(path)


def test_config_rejects_out_of_order_pipeline(tmp_path):
    path, _ = write_config(tmp_path, pipeline=["tail", "simulate", "kappa"])
    with pytest.raises(CliConfigError, match="needs"):
        load_config(path)


def test_malformed_config_writes_nothing(tmp_path, capsys):
    path, outdir = write_config(tmp_path, **{"grid.resolution": -2})
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 2
    assert "grid.resolution" in capsys.readouterr().err
    assert not outdir.exists()


def test_validate_config_requires_env():
    with pytest.raises(CliConfigError, match="env"):
        validate_config({"pipeline": []})


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

def test_empty_pipeline_empty_report(tmp_path):
    path, outdir = write_config(tmp_path, pipeline=[])
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["stages"] == {}
    assert report["checks"] == {}


def test_lyapunov_only_pipeline(tmp_path):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert set(report["stages"]) == {"lyapunov"}
    beta = report["stages"]["lyapunov"]["beta"]
    assert abs(beta - (-math.log(2.0) / 3.0)) < 0.02


def test_full_pipeline_green(tmp_path):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert all(report["checks"].values())
    for name in ("spectral_solution.json", "sigma.json", "stable_law.json",
                 "stationary_samples.csv", "ecf.csv", "report.json"):
        assert (outdir / name).exists()
    assert abs(report["stages"]["kappa"]["kappa"] - 1.0) <= 0.1


def test_kappa_subcommand(tmp_path, capsys):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["kappa", "--config", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kappa" in out
    doc = json.loads((outdir / "spectral_solution.json").read_text())
    assert abs(doc["kappa"] - 1.0) <= 0.1
    assert doc["env_hash"] == load_config(path).env_hash


def test_kappa_subcommand_sign_flip(tmp_path, capsys):
    # M in {-2, -1/2} flips the sign every step: a periodic direction chain
    path, outdir = write_config(tmp_path, **{"env.matrix_law.values": [-2.0, -0.5]})
    rc = cli.main(["kappa", "--config", str(path)])
    assert rc == 0
    doc = json.loads((outdir / "spectral_solution.json").read_text())
    assert abs(doc["kappa"] - 1.0) <= 0.1
    assert doc["reducible_directions"] is False


def test_stagewise_run_matches_full_run(tmp_path):
    path, outdir = write_config(tmp_path, pipeline=["simulate", "kappa", "sigma"])
    assert cli.main(["run", "--config", str(path)]) == 0
    full = (outdir / "sigma.json").read_bytes()
    outdir2 = tmp_path / "out2"
    for stage in ("simulate", "kappa", "sigma"):
        assert cli.main([stage, "--config", str(path), "--out", str(outdir2)]) == 0
    assert (outdir2 / "sigma.json").read_bytes() == full


def test_missing_upstream_artifact_names_file(tmp_path, capsys):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["tail", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "stationary_samples.csv" in err and "simulate" in err


def test_env_hash_mismatch_refused(tmp_path, capsys):
    path_a, outdir = write_config(tmp_path, name="a.yaml")
    assert cli.main(["simulate", "--config", str(path_a)]) == 0
    assert cli.main(["kappa", "--config", str(path_a)]) == 0
    path_b, _ = write_config(tmp_path, name="b.yaml",
                             **{"env.matrix_law.probs": [0.25, 0.75]})
    rc = cli.main(["tail", "--config", str(path_b)])
    assert rc == 1
    assert "hash" in capsys.readouterr().err


def test_simulate_count_override_and_validation(tmp_path, capsys):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["simulate", "--config", str(path), "--n", "0"])
    assert rc == 2
    rc = cli.main(["simulate", "--config", str(path), "--n", "2000"])
    assert rc == 0
    from kestenlab.batches import SampleBatch
    assert SampleBatch.from_csv(outdir / "stationary_samples.csv").count == 2000


def test_lock_refuses_concurrent_runs(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    outdir.mkdir(parents=True)
    (outdir / cli.LOCK_NAME).write_text("123")
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 1
    assert "lock" in capsys.readouterr().err


def test_report_subcommand_aggregates(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov", "kappa"])
    assert cli.main(["run", "--config", str(path)]) == 0
    full = json.loads((outdir / "report.json").read_text())
    assert set(full["checks"]) == {"lyapunov_contractive", "kappa_rho_band",
                                   "kappa_eigen_residuals"}
    (outdir / "report.json").unlink()
    rc = cli.main(["report", "--out", str(outdir)])
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert set(report["stages"]) == {"lyapunov", "kappa"}
    assert report["checks"] == full["checks"]
    # one process per stage: each run overwrites report.json with its own
    # verdicts, and report rebuilds all of them from the stage fragments
    staged = tmp_path / "staged"
    for stage in ("lyapunov", "kappa"):
        assert cli.main([stage, "--config", str(path), "--out", str(staged)]) == 0
    assert cli.main(["report", "--out", str(staged)]) == 0
    report = json.loads((staged / "report.json").read_text())
    assert report["checks"] == full["checks"]


def test_report_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    rc = cli.main(["report", "--out", str(missing)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert err.count("\n") == 1
    assert not missing.exists()


def test_threads_env_var(tmp_path, monkeypatch):
    path, outdir = write_config(tmp_path, pipeline=["simulate"])
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
    assert cli.main(["run", "--config", str(path)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["threads"] == 2


def test_reproducibility_smoke(tmp_path):
    path, _ = write_config(tmp_path, pipeline=["simulate", "kappa"])
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    assert cli.main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "spectral_solution.json").read_bytes() == \
        (out_b / "spectral_solution.json").read_bytes()
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    rep_a.pop("timing"), rep_b.pop("timing")
    assert canonical_json(rep_a) == canonical_json(rep_b)


def test_failed_check_sets_exit_status(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["simulate", "kappa", "sigma"],
                                checks={"sigma_invariance_max": 1e-9})
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 1
    assert "sigma_invariance" in capsys.readouterr().err
    # the partial report still records the failure
    report = json.loads((outdir / "report.json").read_text())
    assert report["checks"]["sigma_invariance"] is False


def test_seed_override_changes_results(tmp_path):
    path, _ = write_config(tmp_path, pipeline=["simulate"])
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert cli.main(["run", "--config", str(path), "--out", str(out_a),
                     "--seed", "1"]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out_b),
                     "--seed", "2"]) == 0
    assert (out_a / "stationary_samples.csv").read_bytes() != \
        (out_b / "stationary_samples.csv").read_bytes()
