import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
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
            "q_symmetric": True, "kappa0_hint": 1.5,
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


class Block(NamedTuple):
    """A test value that sets the block at `path` instead of the tested key:
    how a test reaches a key missing from a block, or one inside a list."""
    path: str
    block: dict


def config_setting(tmp_path, path, value):
    """The mini config with `path` set to `value`, creating missing blocks."""
    cfg = mini_config(tmp_path / "out")
    if isinstance(value, Block):
        path, value = value
    node = cfg
    *parents, last = path.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    return config


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


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ecf.csv"
    rows = np.array([[0.1, 0.0, 1.0, -0.0], [2.0, 1.0, 1e-300, 3.5]])
    cli._write_csv(path, rows, "s,direction_index,re,im")
    before = path.read_bytes()
    np.savetxt(tmp_path / "plain.csv", rows, fmt="%.17g", delimiter=",",
               header="s,direction_index,re,im")
    assert before == (tmp_path / "plain.csv").read_bytes()
    (tmp_path / "plain.csv").unlink()

    def partial_then_fail(fh, *args, **kwargs):
        fh.write("0.5,0,")
        raise OSError("disk full")

    monkeypatch.setattr(cli.np, "savetxt", partial_then_fail)
    with pytest.raises(OSError):
        cli._write_csv(path, 2 * rows, "s,direction_index,re,im")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ecf.csv"]


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


@pytest.mark.parametrize("path, value", [
    ("grid.bandwidth", 0.3),              # the removed kernel smoother's bandwidth
    ("mc.limit.s_max", 50.0),             # a default that nothing read
    ("mc.stationry", {"count": 10}),      # a misspelled block
    ("mc.spectral.mc_per_pt", 500),       # a misspelled size
    ("checks.rho_bnd", 0.5),
    ("output.format", ["json"]),
    ("gird", {"resolution": 8}),          # a misspelled top-level block
    ("mc.limit.self_similarity", False),  # the removed n / 2n KS knob
    ("env.matrix_law.scal", Block("env.matrix_law", {"family": "gaussian", "scal": 0.1})),
    ("env.matrix_law.components[1].scal", Block("env.matrix_law", {
        "family": "mixture", "weights": [0.5, 0.5],
        "components": [{"family": "constant", "scale": 0.5},
                       {"family": "constant", "scal": 0.5}]})),
    ("env.vector_law.scal", 0.1),
    ("env.q_symetric", True),
    ("env.independent_mq", True),         # the removed one-valued knob
])
def test_config_rejects_unknown_key(tmp_path, capsys, path, value):
    config = config_setting(tmp_path, path, value)
    with pytest.raises(CliConfigError, match=f"^{re.escape(path)}: unknown key"):
        load_config(config)
    assert cli.main(["run", "--config", str(config)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("mc.tails.top_fraction", 0.2),           # hill_tail_index needs (0, 0.05]
    ("mc.tails.top_fraction", "x"),
    ("mc.tails.threshold_quantiles", [0.99, 1.5]),
    ("mc.tails.threshold_quantiles", [0.99, 0.98]),
    ("mc.tails.threshold_quantiles", []),
    ("mc.sigma.threshold_quantile", 2.0),
    ("mc.tails.n_directions", 0),
    ("mc.limit.n_directions", 1.5),
    ("mc.limit.s_values", [0.5, -1.0]),
    ("mc.limit.s_values", []),
    ("mc.sigma.invariance_mc", 50),
    ("checks.rho_band", -0.01),
    ("checks.cf_deviation_max", "wide"),
    ("env.matrix_law.scale_values", Block("env.matrix_law", {
        "family": "similarity", "scale_probs": [1.0]})),
    ("env.q_symmetric", "false"),
    ("env.matrix_law.matrix[0][0]", Block("env.matrix_law", {
        "family": "constant", "matrix": [["0.5"]]})),
    ("env.matrix_law.matrix[0][0]", Block("env.matrix_law", {
        "family": "constant", "matrix": [[float("inf")]]})),
    ("env.matrix_law.components[1].matrix[0][0]", Block("env.matrix_law", {
        "family": "mixture", "weights": [0.5, 0.5],
        "components": [{"family": "constant", "scale": 0.5},
                       {"family": "constant", "matrix": [[True]]}]})),
])
def test_config_rejects_bad_value(tmp_path, capsys, path, value):
    config = config_setting(tmp_path, path, value)
    with pytest.raises(CliConfigError, match=f"^{re.escape(path)}"):
        load_config(config)
    for command in ("run", "tail"):
        assert cli.main([command, "--config", str(config)]) == 2
        assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("source", [
    *sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "scripts" / "configs").glob("*.yaml")),
    "README.md"])
def test_shipped_configs_validate(source):
    """The checked-in configs and README's Configuration example follow the
    schema."""
    text = (ROOT / source).read_text()
    if source == "README.md":
        text = text.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    validate_config(yaml.safe_load(text))


def test_config_rejects_block_that_is_not_a_mapping(tmp_path):
    path, _ = write_config(tmp_path, **{"mc.lyapunov": 5})
    with pytest.raises(CliConfigError, match="^mc.lyapunov: expected a mapping"):
        load_config(path)


def test_config_seed_default_and_value(tmp_path):
    path, _ = write_config(tmp_path)
    assert load_config(path).seed == 1234
    cfg = mini_config(tmp_path / "out")
    del cfg["mc"]["seed"]
    drawn = validate_config(cfg).seed
    assert isinstance(drawn, int) and drawn >= 0


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
    w_depths = report["stages"]["limit"]["w_depth_quantiles"]
    assert list(w_depths) == ["0.5", "0.9", "0.99"]
    assert 1 <= w_depths["0.5"] <= w_depths["0.9"] <= w_depths["0.99"]


def test_full_pipeline_loads_no_scipy(tmp_path):
    """The whole pipeline at d <= 3 runs on numpy alone: scipy is imported
    only inside the few functions outside it that need it."""
    path, outdir = write_config(tmp_path)
    code = ("import sys\n"
            "from kestenlab import cli\n"
            f"rc = cli.main(['run', '--config', {str(path)!r}])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print('scipy modules:', loaded)\n"
            "sys.exit(rc or (3 if loaded else 0))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
    assert set(json.loads((outdir / "report.json").read_text())["stages"]) == set(cli.STAGES)


def test_kappa_subcommand(tmp_path, capsys):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["kappa", "--config", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kappa" in out
    doc = json.loads((outdir / "spectral_solution.json").read_text())
    assert abs(doc["kappa"] - 1.0) <= 0.1
    assert doc["env_hash"] == load_config(path).env_hash


def test_kappa_subcommand_similarity_d3(tmp_path, capsys):
    # M = c * (uniform rotation of R^3), c in {2, 1/2} with probabilities
    # 1/3, 2/3: kappa = 1, alpha = (1/3) log 2 and sd(|c|) = sqrt(1/2)
    path, outdir = write_config(
        tmp_path, pipeline=["kappa"], **{
            "env.dim": 3,
            "env.matrix_law": {"family": "similarity", "scale_values": [2.0, 0.5],
                               "scale_probs": [1 / 3, 2 / 3]},
            "env.vector_law": {"family": "gaussian"},
            "grid.resolution": 16,
            "mc.spectral.mc_per_point": 2000})
    # at 2000 draws a row the eigen-residual check (sup norm 0.05) is at its
    # noise level, about 0.02 a row, so its verdict, and with it the exit
    # status 0 or 1, is left open here
    assert cli.main(["kappa", "--config", str(path)]) in (0, 1)
    frag = json.loads((outdir / "stage_kappa.json").read_text())
    assert frag["checks"]["kappa_rho_band"] is True
    doc = json.loads((outdir / "spectral_solution.json").read_text())
    assert len(doc["grid"]["points"]) == 16
    se = math.sqrt(0.5) / math.sqrt(2000 * 16)
    tol = 1e-3 + (abs(doc["rho_at_kappa"] - 1.0) + 4.0 * se) / (math.log(2.0) / 3.0)
    assert abs(doc["kappa"] - 1.0) <= tol
    hist = np.loadtxt(outdir / "rho_history.csv", delimiter=",", ndmin=2)
    assert hist.shape == (len(doc["rho_history"]), 2)


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
    assert "--n" in capsys.readouterr().err
    assert not outdir.exists()
    rc = cli.main(["simulate", "--config", str(path), "--n", "2000"])
    assert rc == 0
    from kestenlab.batches import SampleBatch
    assert SampleBatch.from_csv(outdir / "stationary_samples.csv").count == 2000
    # the override runs through the same path as every stage command
    report = json.loads((outdir / "report.json").read_text())
    assert list(report["stages"]) == ["simulate"]
    assert report["stages"]["simulate"]["count"] == 2000


def test_count_override_leaves_defaults_alone(tmp_path):
    cfg = mini_config(tmp_path / "out")
    del cfg["mc"]["stationary"]
    assert validate_config(cfg, count_override=7).mc["stationary"]["count"] == 7
    assert validate_config(cfg).mc["stationary"]["count"] == 200_000


def test_assumptions_subcommand(tmp_path):
    path, outdir = write_config(tmp_path)
    assert cli.main(["assumptions", "--config", str(path)]) == 0
    doc = json.loads((outdir / "stage_assumptions.json").read_text())
    assert doc["stage"] == "assumptions"
    assert doc["result"]["entries"]
    assert doc["checks"] == {"assumptions_checkable_pass": True}


def test_simulate_fragment_reports_quantiles_not_mean(tmp_path):
    path, outdir = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path), "--n", "4000"]) == 0
    result = json.loads((outdir / "stage_simulate.json").read_text())["result"]
    # kappa = 1 here: the law of R has no mean to report
    assert "mean" not in result
    for key in ("norm_quantiles", "depth_quantiles"):
        q = result[key]
        assert list(q) == ["0.5", "0.9", "0.99"]
        assert 0.0 < q["0.5"] <= q["0.9"] <= q["0.99"]
    assert result["depth_quantiles"]["0.99"] <= result["truncation"]


def test_lock_refuses_concurrent_runs(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    outdir.mkdir(parents=True)
    # the lock names a live process: this one
    (outdir / cli.LOCK_NAME).write_text(str(os.getpid()))
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 1
    assert "lock" in capsys.readouterr().err
    assert (outdir / cli.LOCK_NAME).read_text() == str(os.getpid())


def test_lock_of_dead_process_is_replaced(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    outdir.mkdir(parents=True)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lock = outdir / cli.LOCK_NAME
    lock.write_text(str(child.pid))
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert f"stale lock {lock}" in err and str(child.pid) in err
    assert not lock.exists()
    assert (outdir / "stage_lyapunov.json").exists()


def test_mixture_law_lyapunov(tmp_path):
    # half the draws are 2 or 1/2 (probabilities 1/3, 2/3), half are 1/2:
    # beta = E log|M| = (1/2)(-(1/3) log 2) + (1/2)(-log 2) = -(2/3) log 2
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"], **{"env.matrix_law": {
        "family": "mixture",
        "components": [{"family": "scalar_two_point"}, {"family": "constant", "scale": 0.5}],
        "weights": [0.5, 0.5]}})
    assert cli.main(["lyapunov", "--config", str(path)]) == 0
    frag = json.loads((outdir / "stage_lyapunov.json").read_text())["result"]
    assert abs(frag["beta"] + (2.0 / 3.0) * math.log(2.0)) <= 3 * frag["std_error"]


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
