import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml

import kestenlab
from kestenlab import batches, cli, recursion, stable_limit
from kestenlab.batches import SampleBatch, canonical_json, from_json
from kestenlab.cli import STAGE_INDEX, CliConfigError, env_hash, load_config, validate_config
from kestenlab.env_models import Environment
from kestenlab.rng import substream


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
        "output": {"directory": str(outdir)},
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
    batches.write_canonical_json({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        batches.write_canonical_json({"a": 2, "b": object()}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ecf.csv"
    rows = np.array([[0.1, 0.0, 1.0, -0.0], [2.0, 1.0, 1e-300, 3.5]])
    batches.write_csv(path, "s,direction_index,re,im", rows)
    before = path.read_bytes()
    np.savetxt(tmp_path / "plain.csv", rows, fmt="%.17g", delimiter=",",
               header="s,direction_index,re,im")
    assert before == (tmp_path / "plain.csv").read_bytes()
    (tmp_path / "plain.csv").unlink()

    def partial_then_fail(fh, data):
        fh.write("0.5,0,")
        raise OSError("disk full")

    monkeypatch.setattr(batches, "_write_rows", partial_then_fail)
    with pytest.raises(OSError):
        batches.write_csv(path, "s,direction_index,re,im", 2 * rows)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ecf.csv"]


def test_env_hash_ignores_key_order():
    a = {"dim": 1, "matrix_law": {"family": "x", "values": [1, 2]}}
    b = {"matrix_law": {"values": [1, 2], "family": "x"}, "dim": 1}
    assert env_hash(a) == env_hash(b)
    assert env_hash(a) != env_hash({**a, "dim": 2})


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
    ("output.formats", ["json", "csv"]),  # every CSV is always written
    ("mc.stationary.truncation", 10),     # the stationary series always runs to a tolerance
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
    ("mc.stationary.truncation", "10"),
    ("mc.stationary.tolerance", "1e-9"),
    ("mc.spectral.bracket", ["a", 1.0]),
    ("mc.stationary.truncation", 0),
    ("mc.stationary.count", 0),
    ("mc.stationary.tolerance", -1.0),
    ("mc.seed", True),                       # a bool is not seed 1
    ("mc.sigma.threshold_quantile", 0.995),   # 60000 draws leave 300 exceedances
    ("output.directory", 5),
    ("grid.resolution", True),
    ("pipeline", "kappa"),
])
def test_config_rejects_bad_value(tmp_path, capsys, path, value):
    config = config_setting(tmp_path, path, value)
    with pytest.raises(CliConfigError, match=f"^{re.escape(path)}"):
        load_config(config)
    for command in ("run", "tail"):
        assert cli.main([command, "--config", str(config)]) == 2
        assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every bounded field of an env family and of `env`, out of range; the same
# values given to the classes in Python are refused in tests/test_env_models.py
@pytest.mark.parametrize("path, value", [
    ("env.dim", 0),
    ("env.kappa0_hint", 0.0),
    ("env.matrix_law.scale_values[1]", Block("env.matrix_law", {
        "family": "similarity", "scale_values": [2.0, -0.5], "scale_probs": [0.5, 0.5]})),
    ("env.matrix_law.scale", Block("env.matrix_law", {"family": "gaussian", "scale": -2.0})),
    ("env.matrix_law.log_sigma", Block("env.matrix_law", {
        "family": "diag_rotation", "log_sigma": -0.1})),
    ("env.vector_law.scale", Block("env.vector_law", {"family": "gaussian", "scale": 0.0})),
    ("env.vector_law.prob_first", Block("env.vector_law", {
        "family": "two_point", "first": [1.0], "second": [-1.0], "prob_first": 1.5})),
    ("env.matrix_law.components[0].scale", Block("env.matrix_law", {
        "family": "mixture", "weights": [0.5, 0.5],
        "components": [{"family": "gaussian", "scale": -2.0},
                       {"family": "constant", "scale": 0.5}]})),
    ("env.matrix_law.components[1].scale_values[0]", Block("env.matrix_law", {
        "family": "mixture", "weights": [0.5, 0.5],
        "components": [{"family": "constant", "scale": 0.5},
                       {"family": "similarity", "scale_values": [0.0], "scale_probs": [1.0]}]})),
])
def test_env_bound_is_refused_with_its_path(tmp_path, capsys, path, value):
    config = config_setting(tmp_path, path, value)
    with pytest.raises(CliConfigError, match=f"^{re.escape(path)}: expected a value in "):
        load_config(config)
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: expected a value in ") and err.count("\n") == 1
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


@pytest.mark.parametrize("path, value", [
    ("mc.tails.top_fraction", 0.05),
    ("grid.resolution", 2),
    ("mc.assumptions_n", 1000),
    ("mc.seed", 0),
])
def test_config_accepts_closed_end_of_range(tmp_path, path, value):
    node = load_config(config_setting(tmp_path, path, value))
    for part in path.split("."):
        node = getattr(node, part)
    assert node == value


def schema_keys(cls, prefix=""):
    """The dotted keys of a config dataclass, nested blocks and the fields
    of `Environment` included; `env_hash` is derived, not a key."""
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if dataclasses.is_dataclass(f.default):
            yield from schema_keys(type(f.default), key + ".")
        elif f.name == "env":
            yield from schema_keys(Environment, key + ".")
        elif f.name != "env_hash":
            yield key


def test_readme_example_shows_every_schema_key():
    text = (ROOT / "README.md").read_text()
    text = text.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]

    def dotted(block, prefix=""):
        for key, value in block.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from dotted(value, prefix + key + ".")

    missing = set(schema_keys(cli.RunConfig)) - set(dotted(yaml.safe_load(text)))
    assert not missing


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

def test_empty_pipeline_empty_report(tmp_path, capsys):
    """`run` with an empty or missing pipeline is a config error and writes
    no report, which would read as an empty, passing run; a stage
    subcommand needs no pipeline."""
    path, outdir = write_config(tmp_path, pipeline=[])
    raw = yaml.safe_load(path.read_text())
    del raw["pipeline"]
    missing = tmp_path / "missing.yaml"
    missing.write_text(yaml.safe_dump(raw))
    for config in (path, missing):
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "config error: pipeline: " in capsys.readouterr().err
        assert not outdir.exists()
    assert cli.main(["lyapunov", "--config", str(missing)]) == 0
    assert set(json.loads((outdir / "report.json").read_text())["stages"]) == {"lyapunov"}


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
    limit = report["stages"]["limit"]
    assert limit["pairs_drawn"] == limit["n"] * limit["replicas"]
    # the artifact keys that perfbench/checks.py reads
    solution = json.loads((outdir / "spectral_solution.json").read_text())
    assert {"kappa", "alpha", "rho_at_kappa", "mc_per_point", "r", "eta"} <= set(solution)
    assert len(solution["grid"]["points"]) == len(solution["r"]) == len(solution["eta"])
    law = json.loads((outdir / "stable_law.json").read_text())
    assert np.asarray(law["c_values"], dtype=float).shape == (len(law["directions"]), 2)
    assert law["error_budget"] >= 0.0
    nondeg = json.loads((outdir / "stage_nondeg.json").read_text())
    assert nondeg["result"]["verdict"]["nondegenerate"] is True
    sigma = json.loads((outdir / "sigma.json").read_text())
    assert {"mass", "kappa", "threshold_used", "sample_count", "exceedances"} <= set(sigma)
    assert sigma["grid"]["weights"] == [1.0 / len(sigma["mass"])] * len(sigma["mass"])
    tail = json.loads((outdir / "tail_estimate.json").read_text())
    assert {"thresholds", "kappa_used", "directional_scaled_freq", "tail_constants",
            "hill_index", "hill_k"} <= set(tail)
    # each direction's direct K is the count-weighted mean of its recorded levels
    scale = np.asarray(tail["thresholds"]) ** tail["kappa_used"]
    assert list(tail["directional_scaled_freq"]) == ["(-1)", "(1)"]
    for key, levels in tail["directional_scaled_freq"].items():
        levels = np.asarray(levels)
        weights = np.maximum(np.rint(levels * sigma["sample_count"] / scale), 1.0)
        assert tail["tail_constants"][key]["direct"] == pytest.approx(
            float(np.sum(weights * levels) / weights.sum()), rel=1e-15)


def test_full_pipeline_loads_no_scipy(tmp_path):
    """The package runs on numpy alone: with scipy blocked, so that any
    import of it fails, every stage runs at d = 1 and at d = 4, and so does
    the demo script that calls self_similarity_check."""
    (tmp_path / "d4").mkdir()
    d4_config, d4_out = write_config(
        tmp_path / "d4", **{
            "env.dim": 4,
            "env.matrix_law": {"family": "similarity", "scale_values": [2.0, 0.5],
                               "scale_probs": [1 / 3, 2 / 3]},
            "env.vector_law": {"family": "gaussian"},
            "grid.resolution": 16,
            "mc.stationary.count": 12000,
            "mc.spectral.mc_per_point": 2000,
            "mc.sigma.threshold_quantile": 0.9,
            "mc.sigma.invariance_mc": 1000,
            "mc.limit.log2_n": 9, "mc.limit.replicas": 500, "mc.limit.w_draws": 400})
    d1_config, d1_out = write_config(tmp_path)
    demo = ROOT / "scripts" / "limit_law_demo.py"
    # the small d = 4 run may fail a check (status 1), but it must not crash
    cases = [(f"cli.main(['run', '--config', {str(d1_config)!r}])", d1_out, "0"),
             (f"cli.main(['run', '--config', {str(d4_config)!r}])", d4_out, "01"),
             (f"runpy.run_path({str(demo)!r}, run_name='__main__')", None, "0")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for call, outdir, statuses in cases:
        code = ("import runpy, sys\n"
                "sys.modules['scipy'] = None\n"
                "sys.argv = ['limit_law_demo.py', '200']\n"
                "from kestenlab import cli\n"
                "try:\n"
                f"    status = {call}\n"
                "except SystemExit as exc:\n"
                "    status = exc.code\n"
                "print(f'exit status: {status}')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert any(f"exit status: {s}\n" in proc.stdout for s in statuses), proc.stdout
        if outdir is not None:
            stages = json.loads((outdir / "report.json").read_text())["stages"]
            assert set(stages) == set(cli.STAGES)


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
    # the staged limit reads its exponent from sigma.json, not from the
    # solution, and the staged nondeg reads it from stable_law.json
    stages = ["simulate", "kappa", "sigma", "limit", "nondeg"]
    path, outdir = write_config(tmp_path, pipeline=stages)
    assert cli.main(["run", "--config", str(path)]) == 0
    outdir2 = tmp_path / "out2"
    for stage in stages:
        assert cli.main([stage, "--config", str(path), "--out", str(outdir2)]) == 0
    for name in ("sigma.json", "stable_law.json", "ecf.csv"):
        assert (outdir2 / name).read_bytes() == (outdir / name).read_bytes(), name
    for stage in ("limit", "nondeg"):
        full, staged = (json.loads((out / f"stage_{stage}.json").read_text())
                        for out in (outdir, outdir2))
        assert staged == full, stage


def test_staged_nondeg_reads_only_the_stable_law(tmp_path):
    stages = ["simulate", "kappa", "sigma", "limit", "nondeg"]
    path, outdir = write_config(tmp_path, pipeline=stages)
    assert cli.main(["run", "--config", str(path)]) == 0
    outdir2 = tmp_path / "out2"
    for stage in stages[:-1]:
        assert cli.main([stage, "--config", str(path), "--out", str(outdir2)]) == 0
    (outdir2 / "sigma.json").unlink()
    (outdir2 / "stationary_samples.csv").unlink()
    assert cli.main(["nondeg", "--config", str(path), "--out", str(outdir2)]) == 0
    full, staged = (json.loads((out / "stage_nondeg.json").read_text())
                    for out in (outdir, outdir2))
    assert staged == full


def test_full_run_draws_one_w_cache(tmp_path, monkeypatch):
    calls = []
    draw = stable_limit.sample_w_matrices

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(stable_limit, "sample_w_matrices", counted)
    path, outdir = write_config(tmp_path)
    assert cli.main(["run", "--config", str(path)]) == 0
    assert len(calls) == 1
    limit = json.loads((outdir / "stage_limit.json").read_text())
    assert limit["checks"]["transposed_positivity"] is True
    assert limit["result"]["plus_integral"] > 3.0 * limit["result"]["plus_se"]


def test_missing_upstream_artifact_names_file(tmp_path, capsys):
    path, outdir = write_config(tmp_path)
    rc = cli.main(["tail", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "stationary_samples.csv" in err and "simulate" in err


@pytest.fixture(scope="module")
def upstream_outputs(tmp_path_factory):
    """A config and the output directory of its simulate, kappa, tail and
    sigma stages."""
    path, outdir = write_config(tmp_path_factory.mktemp("upstream"),
                                pipeline=["simulate", "kappa", "tail", "sigma"])
    assert cli.main(["run", "--config", str(path)]) == 0
    return path, outdir


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _drop_first_line(path):
    path.write_text(path.read_text().split("\n", 1)[1])


def _drop_key(key):
    def drop(path):
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
    return drop


@pytest.mark.parametrize("command, name, corrupt", [
    ("tail", "spectral_solution.json", _truncate),
    ("limit", "sigma.json", _drop_key("mass")),
    ("sigma", "stationary_samples.csv", _drop_first_line),
    ("report", "stage_tail.json", _truncate),
    ("report", "stage_tail.json", _drop_key("result")),
], ids=["truncated-solution", "sigma-without-mass", "csv-without-header",
        "truncated-fragment", "fragment-without-result"])
def test_unreadable_artifact_is_a_named_error(upstream_outputs, tmp_path, capsys,
                                              command, name, corrupt):
    path, upstream = upstream_outputs
    outdir = tmp_path / "out"
    shutil.copytree(upstream, outdir)
    corrupt(outdir / name)
    args = ["--out", str(outdir)]
    if command != "report":
        args += ["--config", str(path)]
    assert cli.main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(outdir / name) in err
    assert err.count("\n") == 1


def test_env_hash_mismatch_refused(tmp_path, capsys):
    path_a, outdir = write_config(tmp_path, name="a.yaml")
    assert cli.main(["simulate", "--config", str(path_a)]) == 0
    assert cli.main(["kappa", "--config", str(path_a)]) == 0
    path_b, _ = write_config(tmp_path, name="b.yaml",
                             **{"env.matrix_law.probs": [0.25, 0.75]})
    rc = cli.main(["tail", "--config", str(path_b)])
    assert rc == 1
    assert "hash" in capsys.readouterr().err


def write_small_sample_config(tmp_path):
    """The mini config with 4000 stationary draws, beside the first: its env
    is the same, so its artifacts serve the first config's stages.  Its sigma
    quantile is lowered only so that 4000 draws pass validation."""
    return write_config(tmp_path, name="small.yaml", **{
        "mc.stationary.count": 4000, "mc.sigma.threshold_quantile": 0.5})


def test_omitted_block_reads_its_defaults(tmp_path):
    cfg = mini_config(tmp_path / "out")
    del cfg["mc"]["stationary"]
    assert validate_config(cfg).mc.stationary == cli.StationaryConfig()
    assert cli.StationaryConfig().count == 200_000


def test_assumptions_subcommand(tmp_path):
    path, outdir = write_config(tmp_path)
    assert cli.main(["assumptions", "--config", str(path)]) == 0
    doc = json.loads((outdir / "stage_assumptions.json").read_text())
    assert doc["stage"] == "assumptions"
    assert doc["result"]["entries"]
    assert doc["checks"] == {"assumptions_checkable_pass": True}


def test_assumptions_pass_on_a_similarity_with_a_tiny_scale(tmp_path):
    # c O at d = 3 with c = 1e-5 has det 1e-15 but is invertible: A3 reads
    # the ratio of its singular values, which is 1
    path, outdir = write_config(tmp_path, **{"env.dim": 3, "env.matrix_law": {
        "family": "similarity", "scale_values": [4.0, 1e-5], "scale_probs": [0.2, 0.8]},
        "env.vector_law": {"family": "gaussian"}})
    assert cli.main(["assumptions", "--config", str(path)]) == 0
    entries = json.loads((outdir / "stage_assumptions.json").read_text())["result"]["entries"]
    assert entries["A3"]["detail"] == {"singular_fraction": 0.0}


def test_kappa_refuses_a_law_with_zero_matrices(tmp_path, capsys):
    # 0.05 % of the draws are the zero matrix, whose image has weight 0 in
    # the operator: redrawing those draws under a budget would bias rho up
    # and kappa-hat down, so the operator build refuses the law
    path, outdir = write_config(tmp_path, **{"env.matrix_law": {
        "family": "mixture", "weights": [0.9995, 0.0005],
        "components": [{"family": "scalar_two_point", "values": [2.0, 0.5],
                        "probs": [1 / 3, 2 / 3]},
                       {"family": "constant", "scale": 0.0}]}})
    assert cli.main(["kappa", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: \d+ of 20000 draws of grid row 0 map", err) and err.count("\n") == 1
    assert not (outdir / "spectral_solution.json").exists()


def test_simulate_refuses_an_expanding_law(tmp_path, capsys):
    path, outdir = write_config(tmp_path, **{"env.dim": 2,
                                             "env.matrix_law": {"family": "constant", "scale": 2.0},
                                             "env.vector_law": {"family": "gaussian"}})
    assert cli.main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Lyapunov precheck beta = 0.6931") and err.count("\n") == 1
    assert not (outdir / "stationary_samples.csv").exists()


def test_direction_set_of_the_planar_config(tmp_path):
    config = load_config(ROOT / "scripts" / "configs" / "similarity_2d.yaml")
    ctx = cli.RunContext(config=config, outdir=tmp_path)
    assert ctx.grid().n == 32 and config.mc.limit.n_directions == 8
    dirs = ctx.direction_set(8)
    angles = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
    np.testing.assert_allclose(angles, np.pi / 4 * np.arange(8), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(dirs[4:], -dirs[:4], rtol=0.0, atol=1e-15)   # antipodal pairs
    for n in (32, 40):
        assert np.array_equal(ctx.direction_set(n), ctx.grid().points)


def test_simulate_fragment_reports_quantiles_not_mean(tmp_path):
    small, outdir = write_small_sample_config(tmp_path)
    assert cli.main(["simulate", "--config", str(small)]) == 0
    result = json.loads((outdir / "stage_simulate.json").read_text())["result"]
    # kappa = 1 here: the law of R has no mean to report
    assert "mean" not in result
    for key in ("norm_quantiles", "depth_quantiles"):
        q = result[key]
        assert list(q) == ["0.5", "0.9", "0.99"]
        assert 0.0 < q["0.5"] <= q["0.9"] <= q["0.99"]
    assert result["depth_quantiles"]["0.99"] <= result["truncation"]
    assert result["pairs_drawn"] >= round(result["mean_depth"] * result["count"])


def _hold_lock(outdir: Path, first: str = "pass") -> subprocess.Popen:
    """A child process that takes the directory's lock, runs `first`, says
    so, and holds the lock until its stdin closes."""
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, sys; fh = open(sys.argv[1], 'a'); fcntl.flock(fh, fcntl.LOCK_EX); "
         f"{first}; print('held', flush=True); sys.stdin.read()",
         str(outdir / cli.LOCK_NAME)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "held\n"
    return child


def _release(child: subprocess.Popen) -> None:
    child.stdin.close()
    child.stdout.close()
    child.wait()


def test_lock_refuses_concurrent_runs(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    outdir.mkdir(parents=True)
    holder = _hold_lock(outdir)
    try:
        rc = cli.main(["run", "--config", str(path)])
    finally:
        _release(holder)
    assert rc == 1
    assert "lock" in capsys.readouterr().err
    assert not (outdir / "stage_lyapunov.json").exists()
    # the kernel dropped the lock when its holder exited
    assert cli.main(["run", "--config", str(path)]) == 0
    assert (outdir / "stage_lyapunov.json").exists()


def test_lock_of_killed_run_does_not_block(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    outdir.mkdir(parents=True)
    lock = outdir / cli.LOCK_NAME
    # the holder leaves its PID in the file, as a PID-file lock would, and dies
    # by SIGKILL, so no exit handler of its own runs
    child = _hold_lock(outdir, first="fh.write(str(os.getpid())); fh.flush()")
    child.kill()
    _release(child)
    assert lock.read_text() == str(child.pid)
    rc = cli.main(["run", "--config", str(path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (outdir / "stage_lyapunov.json").exists()


def test_lock_refuses_a_second_claim_from_one_process(tmp_path):
    # flock binds the open file description, not the process: two claims on
    # one directory never both succeed, whatever order their steps run in
    with cli._locked(tmp_path):
        with pytest.raises(cli.StageCheckFailure, match="lock"):
            with cli._locked(tmp_path):
                pass
    with cli._locked(tmp_path):     # the first claim ended with its block
        pass
    assert (tmp_path / cli.LOCK_NAME).read_text() == ""


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


def test_report_refuses_a_locked_directory(tmp_path, capsys):
    path, outdir = write_config(tmp_path, pipeline=["lyapunov"])
    assert cli.main(["run", "--config", str(path)]) == 0
    before = (outdir / "report.json").read_bytes()
    capsys.readouterr()
    holder = _hold_lock(outdir)
    try:
        rc = cli.main(["report", "--out", str(outdir)])
    finally:
        _release(holder)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(outdir / cli.LOCK_NAME) in err
    assert err.count("\n") == 1
    assert (outdir / "report.json").read_bytes() == before


@pytest.mark.parametrize("case", ["config-is-directory", "config-not-utf8",
                                  "out-is-file", "out-under-file", "report-out-is-file"])
def test_unusable_config_or_output_path_is_one_line(tmp_path, capsys, case):
    path, _ = write_config(tmp_path, pipeline=["lyapunov"])
    blocker = tmp_path / "blocker"      # a file, and not UTF-8 text
    blocker.write_bytes(b"env: \xff\xfe\n")
    argv = {"config-is-directory": ["run", "--config", str(tmp_path)],
            "config-not-utf8": ["run", "--config", str(blocker)],
            "out-is-file": ["run", "--config", str(path), "--out", str(blocker)],
            "out-under-file": ["run", "--config", str(path), "--out", str(blocker / "x")],
            "report-out-is-file": ["report", "--out", str(blocker)]}[case]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if case == "report-out-is-file":
        assert rc == 1 and err.startswith("error:") and "is not a directory" in err
    else:
        assert rc == 2 and err.startswith("config error:")
        assert ("--out" if case.startswith("out") else "config file") in err


def test_report_without_fragments_keeps_report(tmp_path, capsys):
    # a directory that holds no stage fragment is refused, and the
    # report.json already there is left as it was
    (tmp_path / "report.json").write_text('{"keep":1}')
    rc = cli.main(["report", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err
    assert err.count("\n") == 1
    assert (tmp_path / "report.json").read_text() == '{"keep":1}'


@pytest.mark.parametrize("argv, source", [
    (["--threads", "0"], "--threads"),
    (["--threads", "-2"], "--threads"),
])
def test_bad_thread_count_is_refused(tmp_path, capsys, argv, source):
    path, outdir = write_config(tmp_path, pipeline=["simulate"])
    assert cli.main(["run", "--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {source}:") and err.count("\n") == 1
    assert not outdir.exists()


def test_threads_default_to_available_cores(tmp_path):
    path, outdir = write_config(tmp_path, pipeline=["simulate"])
    assert cli.main(["run", "--config", str(path)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["threads"] == len(os.sched_getaffinity(0))


def test_too_few_exceedances_is_a_named_error(tmp_path, capsys):
    # the configured count passes validation; a 4000-draw artifact from a
    # config with the same env leaves 40 exceedances at the 0.99 quantile,
    # under the 500 sigma needs
    path, outdir = write_config(tmp_path)
    small, _ = write_small_sample_config(tmp_path)
    assert cli.main(["simulate", "--config", str(small)]) == 0
    assert cli.main(["kappa", "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["sigma", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: only 40 exceedances") and err.count("\n") == 1
    assert not (outdir / "sigma.json").exists()


def _package_exceptions():
    found = {}
    for info in pkgutil.iter_modules(kestenlab.__path__):
        module = importlib.import_module(f"kestenlab.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


@pytest.mark.parametrize("exc_class", _package_exceptions(), ids=lambda c: c.__name__)
def test_package_errors_exit_with_one_line(tmp_path, monkeypatch, capsys, exc_class):
    """Every error class the package defines ends the command with one
    line on stderr and exit 1 (2 for config errors), never a traceback."""
    def failing_stage(ctx):
        raise exc_class("injected failure")

    monkeypatch.setitem(cli.STAGE_FUNCS, "assumptions", failing_stage)
    path, _ = write_config(tmp_path)
    rc = cli.main(["assumptions", "--config", str(path)])
    assert rc in (1, 2)
    err = capsys.readouterr().err
    assert "error: injected failure" in err and err.count("\n") == 1


def test_sigma_without_symmetric_q_is_a_named_error(tmp_path, capsys):
    # kappa ~ 1 is an odd integer: the angular measure needs a symmetric Q law
    path, outdir = write_config(tmp_path, pipeline=["simulate", "kappa", "sigma"],
                                **{"env.q_symmetric": False})
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kappa ~ 1 is an odd integer") and err.count("\n") == 1
    assert not (outdir / "sigma.json").exists()


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
    # and so does the report rebuilt from the stage fragments
    assert cli.main(["report", "--out", str(outdir)]) == 1
    assert "FAILED checks: sigma_invariance" in capsys.readouterr().err


def test_scalar_limit_check_passes_off_the_snap(tmp_path):
    """At seed 0 the scalar config's kappa-hat, 0.9766, is not snapped to 1.
    Unpooled, the exceedance counts of R and -R differed by noise, Gamma(-kappa)
    blew that up into Im C(v), and limit_cf_deviation read 0.264 against its
    0.15 band; sigma and C(v) from the law's symmetry read 0.0375."""
    config = ROOT / "scripts" / "configs" / "scalar_two_point.yaml"
    for stage in ("simulate", "kappa", "sigma", "limit"):
        assert cli.main([stage, "--config", str(config), "--seed", "0",
                         "--out", str(tmp_path), "--threads", "1"]) == 0
    kappa = json.loads((tmp_path / "stage_kappa.json").read_text())["result"]["kappa"]
    sigma = json.loads((tmp_path / "sigma.json").read_text())
    limit = json.loads((tmp_path / "stage_limit.json").read_text())
    assert kappa == pytest.approx(0.9766, abs=1e-4) and sigma["kappa"] == kappa
    assert sigma["mass"][0] == sigma["mass"][1]
    assert limit["checks"]["limit_cf_deviation"] is True
    assert limit["result"]["sup_deviation"] == pytest.approx(0.0375, abs=1e-4)
    assert all(im == 0.0 for _, im in limit["result"]["c_values"])


@pytest.mark.parametrize("seed, kappa_hat", [(1, 0.9984), (4, 1.0094)])
def test_scalar_limit_runs_at_kappa_hat(tmp_path, seed, kappa_hat):
    """At seeds 1 and 4 kappa-hat lies within 0.02 of 1: sigma and the stable
    law carry kappa-hat itself, C(v) is real, and the limit check passes."""
    config = ROOT / "scripts" / "configs" / "scalar_two_point.yaml"
    for stage in ("simulate", "kappa", "sigma", "limit"):
        assert cli.main([stage, "--config", str(config), "--seed", str(seed),
                         "--out", str(tmp_path), "--threads", "1"]) == 0
    kappa = json.loads((tmp_path / "stage_kappa.json").read_text())["result"]["kappa"]
    limit = json.loads((tmp_path / "stage_limit.json").read_text())
    assert kappa == pytest.approx(kappa_hat, abs=1e-4)
    assert json.loads((tmp_path / "sigma.json").read_text())["kappa"] == kappa
    assert json.loads((tmp_path / "stable_law.json").read_text())["kappa"] == kappa
    assert limit["checks"]["limit_cf_deviation"] is True
    assert all(im == 0.0 for _, im in limit["result"]["c_values"])


def test_limit_refuses_kappa_outside_the_stable_regime(tmp_path, capsys):
    """At kappa = 2.5 the angular measure exists, but the limit stage's
    centering refuses the exponent before it draws anything."""
    law = {"family": "scalar_two_point", "values": [2.0, 0.5],
           "probs": [0.150221, 0.849779]}
    path, outdir = write_config(tmp_path, **{"env.matrix_law": law})
    for stage in ("simulate", "kappa", "sigma"):
        assert cli.main([stage, "--config", str(path)]) == 0
    assert json.loads((outdir / "sigma.json").read_text())["kappa"] > 2.0
    capsys.readouterr()
    assert cli.main(["limit", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the stable limit needs kappa in (0, 2)")
    assert err.count("\n") == 1
    assert not (outdir / "stable_law.json").exists()


def test_root_seed_reproduces_draws(tmp_path):
    """report.json's root seed alone redraws a stage: the `simulate` stream
    gives the stationary samples, the `limit` stream the forward sums
    behind the fitted deviation; no fragment records a seed of its own."""
    path, outdir = write_config(tmp_path, pipeline=["simulate", "kappa", "sigma", "limit"])
    assert cli.main(["run", "--config", str(path), "--seed", "77"]) == 0
    report = json.loads((outdir / "report.json").read_text())
    seed, stages = report["seed"], report["stages"]
    assert seed == 77
    assert not any("seed" in frag for frag in stages.values())
    config = load_config(path)
    frag = stages["simulate"]
    batch = recursion.sample_stationary(
        config.env, recursion.SeriesConfig(tolerance=config.mc.stationary.tolerance),
        frag["count"], substream(seed, STAGE_INDEX["simulate"], 1))
    written = SampleBatch.from_csv(outdir / "stationary_samples.csv")
    assert "seed" not in written.info
    assert np.array_equal(batch.data, written.data)
    frag = stages["limit"]
    sums = recursion.birkhoff_sums(config.env, recursion.PathConfig(
        n_steps=frag["n"], start_x=(0.0,), replicas=frag["replicas"]),
        substream(seed, STAGE_INDEX["limit"], 1))
    law = from_json(stable_limit.StableLaw,
                    json.loads((outdir / "stable_law.json").read_text()))
    cent = stable_limit.centering(config.env, law.kappa, written)
    ecf = stable_limit.empirical_cf(sums, frag["n"], cent, config.mc.limit.s_values,
                                    law.directions)
    assert stable_limit.stable_fit_check(ecf, law) == frag["sup_deviation"]


def test_seed_override_changes_results(tmp_path):
    path, _ = write_config(tmp_path, pipeline=["simulate"])
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert cli.main(["run", "--config", str(path), "--out", str(out_a),
                     "--seed", "1"]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out_b),
                     "--seed", "2"]) == 0
    assert (out_a / "stationary_samples.csv").read_bytes() != \
        (out_b / "stationary_samples.csv").read_bytes()
