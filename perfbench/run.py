"""Single-threaded benchmark of the kestenlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kestenlab checkout.  The benchmark repeats rounds of
its workload's operations (kestenlab invocations, one process each, one at
a time) until S seconds have passed, checks every output, and prints one
JSON object as its last line of standard output.  With --trace 0 it reports
the end-to-end metrics, each the median over rounds of a per-round figure:

    run_s        wall time of the cli.main calls, summed over the round
    setup_s      process start until cli.main is called, summed over the round
    cpu_s        user + system CPU time of the round's processes
    peak_rss_mb  largest peak resident size (VmHWM) of a process in the round

With --trace 1 the processes record spans around each layer boundary and
the benchmark reports the per-layer metrics instead (see tracer.py and
README.md).  Every process runs with --threads 1 and one BLAS/OpenMP thread.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from workloads import PLANAR_CONFIG, SCALAR_CONFIG, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".perfbench"
# a run must end within 180 s; no round starts after this and no process
# outlives it
DEADLINE_S = 165.0
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "KESTENLAB_THREADS")}
MIN_ROUNDS = 2
# the mc.seed of both checked-in configs
DEFAULT_SEED = 20260809
E2E_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class ChildResult:
    setup_s: float
    run_s: float
    cpu_s: float
    rss_mb: float
    record: dict
    error: str | None       # why the process failed, or None
    exit_s: float           # from cli.main returning until the process is reaped


def _error_name(stderr: str, rc: int) -> str:
    """The exception a traceback ends with, or the program's error line."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if not lines:
        return f"exit status {rc}"
    last = lines[-1]
    if "Traceback" in stderr:
        return last.split(":", 1)[0].rsplit(".", 1)[-1]
    return f"exit status {rc}: {last[:200]}"


def run_child(argv: list, log_dir: Path, name: str, trace: bool, deadline: float) -> ChildResult:
    record_path = log_dir / f"{name}.record.json"
    env = {**os.environ, **SINGLE_THREAD_ENV}
    env.pop("PYTHONPATH", None)
    with open(log_dir / f"{name}.stdout", "w") as out, open(log_dir / f"{name}.stderr", "w") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(record_path), "1" if trace else "0", "--", *argv],
            stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = time.perf_counter()
        finally:
            watchdog.cancel()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stderr = (log_dir / f"{name}.stderr").read_text()
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    cpu_s = usage.ru_utime + usage.ru_stime
    if "main_start" not in record:
        return ChildResult(0.0, 0.0, cpu_s, 0.0, record,
                           "killed at the deadline" if rc < 0 else _error_name(stderr, rc), 0.0)
    return ChildResult(record["main_start"] - spawned,
                       record["main_end"] - record["main_start"], cpu_s,
                       record["peak_rss_bytes"] / 1e6, record,
                       None if rc == 0 else _error_name(stderr, rc),
                       reaped - record["main_end"])


def run_round(workload, round_dir: Path, trace: bool, deadline: float, log) -> dict:
    """Every operation of the workload once, in a fresh output directory."""
    round_dir.mkdir(parents=True)
    totals = {"setup_s": 0.0, "run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    attempted = failed = wrong = 0
    records = []
    try:
        for op in workload.ops(round_dir):
            res = run_child(op.argv, round_dir, op.name, trace, deadline)
            attempted += 1
            totals["setup_s"] += res.setup_s
            totals["run_s"] += res.run_s
            totals["cpu_s"] += res.cpu_s
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], res.rss_mb)
            records.append(res.record)
            if res.error is not None:
                failed += 1
                log(f"  {op.name}: FAILED ({res.error})")
                continue
            try:
                problems = op.check()
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                wrong += 1
                log(f"  {op.name}: WRONG OUTPUT: " + "; ".join(problems))
            else:
                log(f"  {op.name}: ok  setup {res.setup_s:.3f} s  run {res.run_s:.3f} s  "
                    f"exit {res.exit_s:.3f} s  cpu {res.cpu_s:.3f} s  rss {res.rss_mb:.0f} MB")
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)
    return {"metrics": totals, "attempted": attempted, "failed": failed,
            "wrong": wrong, "records": records}


def check_checkout(root: Path) -> str | None:
    for rel in (Path("src/kestenlab/cli.py"), PLANAR_CONFIG, SCALAR_CONFIG):
        if not (root / rel).is_file():
            return f"{rel} not found under {root}: run from a kestenlab checkout"
    return None


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, log=None) -> dict:
    """Run rounds for `seconds` and return the result object."""
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    run_dir = WORK_DIR / f"run-{os.getpid()}-{workload_name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](ROOT, run_dir / "configs", seed, tiny)
        # one untimed start so bytecode and shared libraries are cached
        subprocess.run([sys.executable, "-c", "import kestenlab.cli"], check=True,
                       env={**os.environ, **SINGLE_THREAD_ENV, "PYTHONPATH": str(ROOT / "src")})
        rounds = []
        first = time.perf_counter()
        while True:
            log(f"{workload_name} round {len(rounds) + 1}")
            rounds.append(run_round(workload, run_dir / f"round-{len(rounds)}", trace,
                                    deadline, log))
            now = time.perf_counter()
            per_round = (now - first) / len(rounds)
            if now + per_round > deadline:
                break
            # at least two rounds, so setup_s and run_s are medians of two
            # samples even where one round outlasts --seconds
            if now - first >= seconds and len(rounds) >= MIN_ROUNDS:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    end_to_end = {name: statistics.median(rd["metrics"][name] for rd in rounds)
                  for name in E2E_UNITS}
    if trace:
        per_round = [layers.derive([r for r in rd["records"] if r]) for rd in rounds]
        metrics = {name: {"value": statistics.median(pr[name] for pr in per_round),
                          "unit": unit} for name, unit in layers.METRICS.items()}
        for rd in rounds:
            for rec in rd["records"]:
                for warning in rec.get("layers", {}).get("warnings", []):
                    log(f"tracer: {warning}")
        # traced minus untraced run_s is the tracing overhead
        log("traced end-to-end: " + ", ".join(f"{k} = {v:.4f}" for k, v in end_to_end.items()))
        write_trace(workload_name, seed, rounds)
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end.items()}
    return {"correct": all(rd["wrong"] == 0 for rd in rounds),
            "attempted": sum(rd["attempted"] for rd in rounds),
            "failed": sum(rd["failed"] for rd in rounds),
            "metrics": metrics}


def write_trace(workload_name: str, seed: int, rounds: list) -> None:
    """Spans of every process of the run, one list per process."""
    trace_dir = WORK_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload_name, "seed": seed,
           "span_fields": ["name", "start", "end", "parent"],
           "rounds": [[r.get("spans", []) for r in rd["records"]] for rd in rounds]}
    (trace_dir / f"{workload_name}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"passed to kestenlab as --seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout(ROOT)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
