"""One timed kestenlab process.

    python3 perfbench/child.py RECORD.json TRACE -- <kestenlab arguments>

Imports ``kestenlab.cli`` from the checkout's ``src`` and calls
``cli.main`` with the arguments, recording perf_counter readings just before
and just after the call in RECORD.json.  perf_counter reads the system-wide
monotonic clock on Linux, so the parent compares them with its own reading
taken before it started this process.  It also records the process's own peak
resident size.  With TRACE = 1 the layer spans of ``tracer`` are installed
first and their summary is added to the record.
An exception from ``cli.main`` still propagates after the record is
written, so the exit status and traceback are those of the command line.
"""
import json
import sys
import time
from pathlib import Path


def peak_rss_bytes() -> int:
    """High-water resident size of this process since exec.

    ru_maxrss is not used: the kernel folds the parent's high-water mark
    into a child started with vfork, so it would measure the harness."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record = {}
    if trace:
        import tracer as layer_tracer

        start = time.perf_counter()
        import kestenlab.cli as cli
        record["import_s"] = time.perf_counter() - start
        spans = layer_tracer.Tracer()
        layer_tracer.install(spans)
    else:
        import kestenlab.cli as cli
    record["main_start"] = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        record["main_end"] = time.perf_counter()
        record["peak_rss_bytes"] = peak_rss_bytes()
        if trace:
            record["layers"] = spans.summarize()
            record["spans"] = spans.spans
        Path(record_path).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
