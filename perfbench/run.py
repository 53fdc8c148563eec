"""f2qec benchmark: one workload per run, every metric by name with its unit.

    python3 perfbench/run.py --workload ghz-logical --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
next to this directory, never from an installed copy.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` repeats the
workload's requests with a span around each public call into the
program and reports the per-layer metrics.  End-to-end times are
scaled by the machine-speed gauge (``gauge.py``), so that they are
comparable across the fast and slow stretches of a shared machine.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("ghz-logical", "decode-distinct", "ft-analysis")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 41


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "threads": 1, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "commit": _git_commit()}


def _setups(workload: str, repeats: int) -> list:
    """(scaled, unscaled) seconds of fresh set-ups, each between two gauge readings."""
    import setup_cost
    from gauge import Gauge

    from f2qec.code_factory import build_25_4_3
    code_text = build_25_4_3().dumps()
    gauge = Gauge()
    times = []
    for _ in range(repeats):
        mark = gauge.tick(force=True)
        times.append((setup_cost.measure(workload, code_text), mark))
    gauge.tick(force=True)
    return [(dt * gauge.scale(mark), dt) for dt, mark in times]


def _run_one(workload: str, args, workdir: str) -> tuple:
    """Returns (metrics, units, report lines, tally)."""
    # Half the set-ups run before the workload and half after it, so that
    # their median spans two moments of the machine's speed.
    repeats = 2 if args.tiny else SETUP_REPEATS
    setups = [] if args.trace else _setups(workload, repeats - repeats // 2)
    import workloads as wl
    from gauge import Gauge
    from spans import Tracer

    tally = wl.Tally()
    if args.trace:
        tr = Tracer()
        if workload == "ghz-logical":
            specific = wl.ghz_traced(args.seed, args.seconds, args.tiny, workdir, tally, tr)
        elif workload == "decode-distinct":
            specific = wl.decode_traced(args.seed, args.seconds, args.tiny, tally, tr)
        else:
            specific = wl.ft_traced(args.seed, args.seconds, args.tiny, tally, tr)
        metrics = wl.layer_metrics(tr, specific)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload}.jsonl")
        tr.write(spans_path)
        lines = [f"spans: {len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}"]
        return metrics, wl.PER_LAYER_UNITS, lines, tally
    gauge = Gauge()
    if workload == "ghz-logical":
        result = wl.ghz(args.seed, args.seconds, args.tiny, workdir, tally, gauge)
    elif workload == "decode-distinct":
        result = wl.decode_distinct(args.seed, args.seconds, args.tiny, tally, gauge)
    else:
        result = wl.ft_analysis(args.seed, args.seconds, args.tiny, tally, gauge)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += _setups(workload, repeats // 2)
    setup_s = statistics.median(scaled for scaled, _ in setups)
    setup_wall = statistics.median(raw for _, raw in setups)
    metrics = {"setup_s": setup_s, **result.metrics, "peak_rss_mb": peak_mb}
    report = {"setup_s": (setup_s, "s", f"median of {repeats} fresh set-ups, "
                                        "half before the workload and half after"),
              "setup_s_wall": (setup_wall, "s", "the same, not scaled"),
              **result.report,
              "gauge_scale": (gauge.scale(), "ratio",
                              f"reference seconds per measured second, "
                              f"{len(gauge.samples)} gauge readings"),
              "peak_rss_mb": (peak_mb, "MB", "peak resident set of the process"),
              "failed_frac": (tally.failed / max(tally.attempted, 1), "fraction",
                              f"{tally.failed} of {tally.attempted} operations")}
    lines = [f"{name} = {value:.6g} {unit}  ({note})"
             for name, (value, unit, note) in report.items()]
    return metrics, END_TO_END_UNITS, lines, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest requests, one of each: for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "f2qec", "__init__.py")):
        print(f"perfbench: no f2qec sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import f2qec

    if not os.path.abspath(f2qec.__file__).startswith(SRC + os.sep):
        print(f"perfbench: f2qec was imported from {f2qec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = _environment(args)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        metrics, units, lines, tally = _run_one(args.workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[{args.workload}] {time.perf_counter() - t0:.1f}s wall")
    for line in lines:
        print(f"  {line}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
