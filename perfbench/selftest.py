"""Self-test of the benchmark: every workload at its tiniest size.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Each workload runs once untraced and once traced in a fresh process, as
the benchmark is run for real.  The last output line must name exactly
the metrics BENCHMARK.json lists, each with its unit, and no operation
may fail.  A copy of the benchmark without the program's sources must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.2",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check(workload: str, trace: int):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_every_workload_untraced():
    for w in SPEC["workloads"]:
        _check(w["name"], 0)


def test_every_workload_traced():
    for w in SPEC["workloads"]:
        _check(w["name"], 1)


def test_refuses_without_program_sources():
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_every_workload_untraced, test_every_workload_traced,
                 test_refuses_without_program_sources):
        test()
        print(f"ok {test.__name__}")
