"""The benchmark's self-test, run as one tier-1 test.

perfbench/selftest.py runs every workload at its tiniest size, traced and
untraced, in fresh processes; a change to a public call the benchmark
makes fails here, not only when the benchmark itself is run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.split() == ["ok", "test_every_workload_untraced",
                                   "ok", "test_every_workload_traced",
                                   "ok", "test_refuses_without_program_sources"]
