"""The benchmark harness's self-test as a tier-1 test: a change under src/ that
unbinds an import site the tracer rebinds, or leaves a workload's per-layer
metrics at zero, fails here and not only when the benchmark runs."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
