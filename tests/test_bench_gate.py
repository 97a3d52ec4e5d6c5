"""The benchmark's own correctness gate, run on two of its workloads.

bench/checks.py judges every output of a workload run against verify's
thresholds, grid-free oracles and recorded references.  Run here, a change
that moves a referenced value, or breaks an API the benchmark calls, fails
the suite, not only the benchmark.  verify_box (about 2 s) is left out:
tests/test_cli.py already runs cli.verify.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/run.py as a module (it imports checks and workloads from bench/)."""
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    return run


@pytest.mark.parametrize("workload", ["sweep_harmonic", "cost_presets"])
def test_workload_passes_the_benchmark_gate(bench, workload, tmp_path):
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", "0", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, env=bench.child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    tally = bench.checks.check(workload, 0, tmp_path, json.loads((tmp_path / "result.json").read_text()))
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
