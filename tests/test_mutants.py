"""tools/mutants.py, the sampled mutation score, run on a stub repository."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"

_STUB_TEST = """
import os
import time


def test_waits():
    with open(os.environ["STUB_SUITE_PID"], "w") as f:
        f.write(str(os.getpid()))
    time.sleep(120)
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="the sampler runs its suite in a session of its own")
def test_a_terminated_sampler_leaves_no_suite_running_and_no_copy(tmp_path):
    # SIGTERM reaches the sampler while its first suite, in a copy of the stub, sleeps;
    # the sampler must kill that suite's session and remove its mutants-* copy on the way out
    root, tmp, pid_file = tmp_path / "stub", tmp_path / "tmp", tmp_path / "suite.pid"
    (root / "tests").mkdir(parents=True)
    tmp.mkdir()
    (root / "pytest.ini").write_text("[pytest]\n")
    (root / "stub.py").write_text("def f(x):\n    return x + 1\n")
    (root / "tests" / "test_stub.py").write_text(_STUB_TEST)
    env = dict(os.environ, TMPDIR=str(tmp), STUB_SUITE_PID=str(pid_file))
    command = [sys.executable, str(MUTANTS), "--root", str(root), "--out", str(tmp_path / "report.json"), "stub.py:f"]
    sampler = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (pid_file.exists() and pid_file.read_text()):
            assert sampler.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        suite = int(pid_file.read_text())
        assert [p.name[:8] for p in tmp.iterdir()] == ["mutants-"]  # the copy the suite runs in
        sampler.send_signal(signal.SIGTERM)
        assert sampler.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        sampler.kill()
        sampler.wait()
    with pytest.raises(ProcessLookupError):
        os.kill(suite, 0)
    assert list(tmp.iterdir()) == []
    assert not (tmp_path / "report.json").exists()
