"""Every narrative script in demos/ runs to completion against the library."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory, so plots (when matplotlib is present) land there
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
