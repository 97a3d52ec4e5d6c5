"""Shared builders for the standard test scenarios: 1 -> 10 ramps over T = 1."""

import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ffqd.core import ComplexField, Grid, norm
from ffqd.spectra import BoxModel
from ffqd.trajectory import ADIABATIC_LINEAR, POLYNOMIAL, QUINTIC, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

R_FINAL = 1.0 / np.sqrt(10.0)  # oscillator length scale for omega 1 -> 10


def box_ramp(kind=POLYNOMIAL, l0=1.0, l_final=10.0, t_ff=1.0) -> ControlTrajectory:
    return ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l_final, t_ff))


def ho_ramp(kind=POLYNOMIAL, r0=1.0, r_final=R_FINAL, t_ff=1.0) -> ControlTrajectory:
    return ControlTrajectory(kind, r0, t_ff, vbar=vbar_for_target(kind, r0, r_final, t_ff))


def ie_ramp(omega0=1.0, omegaF=10.0, t_ff=1.0) -> ControlTrajectory:
    """The inverse-engineering design: the quintic ramp of the length scale omega^-1/2, omega0 -> omegaF."""
    return ho_ramp(QUINTIC, 1.0 / math.sqrt(omega0), 1.0 / math.sqrt(omegaF), t_ff)


def static_ramp(t_final: float, l: float = 1.0) -> ControlTrajectory:
    """The constant ramp l(t) = l over [0, t_final]: a propagation with walls fixed at the grid ends."""
    return ControlTrajectory(ADIABATIC_LINEAR, l, t_final, vbar=0.0)


BOTH_RAMPS = (POLYNOMIAL, TRIGONOMETRIC)


def box_state(n: int, L: float, grid: Grid) -> ComplexField:
    """Box eigenstate n at wall position L on a grid spanning [0, L]."""
    return ComplexField(grid, BoxModel().amplitudes(n, L, grid)[n - 1])


def normalized(grid: Grid, values) -> ComplexField:
    """The field of values on grid, rescaled to unit norm."""
    f = ComplexField(grid, values)
    return ComplexField(grid, f.values / norm(f))


def src_env() -> dict:
    """os.environ with the repository's src/ first on PYTHONPATH, for subprocesses
    that import ffqd whether or not the package is installed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def one_thread_python(code: str, *inputs) -> list[str]:
    """The stdout lines of code, run in a fresh interpreter whose BLAS starts no thread of its own.

    The code finds the pickled inputs as `inputs`; DeprecationWarning is an
    error there, as fork warns from Python 3.12 on in a process that runs
    several threads.  Fails unless the interpreter exits 0 within 60 s.
    """
    with tempfile.NamedTemporaryFile(suffix=".pickle", delete=False) as fh:
        pickle.dump(inputs, fh)
    prelude = "import pickle, sys\ninputs = pickle.load(open(sys.argv[1], 'rb'))\n"
    env = dict(src_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", prelude + code, fh.name],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.unlink(fh.name)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
