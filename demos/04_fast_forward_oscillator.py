"""Accelerated stiffening of a harmonic trap from omega = 1 to omega = 10.

The control parameter is the length scale R = sqrt(1/omega); the drive is the
quadratic potential proportional to R_ddot/R.  Besides the propagation
experiment, the analytic state is pushed through the equation of motion
directly: the centered-in-time residual is at the discretization floor with
the drive included and orders of magnitude larger without it.
"""

import numpy as np

from ffqd.fastforward import psi_ff, psi_ff_values, trap_coefficient
from ffqd.propagator import fidelity, propagate, tdse_residual
from ffqd.spectra import HarmonicModel
from ffqd.trajectory import POLYNOMIAL, ControlTrajectory, vbar_for_target

T = 1.0
R0, RF = 1.0, 1.0 / np.sqrt(10.0)
traj = ControlTrajectory(POLYNOMIAL, R0, T, vbar=vbar_for_target(POLYNOMIAL, R0, RF, T))
model = HarmonicModel()
grid = model.default_grid(R0, 1024)
driven = trap_coefficient(model, traj)  # a(t) of V = a(t) x^2: omega^2/2 - R_ddot/2R
undriven = trap_coefficient(model, traj, driven=False)

psi0 = psi_ff(model, 0, 0.0, traj, grid)
# the grid follows R(t), as the box grid follows the wall: the final states
# live on the grid of R(T)
out = propagate(psi0, traj, driven, 1e-4, T)
out0 = propagate(psi0, traj, undriven, 1e-4, T)
target = psi_ff(model, 0, T, traj, out.grid)
print(f"driven fidelity   : {fidelity(out, target):.10f}")
print(f"undriven fidelity : {fidelity(out0, target):.6f}")

probe = model.default_grid(traj.value(0.3), 1024)
psi_fn = lambda s: psi_ff_values(model, 0, s, traj, probe.points)
r = tdse_residual(psi_fn, driven, probe, 0.3, 1e-5)
r0 = tdse_residual(psi_fn, undriven, probe, 0.3, 1e-5)
print(f"equation residual at t = 0.3: driven {r:.2e}, undriven {r0:.2e} ({r0/r:.0f}x)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.0, 3.5))
    x = out.grid.points
    sel = np.abs(x) <= 1.5
    ax.plot(x[sel], np.abs(out.values[sel]) ** 2, label="driven")
    ax.plot(x[sel], np.abs(target.values[sel]) ** 2, "--", label="target")
    ax.plot(x[sel], np.abs(out0.values[sel]) ** 2, ":", label="no drive")
    ax.set_xlabel("x")
    ax.set_ylabel("|psi|^2")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_04_oscillator.png", dpi=120)
    print("\nwrote demo_04_oscillator.png")
except ImportError:
    pass
