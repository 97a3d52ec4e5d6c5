"""Accelerated expansion of a box from L = 1 to L = 10 in unit time.

The analytic accelerated state is propagated under the quadratic driving
potential in the frame that follows the wall, y = x/L(t) (exactly unitary
stepping).  With the drive on, the final state lands on the target expanded
eigenstate; with the drive off, the wall outruns the state and the overlap
collapses.  This is the pass/fail experiment behind the library: the solver
believes the closed forms only because this run says so.
"""

import numpy as np

from ffqd.core import Grid
from ffqd.fastforward import psi_ff, trap_coefficient
from ffqd.propagator import fidelity, propagate
from ffqd.spectra import BoxModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

T = 1.0
BOX = BoxModel()
N_POINTS = 1024
DT = 1e-4

for kind in (POLYNOMIAL, TRIGONOMETRIC):
    traj = ControlTrajectory(kind, 1.0, T, vbar=vbar_for_target(kind, 1.0, 10.0, T))
    grid = Grid(0.0, 1.0, N_POINTS)
    psi0 = psi_ff(BOX, 1, 0.0, traj, grid)

    out = propagate(psi0, traj, trap_coefficient(BOX, traj), DT, T)
    target = psi_ff(BOX, 1, T, traj, out.grid)
    fid = fidelity(out, target)
    nrm = np.sqrt(np.trapezoid(np.abs(out.values) ** 2, dx=out.grid.dx))

    out0 = propagate(psi0, traj, trap_coefficient(BOX, traj, driven=False), DT, T)
    fid0 = fidelity(out0, target)

    print(f"{kind} ramp:")
    print(f"  driven   : fidelity = {fid:.8f}   (1-F = {1-fid:.2e}, norm error {abs(nrm-1):.1e})")
    print(f"  undriven : fidelity = {fid0:.6f}   (the wall leaves the state behind)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 3.5))
    ax.plot(out.grid.points, np.abs(out.values) ** 2, label="propagated, driven")
    ax.plot(out.grid.points, np.abs(target.values) ** 2, "--", label="target eigenstate")
    ax.plot(out0.grid.points, np.abs(out0.values) ** 2, ":", label="propagated, no drive")
    ax.set_xlabel("x")
    ax.set_ylabel("|psi|^2")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_03_box.png", dpi=120)
    print("\nwrote demo_03_box.png")
except ImportError:
    pass
