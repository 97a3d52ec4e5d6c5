"""Head-to-head: accelerated-confinement protocol vs inverse engineering.

The inverse-engineering route prescribes a quintic scaling function b(t) with
rest endpoints and reads the frequency ramp off the auxiliary (Ermakov)
equation.  Its thermal cost is the time average of the engineered-oscillator
Hamiltonian.  The accelerated protocol's cost is the time average of the
numeric thermal trace over the driven levels with the same omega = 1 -> 10
schedule and the same inverse temperature.  The accelerated protocol comes
out cheaper at every duration, and both costs fall as the schedule relaxes.
"""

import numpy as np

from ffqd.cost import ThermalEnsemble, cost_ff_numeric
from ffqd.ie import ErmakovSolution, cost_ie, ermakov_residual, h_ie_expectation
from ffqd.spectra import HarmonicModel
from ffqd.trajectory import POLYNOMIAL, ControlTrajectory, vbar_for_target

BETA = 1.0
OMEGA0, OMEGAF = 1.0, 10.0
R0, RF = 1.0 / np.sqrt(OMEGA0), 1.0 / np.sqrt(OMEGAF)

sol = ErmakovSolution(OMEGA0, OMEGAF, 1.0)
ts = np.linspace(0.0, 1.0, 10_000)
print(f"Ermakov design: b(T) = {sol.b(1.0):.6f} (target {np.sqrt(OMEGA0/OMEGAF):.6f})")
print(f"  residual sup-norm over 1e4 samples: {np.max(np.abs(ermakov_residual(sol, ts))):.2e}")
print(f"  omega^2 endpoints: {sol.omega_sq(0.0):.6f} -> {sol.omega_sq(1.0):.6f}")
print(f"  <H_IE>(0) = {h_ie_expectation(sol, 0.0, BETA):.6f} = (omega0/2) coth(beta omega0/2)")

print("\n   T_FF    cost (accelerated)    cost (inverse engineering)")
ens = ThermalEnsemble(beta=BETA, n_particles=1)
model = HarmonicModel()
rows = []
for T in (0.5, 1.0, 2.0, 5.0):
    traj = ControlTrajectory(POLYNOMIAL, R0, T, vbar=vbar_for_target(POLYNOMIAL, R0, RF, T))
    mn = cost_ff_numeric(model, traj, ens, n_points=1024)
    ie = cost_ie(ErmakovSolution(OMEGA0, OMEGAF, T), BETA)
    rows.append((T, mn, ie))
    print(f"   {T:4.1f}    {mn:12.4f}          {ie:12.4f}")

assert all(mn < ie for _, mn, ie in rows)
print("\naccelerated protocol cheaper at every point")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5.5, 3.5))
    ax.plot([r[0] for r in rows], [r[1] for r in rows], "o-", label="accelerated")
    ax.plot([r[0] for r in rows], [r[2] for r in rows], "s-", label="inverse engineering")
    ax.set_xlabel("T_FF")
    ax.set_ylabel("time-averaged cost")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_06_ie_compare.png", dpi=120)
    print("wrote demo_06_ie_compare.png")
except ImportError:
    pass
