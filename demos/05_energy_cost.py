"""Energy cost of acceleration for both models and both ramp shapes.

The cost is the time average of the thermal internal energy over the shortened
schedule.  Its drive part is checked three ways (direct quadrature, the
integration-by-parts identity, and the closed-form coefficient); the
published closed forms for the box are then evaluated verbatim alongside,
and the report records their ratio instead of papering over it: the printed
drive coefficients come out a factor 6 low and the printed confinement term
carries a duplicated 1/24.  The oscillator coefficients (vbar^2/120 and
3 vbar^2/8) survive the same oracle untouched.
"""

import math

import numpy as np

from ffqd.cost import (
    ThermalEnsemble,
    box_drive_prefactor,
    coefficient_A,
    cost_ff,
    cost_ff_closed,
    frobenius_cost,
    internal_energy_closed,
)
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

ens = ThermalEnsemble(beta=math.inf, n_particles=3)
T_GRID = (0.5, 1.0, 2.0, 5.0)

print("== box, zero temperature, N = 3, L: 1 -> 10 ==")
for kind in (POLYNOMIAL, TRIGONOMETRIC):
    print(f"\n{kind} ramp")
    print("   T_FF   quadrature   closed form   published   ratio")
    for T in T_GRID:
        traj = ControlTrajectory(kind, 1.0, T, vbar=vbar_for_target(kind, 1.0, 10.0, T))
        rep = cost_ff_closed(BoxModel(), traj, ens)
        print(
            f"   {T:4.1f}   {rep.quadrature_value:10.3f}   {rep.closed_form_value:11.3f}"
            f"   {rep.published_value:9.3f}   {rep.published_ratio:5.2f}"
        )

print("\n== drive-term oracle (polynomial box ramp, T = 1) ==")
traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
k = box_drive_prefactor(ens, 1.0)
quad_val = cost_ff(lambda s: internal_energy_closed(BoxModel(), traj, s, ens)[1], 1.0)
print(f"   quadrature        : {quad_val:.10f}")
print(f"   K vbar^2 / 15     : {k * 54.0**2 / 15.0:.10f}")

print("\n== oscillator, A from the printed low-temperature constant ==")
ens_h = ThermalEnsemble(beta=math.inf, n_particles=2)
print(f"   A = {coefficient_A(ens_h, 1.0):g}")
for kind in (POLYNOMIAL, TRIGONOMETRIC):
    R0, RF = 1.0, 1.0 / np.sqrt(10.0)
    traj = ControlTrajectory(kind, R0, 1.0, vbar=vbar_for_target(kind, R0, RF, 1.0))
    rep = cost_ff_closed(HarmonicModel(), traj, ens_h)
    print(f"   {kind:13s}: C_FF = {rep.quadrature_value:8.4f} (ratio to closed form {rep.published_ratio:.12f})")

print("\n== Frobenius-norm cost (cutoff-dependent by construction) ==")
traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
for cutoff in (4, 8, 16):
    fro = frobenius_cost(BoxModel(), traj, cutoff, 1.0, n_points=512, rel_tol=1e-6)
    print(f"   M = {fro.cutoff:2d}: C = {fro.value:10.2f}")
