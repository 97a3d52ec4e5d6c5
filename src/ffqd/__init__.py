"""Fast-forward driving of dynamical quantum confinement.

All quantities are in natural units, hbar = m = k_B = 1.

Library layout:

  core         grids, complex fields, inner products
  trajectory   control ramps l(t)
  spectra      the two scale-invariant traps: level energies, potentials, amplitude tables
  fastforward  regularization phase, trap coefficient with the drive, accelerated states of either trap
  propagator   Crank-Nicolson oracle for the driven Schroedinger equation
  cost         thermal traces, closed-form energy costs, Frobenius cost
  ie           inverse-engineering comparison protocol on the quintic ramp (Ermakov design)
  cli          scenario runner (`ffqd run|verify|preset`)
"""

from .core import ComplexField, Grid, inner_product, norm
from .trajectory import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    QUINTIC,
    TRIGONOMETRIC,
    ControlTrajectory,
    vbar_for_target,
)
from .spectra import BoxModel, HarmonicModel
from .fastforward import (
    RegularizationSingularity,
    continuity_residual,
    dtheta_dx_numeric,
    psi_ff,
    psi_ff_values,
    theta_numeric,
    trap_coefficient,
)
from .propagator import (
    PropagationError,
    fidelity,
    propagate,
    tdse_residual,
)
from .cost import (
    CostReport,
    FrobeniusCost,
    ThermalEnsemble,
    box_drive_prefactor,
    coefficient_A,
    coefficients_B,
    cost_ff,
    cost_ff_closed,
    cost_ff_numeric,
    frobenius_cost,
    internal_energy_closed,
    internal_energy_numeric,
    solve_mu,
)
from .ie import cost_ie, ermakov_residual, h_ie_expectation

__version__ = "0.1.0"
