"""Fast-forward driving of dynamical quantum confinement.

All quantities are in natural units, hbar = m = k_B = 1.

Library layout:

  core         grids, complex fields, inner products
  trajectory   control ramps l(t)
  spectra      the two scale-invariant traps: level energies, potentials, amplitude tables
  fastforward  regularization phase, driving potential, accelerated states of either trap
  propagator   Crank-Nicolson oracle for the driven Schroedinger equation
  cost         thermal traces, closed-form energy costs, Frobenius cost
  ie           inverse-engineering comparison protocol (Ermakov machinery)
  cli          scenario runner (`ffqd run|verify|preset`)
"""

from .core import ComplexField, Grid, inner_product, norm, normalize
from .trajectory import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    TRIGONOMETRIC,
    ControlTrajectory,
    vbar_for_target,
)
from .spectra import BoxModel, HarmonicModel
from .fastforward import (
    PhaseFunctions,
    RegularizationSingularity,
    continuity_residual,
    dtheta_dx_numeric,
    psi_ff,
    psi_ff_values,
    scaling_phase_functions,
    theta_numeric,
    trap_coefficient,
    v_ff,
    v_ff_generic,
    v_tilde,
)
from .propagator import (
    PropagationError,
    PropagationSpec,
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
    cost_ff_box_closed,
    cost_ff_ho_closed,
    cost_ff_numeric,
    frobenius_cost,
    internal_energy_box,
    internal_energy_box_parts,
    internal_energy_ho,
    internal_energy_numeric,
    solve_mu,
)
from .ie import ErmakovSolution, cost_ie, ermakov_residual, h_ie_expectation

__version__ = "0.1.0"
