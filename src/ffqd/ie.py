"""Inverse-engineering comparison protocol for the oscillator.

The Ermakov design (Chen et al., PRL 104, 063002 (2010)) prescribes a
scaling function b(t) and reads the frequency ramp off the auxiliary
equation, omega^2 = omega0^2/b^4 - b_ddot/b.  Here b = l/l0 of a ramp of the
oscillator length l = omega^-1/2, so omega0 = 1/l0^2; the QUINTIC ramp is the
design's b, with b_dot = b_ddot = 0 at both ends, so omega(0) = omega0 and
omega(T) = omegaF.  omega^2 may dip negative (a transiently inverted trap).

For a scale-invariant trap this Hamiltonian is the fast-forward one on the
ramp l = l0 b(t) (Deffner, Jarzynski & del Campo, PRX 4, 021013 (2014)).  So
ermakov_residual takes omega^2 = 2 a(t) of fastforward.trap_coefficient and
checks the fast-forward drive against the design, while h_ie_expectation
keeps the printed bracket with the design's own omega^2, a claim under test.
Every function of t takes the ramp's time rule (trajectory._check_time).
"""

from __future__ import annotations

import numpy as np

from .cost import _require_beta, cost_ff
from .fastforward import trap_coefficient
from .spectra import HarmonicModel
from .trajectory import ControlTrajectory


def ermakov_residual(traj: ControlTrajectory, t):
    """b_ddot + omega^2 b - omega0^2/b^3 with omega^2 = 2 a(t), a the fast-forward trap coefficient."""
    b = np.asarray(traj.value(t)) / traj.l0
    w0 = 1.0 / (traj.l0 * traj.l0)
    w2 = 2.0 * np.asarray(trap_coefficient(HarmonicModel(), traj)(t))
    out = np.asarray(traj.acceleration(t)) / traj.l0 + w2 * b - (w0 * w0) / b**3
    return float(out) if np.ndim(t) == 0 else out


def h_ie_expectation(traj: ControlTrajectory, t, beta: float):
    """Thermal average of the inverse-engineering Hamiltonian.

    (1/2) [b_dot^2/(2 omega0) + omega^2 b^2/(2 omega0) + omega0/(2 b^2)]
    * coth(beta omega0 / 2), evaluated as printed in natural units, with the
    design's omega^2 = omega0^2/b^4 - b_ddot/b.
    """
    _require_beta(beta)
    b = np.asarray(traj.value(t)) / traj.l0
    bd = np.asarray(traj.velocity(t)) / traj.l0
    w0 = 1.0 / (traj.l0 * traj.l0)
    w2 = (w0 * w0) / b**4 - np.asarray(traj.acceleration(t)) / traj.l0 / b
    bracket = bd * bd / (2.0 * w0) + w2 * b * b / (2.0 * w0) + w0 / (2.0 * b * b)
    out = 0.5 * bracket / np.tanh(0.5 * beta * w0)
    return float(out) if np.ndim(t) == 0 else out


def cost_ie(traj: ControlTrajectory, beta: float) -> float:
    """Time-averaged <H_IE> over the ramp, by cost.cost_ff's Gauss-Legendre panels.

    Each panel evaluates <H_IE> on its whole node array; RuntimeError if the
    quadrature does not converge.  <H_IE> is the oscillator's fast-forward
    energy on the ramp in the one-particle Boltzmann ensemble of the initial
    trap, <n + 1/2> = coth(beta omega0/2)/2, frozen along the ramp.  So it
    differs from cost.cost_ff_numeric (cost_mn) only in ramp shape and in
    population, a Fermi sea whose mu is re-solved at every node; neither is
    the t = 0 occupations f_n(0) that the unitary dynamics carries.
    """
    return cost_ff(lambda s: h_ie_expectation(traj, s, beta), traj.t_ff)
