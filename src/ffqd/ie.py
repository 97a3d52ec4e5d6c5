"""Inverse-engineering comparison protocol for the oscillator.

The Ermakov design below reads the frequency ramp omega^2(t) off the
scaling function b(t), so it needs a trap whose control is the frequency of
a quadratic potential, U(xi) proportional to xi^2.  It therefore stays
oscillator-only and is not generalised to the scale-invariant family of
spectra.py; the box has no inverse-engineering counterpart here.

A scaling function b(t) is prescribed as the unique quintic with
b(0) = 1, b(T) = sqrt(omega0/omegaF) and vanishing first and second
derivatives at both ends; the frequency ramp is then read off the auxiliary
(Ermakov) equation, omega^2(t) = omega0^2/b^4 - b_ddot/b, which makes the
Ermakov residual zero by construction and pins omega(0) = omega0,
omega(T) = omegaF exactly.  omega^2 may dip negative for aggressive ramps
(transiently inverted oscillator); b itself stays positive, as the quintic
is monotone between its ends 1 and sqrt(omega0/omegaF) > 0.

Note the auxiliary equation is implemented with the dimensionally consistent
right-hand side omega0^2/b^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import cost_ff


@dataclass(frozen=True)
class ErmakovSolution:
    """Quintic scaling function b(t) of an omega0 -> omegaF ramp, with its derivatives and frequency ramp."""

    omega0: float
    omegaF: float
    t_ff: float

    def __post_init__(self):
        # `0 < v < inf` is False for NaN too
        if not (0 < self.omega0 < np.inf and 0 < self.omegaF < np.inf):
            raise ValueError(f"frequencies must be positive and finite, got {self.omega0!r}, {self.omegaF!r}")
        if not 0 < self.t_ff < np.inf:
            raise ValueError(f"t_ff must be positive and finite, got {self.t_ff!r}")
        if not self.b(self.t_ff) > 0.0:  # b(t_ff) = 1 + (b_final - 1) rounds to 0 above omegaF/omega0 ~ 1e32
            raise ValueError("scaling function reaches zero at t_ff; reduce the ramp ratio")

    @property
    def b_final(self) -> float:
        return float(np.sqrt(self.omega0 / self.omegaF))

    def _s(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9 * self.t_ff) or np.any(t > self.t_ff * (1.0 + 1e-9)):
            raise ValueError(f"t outside [0, {self.t_ff}]")
        return np.clip(t / self.t_ff, 0.0, 1.0)

    def b(self, t):
        s = self._s(t)
        w = s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
        out = 1.0 + (self.b_final - 1.0) * w
        return float(out) if np.ndim(t) == 0 else out

    def b_dot(self, t):
        s = self._s(t)
        wd = 30.0 * s * s * (1.0 - s) ** 2
        out = (self.b_final - 1.0) * wd / self.t_ff
        return float(out) if np.ndim(t) == 0 else out

    def b_ddot(self, t):
        s = self._s(t)
        wdd = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
        out = (self.b_final - 1.0) * wdd / self.t_ff**2
        return float(out) if np.ndim(t) == 0 else out

    def omega_sq(self, t):
        """Engineered ramp omega^2(t) = omega0^2/b^4 - b_ddot/b."""
        b = self.b(t)
        out = self.omega0**2 / np.asarray(b) ** 4 - np.asarray(self.b_ddot(t)) / np.asarray(b)
        return float(out) if np.ndim(t) == 0 else out


def ermakov_residual(sol: ErmakovSolution, t) -> float:
    """b_ddot + omega^2 b - omega0^2/b^3; zero by construction."""
    b = np.asarray(sol.b(t), dtype=float)
    out = np.asarray(sol.b_ddot(t)) + np.asarray(sol.omega_sq(t)) * b - sol.omega0**2 / b**3
    return float(out) if np.ndim(t) == 0 else out


def h_ie_expectation(sol: ErmakovSolution, t, beta: float) -> float:
    """Thermal average of the inverse-engineering Hamiltonian.

    (1/2) [b_dot^2/(2 omega0) + omega^2 b^2/(2 omega0) + omega0/(2 b^2)]
    * coth(beta omega0 / 2), evaluated as printed in natural units.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    b = np.asarray(sol.b(t), dtype=float)
    bd = np.asarray(sol.b_dot(t), dtype=float)
    w2 = np.asarray(sol.omega_sq(t), dtype=float)
    w0 = sol.omega0
    bracket = bd * bd / (2.0 * w0) + w2 * b * b / (2.0 * w0) + w0 / (2.0 * b * b)
    out = 0.5 * bracket / np.tanh(0.5 * beta * w0)
    return float(out) if np.ndim(t) == 0 else out


def cost_ie(sol: ErmakovSolution, beta: float) -> float:
    """Time-averaged <H_IE> over the ramp, by cost.cost_ff's Gauss-Legendre panels.

    Each panel evaluates <H_IE> on its whole node array; RuntimeError if the
    quadrature does not converge.
    """
    return cost_ff(lambda s: h_ie_expectation(sol, s, beta), sol.t_ff)

