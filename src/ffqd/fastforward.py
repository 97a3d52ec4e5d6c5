"""Regularization phase, driving potential, and accelerated states.

The machinery has two layers that validate each other:

* a numeric construction straight from the defining relation: the phase
  gradient is the weighted running integral of the parameter derivative of
  the probability density (theta_numeric, dtheta_dx_numeric), checked by the
  residual of the continuity equation (continuity_residual);
* closed forms shared by the scale-invariant traps V0 = l^-2 U(x/l), the box
  and the oscillator: the phase collapses to theta = (m/2 hbar) x^2 / l, the
  driving potential to the quadratic V_FF = -(m/2)(l_ddot/l) x^2 (added to
  the trap's own x^2 coefficient by trap_coefficient), and the accelerated
  state of level n to l^-1/2 phi_n(x/l; 1) times the gauge factor
  exp(i (m/2 hbar)(l_dot/l) x^2) and the dynamical phase
  E_n(1)/hbar int l^-2 dt (psi_ff on a grid, psi_ff_values on any x).  The
  model supplies E_n(1) and the tables of phi_n, built by spectra.Model.

Both models carry real eigenamplitudes, so eta = 0 and the first-order
regularizing potential vanishes identically.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._numutil import cumint, gauss_legendre, grad4
from .core import ComplexField, Grid
from .spectra import Model
from .trajectory import ControlTrajectory

# centered-difference step in l, relative to l
_DL_REL = 1e-5
# density below this is treated as an exact zero of the amplitude
_DENSITY_FLOOR = 1e-14
# running integral treated as zero (relative to its peak) at amplitude zeros
_INTEGRAL_REL_TOL = 1e-8
# the ratio integral/density is ill-conditioned below this fraction of the peak
# density; such points are bridged by the smooth limit instead of divided out
_DENSITY_FLOOR_REL = 3e-4
# absolute and relative tolerance of the dynamical-phase integral int l^-2 dt
_PHASE_TOL = 1e-12


class RegularizationSingularity(RuntimeError):
    """The phase-gradient integrand is singular: density ~ 0 where the running integral is not."""


def _fill_masked_linear(x: np.ndarray, vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace masked entries by linear interpolation through unmasked neighbors.

    Masked runs touching the boundary are linearly extrapolated from the two
    nearest healthy points; for both confinement models the exact phase
    gradient is linear in x, so this reproduces the analytic limit.
    """
    good = ~mask
    if good.sum() < 2:
        raise RegularizationSingularity("fewer than two usable grid points")
    out = vals.copy()
    xg, yg = x[good], vals[good]
    out[mask] = np.interp(x[mask], xg, yg)
    left = mask & (x < xg[0])
    if left.any():
        slope = (yg[1] - yg[0]) / (xg[1] - xg[0])
        out[left] = yg[0] + slope * (x[left] - xg[0])
    right = mask & (x > xg[-1])
    if right.any():
        slope = (yg[-1] - yg[-2]) / (xg[-1] - xg[-2])
        out[right] = yg[-1] + slope * (x[right] - xg[-1])
    return out


def _density_and_rate(amplitude_of_l: Callable[[float], np.ndarray], l: float):
    """(rho, d_l rho) with rho = amplitude^2, the derivative by centered difference of step 1e-5 l."""
    dl = _DL_REL * l
    rho = np.asarray(amplitude_of_l(l), dtype=float) ** 2
    rho_p = np.asarray(amplitude_of_l(l + dl), dtype=float) ** 2
    rho_m = np.asarray(amplitude_of_l(l - dl), dtype=float) ** 2
    return rho, (rho_p - rho_m) / (2.0 * dl)


def dtheta_dx_numeric(amplitude_of_l: Callable[[float], np.ndarray], l: float, grid: Grid) -> np.ndarray:
    """Phase gradient from the continuity relation.

    d_x theta = -(m/hbar) (1/rho) * integral_{x_min}^{x} d_l rho dx', with
    rho = amplitude^2, the parameter derivative taken by centered difference
    (step 1e-5 l) and the running integral Simpson-accurate.

    Where rho falls below 3e-4 of its peak (box walls, interior nodes,
    oscillator tails) the ratio is ill-conditioned; those stretches are
    bridged by the linear limit through the neighboring well-conditioned
    points, which is exact through amplitude nodes for both confinement
    models.  A genuine singularity (density at zero while the running
    integral is not) raises instead.
    """
    return _dtheta_dx(*_density_and_rate(amplitude_of_l, l), grid)


def _dtheta_dx(rho: np.ndarray, drho_dl: np.ndarray, grid: Grid) -> np.ndarray:
    """dtheta_dx_numeric from rho and d_l rho already evaluated on grid."""
    running = cumint(drho_dl, grid.dx)

    zero = rho < _DENSITY_FLOOR
    scale = np.max(np.abs(running)) + 1e-300
    bad = zero & (np.abs(running) > _INTEGRAL_REL_TOL * scale)
    if bad.any():
        raise RegularizationSingularity(
            f"density < {_DENSITY_FLOOR:g} at {int(bad.sum())} points where the running integral is nonzero"
        )
    mask = rho < max(_DENSITY_FLOOR, _DENSITY_FLOOR_REL * float(np.max(rho)))
    dtheta = np.zeros_like(rho)
    np.divide(-running, rho, out=dtheta, where=~mask)
    if mask.any():
        dtheta = _fill_masked_linear(grid.points, dtheta, mask)
    return dtheta


def theta_numeric(amplitude_of_l: Callable[[float], np.ndarray], l: float, grid: Grid) -> np.ndarray:
    """Regularization phase theta(x) with theta(x_min) = 0.

    The integration constant is a gauge choice: it shifts the driving
    potential by a spatially uniform term only.  For the box (x_min = 0)
    this convention reproduces the closed form (m/2 hbar) x^2 / L.
    """
    return cumint(dtheta_dx_numeric(amplitude_of_l, l, grid), grid.dx)


def continuity_residual(amplitude_of_l: Callable[[float], np.ndarray], l: float, grid: Grid) -> np.ndarray:
    """Pointwise residual of d_x(rho d_x theta) + (m/hbar) d_l rho.

    Evaluated with the node-filled numeric phase gradient, so it is a real
    check of the construction rather than an algebraic identity.
    """
    rho, drho_dl = _density_and_rate(amplitude_of_l, l)
    return grad4(rho * _dtheta_dx(rho, drho_dl, grid), grid.dx) + drho_dl


def _v_ff_coefficient(l_ddot, l):
    """c of the drive V_FF = c x^2: -(m/2) l_ddot/l, from floats or arrays of l_ddot and l."""
    return -0.5 * l_ddot / l


def trap_coefficient(model: Model, traj: ControlTrajectory, driven: bool = True) -> Callable:
    """a(t) of the trap potential V = a(t) x^2, t a float or an array.

    model._v0_coefficient at l(t), plus the drive's _v_ff_coefficient if driven.  In the box the
    scaled frame y = x/L only samples the inside, where v0 = 0.
    """

    def coefficient(t):
        l = traj.value(t)
        a = model._v0_coefficient(l)
        return a + _v_ff_coefficient(traj.acceleration(t), l) if driven else a

    return coefficient


def _dynamical_phase(model: Model, n: int, t: float, traj: ControlTrajectory, t0: float = 0.0) -> float:
    """E_n(1)/hbar int_t0^t l^-2 ds: the dynamical phase gathered since t0, as E_n(l) = E_n(1)/l^2."""
    e1 = model.energy(n, 1.0)  # also rejects n below the model's lowest level
    if t == t0:
        return 0.0
    val, _ = gauss_legendre(lambda s: 1.0 / traj.value(s) ** 2, t0, t, _PHASE_TOL, _PHASE_TOL)
    return e1 * val


def _gauge(traj: ControlTrajectory, t: float, l: float, x: np.ndarray) -> np.ndarray:
    """exp(i theta) with theta = (m/2 hbar)(l_dot/l) x^2."""
    return np.exp(1j * (traj.velocity(t) / (2.0 * l)) * x**2)


def psi_ff(model: Model, n: int, t: float, traj: ControlTrajectory, grid: Grid) -> ComplexField:
    """Accelerated state of level n on a grid: the model's amplitude row at l(t) with both phases.

    The model checks the grid: a box grid must span exactly [0, L(t)], and an
    oscillator grid must hold the state (edge amplitude below 1e-6 of its
    peak), which is then renormalized on it.
    """
    dyn = _dynamical_phase(model, n, t, traj)
    l = traj.value(t)
    amp = model.amplitudes(n, l, grid)[n - model.n_min]
    return ComplexField(grid, amp * _gauge(traj, t, l, grid.points) * np.exp(-1j * dyn))


def psi_ff_values(
    model: Model, n: int, t: float, traj: ControlTrajectory, x, *, _phase_origin: float = 0.0
) -> np.ndarray:
    """Accelerated state of level n as the smooth formula l^-1/2 phi_n(x/l; 1) on arbitrary x.

    No grid check, wall clipping or renormalization: the expression solves
    the driven equation pointwise for every x, which is what the
    centered-in-time residual needs when the wall moves across the stencil.
    x of any shape gives an array of that shape, a scalar an array of one value.
    _phase_origin moves the start of the dynamical phase from t = 0 (a
    global phase).
    """
    dyn = _dynamical_phase(model, n, t, traj, _phase_origin)
    l = traj.value(t)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    amp = model._unit_amplitudes(n, xa / l)[n - model.n_min] / math.sqrt(l)
    return amp * _gauge(traj, t, l, xa) * np.exp(-1j * dyn)
