"""Frozen-parameter eigenproblem for the two confinement models.

Both models have real eigenamplitudes (the phase eta of the general scheme
vanishes identically), so everything here returns real-valued fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NATURAL, ComplexField, Grid, UnitSystem

_EDGE_AMPLITUDE_LIMIT = 1e-6  # oscillator grids must decay below this at the boundary


def _hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_n_max of a dimensionless argument.

    Upward three-term recurrence with the normalization folded in, so no
    factorials are ever formed:  h_{k+1} = xi*sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.
    """
    h = np.empty((n_max + 1, xi.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if n_max >= 1:
        h[1] = math.sqrt(2.0) * xi * h[0]
    for k in range(1, n_max):
        h[k + 1] = math.sqrt(2.0 / (k + 1.0)) * xi * h[k] - math.sqrt(k / (k + 1.0)) * h[k - 1]
    return h


def ho_energy(n, R: float, units: UnitSystem = NATURAL):
    """(n + 1/2) hbar omega with omega = 1/R^2; n may be an integer array of levels."""
    if np.any(np.less(n, 0)):
        raise ValueError("oscillator quantum number must be >= 0")
    if R <= 0:
        raise ValueError("R must be positive")
    return (n + 0.5) * units.hbar / (R * R)


def ho_eigenstate(n: int, R: float, grid: Grid, units: UnitSystem = NATURAL) -> ComplexField:
    """Hermite-Gauss eigenamplitude at frozen R, renormalized on the grid.

    The grid must be wide enough that the state has decayed at the edges;
    a leaked edge amplitude above 1e-6 raises.
    """
    if n < 0:
        raise ValueError("oscillator quantum number must be >= 0")
    if R <= 0:
        raise ValueError("R must be positive")
    x = grid.points
    scale = np.sqrt(units.mass / (units.hbar * R * R))  # sqrt(m omega / hbar)
    phi = np.sqrt(scale) * _hermite_functions(n, scale * x)[n]
    edge = max(abs(phi[0]), abs(phi[-1]))
    if edge > _EDGE_AMPLITUDE_LIMIT:
        raise ValueError(
            f"grid too narrow for n={n}, R={R}: edge amplitude {edge:.3e} > {_EDGE_AMPLITUDE_LIMIT:.0e}"
        )
    nrm = np.sqrt(np.trapezoid(phi * phi, dx=grid.dx))
    return ComplexField(grid, phi / nrm)


def box_energy(n, L: float, units: UnitSystem = NATURAL):
    """hbar^2 (pi n / L)^2 / 2m for the hard-wall box; n may be an integer array of levels."""
    if np.any(np.less(n, 1)):
        raise ValueError("box quantum number must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    return units.hbar**2 * (np.pi * n / L) ** 2 / (2.0 * units.mass)


def _check_box_grid(grid: Grid, L: float) -> None:
    tol = 1e-9 * L
    if abs(grid.x_min) > tol or abs(grid.x_max - L) > tol:
        raise ValueError(f"grid [{grid.x_min}, {grid.x_max}] must span exactly [0, {L}]")


def box_eigenstate(n: int, L: float, grid: Grid, units: UnitSystem = NATURAL) -> ComplexField:
    """sqrt(2/L) sin(n pi x / L) on a grid spanning exactly [0, L]."""
    if n < 1:
        raise ValueError("box quantum number must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    _check_box_grid(grid, L)
    phi = np.sqrt(2.0 / L) * np.sin(n * np.pi * grid.points / L)
    phi[0] = 0.0
    phi[-1] = 0.0
    return ComplexField(grid, phi)


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One adiabatic level at frozen control parameter: (n, E_n, amplitude)."""

    n: int
    energy: float
    amplitude: ComplexField


def ho_eigenpair(n: int, R: float, grid: Grid, units: UnitSystem = NATURAL) -> EigenPair:
    return EigenPair(n, ho_energy(n, R, units), ho_eigenstate(n, R, grid, units))


def box_eigenpair(n: int, L: float, grid: Grid, units: UnitSystem = NATURAL) -> EigenPair:
    return EigenPair(n, box_energy(n, L, units), box_eigenstate(n, L, grid, units))


@dataclass(frozen=True)
class HarmonicModel:
    """Oscillator with frequency set by the length scale R: omega(R) = 1/R^2."""

    units: UnitSystem = NATURAL
    n_min: int = 0

    def omega(self, R: float) -> float:
        if R <= 0:
            raise ValueError("R must be positive")
        return 1.0 / (R * R)

    def sigma(self, R: float) -> float:
        """Ground-state width sqrt(hbar/(m omega))."""
        return R * np.sqrt(self.units.hbar / self.units.mass)

    def energy(self, n, R: float):
        """Level energy; an array of n gives the energies of those levels."""
        return ho_energy(n, R, self.units)

    def v0(self, x: np.ndarray, R: float) -> np.ndarray:
        w = self.omega(R)
        return 0.5 * self.units.mass * w * w * np.asarray(x) ** 2

    def amplitudes(self, n_max: int, R: float, grid: Grid) -> np.ndarray:
        """Rows n = 0..n_max of grid-renormalized eigenamplitudes."""
        x = grid.points
        scale = np.sqrt(self.units.mass / (self.units.hbar * R * R))
        h = _hermite_functions(n_max, scale * x)
        h *= np.sqrt(scale)
        edge = np.max(np.abs(h[:, [0, -1]]))
        if edge > _EDGE_AMPLITUDE_LIMIT:
            raise ValueError(
                f"grid too narrow for levels up to n={n_max}: edge amplitude {edge:.3e}"
            )
        # trapezoid row norms in one pass: dx (sum_j h_j^2 - (h_0^2 + h_-1^2) / 2)
        ends = h[:, 0] ** 2 + h[:, -1] ** 2
        h /= np.sqrt(grid.dx * (np.einsum("ij,ij->i", h, h) - 0.5 * ends))[:, None]
        return h

    def level_numbers(self, n_max: int) -> np.ndarray:
        return np.arange(0, n_max + 1)

    def default_grid(self, r_max: float, n_points: int, n_max: int = 0) -> Grid:
        """[-8 sigma, 8 sigma] widened for excited levels up to n_max."""
        half = self.sigma(r_max) * (7.0 + np.sqrt(2.0 * n_max + 1.0))
        return Grid(-half, half, n_points)


@dataclass(frozen=True)
class BoxModel:
    """Hard-wall box on [0, L]; the wall position L is the control parameter."""

    units: UnitSystem = NATURAL
    n_min: int = 1

    def energy(self, n, L: float):
        """Level energy; an array of n gives the energies of those levels."""
        return box_energy(n, L, self.units)

    def v0(self, x: np.ndarray, L: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def amplitudes(self, n_max: int, L: float, grid: Grid) -> np.ndarray:
        """Rows n = 1..n_max of box eigenamplitudes on a [0, L] grid."""
        _check_box_grid(grid, L)
        n = np.arange(1, n_max + 1)[:, None]
        phi = np.sqrt(2.0 / L) * np.sin(n * np.pi * grid.points[None, :] / L)
        phi[:, 0] = 0.0
        phi[:, -1] = 0.0
        return phi

    def level_numbers(self, n_max: int) -> np.ndarray:
        return np.arange(1, n_max + 1)

    def default_grid(self, L: float, n_points: int) -> Grid:
        return Grid(0.0, L, n_points)
