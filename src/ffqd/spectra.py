"""Frozen-parameter eigenproblem for the two confinement models.

Both are scale-invariant traps, V0(x; l) = l^-2 U(x/l), so
E_n(l) = E_n(1) / l^2 and phi_n(x; l) = l^-1/2 phi_n(x/l; 1).  Model holds
that scale law once; each trap supplies only its l = 1 data and its grid
rule.  The amplitudes are real (the phase eta of the general scheme
vanishes identically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid

_EDGE_AMPLITUDE_LIMIT = 1e-6  # oscillator grids must decay below this at the boundary


def _hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_n_max of a dimensionless argument.

    Upward three-term recurrence with the normalization folded in, so no
    factorials are ever formed:  h_{k+1} = xi*sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.
    The level axis is second to last: xi of shape (..., P) gives (..., n_max + 1, P),
    so a stack of grids, one per row of xi, runs one recurrence.
    """
    xi = np.atleast_1d(xi)
    h = np.empty(xi.shape[:-1] + (n_max + 1, xi.shape[-1]))
    h[..., 0, :] = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if n_max >= 1:
        h[..., 1, :] = math.sqrt(2.0) * xi * h[..., 0, :]
    for k in range(1, n_max):
        h[..., k + 1, :] = (
            math.sqrt(2.0 / (k + 1.0)) * xi * h[..., k, :] - math.sqrt(k / (k + 1.0)) * h[..., k - 1, :]
        )
    return h


_CHUNK_NODES = 8  # (nodes x points) blocks of a batched trace hold at most this many nodes
_CHUNK_DOUBLES = 2**15  # and a chunk's own amplitude stack at most this many doubles


def _require_trace_points(n_points: int) -> None:
    """The n_points >= 8 of Grid, for trace grids built from a point count."""
    if n_points < 8:
        raise ValueError(f"need n_points >= 8, got {n_points}")


def _node_chunks(rows: np.ndarray, n_points: int) -> list[slice]:
    """Consecutive slices of the node axis for batched traces.

    rows[i] is the number of table rows node i needs on a grid of its own (0
    where every node shares one table).  A chunk holds at most _CHUNK_NODES
    nodes and, past its first node, a stack of at most _CHUNK_DOUBLES doubles,
    so batching keeps the peak memory of the one-node trace.  Every trace
    grid goes through here, so the n_points >= 8 of Grid is checked here.
    """
    _require_trace_points(n_points)
    chunks = []
    start = 0
    while start < rows.size:
        stop = start + 1
        while (
            stop < min(rows.size, start + _CHUNK_NODES)
            and (stop + 1 - start) * max(rows[start : stop + 1]) * n_points <= _CHUNK_DOUBLES
        ):
            stop += 1
        chunks.append(slice(start, stop))
        start = stop
    return chunks


class Model:
    """A scale-invariant trap V0(x; l) = l^-2 U(x/l), given by its data at l = 1.

    A trap supplies n_min, its lowest level; _unit_energy(n), the energies
    E_n(1); _U2, the x^2 coefficient of U; _unit_amplitudes; and its grid
    rule (amplitudes and _trace_stacks).  The scale law is applied here.
    """

    n_min: int
    _U2: float

    def energy(self, n, l):
        """E_n(1) / l^2; n and l may be arrays that broadcast."""
        if np.any(np.less(n, self.n_min)):
            raise ValueError(f"quantum number must be >= {self.n_min}")
        if not np.all(np.greater(l, 0)):  # NaN fails too
            raise ValueError("l must be positive")
        return self._unit_energy(n) / (l * l)

    def level_numbers(self, n_max: int) -> np.ndarray:
        return np.arange(self.n_min, n_max + 1)

    def _v0_coefficient(self, l):
        """a of v0 = a x^2 at l: U's x^2 coefficient over l^4, l a float or an array."""
        if not np.all(np.greater(l, 0)):
            raise ValueError("l must be positive")
        w = 1.0 / (l * l)
        return self._U2 * w * w


@dataclass(frozen=True)
class HarmonicModel(Model):
    """Oscillator with frequency set by the length scale R: omega(R) = 1/R^2, U(xi) = xi^2 / 2."""

    n_min = 0  # lowest level number
    _U2 = 0.5

    @staticmethod
    def _unit_energy(n):
        return n + 0.5

    def _hermite_stack(self, n_top: np.ndarray, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Grid-renormalized eigenamplitudes of nodes with length scales R on grids x.

        x is (nodes, points); the result is (nodes, levels, points), levels
        0..max(n_top) from one recurrence.  Node i's own rows, n = 0..n_top[i],
        must decay below 1e-6 at both ends of its grid; rows above them only
        pad the stack of a batch and are neither checked nor used.
        """
        scale = np.sqrt(1.0 / (R * R))  # sqrt(omega)
        h = _hermite_functions(int(np.max(n_top)), scale[:, None] * x)
        h *= np.sqrt(scale)[:, None, None]
        edge = np.maximum(np.abs(h[..., 0]), np.abs(h[..., -1]))
        edge = np.where(np.arange(h.shape[-2]) <= n_top[:, None], edge, 0.0).max(axis=1)
        bad = np.flatnonzero(edge > _EDGE_AMPLITUDE_LIMIT)
        if bad.size:
            raise ValueError(
                f"grid too narrow for levels up to n={n_top[bad[0]]}: edge amplitude {edge[bad[0]]:.3e}"
            )
        # trapezoid row norms in one pass: dx (sum_j h_j^2 - (h_0^2 + h_-1^2) / 2)
        dx = (x[:, -1] - x[:, 0]) / (x.shape[-1] - 1)
        ends = h[..., 0] ** 2 + h[..., -1] ** 2
        h /= np.sqrt(dx[:, None] * (np.einsum("ikj,ikj->ik", h, h) - 0.5 * ends))[..., None]
        return h

    def amplitudes(self, n_max: int, R: float, grid: Grid) -> np.ndarray:
        """Rows n = 0..n_max of grid-renormalized eigenamplitudes."""
        return self._hermite_stack(np.array([n_max]), np.array([R]), grid.points[None, :])[0]

    _unit_amplitudes = staticmethod(_hermite_functions)  # rows n = 0..n_max at R = 1 on any xi

    def _trace_stacks(self, traj, l: np.ndarray, n_top: np.ndarray, n_points: int):
        """Chunks (nodes, x, length, table, weight) of amplitude stacks at nodes l.

        Each node keeps the fixed grid of default_grid, sized by the
        trajectory's widest l and widened for the node's own top level.  That
        grid does not scale with l (length 1), so each chunk runs one
        recurrence over its nodes' grids; the table rows are normalized
        (weight 1).
        """
        half = self._half_width(traj._l_max, n_top)
        for sl in _node_chunks(n_top + 1, n_points):
            x = np.linspace(-half[sl], half[sl], n_points, axis=-1)
            ones = np.ones((x.shape[0], 1))
            yield sl, x, ones[:, 0], self._hermite_stack(n_top[sl], l[sl], x), ones

    @staticmethod
    def _half_width(r_max: float, n_max):
        """(7 + sqrt(2 n_max + 1)) ground-state widths, the width at R being R itself."""
        return r_max * (7.0 + np.sqrt(2.0 * n_max + 1.0))

    def default_grid(self, r_max: float, n_points: int, n_max: int = 0) -> Grid:
        """[-8 r_max, 8 r_max] widened for excited levels up to n_max."""
        half = self._half_width(r_max, n_max)
        return Grid(-half, half, n_points)


@dataclass(frozen=True)
class BoxModel(Model):
    """Hard-wall box on [0, L]; the wall position L is the control parameter.

    U is zero inside [0, 1] and infinite beyond; only the inside is ever
    sampled (the wall frame spans it exactly), so U's x^2 coefficient is 0.
    """

    n_min = 1  # lowest level number
    _U2 = 0.0

    @staticmethod
    def _unit_energy(n):
        return (np.pi * n) ** 2 / 2.0

    @staticmethod
    def _unit_amplitudes(n_max: int, xi: np.ndarray) -> np.ndarray:
        """Rows n = 1..n_max of sqrt(2) sin(n pi xi), the amplitudes at L = 1 (xi = x/L)."""
        phi = np.multiply.outer(np.arange(1, n_max + 1) * np.pi, xi)
        np.sin(phi, out=phi)
        phi *= math.sqrt(2.0)
        return phi

    @staticmethod
    def _unit_table(n_max: int, xi: np.ndarray) -> np.ndarray:
        """_unit_amplitudes on a grid xi spanning [0, 1], exactly zero at both walls."""
        phi = BoxModel._unit_amplitudes(n_max, xi)
        phi[:, 0] = 0.0
        phi[:, -1] = 0.0
        return phi

    def amplitudes(self, n_max: int, L: float, grid: Grid) -> np.ndarray:
        """Rows n = 1..n_max of box eigenamplitudes on a [0, L] grid."""
        if abs(grid.x_min) > 1e-9 * L or abs(grid.x_max - L) > 1e-9 * L:
            raise ValueError(f"grid [{grid.x_min}, {grid.x_max}] must span exactly [0, {L}]")
        return self._unit_table(n_max, grid.points / L) / math.sqrt(L)

    def _trace_stacks(self, traj, l: np.ndarray, n_top: np.ndarray, n_points: int):
        """Chunks (nodes, xi, length, table, weight) sharing one L = 1 table.

        The wall grid scales with L, x = L xi on xi in [0, 1], and
        phi_n(x; L) = L^-1/2 phi_n(xi; 1), so one sine table built here serves
        every node with length L and weight 1/L; no sine is evaluated per node.
        """
        chunks = _node_chunks(np.zeros(l.size, dtype=int), n_points)
        xi = np.linspace(0.0, 1.0, n_points)
        table = self._unit_table(int(np.max(n_top)), xi)
        for sl in chunks:
            yield sl, xi, l[sl], table, 1.0 / l[sl, None]
