"""Frozen-parameter eigenproblem for the two confinement models.

Both are scale-invariant traps, V0(x; l) = l^-2 U(x/l), so
E_n(l) = E_n(1) / l^2 and phi_n(x; l) = l^-1/2 phi_n(x/l; 1).  Model holds
that scale law once; each trap supplies only its l = 1 data and its grid
rule.  The amplitudes are real, so a state's own phase eta vanishes
identically.

For the thermal trace of cost each trap forms the level sums a block of
nodes at a time (_moment_blocks): the box from one L = 1 sine table, the
oscillator level by level on the mirror half of each node's grid.  Each gives
<n|xi^2|n> (_unit_xi2, for the grid-free trace) and <k|xi^2|m> (_unit_x2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, _require_count, _require_positive

_EDGE_AMPLITUDE_LIMIT = 1e-6  # oscillator rows must decay below this fraction of their peak at the boundary


def _hermite_levels(xi: np.ndarray):
    """Normalized Hermite functions h_0, h_1, ... of a dimensionless argument, one level at a time.

    Upward three-term recurrence with the normalization folded in, so no
    factorials are ever formed:  h_{k+1} = xi*sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.
    An endless generator of arrays shaped like xi.  It works in three
    buffers, so the array of a level is overwritten when the level two
    above it is asked for: a caller copies what it keeps.
    """
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    yield h_prev
    h = math.sqrt(2.0) * xi * h_prev
    t = np.empty_like(h)
    for k in itertools.count(1):
        yield h
        np.multiply(math.sqrt(2.0 / (k + 1.0)), xi, out=t)
        t *= h
        h_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(t, h_prev, out=h_prev)
        h_prev, h = h, h_prev


def _hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """The levels 0..n_max of _hermite_levels stacked on the second-to-last axis of (..., n_max + 1, P)."""
    xi = np.atleast_1d(xi)
    h = np.empty(xi.shape[:-1] + (n_max + 1, xi.shape[-1]))
    for k, level in zip(range(n_max + 1), _hermite_levels(xi)):
        h[..., k, :] = level
    return h


_CHUNK_NODES = 8  # (nodes x points) blocks of a batched trace hold at most this many nodes
_BLOCK_DOUBLES = 2**16  # the working arrays of a block of streamed oscillator moments hold at most this many doubles


def _trace_moments(table: np.ndarray, f: np.ndarray):
    """The level sums of the thermal trace, which need the amplitudes but no phase: (rho0, rho1).

    rho0_j = sum_n f_n phi_n,j^2; rho1_j = sum_n f_n phi_n,j phi_n,j+1, before
    its gauge factor.  table is one (levels, points) table shared by every
    node, and f is (nodes, levels); no (levels x points) product is formed.
    """

    def level_sum(a, b):
        return np.einsum("...n,nj,nj->...j", f, a, b)

    rho0 = level_sum(table, table)
    rho1 = level_sum(table[:, :-1], table[:, 1:])
    return rho0, rho1


class Model:
    """A scale-invariant trap V0(x; l) = l^-2 U(x/l), given by its data at l = 1.

    A trap supplies n_min, its lowest level; _unit_energy(n) = E_n(1); _unit_xi2
    and _unit_x2, <n|xi^2|n> and <k|xi^2|m>; _U2, U's x^2 coefficient;
    _unit_amplitudes; and its grid rule (default_grid, amplitudes, _moment_blocks).
    Model applies the scale law.
    """

    n_min: int
    _U2: float

    def energy(self, n, l):
        """E_n(1) / l^2; n and l may be arrays that broadcast.

        n of an integer dtype (bool is not) and >= n_min; every l positive and finite.
        """
        if not (np.issubdtype(np.asarray(n).dtype, np.integer) and np.all(np.greater_equal(n, self.n_min))):
            raise ValueError(f"need an integer quantum number >= {self.n_min}, got {n!r}")
        _require_positive(l, "l")
        return self._unit_energy(n) / (l * l)

    def level_numbers(self, n_max: int) -> np.ndarray:
        return np.arange(self.n_min, n_max + 1)

    def _v0_coefficient(self, l):
        """a of v0 = a x^2 at l > 0, a ramp value: U's x^2 coefficient over l^4, l a float or an array."""
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

    _unit_xi2 = _unit_energy  # <n|xi^2|n> at R = 1: n + 1/2, the energy itself (virial theorem)

    @staticmethod
    def _unit_x2(ns: np.ndarray) -> np.ndarray:
        """<k|xi^2|n> of the levels ns = 0..c at R = 1: _unit_xi2, and sqrt((n + 1)(n + 2)) / 2 two off the diagonal."""
        off = 0.5 * np.sqrt((ns[:-2] + 1.0) * (ns[:-2] + 2.0))
        return np.diag(HarmonicModel._unit_xi2(ns)) + np.diag(off, 2) + np.diag(off, -2)

    def amplitudes(self, n_max: int, R: float, grid: Grid) -> np.ndarray:
        """Rows n = 0..n_max of grid-renormalized eigenamplitudes, each below 1e-6 of its peak at both grid ends."""
        _require_count(n_max, "n_max", self.n_min)
        _require_positive(R, "R")
        scale = math.sqrt(1.0 / (R * R))  # sqrt(omega)
        x = grid.points
        h = _hermite_functions(n_max, scale * x)
        edge = (np.maximum(np.abs(h[:, 0]), np.abs(h[:, -1])) / np.abs(h).max(axis=1)).max()
        if not edge <= _EDGE_AMPLITUDE_LIMIT:  # a ratio, free of the unit of length; NaN fails too
            raise ValueError(f"grid too narrow for levels up to n={n_max}: edge amplitude {edge:.3e} of the peak")
        h *= math.sqrt(scale)
        # trapezoid row norms in one pass: dx (sum_j h_j^2 - (h_0^2 + h_-1^2) / 2)
        dx = (x[-1] - x[0]) / (x.size - 1)
        h /= np.sqrt(dx * (np.einsum("kj,kj->k", h, h) - 0.5 * (h[:, 0] ** 2 + h[:, -1] ** 2)))[:, None]
        return h

    _unit_amplitudes = staticmethod(_hermite_functions)  # rows n = 0..n_max at R = 1 on any xi

    def _moment_blocks(self, l_max, l: np.ndarray, f: np.ndarray, n_top: np.ndarray, n_points: int):
        """Blocks (nodes, x, rho0, rho1) of the trace moments at nodes l, streamed on the mirror half grid.

        Node i (occupations f[i] of the levels 0, 1, ...) keeps the fixed grid
        of default_grid, sized by l_max (its ramp's widest l, a float or one
        per node) and its top level n_top[i], built as
        x_j = half (2j - P + 1) / (P - 1): mirror-symmetric bit for bit, with
        0 at the centre of an odd grid.  As h_n(-xi) = (-1)^n h_n(xi), exactly
        in the recurrence too, the levels are formed from the centre point or
        pair (-d, d) to the end only, and each is added into the moments as
        soon as it is formed, weighted by f_n over its trapezoid norm; the
        moments are mirror-symmetric.  Blocks take the nodes in order of top
        level, as many as keep seven (nodes x half grid) arrays within
        _BLOCK_DOUBLES doubles (one at least); every operation is row-wise, so
        a node's moments do not depend on its block.  A node's own level with a
        zero norm or an infinite weight raises ValueError; rows above n_top[i]
        pad a block with weight 0.  cost._check_traces judges the resolution.
        """
        half = self._half_width(l_max, n_top)
        c = 1 - n_points % 2  # points of the half grid below 0: the -d of an even grid's centre pair
        u = np.arange(-c, n_points, 2) / (n_points - 1)  # x / half on the half grid
        size = max(1, _BLOCK_DOUBLES // (7 * u.size))
        order = np.argsort(n_top, kind="stable")
        for start in range(0, l.size, size):
            nodes = order[start : start + size]
            top, occ = n_top[nodes], f[nodes]
            dx = 2.0 * half[nodes] / (n_points - 1)
            scale = np.sqrt(1.0 / (l[nodes] * l[nodes]))  # sqrt(omega)
            rho0, sq = np.zeros((nodes.size, u.size)), np.empty((nodes.size, u.size))
            rho1 = np.zeros((nodes.size, u.size - 1))
            for n, h in zip(range(top.max() + 1), _hermite_levels((scale * half[nodes])[:, None] * u)):
                np.multiply(h, h, out=sq)
                # f_n over the full grid's trapezoid norm dx (sum_j h_j^2 - (h_0^2 + h_-1^2) / 2), 0 above top
                nrm = dx * (2.0 * sq.sum(axis=1) - (1 + c) * sq[:, 0] - sq[:, -1])
                own = n <= top
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    w = np.where(own, occ[:, n] / nrm, 0.0)[:, None]
                # a grid too coarse for a level samples it only where it has underflowed: its norm
                # is 0, or so small that f_n over it overflows
                bad = np.flatnonzero(own & ~((nrm > 0.0) & np.isfinite(w[:, 0])))
                if bad.size:
                    raise ValueError(f"grid too coarse for level n={n}: trapezoid norm {nrm[bad[0]]:.3e}")
                sq *= w
                rho0 += sq
                pair = np.multiply(h[:, :-1], h[:, 1:], out=sq[:, 1:])
                pair *= w
                rho1 += pair
            del h, sq, pair
            # the full grid: the points and pairs right of the centre point or pair mirrored, then the half grid
            x = half[nodes, None] * u
            x = np.concatenate([-x[:, c + 1 :][:, ::-1], x], axis=1)
            rho0 = np.concatenate([rho0[:, c + 1 :][:, ::-1], rho0], axis=1)
            rho1 = np.concatenate([rho1[:, c:][:, ::-1], rho1], axis=1)
            yield nodes, x, rho0, rho1

    @staticmethod
    def _half_width(R: float, n_max):
        """(7 + sqrt(2 n_max + 1)) ground-state widths, the width at R being R itself."""
        return R * (7.0 + np.sqrt(2.0 * n_max + 1.0))

    def default_grid(self, R: float, n_points: int) -> Grid:
        """The grid of length scale R: [-8 R, 8 R], _half_width at the ground level."""
        return Grid(-8.0 * R, 8.0 * R, n_points)


@dataclass(frozen=True)
class BoxModel(Model):
    """Hard-wall box on [0, L]; the wall position L is the control parameter.

    U is zero inside [0, 1] and infinite beyond; only the inside is ever
    sampled (the scaled frame y = x/L spans it exactly), so U's x^2 coefficient is 0.
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

    def default_grid(self, L: float, n_points: int) -> Grid:
        """The grid of wall position L: [0, L]."""
        return Grid(0.0, L, n_points)

    def amplitudes(self, n_max: int, L: float, grid: Grid) -> np.ndarray:
        """Rows n = 1..n_max of box eigenamplitudes on a [0, L] grid."""
        _require_count(n_max, "n_max", self.n_min)
        _require_positive(L, "L")
        if abs(grid.x_min) > 1e-9 * L or abs(grid.x_max - L) > 1e-9 * L:
            raise ValueError(f"grid [{grid.x_min}, {grid.x_max}] must span exactly [0, {L}]")
        return self._unit_table(n_max, grid.points / L) / math.sqrt(L)

    _unit_xi2 = staticmethod(lambda ns: 1.0 / 3.0 - 1.0 / (2.0 * np.pi**2 * ns * ns))  # <n|xi^2|n> at L = 1

    @staticmethod
    def _unit_x2(ns: np.ndarray) -> np.ndarray:
        """<m|xi^2|n> of the levels ns at L = 1, from the closed-form sine integrals; _unit_xi2 on the diagonal."""
        m, n = ns[:, None], ns[None, :]
        d2 = np.where(m == n, 1, (m - n) ** 2)  # the diagonal is replaced below
        x2 = (2.0 / np.pi**2) * (-1.0) ** (m + n) * (1.0 / d2 - 1.0 / (m + n) ** 2)
        x2[np.diag_indices(ns.size)] = BoxModel._unit_xi2(ns)
        return x2

    def _moment_blocks(self, l_max, l: np.ndarray, f: np.ndarray, n_top: np.ndarray, n_points: int):
        """Blocks (nodes, x, rho0, rho1) of _CHUNK_NODES nodes sharing one L = 1 table; l_max is unused.

        The wall grid scales with L, x = L xi on xi in [0, 1], and
        phi_n(x; L) = L^-1/2 phi_n(xi; 1), so one sine table built here serves
        every node with weight f_n / L; no sine is evaluated per node.
        """
        xi = np.linspace(0.0, 1.0, n_points)
        table = self._unit_table(int(np.max(n_top)), xi)
        for start in range(0, l.size, _CHUNK_NODES):
            nodes = np.arange(start, min(start + _CHUNK_NODES, l.size))
            yield (nodes, l[nodes, None] * xi, *_trace_moments(table, f[nodes, : table.shape[0]] * (1.0 / l[nodes, None])))
