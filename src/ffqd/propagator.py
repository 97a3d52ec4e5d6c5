"""Crank-Nicolson propagation of the driven Schroedinger equation.

This is the correctness oracle for the analytic fast-forward states: a state
is only believed once the independently stepped wavefunction reproduces it.

Two boundary modes:

* DirichletFixed: hard walls at the grid ends (also used for oscillator runs,
  where the state has decayed at the edges).
* DirichletMovingWall: wall at x = L(t).  The run is carried out in the
  scaled coordinate y = x/L(t) on the fixed domain [0, 1], where the exactly
  transformed Hamiltonian picks up a dilation term
      H = -(hbar^2 / 2 m L^2) d_yy - (L_dot/L) D + V(L y, t),
      D = -i hbar (y d_y + 1/2),
  discretized symmetrically so the tridiagonal matrix stays Hermitian and the
  Cayley step exactly unitary.  No regridding, no interpolation at the wall.

The half-step potential V(x, t + dt/2) keeps the scheme second order in time
for explicitly time-dependent Hamiltonians.  The control values L and L_dot
at every half step (k + 1/2) dt are evaluated once, in one vectorised call
each, before the loop; each step is then a direct LAPACK zgtsv solve of the
tridiagonal system (1 + i dt H / 2hbar) psi' = (1 - i dt H / 2hbar) psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from ._numutil import lap2
from .core import NATURAL, ComplexField, Grid, UnitSystem, inner_product, norm
from .trajectory import ControlTrajectory

_NORM_DRIFT_LIMIT = 1e-6
_NORM_CHECK_STRIDE = 16


class PropagationError(RuntimeError):
    pass


@dataclass(frozen=True)
class DirichletFixed:
    pass


@dataclass(frozen=True)
class DirichletMovingWall:
    traj: ControlTrajectory


Boundary = Union[DirichletFixed, DirichletMovingWall]


@dataclass(frozen=True)
class PropagationSpec:
    """One propagation run: grid, stepping, potential V(x, t), boundary mode.

    For DirichletMovingWall the grid spans the initial box [0, L(0)]; the
    returned field lives on [0, L(t_final)].
    """

    grid: Grid
    dt: float
    t_final: float
    potential: Callable[[np.ndarray, float], np.ndarray]
    boundary: Boundary = field(default_factory=DirichletFixed)
    units: UnitSystem = NATURAL

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")


def fidelity(a: ComplexField, b: ComplexField) -> float:
    """|<a, b>| for normalized fields on the same grid; blind to global phase."""
    return abs(inner_product(a, b))


def _max_potential_sample(spec: PropagationSpec) -> float:
    """max |V| over 65 sample times; a non-finite sample raises PropagationError."""
    moving = isinstance(spec.boundary, DirichletMovingWall)
    y = np.linspace(0.0, 1.0, spec.grid.n_points) if moving else None
    vmax = 0.0
    for t in np.linspace(0.0, spec.t_final, 65):
        if moving:
            x = spec.boundary.traj.value(min(t, spec.boundary.traj.t_ff)) * y
        else:
            x = spec.grid.points
        v = float(np.max(np.abs(spec.potential(x, t))))
        if not v < math.inf:
            raise PropagationError(f"potential is not finite at sample time t = {t:.6g}")
        vmax = max(vmax, v)
    return vmax


class _SnapshotWriter:
    """Plain CSV stream of (t, x, Re psi, Im psi) rows at fixed step strides."""

    def __init__(self, path, stride: int):
        self.stride = stride
        self.fh = open(path, "w", newline="")
        self.fh.write("t,x,re_psi,im_psi\n")

    def maybe_write(self, step: int, last: bool, t: float, x: np.ndarray, psi: np.ndarray):
        if not (last or step % self.stride == 0):
            return
        for xj, pj in zip(x, psi):
            self.fh.write(f"{t:.14e},{xj:.14e},{pj.real:.14e},{pj.imag:.14e}\n")

    def close(self):
        self.fh.close()


def propagate(
    psi0: ComplexField,
    spec: PropagationSpec,
    snapshot_path=None,
    snapshot_stride: int = 0,
) -> ComplexField:
    """Crank-Nicolson run from t = 0 to t_final; returns the final state.

    Raises PropagationError if dt*max|V|/hbar >= 0.5 (sampled bound), if the
    potential is not finite at a step, or if the norm drifts by more than 1e-6
    (or turns NaN) at any checkpoint.  A moving-wall run that would leave
    [0, t_ff] raises ValueError before the first step.
    """
    units = spec.units
    hbar, m = units.hbar, units.mass
    vmax = _max_potential_sample(spec)
    if spec.dt * vmax / hbar >= 0.5:
        raise PropagationError(
            f"time step too coarse: dt*max|V|/hbar = {spec.dt * vmax / hbar:.3g} >= 0.5"
        )
    n_steps = max(1, int(round(spec.t_final / spec.dt)))
    dt = spec.t_final / n_steps

    nrm0 = norm(psi0)
    if abs(nrm0 - 1.0) > 1e-6:
        raise ValueError(f"psi0 must be normalized, got norm {nrm0!r}")

    from scipy.linalg.lapack import zgtsv

    writer = _SnapshotWriter(snapshot_path, snapshot_stride) if snapshot_path and snapshot_stride > 0 else None
    try:
        if isinstance(spec.boundary, DirichletMovingWall):
            return _propagate_moving_wall(psi0, spec, n_steps, dt, writer, zgtsv)
        return _propagate_fixed(psi0, spec, n_steps, dt, writer, zgtsv)
    finally:
        if writer is not None:
            writer.close()


def _cn_step(
    diag: np.ndarray, upper: np.ndarray, lower: np.ndarray, u: np.ndarray, lam: float, zgtsv
) -> np.ndarray:
    """One Cayley step for a tridiagonal Hermitian H given by (diag, upper, lower).

    zgtsv is LAPACK's tridiagonal solver as scipy binds it, looked up once per
    run by the caller.
    """
    hu = diag * u
    hu[:-1] += upper * u[1:]
    hu[1:] += lower * u[:-1]
    rhs = u - 1j * lam * hu
    # every operand is a fresh temporary, so LAPACK may overwrite all four
    _, _, _, x, info = zgtsv(1j * lam * lower, 1.0 + 1j * lam * diag, 1j * lam * upper, rhs, 1, 1, 1, 1)
    if info != 0:
        raise PropagationError(f"zgtsv failed in the Cayley step (info = {info})")
    return x


def _check_potential(v: np.ndarray, step: int, n_steps: int) -> None:
    if not np.isfinite(v).all():
        raise PropagationError(f"potential is not finite at step {step + 1}/{n_steps}")


def _check_norm(interior: np.ndarray, dx: float, step: int, n_steps: int) -> None:
    """Norm drift check on the interior values; the Dirichlet endpoints are zero,
    so the trapezoid rule reduces to dx times the plain sum of |psi|^2."""
    nrm = float(np.sqrt(dx * np.vdot(interior, interior).real))
    if not abs(nrm - 1.0) <= _NORM_DRIFT_LIMIT:  # NaN fails this test too
        raise PropagationError(
            f"norm drifted to {nrm!r} at step {step}/{n_steps} (|drift| > {_NORM_DRIFT_LIMIT:g})"
        )


def _propagate_fixed(psi0, spec, n_steps, dt, writer, zgtsv) -> ComplexField:
    units = spec.units
    hbar, m = units.hbar, units.mass
    grid = spec.grid
    x = grid.points
    dx = grid.dx
    k = hbar * hbar / (2.0 * m * dx * dx)
    lam = dt / (2.0 * hbar)

    u = psi0.values.copy()
    u[0] = 0.0
    u[-1] = 0.0
    x_int = x[1:-1]
    ui = u[1:-1].astype(complex)
    off = np.full(x_int.size - 1, -k, dtype=complex)

    if writer:
        writer.maybe_write(0, False, 0.0, x, u)
    for step in range(n_steps):
        v = spec.potential(x_int, (step + 0.5) * dt)
        _check_potential(v, step, n_steps)
        ui = _cn_step(2.0 * k + v.astype(complex), off, off, ui, lam, zgtsv)
        if (step + 1) % _NORM_CHECK_STRIDE == 0 or step + 1 == n_steps:
            _check_norm(ui, dx, step + 1, n_steps)
        if writer:
            full = np.zeros(grid.n_points, dtype=complex)
            full[1:-1] = ui
            writer.maybe_write(step + 1, step + 1 == n_steps, (step + 1) * dt, x, full)

    out = np.zeros(grid.n_points, dtype=complex)
    out[1:-1] = ui
    return ComplexField(grid, out)


def _propagate_moving_wall(psi0, spec, n_steps, dt, writer, zgtsv) -> ComplexField:
    units = spec.units
    hbar, m = units.hbar, units.mass
    traj = spec.boundary.traj
    L0 = traj.value(0.0)
    g = spec.grid
    if abs(g.x_min) > 1e-9 * L0 or abs(g.x_max - L0) > 1e-9 * L0:
        raise ValueError(f"moving-wall grid must span [0, L(0)] = [0, {L0}]")
    if max(abs(psi0.values[0]), abs(psi0.values[-1])) > 1e-8:
        raise ValueError("psi0 must vanish at x = 0 and x = L(0)")

    n = g.n_points
    y = np.linspace(0.0, 1.0, n)
    dy = y[1] - y[0]
    lam = dt / (2.0 * hbar)

    # unitary map to the scaled frame: u(y) = sqrt(L) psi(L y)
    u = np.sqrt(L0) * psi0.values.astype(complex)
    ui = u[1:-1]
    y_int = y[1:-1]
    y_pair = y_int[:-1] + y_int[1:]  # y_j + y_{j+1} for the symmetrized dilation term

    # control values at every half step, domain-checked once before stepping
    t_half = (np.arange(n_steps) + 0.5) * dt
    L_half = traj.value(t_half)
    Ldot_half = traj.velocity(t_half)

    if writer:
        writer.maybe_write(0, False, 0.0, L0 * y, psi0.values)
    for step in range(n_steps):
        tm, L, Ldot = t_half.item(step), L_half.item(step), Ldot_half.item(step)
        k = hbar * hbar / (2.0 * m * L * L * dy * dy)
        q = hbar * (Ldot / L) / (4.0 * dy)
        v = spec.potential(L * y_int, tm)
        _check_potential(v, step, n_steps)
        upper = -k + 1j * q * y_pair
        lower = -k - 1j * q * y_pair
        ui = _cn_step(2.0 * k + v.astype(complex), upper, lower, ui, lam, zgtsv)
        if (step + 1) % _NORM_CHECK_STRIDE == 0 or step + 1 == n_steps:
            _check_norm(ui, dy, step + 1, n_steps)
        if writer:
            t_now = (step + 1) * dt
            L_now = traj.value(min(t_now, traj.t_ff))
            full = np.zeros(n, dtype=complex)
            full[1:-1] = ui
            writer.maybe_write(step + 1, step + 1 == n_steps, t_now, L_now * y, full / np.sqrt(L_now))

    L_f = traj.value(min(spec.t_final, traj.t_ff))
    out = np.zeros(n, dtype=complex)
    out[1:-1] = ui / np.sqrt(L_f)
    return ComplexField(Grid(0.0, L_f, n), out)


def tdse_residual(
    psi_ff_fn: Callable[[float], np.ndarray],
    potential: Callable[[np.ndarray, float], np.ndarray],
    grid: Grid,
    t: float,
    dt: float,
    units: UnitSystem = NATURAL,
) -> float:
    """Relative residual of the driven equation for an analytic state.

    || i hbar (psi(t+dt) - psi(t-dt)) / 2dt - H(t) psi(t)|| / ||H(t) psi(t)||
    with H the second-order finite-difference Hamiltonian for the supplied
    potential.  psi_ff_fn(s) must return field values on `grid` (ndarray or
    ComplexField).  Evaluated on the interior (two points clipped per edge).
    """
    if t - dt < 0.0:
        raise ValueError("centered stencil needs t - dt >= 0")

    def vals(s: float) -> np.ndarray:
        out = psi_ff_fn(s)
        if isinstance(out, ComplexField):
            if out.grid != grid:
                raise ValueError("psi_ff_fn returned a field on a different grid")
            return out.values
        return np.asarray(out, dtype=complex)

    psi_m, psi_0, psi_p = vals(t - dt), vals(t), vals(t + dt)
    hbar, m = units.hbar, units.mass
    h_psi = -(hbar**2 / (2.0 * m)) * lap2(psi_0, grid.dx) + potential(grid.points, t) * psi_0
    lhs = 1j * hbar * (psi_p - psi_m) / (2.0 * dt)
    diff = (lhs - h_psi)[2:-2]
    ref = h_psi[2:-2]
    num = np.sqrt(np.trapezoid(np.abs(diff) ** 2, dx=grid.dx))
    den = np.sqrt(np.trapezoid(np.abs(ref) ** 2, dx=grid.dx))
    if den == 0.0:
        raise ValueError("H psi vanishes; residual undefined")
    return float(num / den)
