"""Crank-Nicolson propagation of the driven Schroedinger equation.

This is the correctness oracle for the analytic fast-forward states: a state
is only believed once the independently stepped wavefunction reproduces it.

Both traps drive the same potential form, V = a(t) x^2 (the oscillator's
omega^2/2 plus the drive -l_ddot/2l, or the drive alone inside the box), so a
run takes the coefficient a(t), vectorised over an array of times.  One
Cayley loop runs in the frame y = x / s(t), where the exactly transformed
Hamiltonian is
    H = -(hbar^2 / 2 m s^2) d_yy - (s_dot/s) D + a(t) s^2 y^2,
    D = -i hbar (y d_y + 1/2),
with the dilation term discretized symmetrically so the tridiagonal matrix
stays Hermitian and the Cayley step exactly unitary.

* No wall: hard walls at the grid ends, s = 1, no dilation term (also used
  for oscillator runs, where the state has decayed at the edges).
* A wall trajectory L(t): wall at x = L(t), s = L, so y runs over the fixed
  domain [0, 1].  No regridding, no interpolation at the wall.

The half-step potential V(x, t + dt/2) keeps the scheme second order in time
for explicitly time-dependent Hamiltonians.  s, s_dot and a are evaluated at
every half step in one vectorised call each before the loop, where the bound
dt*max|V|/hbar < 0.5 is checked on all of them at once.  A step refills the
diagonals of A = 1 + i dt H / 2hbar and makes one LAPACK zgtsv solve:
A^-1 (1 - i dt H / 2hbar) = 2 A^-1 - 1, so the new state is 2 A^-1 psi - psi,
with no product H psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numutil import lap2
from .core import ComplexField, Grid, inner_product, norm
from .trajectory import ControlTrajectory

_NORM_DRIFT_LIMIT = 1e-6
_NORM_CHECK_STRIDE = 16


class PropagationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PropagationSpec:
    """One propagation run: grid, stepping, trap coefficient a(t) of V = a(t) x^2, wall.

    coefficient maps an array of times to the array of a(t).  wall is the
    ramp L(t) of a hard wall at x = L(t), or None for hard walls fixed at the
    grid ends.  With a wall the grid spans the initial box [0, L(0)]; the
    returned field lives on [0, L(t_final)].
    """

    grid: Grid
    dt: float
    t_final: float
    coefficient: Callable[[np.ndarray], np.ndarray]
    wall: ControlTrajectory | None = None

    def __post_init__(self):
        for name in ("dt", "t_final"):
            if not 0 < getattr(self, name) < math.inf:  # False for NaN too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not (self.wall is None or isinstance(self.wall, ControlTrajectory)):
            raise ValueError(f"wall must be a ControlTrajectory or None, got {self.wall!r}")


def fidelity(a: ComplexField, b: ComplexField) -> float:
    """|<a, b>| for normalized fields on the same grid; blind to global phase."""
    return abs(inner_product(a, b))


class _SnapshotWriter:
    """Plain CSV stream of (t, x, Re psi, Im psi) rows at fixed step strides."""

    def __init__(self, path, stride: int):
        self.stride = stride
        self.fh = open(path, "w", newline="")
        self.fh.write("t,x,re_psi,im_psi\n")

    def write(self, t: float, grid: Grid, psi: np.ndarray):
        for xj, pj in zip(grid.points, psi):
            self.fh.write(f"{t:.14e},{xj:.14e},{pj.real:.14e},{pj.imag:.14e}\n")

    def close(self):
        self.fh.close()


def _frame(spec: PropagationSpec, psi0: ComplexField, t_half: np.ndarray):
    """(frame grid of y, s and s_dot at t_half, s(t)) for the frame x = s(t) y.

    No wall: y = x and s = 1.  A wall L(t): y = x / L(t) on [0, 1] and s = L;
    the wall ramp is evaluated (and domain-checked) at every half step here,
    before the first step.  Both frames set psi at the grid ends to zero, so
    psi0 must already vanish there: below 1e-8 at a moving wall, and below
    1e-5 at fixed ends, which holds every oscillator state (edge amplitude at
    most 1e-6 before renormalization on the grid).
    """
    wall = spec.wall
    limit = 1e-5 if wall is None else 1e-8
    if not np.abs(psi0.values[[0, -1]]).max() <= limit:  # NaN fails too
        raise ValueError(f"psi0 must vanish at both grid ends (|psi0| <= {limit:g} there)")
    if wall is None:
        return spec.grid, np.broadcast_to(1.0, t_half.shape), np.broadcast_to(0.0, t_half.shape), lambda t: 1.0
    L0 = wall.value(0.0)
    g = spec.grid
    if abs(g.x_min) > 1e-9 * L0 or abs(g.x_max - L0) > 1e-9 * L0:
        raise ValueError(f"moving-wall grid must span [0, L(0)] = [0, {L0}]")
    scale = lambda t: wall.value(min(t, wall.t_ff))
    return Grid(0.0, 1.0, g.n_points), wall.value(t_half), wall.velocity(t_half), scale


def _physical(frame: Grid, u: np.ndarray, s: float) -> tuple[Grid, np.ndarray]:
    """(grid, values) of psi(x) = s^-1/2 u(x / s) on [s y_min, s y_max], zero at both ends."""
    out = np.zeros(frame.n_points, dtype=complex)
    out[1:-1] = u / math.sqrt(s)
    return Grid(s * frame.x_min, s * frame.x_max, frame.n_points), out


def propagate(
    psi0: ComplexField,
    spec: PropagationSpec,
    snapshot_path=None,
    snapshot_stride: int = 0,
) -> ComplexField:
    """Crank-Nicolson run from t = 0 to t_final; returns the final state.

    Before the first step, raises PropagationError if V = a(t) x^2 is not
    finite or dt*max|V|/hbar >= 0.5 at any half step stepped (V on the
    interior points, dt the stepped t_final / n_steps; the bound is
    max|a(t) s(t)^2| max y^2), and ValueError if psi0 does not vanish at the
    grid ends or a wall run would leave the ramp's [0, t_ff].  While
    stepping, raises PropagationError if the norm drifts by more than 1e-6
    (or turns NaN) at any checkpoint.  Snapshots go to snapshot_path every
    snapshot_stride >= 1 steps: ValueError unless both or neither are given.
    """
    if (snapshot_path is None) != (snapshot_stride == 0) or snapshot_stride < 0:
        raise ValueError(
            f"snapshot_path and a snapshot_stride >= 1 go together; got {snapshot_path!r}, {snapshot_stride!r}"
        )
    n_steps = max(1, int(round(spec.t_final / spec.dt)))
    dt = spec.t_final / n_steps
    t_half = (np.arange(n_steps) + 0.5) * dt
    frame, s, s_dot, scale = _frame(spec, psi0, t_half)
    nrm0 = norm(psi0)
    if abs(nrm0 - 1.0) > 1e-6:
        raise ValueError(f"psi0 must be normalized, got norm {nrm0!r}")

    dy = frame.dx
    y = frame.points[1:-1]
    y2 = (y * y).astype(complex)
    y_pair = (y[:-1] + y[1:]).astype(complex)  # y_j + y_{j+1} for the symmetrized dilation term
    # A = 1 + i lam H at every half step: kinetic lam/(2 s^2 dy^2),
    # dilation lam (s_dot/s)/(4 dy) and potential lam a s^2 y^2
    lam = dt / 2.0
    c_kin = lam / (2.0 * dy * dy)
    c_dil = lam / (4.0 * dy)
    pot = lam * spec.coefficient(t_half) * (s * s)
    margin = 2.0 * np.abs(pot) * np.max(y * y)  # dt max|V|/hbar at every half step
    bad = np.flatnonzero(~(margin < 0.5))  # NaN fails too
    if bad.size:
        step, worst = bad[0] + 1, margin[bad[0]]
        if not worst < math.inf:
            raise PropagationError(f"potential is not finite at step {step}/{n_steps}")
        raise PropagationError(f"time step too coarse: dt*max|V|/hbar = {worst:.3g} >= 0.5")

    from scipy.linalg.lapack import zgtsv

    u = math.sqrt(scale(0.0)) * psi0.values[1:-1]  # unitary map to the frame
    w = np.empty_like(u)
    d = np.empty_like(u)
    du = np.empty(u.size - 1, dtype=complex)
    dl = np.empty_like(du)
    writer = None if snapshot_path is None else _SnapshotWriter(snapshot_path, snapshot_stride)
    try:
        if writer:
            writer.write(0.0, *_physical(frame, u, scale(0.0)))
        for step in range(n_steps):
            sk = s.item(step)
            np.multiply(y2, 1j * pot.item(step), out=d)
            k, q = c_kin / (sk * sk), c_dil * (s_dot.item(step) / sk)
            d += 1.0 + 2j * k
            np.multiply(y_pair, -q, out=du)  # du = -i lam k - lam q y_pair
            du -= 1j * k
            np.subtract(-2j * k, du, out=dl)  # dl = -i lam k + lam q y_pair, exactly
            u, w = _cayley_step(dl, d, du, u, w, zgtsv), u
            done, last = step + 1, step + 1 == n_steps
            if done % _NORM_CHECK_STRIDE == 0 or last:
                _check_norm(u, dy, done, n_steps)
            if writer and (last or done % writer.stride == 0):
                writer.write(done * dt, *_physical(frame, u, scale(done * dt)))
    finally:
        if writer is not None:
            writer.close()
    return ComplexField(*_physical(frame, u, scale(spec.t_final)))


def _cayley_step(dl, d, du, u: np.ndarray, w: np.ndarray, zgtsv) -> np.ndarray:
    """One Cayley step u -> (1 + i lam H)^-1 (1 - i lam H) u for a tridiagonal H.

    dl, d, du are the sub-, main and super-diagonal of A = 1 + i lam H.  As
    (1 + i lam H)^-1 (1 - i lam H) = 2 (1 + i lam H)^-1 - 1 exactly, the step
    is 2 A^-1 u - u: one solve, no product H u (the solve takes 2u, which
    doubles its result exactly).  zgtsv is LAPACK's tridiagonal solver as
    scipy binds it, looked up once per run by the caller; it overwrites dl,
    d, du and the scratch vector w, and the result may share w's memory.
    """
    np.multiply(u, 2.0, out=w)
    _, _, _, x, info = zgtsv(dl, d, du, w, 1, 1, 1, 1)
    if info != 0:
        raise PropagationError(f"zgtsv failed in the Cayley step (info = {info})")
    x -= u
    return x


def _check_norm(interior: np.ndarray, dx: float, step: int, n_steps: int) -> None:
    """Norm drift check on the interior values; the Dirichlet endpoints are zero,
    so the trapezoid rule reduces to dx times the plain sum of |psi|^2."""
    nrm = float(np.sqrt(dx * np.vdot(interior, interior).real))
    if not abs(nrm - 1.0) <= _NORM_DRIFT_LIMIT:  # NaN fails this test too
        raise PropagationError(
            f"norm drifted to {nrm!r} at step {step}/{n_steps} (|drift| > {_NORM_DRIFT_LIMIT:g})"
        )


def tdse_residual(
    psi_ff_fn: Callable[[float], np.ndarray],
    coefficient: Callable[[float], float],
    grid: Grid,
    t: float,
    dt: float,
) -> float:
    """Relative residual of the driven equation for an analytic state.

    || i hbar (psi(t+dt) - psi(t-dt)) / 2dt - H(t) psi(t)|| / ||H(t) psi(t)||
    with H the second-order finite-difference Hamiltonian for the potential
    V = coefficient(t) x^2.  psi_ff_fn(s) must return the array of field
    values on `grid`.  Evaluated on the interior (two points clipped
    per edge).
    """
    if t - dt < 0.0:
        raise ValueError("centered stencil needs t - dt >= 0")

    psi_m, psi_0, psi_p = (np.asarray(psi_ff_fn(s), dtype=complex) for s in (t - dt, t, t + dt))
    h_psi = -0.5 * lap2(psi_0, grid.dx) + coefficient(t) * grid.points**2 * psi_0
    lhs = 1j * (psi_p - psi_m) / (2.0 * dt)
    diff = (lhs - h_psi)[2:-2]
    ref = h_psi[2:-2]
    num = np.sqrt(np.trapezoid(np.abs(diff) ** 2, dx=grid.dx))
    den = np.sqrt(np.trapezoid(np.abs(ref) ** 2, dx=grid.dx))
    if den == 0.0:
        raise ValueError("H psi vanishes; residual undefined")
    return float(num / den)
