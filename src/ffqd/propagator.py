"""Crank-Nicolson propagation of the driven Schroedinger equation.

This is the correctness oracle for the analytic fast-forward states: a state
is only believed once the independently stepped wavefunction reproduces it.

Both traps drive the same potential form, V = a(t) x^2 (the oscillator's
omega^2/2 plus the drive -l_ddot/2l, or the drive alone inside the box), so a
run takes the coefficient a(t), vectorised over an array of times.  One
Cayley loop runs in the frame x = s(t) y, s = l(t) the ramp a run is given,
where the exactly transformed Hamiltonian is
    H = -(hbar^2 / 2 m s^2) d_yy - (s_dot/s) D + a(t) s^2 y^2,
    D = -i hbar (y d_y + 1/2),
with the dilation term discretized symmetrically so the tridiagonal matrix
stays Hermitian and the Cayley step exactly unitary.  y spans the initial
grid over l(0), hard walls at both ends: a box grid [0, L(0)] becomes [0, 1],
an oscillator grid follows R(t), and a static run takes a constant ramp.

The Hamiltonian is even under y -> -y, so on a frame grid symmetric about 0
the Cayley matrix is persymmetric and keeps mirror-even and mirror-odd states
in their own subspace.  A psi0 whose interior is mirror-even or -odd (within
1e-13 of max|psi0|) on such a grid, as every oscillator level is on its
default grid, is stepped on the right half of the interior alone: the
mirror image of the first half-grid unknown folds into one entry of the
matrix, and the solve has half the rows.  The box frame [0, 1], asymmetric
grids and states of no parity run the full interior.

The half-step potential V(x, t + dt/2) keeps the scheme second order in time
for explicitly time-dependent Hamiltonians.  s, s_dot and a are evaluated at
every half step in one vectorised call each before the loop, where the bound
dt*max|V|/hbar < 0.5 is checked on all of them at once.  A step refills the
diagonals of A = 1 + i dt H / 2hbar and makes one LAPACK zgtsv solve:
A^-1 (1 - i dt H / 2hbar) = 2 A^-1 - 1, so the new state is 2 A^-1 psi - psi,
with no product H psi.

zgtsv comes from scipy's f2py extension scipy.linalg._flapack, loaded on the
first run after the light top-level scipy package alone (see _zgtsv): the
scipy.linalg package init, which pulls in scipy's array-API layer and with
it numpy.f2py, numpy.testing, numpy.random and numpy.ma, never runs for a
propagation.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable

import numpy as np

from ._numutil import lap2
from .core import ComplexField, Grid, _require_positive, inner_product, norm
from .trajectory import ControlTrajectory, _check_time

_NORM_DRIFT_LIMIT = 1e-6
_NORM_CHECK_STRIDE = 16
_EDGE_LIMIT = 1e-5  # |psi0| at both grid ends, relative to max|psi0|
_PARITY_LIMIT = 1e-13  # mirror asymmetry of psi0's interior, relative to max|psi0|


class PropagationError(RuntimeError):
    pass


def fidelity(a: ComplexField, b: ComplexField) -> float:
    """|<a, b>| for normalized fields on the same grid; blind to global phase."""
    return abs(inner_product(a, b))


def _frame(ramp: ControlTrajectory, psi0: ComplexField, t_half: np.ndarray):
    """(frame grid of y, s and s_dot at t_half) for the frame x = s(t) y, s = l(t).

    y spans psi0's grid over l(0); the ramp is evaluated (and domain-checked)
    at every half step here, before the first step.  psi at the grid ends is
    set to zero, so psi0 must vanish there, below 1e-5 max|psi0|: box states
    are zero at the walls, amplitude-table oscillator states 1e-6 of peak.
    """
    if not np.abs(psi0.values[[0, -1]]).max() <= _EDGE_LIMIT * np.abs(psi0.values).max():  # NaN fails too
        raise ValueError(f"psi0 must vanish at both grid ends (|psi0| <= {_EDGE_LIMIT:g} max|psi0| there)")
    g = psi0.grid
    l0 = ramp.value(0.0)
    return Grid(g.x_min / l0, g.x_max / l0, g.n_points), ramp.value(t_half), ramp.velocity(t_half)


def _parity(grid: Grid, values: np.ndarray) -> int:
    """1 or -1 if the interior of values is mirror-even or -odd on a grid symmetric about 0, else 0."""
    if grid.x_min != -grid.x_max:
        return 0
    inner = values[1:-1]
    bound = _PARITY_LIMIT * np.abs(values).max()
    for sign in (1, -1):
        if np.abs(inner - sign * inner[::-1]).max() <= bound:
            return sign
    return 0


def _physical(frame: Grid, u: np.ndarray, s: float, sign: int) -> tuple[Grid, np.ndarray]:
    """(grid, values) of psi(x) = s^-1/2 u(x / s) on [s y_min, s y_max], zero at both ends.

    With a mirror sign (0: none), u is the right half of the interior from its centre
    point or pair, and the left half is its mirror image times sign.
    """
    if sign:
        u = np.concatenate([sign * u[frame.n_points % 2 :][::-1], u])
    out = np.zeros(frame.n_points, dtype=complex)
    out[1:-1] = u / math.sqrt(s)
    return Grid(s * frame.x_min, s * frame.x_max, frame.n_points), out


def propagate(
    psi0: ComplexField,
    ramp: ControlTrajectory,
    coefficient: Callable[[np.ndarray], np.ndarray],
    dt: float,
    t_final: float,
    frames: list | None = None,
) -> ComplexField:
    """Crank-Nicolson run of psi0 on its own grid from t = 0 to t_final; returns the final state.

    coefficient maps an array of times to the array of a(t) of V = a(t) x^2.
    The grid, hard walls at both ends, follows the ramp l(t): the returned
    field lives on it scaled by l(t_final) / l(0).  A static run passes a
    constant ramp, ControlTrajectory(ADIABATIC_LINEAR, l, t_final).  The
    run makes n_steps = round(t_final / dt) (at least 1) steps of t_final / n_steps.

    Before the first step, raises ValueError if dt or t_final is not positive
    and finite or ramp is not a ControlTrajectory (checked first), if psi0
    does not vanish at the grid ends, if t_final lies beyond the ramp's t_ff
    (the ramp's time rule, trajectory._check_time), or if V = a(t) x^2 is not
    finite or dt*max|V|/hbar >= 0.5 at any half step stepped (V on the
    interior points; the bound is max|a(t) s(t)^2| max y^2): each depends on
    the input alone.  A psi0 of
    definite parity on a grid symmetric about 0 is stepped on the half grid
    (see the module docstring).  While stepping, raises PropagationError if
    the norm drifts by more than 1e-6 (or turns NaN) at any checkpoint.
    A frames list receives (t, grid, values) of the state at step 0, every
    max(1, n_steps // 8) steps and the last step: raw arrays, not fields, so
    a NaN frame still surfaces as the norm check's PropagationError.
    """
    _require_positive(dt, "dt")
    _require_positive(t_final, "t_final")
    if not isinstance(ramp, ControlTrajectory):
        raise ValueError(f"ramp must be a ControlTrajectory, got {ramp!r}")
    _check_time(t_final, ramp.t_ff)
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    t_half = (np.arange(n_steps) + 0.5) * dt
    frame, s, s_dot = _frame(ramp, psi0, t_half)
    nrm0 = norm(psi0)
    if abs(nrm0 - 1.0) > 1e-6:
        raise ValueError(f"psi0 must be normalized, got norm {nrm0!r}")

    dy = frame.dx
    y = frame.points[1:-1]
    # A = 1 + i lam H at every half step: kinetic lam/(2 s^2 dy^2),
    # dilation lam (s_dot/s)/(4 dy) and potential lam a s^2 y^2
    lam = dt / 2.0
    c_kin = lam / (2.0 * dy * dy)
    c_dil = lam / (4.0 * dy)
    pot = lam * coefficient(t_half) * (s * s)
    margin = 2.0 * np.abs(pot) * np.max(y * y)  # dt max|V|/hbar at every half step
    bad = np.flatnonzero(~(margin < 0.5))  # NaN fails too
    if bad.size:
        step, worst = bad[0] + 1, margin[bad[0]]
        if not worst < math.inf:
            raise ValueError(f"potential is not finite at step {step}/{n_steps}")
        raise ValueError(f"time step too coarse: dt*max|V|/hbar = {worst:.3g} >= 0.5")

    u = math.sqrt(ramp.value(0.0)) * psi0.values[1:-1]  # unitary map to the frame
    sign = _parity(psi0.grid, psi0.values)  # 0: no mirror, the full interior is stepped
    centre = frame.n_points % 2  # 1: the interior has a centre point y = 0
    if sign:  # the right half of the interior, from its centre point or pair
        h = y.size // 2
        y = y[h:].copy()
        if centre:
            y[0] = 0.0
        u = 0.5 * (u[h:] + sign * u[::-1][h:])
    y2 = (y * y).astype(complex)
    y_pair = (y[:-1] + y[1:]).astype(complex)  # y_j + y_{j+1} for the symmetrized dilation term
    zgtsv = _zgtsv()
    w = np.empty_like(u)
    d = np.empty_like(u)
    du = np.empty(u.size - 1, dtype=complex)
    dl = np.empty_like(du)
    stride = max(1, n_steps // 8)  # steps between frames
    if frames is not None:
        frames.append((0.0, *_physical(frame, u, ramp.value(0.0), sign)))
    for step in range(n_steps):
        sk = s.item(step)
        np.multiply(y2, 1j * pot.item(step), out=d)
        k, q = c_kin / (sk * sk), c_dil * (s_dot.item(step) / sk)
        d += 1.0 + 2j * k
        np.multiply(y_pair, -q, out=du)  # du = -i lam k - lam q y_pair
        du -= 1j * k
        np.subtract(-2j * k, du, out=dl)  # dl = -i lam k + lam q y_pair, exactly
        if sign:  # the first unknown's coupling to its mirror image, which is sign times itself
            if centre:
                du[0] *= 1 + sign  # the mirrored lower coupling equals du[0]
            else:
                d[0] -= sign * 1j * k  # the centre pair's dilation terms cancel
        u, w = _cayley_step(dl, d, du, u, w, zgtsv), u
        done, last = step + 1, step + 1 == n_steps
        if done % _NORM_CHECK_STRIDE == 0 or last:
            _check_norm(u, dy, done, n_steps, sign, centre)
        if frames is not None and (last or done % stride == 0):
            frames.append((done * dt, *_physical(frame, u, ramp.value(done * dt), sign)))
    return ComplexField(*_physical(frame, u, ramp.value(t_final), sign))


@functools.cache
def _zgtsv():
    """LAPACK zgtsv from scipy's extension module scipy.linalg._flapack.

    The top-level scipy package is imported, as its init is what makes the
    LAPACK library bundled with a scipy wheel loadable (on Windows it adds
    the library's DLL directory to the search path).  The extension is then
    loaded from scipy's linalg directory under its own dotted name, so the
    scipy.linalg package init does not run, and taken out of sys.modules
    again: a later import of scipy.linalg then binds its own module object
    (with the same routines) as scipy.linalg._flapack.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].zgtsv
    import scipy

    linalg = [os.path.join(d, "linalg") for d in scipy.__path__]
    found = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
    if found is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module.zgtsv


def _cayley_step(dl, d, du, u: np.ndarray, w: np.ndarray, zgtsv) -> np.ndarray:
    """One Cayley step u -> (1 + i lam H)^-1 (1 - i lam H) u for a tridiagonal H.

    dl, d, du are the sub-, main and super-diagonal of A = 1 + i lam H.  As
    (1 + i lam H)^-1 (1 - i lam H) = 2 (1 + i lam H)^-1 - 1 exactly, the step
    is 2 A^-1 u - u: one solve, no product H u (the solve takes 2u, which
    doubles its result exactly).  zgtsv is LAPACK's tridiagonal solver as
    scipy's f2py extension binds it (propagate passes _zgtsv(), tests may
    pass scipy.linalg.lapack.zgtsv); it overwrites dl, d, du and the scratch
    vector w, and the result may share w's memory.
    """
    np.multiply(u, 2.0, out=w)
    _, _, _, x, info = zgtsv(dl, d, du, w, 1, 1, 1, 1)
    if info != 0:
        raise PropagationError(f"zgtsv failed in the Cayley step (info = {info})")
    x -= u
    return x


def _check_norm(interior: np.ndarray, dx: float, step: int, n_steps: int, sign: int, centre: int) -> None:
    """Norm drift check on the interior values; the Dirichlet endpoints are zero,
    so the trapezoid rule reduces to dx times the plain sum of |psi|^2.  With a
    mirror sign the values are the right half of the interior from its centre
    point (centre = 1) or pair: the full sum is twice theirs, a centre point once."""
    sq = np.vdot(interior, interior).real
    if sign:
        sq = 2.0 * sq - centre * abs(interior[0]) ** 2
    nrm = float(np.sqrt(dx * sq))
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
    per edge).  ValueError unless dt is positive and finite and t >= dt.
    """
    _require_positive(dt, "dt")
    if t - dt < 0.0:
        raise ValueError("centered stencil needs t - dt >= 0")

    psi_m, psi_0, psi_p = (np.asarray(psi_ff_fn(s), dtype=complex) for s in (t - dt, t, t + dt))
    h_psi = -0.5 * lap2(psi_0, grid.dx) + coefficient(t) * grid.points[1:-1] ** 2 * psi_0[1:-1]  # interior rows
    lhs = 1j * (psi_p - psi_m)[1:-1] / (2.0 * dt)
    diff = (lhs - h_psi)[1:-1]
    ref = h_psi[1:-1]
    num = np.sqrt(np.trapezoid(np.abs(diff) ** 2, dx=grid.dx))
    den = np.sqrt(np.trapezoid(np.abs(ref) ** 2, dx=grid.dx))
    if den == 0.0:
        raise ValueError("H psi vanishes; residual undefined")
    return float(num / den)
