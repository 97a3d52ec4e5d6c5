import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgtsv

from ffqd import propagator
from ffqd.core import ComplexField, Grid
from ffqd.fastforward import psi_ff, psi_ff_values, trap_coefficient
from ffqd.propagator import (
    _PAIR_WORK,
    PropagationError,
    _cayley_step,
    _factored_step,
    _flapack,
    _zgtsv,
    fidelity,
    propagate,
    tdse_residual,
)
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import ADIABATIC_LINEAR, POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory

from helpers import box_ramp, box_state, ho_ramp, normalized, one_thread_python, static_ramp


def zero_potential(t):
    return np.zeros(np.shape(t))


def test_stationary_box_mode_acquires_pure_phase():
    grid = Grid(0.0, 1.0, 512)
    phi = box_state(1, 1.0, grid)
    t_final = 2.0 * np.pi / BoxModel().energy(1, 1.0)
    out = propagate(phi, static_ramp(t_final), zero_potential, t_final / 4000, t_final)
    assert fidelity(out, phi) == pytest.approx(1.0, abs=1e-6)


def test_single_tiny_step_is_identity():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(2, 1.0, grid)
    out = propagate(phi, static_ramp(1e-12), zero_potential, 1e-12, 1e-12)
    np.testing.assert_allclose(out.values, phi.values, atol=1e-10)


def test_free_gaussian_dispersion():
    grid = Grid(-25.0, 25.0, 4096)
    x = grid.points
    a0 = 1.0
    psi0 = normalized(grid, np.exp(-x * x / (2.0 * a0 * a0)))
    t_final = 1.0
    out = propagate(psi0, static_ramp(t_final), zero_potential, 2.5e-4, t_final)
    var = np.trapezoid(x * x * np.abs(out.values) ** 2, dx=grid.dx)
    expected = 0.5 * a0 * a0 * (1.0 + (t_final / (a0 * a0)) ** 2)
    assert var == pytest.approx(expected, rel=1e-4)


def test_cfl_style_precondition():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(1, 1.0, grid)
    with pytest.raises(ValueError, match="time step too coarse"):
        propagate(phi, static_ramp(1.0), lambda t: np.full(np.shape(t), 100.0), 0.1, 1.0)


def test_unnormalized_initial_state_rejected():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(1, 1.0, grid)
    bad = ComplexField(grid, 2.0 * phi.values)
    with pytest.raises(ValueError):
        propagate(bad, static_ramp(0.1), zero_potential, 1e-3, 0.1)


def test_long_run_unitarity():
    # 1e5 Cayley steps: norm must hold to far better than 1e-8
    grid = Grid(0.0, 1.0, 256)
    traj = box_ramp(POLYNOMIAL, t_ff=1.0)
    psi0 = psi_ff(BoxModel(), 1, 0.0, traj, grid)
    out = propagate(psi0, traj, trap_coefficient(BoxModel(), traj), 1e-5, 1.0)
    nrm = np.sqrt(np.trapezoid(np.abs(out.values) ** 2, dx=out.grid.dx))
    assert abs(nrm - 1.0) < 1e-8


def test_moving_wall_adiabatic_limit():
    # slow linear expansion tracks the instantaneous ground state to O(eps^2)
    eps = 0.05
    traj = ControlTrajectory(ADIABATIC_LINEAR, 1.0, 10.0, vbar=eps)
    grid = Grid(0.0, 1.0, 1024)
    phi0 = box_state(1, 1.0, grid)
    out = propagate(phi0, traj, zero_potential, 2e-4, 10.0)
    inst = box_state(1, traj.value(10.0), out.grid)
    assert 1.0 - fidelity(out, inst) < 0.1 * eps * eps


def test_fidelity_properties():
    grid = Grid(0.0, 1.0, 512)
    a = box_state(1, 1.0, grid)
    b = box_state(2, 1.0, grid)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-10)
    rotated = ComplexField(grid, np.exp(1j * np.pi / 3.0) * a.values)
    assert fidelity(a, rotated) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(a, box_state(1, 1.0, Grid(0.0, 1.0, 513)))


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 600), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_fidelity_at_most_one(n, width, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(-0.5 * width, 0.5 * width, n)
    a, b = (normalized(grid, rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
    assert fidelity(a, b) <= 1.0 + 1e-12
    assert fidelity(a, a) <= 1.0 + 1e-12


def test_moving_wall_past_t_ff_rejected_before_stepping():
    traj = box_ramp(POLYNOMIAL)
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    seen = []

    def coefficient(t):
        seen.extend(np.atleast_1d(t).tolist())
        return 0.0 * np.asarray(t)

    n_steps = 1500
    with pytest.raises(ValueError, match="outside"):
        propagate(phi, traj, coefficient, 1.5 / n_steps, 1.5)
    assert not seen  # a(t) was never evaluated


@pytest.mark.parametrize(
    "dt, t_final, ramp",
    [
        (np.inf, 1.0, None),
        (np.nan, 1.0, None),
        (1e-3, np.nan, None),
        (1e-3, np.inf, None),
        (0.0, 1.0, None),
        (1e-3, -1.0, None),
        (1e-3, 1.0, None),
        (1e-3, 1.0, "box"),
        (1e-3, 1.0, 1.0),
    ],
)
def test_spec_rejects_bad_times_and_walls(dt, t_final, ramp):
    # unchecked, dt = inf runs one step of length t_final, a NaN fails
    # converting the step count and t_final = inf overflows it; the times
    # are checked first, then the ramp that moves the walls, all before
    # a(t) is evaluated or the first frame is taken
    phi = box_state(1, 1.0, Grid(0.0, 1.0, 64))
    frames = []
    seen = []

    def coefficient(t):
        seen.append(t)
        return zero_potential(t)

    times_ok = 0 < dt < np.inf and 0 < t_final < np.inf
    match = "ramp must be a ControlTrajectory" if times_ok else "must be positive and finite"
    with pytest.raises(ValueError, match=match):
        propagate(phi, ramp, coefficient, dt, t_final, frames)
    assert not seen
    assert not frames


def _spiked(t_bad, dt, bad, base):
    """a(t): bad within dt/4 of t_bad, base elsewhere."""
    return lambda t: np.where(np.abs(t - t_bad) < 0.25 * dt, bad, base)


@pytest.mark.parametrize(
    "step, base, moving, bad",
    [
        pytest.param(step, base, moving, bad, id=f"{prefix}{moving}-{bad}")
        for step, base, prefix in ((37, 3.0, ""), (51, 0.0, "mid_run-"))
        for moving in (False, True)
        for bad in (np.nan, np.inf)
    ],
)
def test_non_finite_potential_sample_fails_precondition(step, base, moving, bad):
    # 100 steps of 1e-4; bad only around the half step of `step`, a = base
    # elsewhere: a NaN must not be folded away into max|V| ~ 3 by the
    # dt*max|V|/hbar bound, and the first bad step is the one reported
    grid = Grid(0.0, 1.0, 128)
    phi = box_state(1, 1.0, grid)
    t_final, n_steps = 0.01, 100
    dt = t_final / n_steps
    ramp = box_ramp(POLYNOMIAL) if moving else static_ramp(t_final)
    with pytest.raises(ValueError, match=f"not finite at step {step}/100"):
        propagate(phi, ramp, _spiked((step - 0.5) * dt, dt, bad, base), dt, t_final)


@pytest.mark.parametrize("moving", [False, True], ids=["coefficient-fixed", "coefficient-moving"])
def test_potential_spike_between_sample_times_is_too_coarse(moving):
    # a(t) = 1e4 only around the half step of step 51, between the times
    # k t_final/64 that a sampled bound would see, so dt*max|V|/hbar ~ 1 there
    # and 0 elsewhere; the bound raises before the first step
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    t_final, n_steps = 0.01, 100
    dt = t_final / n_steps
    t_spike = 50.5 * dt
    assert np.min(np.abs(np.linspace(0.0, t_final, 65) - t_spike)) > 0.25 * dt
    ramp = box_ramp(POLYNOMIAL) if moving else static_ramp(t_final)
    frames = []
    with pytest.raises(ValueError, match="time step too coarse"):
        propagate(phi, ramp, _spiked(t_spike, dt, 1e4, 0.0), dt, t_final, frames)
    assert not frames


@pytest.mark.parametrize("moving", [False, True], ids=["fixed", "moving"])
def test_psi0_not_vanishing_at_grid_ends_rejected_before_stepping(moving):
    # the walls set psi to zero at both grid ends; a normalized constant used to
    # lose its end values silently and fail 16 steps later with "norm drifted"
    grid = Grid(0.0, 1.0, 256)
    const = ComplexField(grid, np.ones(grid.n_points, dtype=complex))
    ramp = box_ramp(POLYNOMIAL) if moving else static_ramp(0.01)
    seen = []

    def coefficient(t):
        seen.append(t)
        return np.zeros(np.shape(t))

    with pytest.raises(ValueError, match="psi0 must vanish at both grid ends"):
        propagate(const, ramp, coefficient, 1e-4, 0.01)
    assert not seen


def test_oscillator_state_at_the_edge_limit_propagates():
    # an oscillator state whose grid ends sit just inside the edge bound of the
    # amplitude tables, 1e-6 of its peak, must pass the psi0 edge check
    model = HarmonicModel()
    traj = ho_ramp(POLYNOMIAL)
    half = np.sqrt(2.0 * np.log(1.0 / 0.99e-6))
    grid = Grid(-half, half, 512)
    psi0 = psi_ff(model, 0, 0.0, traj, grid)
    values = np.abs(psi0.values)
    assert 0.9e-6 < values[[0, -1]].max() / values.max() <= 1e-6
    out = propagate(psi0, static_ramp(0.01), trap_coefficient(model, traj, driven=False), 1e-3, 0.01)
    assert fidelity(out, psi0) > 0.99


def _random_hermitian_tridiagonal(n, seed, scale):
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=n)
    upper = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    lam = scale / max(np.max(np.abs(diag)), np.max(np.abs(upper)))
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    return diag.astype(complex), upper, np.conj(upper), u, lam


_tridiagonals = st.builds(
    _random_hermitian_tridiagonal,
    st.integers(3, 600),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 0.499),
)


def _cn(diag, upper, lower, u, lam):
    """_cayley_step on copies, from H's diagonals (A = 1 + i lam H is overwritten)."""
    u = u.copy()
    return _cayley_step(1j * lam * lower, 1.0 + 1j * lam * diag, 1j * lam * upper, u, np.empty_like(u), zgtsv)


@settings(max_examples=60, deadline=None)
@given(_tridiagonals)
def test_cn_step_matches_banded_reference(case):
    diag, upper, lower, u, lam = case
    ab = np.zeros((3, u.size), dtype=complex)
    ab[0, 1:] = 1j * lam * upper
    ab[1, :] = 1.0 + 1j * lam * diag
    ab[2, :-1] = 1j * lam * lower
    hu = diag * u
    hu[:-1] += upper * u[1:]
    hu[1:] += lower * u[:-1]
    ref = solve_banded((1, 1), ab, u - 1j * lam * hu)
    out = _cn(diag, upper, lower, u, lam)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(_tridiagonals)
def test_cn_step_is_unitary(case):
    diag, upper, lower, u, lam = case
    out = _cn(diag, upper, lower, u, lam)
    assert np.vdot(out, out).real == pytest.approx(np.vdot(u, u).real, rel=1e-12)


def test_loaded_zgtsv_is_scipy_binding():
    # scipy.linalg is imported above, so loading its LAPACK extension again
    # hands back the routine scipy.linalg.lapack binds; the loader's own
    # path, in a process without scipy.linalg, is checked in test_cli
    assert _zgtsv() is zgtsv


def test_singular_system_gives_the_same_info_and_fails_the_cayley_step():
    # A = [[1, 1], [1, 1]]: elimination leaves an exactly zero second pivot
    def system():
        return np.ones(1, complex), np.ones(2, complex), np.ones(1, complex)

    u = np.array([1.0, 2.0], dtype=complex)
    info = [fn(*system(), u)[-1] for fn in (_zgtsv(), zgtsv)]
    assert info[0] == info[1] > 0
    with pytest.raises(PropagationError, match=rf"info = {info[0]}\)"):
        _cayley_step(*system(), u, np.empty_like(u), _zgtsv())


def _random_tridiagonal(n, seed):
    """A random complex tridiagonal system (dl, d, du, u): elimination pivots on most of them."""
    rng = np.random.default_rng(seed)
    dl, d, du, u = (rng.normal(size=m) + 1j * rng.normal(size=m) for m in (n - 1, n, n - 1, n))
    return dl, d, du, u


@settings(max_examples=100, deadline=None)
@given(st.builds(_random_tridiagonal, st.integers(3, 300), st.integers(0, 2**32 - 1)))
def test_factored_step_is_bit_identical_to_the_cayley_step(system):
    # zgttrf + zgttrs make zgtsv's pivots and operations in zgtsv's order,
    # with or without row interchanges: the paired run's step keeps the bits
    dl, d, du, u = system
    lapack = _flapack()
    want = _cayley_step(dl.copy(), d.copy(), du.copy(), u, np.empty_like(u), lapack.zgtsv)
    got = _factored_step(lapack.zgttrf(dl, d, du), u, np.empty_like(u), lapack.zgttrs)
    assert np.array_equal(got.view(float), want.view(float))


def test_singular_system_fails_the_factored_step_with_the_cayley_step_message():
    # rows 1 and 2 are equal: elimination leaves an exactly zero second pivot
    dl, d, du = np.array([1, 0], complex), np.ones(3, complex), np.array([1, 0], complex)
    u = np.array([1.0, 2.0, 3.0], dtype=complex)
    lapack = _flapack()
    info = lapack.zgtsv(dl.copy(), d.copy(), du.copy(), u)[-1]
    factors = lapack.zgttrf(dl, d, du)
    assert factors[-1] == info == 2
    with pytest.raises(PropagationError, match=r"^zgtsv failed in the Cayley step \(info = 2\)$"):
        _factored_step(factors, u, np.empty_like(u), lapack.zgttrs)


def _per_step_reference(psi0, grid, dt, t_final, coefficient, ramp):
    """The per-step loop propagate ran before its frame arrays were vectorised, inlined.

    The frame y = x/l(t) on the grid divided by l(0); per step
    V = a(t) x^2 is formed on the physical points, the diagonals of
    A = 1 + i lam H by the loop's own expressions (kinetic c_kin/l^2,
    dilation c_dil l_dot/l, main diagonal 1 + 2ik + i lam V), the product (2 - A) u = (1 - i lam H) u
    is formed explicitly and zgtsv solves A u' = (2 - A) u.  Rounding H's
    entries any other way (1/(2 l^2 dy^2), 2k + V) moves the result by more
    than the 1e-12 compared at lam ||H|| ~ 300.  Natural units.
    """
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    lam = dt / 2.0
    L0 = ramp.value(0.0)
    y = np.linspace(grid.x_min / L0, grid.x_max / L0, grid.n_points)
    dy = (y[-1] - y[0]) / (grid.n_points - 1)
    ui = np.sqrt(L0) * psi0.values[1:-1].astype(complex)
    y_int = y[1:-1]
    y_pair = y_int[:-1] + y_int[1:]
    c_kin, c_dil = lam / (2.0 * dy * dy), lam / (4.0 * dy)
    for step in range(n_steps):
        tm = (step + 0.5) * dt
        L, Ldot = ramp.value(tm), ramp.velocity(tm)
        k, q = c_kin / (L * L), c_dil * (Ldot / L)
        d = 1.0 + 2j * k + 1j * lam * (coefficient(tm) * (L * y_int) ** 2)
        du = -1j * k - q * y_pair
        dl = -1j * k + q * y_pair
        rhs = (2.0 - d) * ui
        rhs[:-1] -= du * ui[1:]
        rhs[1:] -= dl * ui[:-1]
        _, _, _, ui, info = zgtsv(dl, d, du, rhs)
        assert info == 0
    return ui / np.sqrt(ramp.value(t_final))


_MODE_PARITY = {"even": [1, 0, 1, 0], "odd": [0, 1, 0, 1], "none": [1, 1, 1, 1]}  # sine modes 1..4 kept


# pinned: lam ||H|| ~ 300, where the reference's old rounding of H's entries
# alone missed the bound (1.237e-12)
@example(
    moving=True, kind=POLYNOMIAL, n=210, n_steps=100,
    l0=0.875, l_final=0.875, t_ff=1.0, trap=0.0, x_min=0.0, parity="none", seed=28,
)
# the half grid: both parities on both parities of the point count, static and moving
@example(
    moving=True, kind=TRIGONOMETRIC, n=200, n_steps=150,
    l0=1.2, l_final=0.85, t_ff=0.7, trap=0.6, x_min=-1.0, parity="even", seed=3,
)
@example(
    moving=True, kind=POLYNOMIAL, n=201, n_steps=150,
    l0=0.9, l_final=1.5, t_ff=0.8, trap=0.3, x_min=-1.0, parity="even", seed=4,
)
@example(
    moving=True, kind=POLYNOMIAL, n=128, n_steps=120,
    l0=1.1, l_final=0.8, t_ff=0.6, trap=1.0, x_min=-1.0, parity="odd", seed=5,
)
@example(
    moving=True, kind=TRIGONOMETRIC, n=129, n_steps=120,
    l0=0.8, l_final=1.6, t_ff=0.9, trap=0.0, x_min=-1.0, parity="odd", seed=6,
)
@example(
    moving=False, kind=POLYNOMIAL, n=64, n_steps=100,
    l0=1.0, l_final=1.0, t_ff=1.0, trap=0.5, x_min=-1.0, parity="even", seed=7,
)
@example(
    moving=False, kind=POLYNOMIAL, n=65, n_steps=100,
    l0=1.3, l_final=1.0, t_ff=1.0, trap=0.5, x_min=-1.0, parity="odd", seed=8,
)
@example(
    moving=True, kind=POLYNOMIAL, n=96, n_steps=100,
    l0=1.0, l_final=1.4, t_ff=0.8, trap=0.2, x_min=-1.0, parity="none", seed=9,
)
@settings(max_examples=40, deadline=None)
@given(
    moving=st.booleans(),
    kind=st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]),
    n=st.integers(16, 256),
    n_steps=st.integers(100, 400),
    l0=st.floats(0.8, 1.5),
    l_final=st.floats(0.8, 1.6),
    t_ff=st.floats(0.5, 1.0),
    trap=st.floats(0.0, 1.0),
    x_min=st.sampled_from([0.0, -0.5, -1.0]),
    parity=st.sampled_from(sorted(_MODE_PARITY)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_loop_matches_per_step_reference(moving, kind, n, n_steps, l0, l_final, t_ff, trap, x_min, parity, seed):
    # V = (trap/2 l^-4 - l_ddot/2l) x^2 on a random ramp, or on a constant
    # ramp (walls fixed at the grid ends); the grid is [x_min l0, l0], a box
    # [0, l0], a span that does not start at 0 or one symmetric about 0; random
    # initial state of sine modes 1..4 across the grid, the odd modes mirror-even
    # about its centre and the even ones mirror-odd: on the symmetric grid an
    # even or odd state runs on the half grid, the full-grid reference alike
    traj = box_ramp(kind, l0, l_final, t_ff)

    def coefficient(t):
        l = traj.value(t)
        return 0.5 * trap / l**4 - 0.5 * traj.acceleration(t) / l

    grid = Grid(x_min * l0, l0, n)
    rng = np.random.default_rng(seed)
    xi = (grid.points - grid.x_min) / (grid.x_max - grid.x_min)
    modes = (rng.normal(size=4) + 1j * rng.normal(size=4)) * _MODE_PARITY[parity]
    psi0 = normalized(grid, modes @ np.sin(np.pi * np.arange(1, 5)[:, None] * xi))
    t_final = t_ff if moving else 0.5 * t_ff
    ramp = traj if moving else static_ramp(t_final)
    out = propagate(psi0, ramp, coefficient, t_final / n_steps, t_final)
    ref = _per_step_reference(psi0, grid, t_final / n_steps, t_final, coefficient, ramp)
    assert np.max(np.abs(out.values[1:-1] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_output_grid_follows_the_ramp():
    # a constant ramp hands back the input grid itself; an oscillator run
    # ends on the grid of R(T), the frame having followed R(t) from R(0)
    phi = box_state(1, 1.0, Grid(0.0, 1.0, 64))
    out = propagate(phi, static_ramp(0.01), zero_potential, 1e-3, 0.01)
    assert out.grid == phi.grid
    model, traj = HarmonicModel(), ho_ramp(POLYNOMIAL)
    grid = model.default_grid(traj.value(0.0), 256)
    psi0 = psi_ff(model, 0, 0.0, traj, grid)
    out = propagate(psi0, traj, trap_coefficient(model, traj), 1e-3, 1.0)
    expected = model.default_grid(traj.value(1.0), 256)
    assert out.grid.n_points == expected.n_points
    assert out.grid.x_min == pytest.approx(expected.x_min, rel=1e-15)
    assert out.grid.x_max == pytest.approx(expected.x_max, rel=1e-15)
    assert fidelity(out, psi_ff(model, 0, 1.0, traj, out.grid)) > 1.0 - 1e-4


def test_snapshot_dump():
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    frames = []
    out = propagate(phi, static_ramp(0.017), zero_potential, 1e-3, 0.017, frames=frames)
    # 17 steps: frames at step 0, every 17 // 8 = 2 steps and the last step 17
    times = [t for t, _, _ in frames]
    assert times == pytest.approx([1e-3 * k for k in (0, 2, 4, 6, 8, 10, 12, 14, 16, 17)], rel=1e-12)
    assert all(g == grid and type(v) is np.ndarray and v.shape == (64,) for _, g, v in frames)
    assert np.array_equal(frames[0][2], phi.values)  # the box mode is zero at both walls
    assert np.array_equal(frames[-1][2], out.values)


# ---------------------------------------------------------------------------
# the half grid


def _solved_rows(monkeypatch) -> list:
    """The row count of every zgtsv solve propagate makes, through a recording stand-in."""
    rows, real = [], _zgtsv()

    def recording(dl, d, du, b, *flags):
        rows.append(d.size)
        return real(dl, d, du, b, *flags)

    monkeypatch.setattr(propagator, "_zgtsv", lambda: recording)
    return rows


@pytest.mark.parametrize("n, level", [(512, 0), (513, 0), (128, 1), (129, 1)])
def test_oscillator_levels_run_on_the_half_grid(monkeypatch, n, level):
    # level 0 is mirror-even and level 1 mirror-odd on the symmetric default grid
    rows = _solved_rows(monkeypatch)
    model, traj = HarmonicModel(), ho_ramp(POLYNOMIAL)
    grid = model.default_grid(1.0, n)
    propagate(psi_ff(model, level, 0.0, traj, grid), traj, trap_coefficient(model, traj), 1e-3, 0.05)
    assert len(rows) == 50
    assert max(rows) <= -(-(n - 2) // 2)


def _even_plus_odd(grid, eps):
    """The normalized sine mode 1 across the grid, mirror-even, plus eps times mode 2, mirror-odd."""
    xi = (grid.points - grid.x_min) / (grid.x_max - grid.x_min)
    return normalized(grid, np.sin(np.pi * xi) + eps * np.sin(2.0 * np.pi * xi))


@pytest.mark.parametrize("eps, half", [(0.5, False), (1e-11, False), (1e-15, True)])
def test_symmetric_grid_runs_the_half_grid_only_for_a_state_of_definite_parity(monkeypatch, eps, half):
    # the bound is 1e-13 of max|psi0| on the interior's mirror asymmetry
    rows = _solved_rows(monkeypatch)
    grid = Grid(-1.0, 1.0, 64)
    propagate(_even_plus_odd(grid, eps), static_ramp(0.01), zero_potential, 1e-3, 0.01)
    assert set(rows) == {31 if half else 62}


def test_box_runs_the_full_grid(monkeypatch):
    # the box frame [0, 1] is not symmetric about 0, whatever the state
    rows = _solved_rows(monkeypatch)
    grid = Grid(0.0, 1.0, 64)
    propagate(box_state(1, 1.0, grid), box_ramp(), zero_potential, 1e-3, 0.01)
    assert set(rows) == {62}


@pytest.mark.parametrize("n, level", [(128, 0), (129, 0), (128, 1), (129, 1)])
def test_half_grid_snapshots_match_the_full_grid(monkeypatch, n, level):
    model, traj = HarmonicModel(), ho_ramp(TRIGONOMETRIC)
    grid = model.default_grid(1.0, n)
    psi0 = psi_ff(model, level, 0.0, traj, grid)
    coefficient = trap_coefficient(model, traj)
    half, full = [], []
    propagate(psi0, traj, coefficient, 1e-3, 0.1, half)
    monkeypatch.setattr(propagator, "_parity", lambda grid, values: 0)  # no mirror: the full interior
    propagate(psi0, traj, coefficient, 1e-3, 0.1, full)
    assert len(half) == len(full) == 10  # frames at steps 0, 12, 24, ..., 96 and 100
    for (th, gh, h), (tf, gf, f) in zip(half, full):
        assert th == tf and np.array_equal(gh.points, gf.points)
        re_im_h, re_im_f = h.view(float), f.view(float)  # Re and Im interleaved
        assert np.max(np.abs(re_im_h - re_im_f)) <= 1e-12 * np.max(np.abs(re_im_f))


# ---------------------------------------------------------------------------
# the paired run

# name: (system, level, grid points, ramp kind, l_final, t_ff, steps), every ramp from l = 1
_PAIRED_CASES = {
    "box full grid": ("box", 1, 512, "polynomial", 3.0, 1.0, 500),
    "oscillator half grid, even points": ("harmonic", 0, 128, "trigonometric", 0.7, 0.5, 500),
    "oscillator half grid, odd points": ("harmonic", 1, 129, "trigonometric", 0.7, 0.5, 503),
    "2K steps": ("box", 2, 128, "polynomial", 1.2, 1.0, 16),
    "2K + 3 steps": ("box", 2, 128, "polynomial", 1.2, 1.0, 19),
}

_PAIRED_AGAINST_SERIAL = """
import json, os
import numpy as np
from ffqd import propagator
from ffqd.core import norm
from ffqd.fastforward import psi_ff, trap_coefficient
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import ControlTrajectory, vbar_for_target

result, forks = {}, []
os.register_at_fork(before=lambda: forks.append(1))
propagator._PAIR_WORK = 0  # the cases are below the size that pays a partner; the bits do not depend on it
for name, (system, level, n_points, kind, l_final, t_ff, steps) in inputs[0].items():
    model = BoxModel() if system == "box" else HarmonicModel()
    traj = ControlTrajectory(kind, 1.0, t_ff, vbar=vbar_for_target(kind, 1.0, l_final, t_ff))
    psi0 = psi_ff(model, level, 0.0, traj, model.default_grid(1.0, n_points))
    args = (psi0, traj, trap_coefficient(model, traj), t_ff / steps, t_ff)
    forks.clear()
    serial = propagator.propagate(*args)
    paired = propagator.propagate(*args, _paired=True)
    half = propagator._parity(psi0.grid, psi0.values) != 0
    result[name] = [
        len(forks),
        half,
        np.array_equal(paired.values, serial.values),
        abs(norm(paired) - 1.0) == abs(norm(serial) - 1.0),
    ]
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def paired_against_serial():
    """Each case of _PAIRED_CASES propagated serially and paired, in a one-thread interpreter (fork is safe there)."""
    return json.loads(one_thread_python(_PAIRED_AGAINST_SERIAL, _PAIRED_CASES)[-1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a paired run forks its partner")
@pytest.mark.parametrize("name", list(_PAIRED_CASES))
def test_paired_run_is_bit_identical_to_the_serial_run(paired_against_serial, name):
    # zgttrf + zgttrs repeat zgtsv's operations, so the paired run, one fork
    # per call, returns the serial run's values and norm bit for bit
    forks, half, same_values, same_norm = paired_against_serial[name]
    assert forks == 1 and same_values and same_norm
    assert half == (_PAIRED_CASES[name][0] == "harmonic")


_PAIR_WORK_BOUNDARY = """
import os
from ffqd import propagator
from ffqd.fastforward import psi_ff, trap_coefficient
from ffqd.spectra import BoxModel
from ffqd.trajectory import POLYNOMIAL, ControlTrajectory, vbar_for_target

forks = []
os.register_at_fork(before=lambda: forks.append(1))
box, steps = BoxModel(), 500
traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=vbar_for_target(POLYNOMIAL, 1.0, 3.0, 1.0))
psi0 = psi_ff(box, 1, 0.0, traj, box.default_grid(1.0, 512))
work = (psi0.grid.n_points - 2) * steps  # the full interior is stepped
for threshold in (work, work + 1, propagator._PAIR_WORK):
    propagator._PAIR_WORK = threshold
    forks.clear()
    propagator.propagate(psi0, traj, trap_coefficient(box, traj), 1.0 / steps, 1.0, _paired=True)
    print(work, propagator._PAIR_WORK, len(forks))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a paired run forks its partner")
def test_paired_run_forks_only_from_its_work_threshold():
    # a run pairs where its rows times steps reach _PAIR_WORK: below it, the
    # fork and the hand-overs cost about what the partner saves
    # the third run, at the module's own threshold, is too small to pair
    lines = one_thread_python(_PAIR_WORK_BOUNDARY)
    assert lines == ["255000 255000 1", "255000 255001 0", f"255000 {_PAIR_WORK} 0"]


_PROTOCOL = """
import os
import numpy as np
from ffqd.propagator import PropagationError, _fork, _reap, _receive, _send

def children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return 0
    return 1

def outcome(child, before_reap=None, inherited=()):
    pid, read, write = _fork(child, inherited)
    try:
        if before_reap:
            return before_reap(pid, write)
        return _receive(read)
    except Exception as exc:
        return exc
    finally:
        _reap(pid, read, write)

def ended(pid, write):  # wait until the child has ended, and keep it to reap; then hand it a message
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    _send(write, b".")

rng = np.random.default_rng(3)
values = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)  # 80 kB: more than a pipe holds
back = outcome(lambda read, write: values)
print(back.dtype, back.tobytes() == values.tobytes())
def fails(read, write):
    raise PropagationError("norm drifted to nan at step 16/500")
exc = outcome(fails)
print(type(exc).__name__, exc)
print(repr(outcome(lambda read, write: os._exit(0))))
print(repr(outcome(lambda read, write: os._exit(0), ended)))
print(repr(outcome(lambda read, write: _receive(read), lambda pid, write: None)), children())
fds = lambda: len(os.listdir("/proc/self/fd"))
other = os.pipe()  # this process's ends of another child's pipe
print(outcome(lambda read, write: fds(), inherited=other) - fds())
"""


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="the protocol forks; its fds are listed in /proc")
def test_one_fork_protocol_carries_values_errors_and_ends():
    # _fork, _receive and _reap serve the sweep pool and the paired run alike:
    # a returned array comes back bit for bit, a raised PropagationError with
    # its message; a child that ends before it sends, or before it reads what
    # it is sent, is one RuntimeError; and a child waiting in _receive ends
    # once _reap closes this process's ends, leaving no child behind.  The
    # child holds its two pipe ends and none of the inherited or unused ones
    ended = "RuntimeError('a process forked for the propagations ended early')"
    assert one_thread_python(_PROTOCOL) == [
        "complex128 True",
        "PropagationError norm drifted to nan at step 16/500",
        ended,
        ended,
        "None 0",
        "0",
    ]


# ---------------------------------------------------------------------------
# residual oracle


def test_residual_static_eigenstate():
    traj = ControlTrajectory(ADIABATIC_LINEAR, 1.0, 1.0, vbar=1e-14)
    grid = Grid(0.0, 1.0, 2048)
    psi = lambda s: psi_ff_values(BoxModel(), 1, s, traj, grid.points)
    assert tdse_residual(psi, zero_potential, grid, 0.5, 1e-5) < 1e-4


def test_residual_driven_box_and_negative_control():
    traj = box_ramp(POLYNOMIAL)
    t_probe = 0.3  # wall acceleration nonzero here (vanishes at exactly T/2)
    grid = Grid(0.0, traj.value(t_probe), 2048)
    psi = lambda s: psi_ff_values(BoxModel(), 1, s, traj, grid.points)
    driven = tdse_residual(psi, trap_coefficient(BoxModel(), traj), grid, t_probe, 1e-5)
    undriven = tdse_residual(psi, trap_coefficient(BoxModel(), traj, driven=False), grid, t_probe, 1e-5)
    assert driven < 1e-3
    assert undriven >= 10.0 * driven


def test_residual_driven_oscillator():
    traj = ho_ramp(POLYNOMIAL)
    model = HarmonicModel()
    grid = model.default_grid(1.0, 2048)
    psi = lambda s: psi_ff_values(model, 0, s, traj, grid.points)
    assert tdse_residual(psi, trap_coefficient(model, traj), grid, 0.3, 1e-5) < 1e-3


def test_residual_stencil_domain():
    grid = Grid(0.0, 1.0, 256)
    psi = lambda s: box_state(1, 1.0, grid).values
    with pytest.raises(ValueError):
        tdse_residual(psi, zero_potential, grid, 0.0, 1e-3)


def test_residual_stencil_accepts_t_equal_to_dt():
    # the stencil then reads psi at t = 0 exactly; any t below dt is refused
    traj = ControlTrajectory(ADIABATIC_LINEAR, 1.0, 1.0, vbar=1e-14)
    grid = Grid(0.0, 1.0, 2048)
    psi = lambda s: psi_ff_values(BoxModel(), 1, s, traj, grid.points)
    assert tdse_residual(psi, zero_potential, grid, 1e-5, 1e-5) < 1e-4
    with pytest.raises(ValueError, match="t - dt >= 0"):
        tdse_residual(psi, zero_potential, grid, np.nextafter(1e-5, 0.0), 1e-5)
