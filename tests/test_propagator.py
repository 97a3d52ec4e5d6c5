import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgtsv

from ffqd.core import ComplexField, Grid, normalize
from ffqd.fastforward import psi_ff, psi_ff_values, trap_coefficient
from ffqd.propagator import (
    PropagationError,
    PropagationSpec,
    _cayley_step,
    fidelity,
    propagate,
    tdse_residual,
)
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory

from helpers import box_ramp, box_state, ho_ramp


def zero_potential(t):
    return np.zeros(np.shape(t))


def test_stationary_box_mode_acquires_pure_phase():
    grid = Grid(0.0, 1.0, 512)
    phi = box_state(1, 1.0, grid)
    t_final = 2.0 * np.pi / BoxModel().energy(1, 1.0)
    out = propagate(phi, PropagationSpec(grid, t_final / 4000, t_final, zero_potential))
    assert fidelity(out, phi) == pytest.approx(1.0, abs=1e-6)


def test_single_tiny_step_is_identity():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(2, 1.0, grid)
    out = propagate(phi, PropagationSpec(grid, 1e-12, 1e-12, zero_potential))
    np.testing.assert_allclose(out.values, phi.values, atol=1e-10)


def test_free_gaussian_dispersion():
    grid = Grid(-25.0, 25.0, 4096)
    x = grid.points
    a0 = 1.0
    psi0 = normalize(ComplexField(grid, np.exp(-x * x / (2.0 * a0 * a0))))
    t_final = 1.0
    out = propagate(psi0, PropagationSpec(grid, 2.5e-4, t_final, zero_potential))
    var = np.trapezoid(x * x * np.abs(out.values) ** 2, dx=grid.dx)
    expected = 0.5 * a0 * a0 * (1.0 + (t_final / (a0 * a0)) ** 2)
    assert var == pytest.approx(expected, rel=1e-4)


def test_cfl_style_precondition():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(1, 1.0, grid)
    with pytest.raises(PropagationError):
        propagate(phi, PropagationSpec(grid, 0.1, 1.0, lambda t: np.full(np.shape(t), 100.0)))


def test_unnormalized_initial_state_rejected():
    grid = Grid(0.0, 1.0, 256)
    phi = box_state(1, 1.0, grid)
    bad = ComplexField(grid, 2.0 * phi.values)
    with pytest.raises(ValueError):
        propagate(bad, PropagationSpec(grid, 1e-3, 0.1, zero_potential))


def test_long_run_unitarity():
    # 1e5 Cayley steps: norm must hold to far better than 1e-8
    grid = Grid(0.0, 1.0, 256)
    traj = box_ramp(POLYNOMIAL, t_ff=1.0)
    psi0 = psi_ff(BoxModel(), 1, 0.0, traj, grid)
    out = propagate(psi0, PropagationSpec(grid, 1e-5, 1.0, trap_coefficient(BoxModel(), traj), traj))
    nrm = np.sqrt(np.trapezoid(np.abs(out.values) ** 2, dx=out.grid.dx))
    assert abs(nrm - 1.0) < 1e-8


def test_moving_wall_grid_must_match_initial_box():
    traj = box_ramp(POLYNOMIAL)
    grid = Grid(0.0, 2.0, 256)
    phi = box_state(1, 2.0, grid)
    with pytest.raises(ValueError):
        propagate(phi, PropagationSpec(grid, 1e-4, 1.0, zero_potential, traj))


def test_moving_wall_adiabatic_limit():
    # slow linear expansion tracks the instantaneous ground state to O(eps^2)
    eps = 0.05
    traj = ControlTrajectory.adiabatic_linear(1.0, eps, 10.0)
    grid = Grid(0.0, 1.0, 1024)
    phi0 = box_state(1, 1.0, grid)
    out = propagate(phi0, PropagationSpec(grid, 2e-4, 10.0, zero_potential, traj))
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
    a, b = (normalize(ComplexField(grid, rng.normal(size=n) + 1j * rng.normal(size=n))) for _ in range(2))
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
        propagate(phi, PropagationSpec(grid, 1.5 / n_steps, 1.5, coefficient, traj))
    assert not seen  # a(t) was never evaluated


@pytest.mark.parametrize(
    "dt, t_final, wall",
    [
        (np.inf, 1.0, None),
        (np.nan, 1.0, None),
        (1e-3, np.nan, None),
        (1e-3, np.inf, None),
        (0.0, 1.0, None),
        (1e-3, -1.0, None),
        (1e-3, 1.0, "box"),
        (1e-3, 1.0, 1.0),
    ],
)
def test_spec_rejects_bad_times_and_walls(dt, t_final, wall):
    # unchecked, dt = inf runs one step of length t_final, a NaN fails
    # converting the step count and t_final = inf overflows it
    with pytest.raises(ValueError, match="must be positive and finite|must be a ControlTrajectory or None"):
        PropagationSpec(Grid(0.0, 1.0, 64), dt, t_final, zero_potential, wall)


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
    wall = box_ramp(POLYNOMIAL) if moving else None
    with pytest.raises(PropagationError, match=f"not finite at step {step}/100"):
        propagate(phi, PropagationSpec(grid, dt, t_final, _spiked((step - 0.5) * dt, dt, bad, base), wall))


@pytest.mark.parametrize("moving", [False, True], ids=["coefficient-fixed", "coefficient-moving"])
def test_potential_spike_between_sample_times_is_too_coarse(tmp_path, moving):
    # a(t) = 1e4 only around the half step of step 51, between the times
    # k t_final/64 that a sampled bound would see, so dt*max|V|/hbar ~ 1 there
    # and 0 elsewhere; the bound raises before the first step
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    t_final, n_steps = 0.01, 100
    dt = t_final / n_steps
    t_spike = 50.5 * dt
    assert np.min(np.abs(np.linspace(0.0, t_final, 65) - t_spike)) > 0.25 * dt
    wall = box_ramp(POLYNOMIAL) if moving else None
    path = tmp_path / "snaps.csv"
    spec = PropagationSpec(grid, dt, t_final, _spiked(t_spike, dt, 1e4, 0.0), wall)
    with pytest.raises(PropagationError, match="time step too coarse"):
        propagate(phi, spec, path, snapshot_stride=1)
    assert not path.exists()


@pytest.mark.parametrize("moving", [False, True], ids=["fixed", "moving"])
def test_psi0_not_vanishing_at_grid_ends_rejected_before_stepping(moving):
    # the walls set psi to zero at both grid ends; a normalized constant used to
    # lose its end values silently and fail 16 steps later with "norm drifted"
    grid = Grid(0.0, 1.0, 256)
    const = ComplexField(grid, np.ones(grid.n_points, dtype=complex))
    wall = box_ramp(POLYNOMIAL) if moving else None
    seen = []

    def coefficient(t):
        seen.append(t)
        return np.zeros(np.shape(t))

    with pytest.raises(ValueError, match="psi0 must vanish at both grid ends"):
        propagate(const, PropagationSpec(grid, 1e-4, 0.01, coefficient, wall))
    assert not seen


def test_oscillator_state_at_the_edge_limit_propagates():
    # an oscillator state whose grid ends sit just inside the 1e-6 edge bound
    # of the amplitude tables must pass the fixed-wall check
    model = HarmonicModel()
    traj = ho_ramp(POLYNOMIAL)
    half = np.sqrt(2.0 * np.log(np.pi**-0.25 / 0.99e-6))
    grid = Grid(-half, half, 512)
    psi0 = psi_ff(model, 0, 0.0, traj, grid)
    assert 0.9e-6 < np.abs(psi0.values[[0, -1]]).max() <= 1e-6
    out = propagate(psi0, PropagationSpec(grid, 1e-3, 0.01, trap_coefficient(model, traj, driven=False)))
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


def _per_step_reference(psi0, grid, dt, t_final, coefficient, traj=None):
    """The two per-step loops propagate ran before they were merged, inlined.

    Fixed walls (traj None) or the wall frame y = x/L(t) (traj given); per
    step V = a(t) x^2 is formed on the physical points, the diagonals of
    A = 1 + i lam H by the loop's own expressions (kinetic c_kin/L^2,
    dilation c_dil Ldot/L, main diagonal 1 + 2ik + i lam V), the product (2 - A) u = (1 - i lam H) u
    is formed explicitly and zgtsv solves A u' = (2 - A) u.  Rounding H's
    entries any other way (1/(2 L^2 dy^2), 2k + V) moves the result by more
    than the 1e-12 compared at lam ||H|| ~ 300.  Natural units.
    """
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    lam = dt / 2.0
    if traj is None:
        y, dy, L0 = grid.points, grid.dx, 1.0
    else:
        y = np.linspace(0.0, 1.0, grid.n_points)
        dy, L0 = y[1] - y[0], traj.value(0.0)
    ui = np.sqrt(L0) * psi0.values[1:-1].astype(complex)
    y_int = y[1:-1]
    y_pair = y_int[:-1] + y_int[1:]
    c_kin, c_dil = lam / (2.0 * dy * dy), lam / (4.0 * dy)
    for step in range(n_steps):
        tm = (step + 0.5) * dt
        L, Ldot = (1.0, 0.0) if traj is None else (traj.value(tm), traj.velocity(tm))
        k, q = c_kin / (L * L), c_dil * (Ldot / L)
        d = 1.0 + 2j * k + 1j * lam * (coefficient(tm) * (L * y_int) ** 2)
        du = -1j * k - q * y_pair
        dl = -1j * k + q * y_pair
        rhs = (2.0 - d) * ui
        rhs[:-1] -= du * ui[1:]
        rhs[1:] -= dl * ui[:-1]
        _, _, _, ui, info = zgtsv(dl, d, du, rhs)
        assert info == 0
    L_f = 1.0 if traj is None else traj.value(t_final)
    return ui / np.sqrt(L_f)


# pinned: lam ||H|| ~ 300, where the reference's old rounding of H's entries
# alone missed the bound (1.237e-12)
@example(
    moving=True, kind=POLYNOMIAL, n=210, n_steps=100,
    l0=0.875, l_final=0.875, t_ff=1.0, trap=0.0, seed=28,
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
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_loop_matches_per_step_reference(moving, kind, n, n_steps, l0, l_final, t_ff, trap, seed):
    # V = (trap/2 l^-4 - l_ddot/2l) x^2 on a random ramp; random sine-mode initial state
    traj = box_ramp(kind, l0, l_final, t_ff)

    def coefficient(t):
        l = traj.value(t)
        return 0.5 * trap / l**4 - 0.5 * traj.acceleration(t) / l

    grid = Grid(0.0, l0, n) if moving else Grid(-0.5 * l0, l0, n)
    rng = np.random.default_rng(seed)
    xi = (grid.points - grid.x_min) / (grid.x_max - grid.x_min)
    modes = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    psi0 = normalize(ComplexField(grid, (modes * np.sin(np.pi * np.arange(1, 4)[:, None] * xi)).sum(axis=0)))
    t_final = t_ff if moving else 0.5 * t_ff
    wall = traj if moving else None
    out = propagate(psi0, PropagationSpec(grid, t_final / n_steps, t_final, coefficient, wall))
    ref = _per_step_reference(psi0, grid, t_final / n_steps, t_final, coefficient, wall)
    assert np.max(np.abs(out.values[1:-1] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("with_path, stride", [(True, 0), (True, -1), (False, 5)])
def test_snapshot_path_and_stride_go_together(tmp_path, with_path, stride):
    # either one alone used to be ignored without a word: no file, or no frames
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    path = tmp_path / "snaps.csv"
    spec = PropagationSpec(grid, 1e-3, 0.01, zero_potential)
    with pytest.raises(ValueError, match="snapshot_stride"):
        propagate(phi, spec, snapshot_path=path if with_path else None, snapshot_stride=stride)
    assert not path.exists()


def test_snapshot_dump(tmp_path):
    grid = Grid(0.0, 1.0, 64)
    phi = box_state(1, 1.0, grid)
    path = tmp_path / "snaps.csv"
    propagate(phi, PropagationSpec(grid, 1e-3, 0.01, zero_potential), snapshot_path=path, snapshot_stride=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,re_psi,im_psi"
    assert len(lines) == 1 + 64 * 3  # frames at steps 0, 5, and the final step 10

# ---------------------------------------------------------------------------
# residual oracle


def test_residual_static_eigenstate():
    traj = ControlTrajectory.adiabatic_linear(1.0, 1e-14, 1.0)
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
