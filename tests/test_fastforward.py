import numpy as np
import pytest

from ffqd.core import Grid, inner_product
from ffqd.fastforward import (
    RegularizationSingularity,
    _v_ff_coefficient,
    continuity_residual,
    dtheta_dx_numeric,
    psi_ff,
    psi_ff_values,
    theta_numeric,
    trap_coefficient,
)
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import ADIABATIC_LINEAR, POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory

from helpers import BOTH_RAMPS, box_ramp, ho_ramp


def box_amplitude_fn(n, grid):
    return lambda l: np.sqrt(2.0 / l) * np.sin(n * np.pi * grid.points / l)


# ---------------------------------------------------------------------------
# regularization phase


@pytest.mark.parametrize("L", [1.0, 3.7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_box_theta_matches_closed_form(n, L):
    grid = Grid(0.0, L, 2048)
    theta = theta_numeric(box_amplitude_fn(n, grid), L, grid)
    np.testing.assert_allclose(theta, 0.5 * grid.points**2 / L, atol=1e-6)


def test_theta_zero_for_parameter_independent_amplitude():
    grid = Grid(0.0, 1.0, 512)
    frozen = np.sqrt(2.0) * np.sin(np.pi * grid.points)
    theta = theta_numeric(lambda l: frozen, 1.0, grid)
    np.testing.assert_allclose(theta, 0.0, atol=1e-12)


def test_oscillator_theta_gradient_and_weighted_residual():
    R = 1.0
    model = HarmonicModel()
    grid = Grid(-8.0, 8.0, 2048)
    amp = lambda l: model.amplitudes(0, l, grid)[0]
    dtheta = dtheta_dx_numeric(amp, R, grid)
    x = grid.points
    bulk = np.abs(x) <= 2.5  # well-conditioned region; the far tails carry no density
    np.testing.assert_allclose(dtheta[bulk], x[bulk] / R, atol=1e-6)
    wide = np.abs(x) <= 4.0  # linear continuation through the low-density fringe
    np.testing.assert_allclose(dtheta[wide], x[wide] / R, atol=1e-4)
    # quadrature residual of the continuity relation, weighted by the density
    rho = amp(R) ** 2
    resid = continuity_residual(amp, R, grid)
    assert np.trapezoid(np.abs(resid) * rho, dx=grid.dx) < 1e-6


@pytest.mark.parametrize("case", ["box1", "box2", "box3", "ho0", "ho1"])
def test_continuity_residual_maxabs(case):
    if case.startswith("box"):
        n = int(case[3:])
        grid = Grid(0.0, 1.0, 2048)
        amp = box_amplitude_fn(n, grid)
        l = 1.0
    else:
        n = int(case[2:])
        grid = Grid(-9.0, 9.0, 2048)
        model = HarmonicModel()
        amp = lambda l: model.amplitudes(n, l, grid)[n]
        l = 1.0
    resid = continuity_residual(amp, l, grid)
    assert np.max(np.abs(resid)) < 1e-5


@pytest.mark.parametrize("fn", [dtheta_dx_numeric, continuity_residual])
def test_phase_construction_evaluates_the_amplitude_three_times(fn):
    # rho at l and l +- dl: continuity_residual reuses them for the gradient
    grid = Grid(0.0, 1.0, 2048)
    amp = box_amplitude_fn(1, grid)
    calls = []

    def counted(l):
        calls.append(l)
        return amp(l)

    fn(counted, 1.0, grid)
    assert len(calls) == 3


def test_singularity_detected():
    # density vanishes on the right half while the running integral does not:
    # amplitude supported on [0, 1/2] with l-dependent normalization
    grid = Grid(0.0, 1.0, 1024)
    x = grid.points

    def amp(l):
        vals = np.where(x < 0.5, np.sin(2.0 * np.pi * x), 0.0)
        return vals / np.sqrt(l)

    with pytest.raises(RegularizationSingularity):
        dtheta_dx_numeric(amp, 1.0, grid)


# ---------------------------------------------------------------------------
# driving potential


def test_v_ff_zero_without_motion():
    traj = ControlTrajectory(ADIABATIC_LINEAR, 1.0, 1.0, vbar=0.0)
    np.testing.assert_array_equal(trap_coefficient(BoxModel(), traj)(np.linspace(0.0, 1.0, 64)), 0.0)


def test_v_ff_box_value_at_ramp_start():
    traj = box_ramp(POLYNOMIAL)  # vbar = 54, L_dd(0) = 54; the box's own v0 is 0
    assert trap_coefficient(BoxModel(), traj)(0.0) == pytest.approx(-27.0, rel=1e-12)


def test_v_ff_trig_sign_flip_across_midpoint():
    a = trap_coefficient(BoxModel(), box_ramp(TRIGONOMETRIC))
    assert a(0.25) < 0.0 < a(0.75)  # wall acceleration changes sign at T/2


def _five_term_drive(traj, t, x):
    """The paper's V_FF = -v th_x et_x - v^2 th_x^2 / 2 - v et_l - v_dot th - v^2 th_l (hbar = m = 1).

    v is the ramp velocity and the phases of the scale-invariant traps,
    theta = x^2 / 2l and eta = 0, are taken at l = l(t).
    """
    l, v, vdot = traj.value(t), traj.velocity(t), traj.acceleration(t)
    th, th_x, th_l = 0.5 * x * x / l, x / l, -0.5 * x * x / (l * l)
    et_x = et_l = np.zeros_like(x)
    return -v * th_x * et_x - 0.5 * v * v * th_x**2 - v * et_l - vdot * th - v * v * th_l


@pytest.mark.parametrize("kind", BOTH_RAMPS)
@pytest.mark.parametrize("system", ["box", "ho"])
def test_generic_drive_matches_closed_form(system, kind):
    traj = box_ramp(kind) if system == "box" else ho_ramp(kind)
    x = np.linspace(0.0, 1.0, 257) if system == "box" else np.linspace(-6.0, 6.0, 257)
    for t in (0.1, 0.35, 0.8):
        closed = _v_ff_coefficient(traj.acceleration(t), traj.value(t)) * x**2
        np.testing.assert_allclose(_five_term_drive(traj, t, x), closed, atol=1e-8)


# ---------------------------------------------------------------------------
# accelerated states


@pytest.mark.parametrize("kind", BOTH_RAMPS)
def test_psi_ff_box_reduces_to_eigenstate_at_start(kind):
    traj = box_ramp(kind)
    grid = Grid(0.0, 1.0, 1024)
    psi = psi_ff(BoxModel(), 1, 0.0, traj, grid)
    expected = np.sqrt(2.0) * np.sin(np.pi * grid.points)
    np.testing.assert_allclose(psi.values.real, expected, atol=1e-12)
    np.testing.assert_allclose(psi.values.imag, 0.0, atol=1e-12)


def test_psi_ff_norm_preserved_and_modulus_local():
    traj = box_ramp(POLYNOMIAL)
    for t in (0.0, 0.3, 0.7, 1.0):
        L = traj.value(t)
        grid = Grid(0.0, L, 1024)
        psi = psi_ff(BoxModel(), 1, t, traj, grid)
        assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            np.abs(psi.values),
            np.abs(np.sqrt(2.0 / L) * np.sin(np.pi * grid.points / L)),
            atol=1e-12,
        )


def test_psi_ff_box_final_modulus():
    traj = box_ramp(POLYNOMIAL)
    grid = Grid(0.0, 10.0, 1024)
    psi = psi_ff(BoxModel(), 1, 1.0, traj, grid)
    np.testing.assert_allclose(
        np.abs(psi.values),
        np.abs(np.sqrt(0.2) * np.sin(np.pi * grid.points / 10.0)),
        atol=1e-12,
    )


def test_psi_ff_ho_norm_and_start():
    traj = ho_ramp(POLYNOMIAL)
    grid = Grid(-8.0, 8.0, 1024)
    psi0 = psi_ff(HarmonicModel(), 0, 0.0, traj, grid)
    np.testing.assert_allclose(psi0.values.imag, 0.0, atol=1e-12)
    for t in (0.4, 1.0):
        psi = psi_ff(HarmonicModel(), 0, t, traj, grid)
        assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model", [BoxModel(), HarmonicModel()], ids=["box", "harmonic"])
def test_values_extension_matches_field_inside(model):
    # the smooth l^-1/2 phi_n(x/l; 1) formula against the grid field built
    # from the model's amplitude table at l (wall-clipped or grid-renormalized)
    t = 0.45
    if isinstance(model, BoxModel):
        traj = box_ramp(TRIGONOMETRIC)
        grid = Grid(0.0, traj.value(t), 512)
    else:
        traj = ho_ramp(TRIGONOMETRIC)
        half = model._half_width(1.0, 2)
        grid = Grid(-half, half, 512)
    for n in (model.n_min, model.n_min + 2):
        field = psi_ff(model, n, t, traj, grid)
        vals = psi_ff_values(model, n, t, traj, grid.points)
        np.testing.assert_allclose(vals[1:-1], field.values[1:-1], atol=1e-12)


def test_level_fields_per_model():
    # the accelerated level psi_ff of each model
    traj = box_ramp(POLYNOMIAL)
    grid = Grid(0.0, traj.value(0.5), 256)
    psi = psi_ff(BoxModel(), 1, 0.5, traj, grid)
    assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)

    trajh = ho_ramp(POLYNOMIAL)
    gridh = Grid(-8.0, 8.0, 256)
    psih = psi_ff(HarmonicModel(), 0, 0.3, trajh, gridh)
    assert inner_product(psih, psih).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model", [BoxModel(), HarmonicModel()], ids=["box", "harmonic"])
def test_accelerated_state_rejects_levels_below_n_min(model):
    traj = box_ramp(POLYNOMIAL)
    grid = Grid(0.0, 1.0, 64) if model.n_min else Grid(-8.0, 8.0, 64)
    with pytest.raises(ValueError, match="quantum number"):
        psi_ff(model, model.n_min - 1, 0.0, traj, grid)
    with pytest.raises(ValueError, match="quantum number"):
        psi_ff_values(model, model.n_min - 1, 0.5, traj, grid.points)
