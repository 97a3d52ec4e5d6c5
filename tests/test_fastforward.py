import numpy as np
import pytest

from ffqd.core import Grid, inner_product
from ffqd.fastforward import (
    PhaseFunctions,
    RegularizationSingularity,
    continuity_residual,
    dtheta_dx_numeric,
    psi_ff,
    psi_ff_values,
    scaling_phase_functions,
    theta_numeric,
    v_ff,
    v_ff_generic,
    v_tilde,
)
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory

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
# regularizing potential


def test_v_tilde_vanishes_for_real_states():
    grid = Grid(0.0, 1.0, 1024)
    out = v_tilde(box_amplitude_fn(2, grid), None, None, 1.0, grid)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)

    gridh = Grid(-9.0, 9.0, 1024)
    model = HarmonicModel()
    amp = lambda l: model.amplitudes(0, l, gridh)[0]
    theta = theta_numeric(amp, 1.0, gridh)
    out = v_tilde(amp, None, theta, 1.0, gridh)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_v_tilde_synthetic_complex_state():
    # phi = amplitude * exp(i x l): d_l eta = x, so V_tilde = -hbar x away from
    # the amplitude zeros (walls return 0 by convention)
    grid = Grid(0.0, 1.0, 512)
    x = grid.points
    out = v_tilde(box_amplitude_fn(1, grid), lambda l: x * l, None, 1.0, grid)
    np.testing.assert_allclose(out[1:-1], -x[1:-1], atol=1e-9)


# ---------------------------------------------------------------------------
# driving potential


def test_v_ff_zero_without_motion():
    traj = ControlTrajectory.adiabatic_linear(1.0, 0.0, 1.0)
    x = np.linspace(0.0, 1.0, 64)
    np.testing.assert_allclose(v_ff(x, 0.5, traj), 0.0, atol=1e-15)


def test_v_ff_box_value_at_ramp_start():
    traj = box_ramp(POLYNOMIAL)  # vbar = 54, L_dd(0) = 54
    assert v_ff(1.0, 0.0, traj) == pytest.approx(-27.0, rel=1e-12)


def test_v_ff_trig_sign_flip_across_midpoint():
    traj = box_ramp(TRIGONOMETRIC)
    early = v_ff(0.5, 0.25, traj)
    late = v_ff(0.5, 0.75, traj)
    assert early < 0.0 < late  # wall acceleration changes sign at T/2


@pytest.mark.parametrize("kind", BOTH_RAMPS)
@pytest.mark.parametrize("system", ["box", "ho"])
def test_generic_drive_matches_closed_form(system, kind):
    traj = box_ramp(kind) if system == "box" else ho_ramp(kind)
    phases = scaling_phase_functions()
    x = np.linspace(0.0, 1.0, 257) if system == "box" else np.linspace(-6.0, 6.0, 257)
    for t in (0.1, 0.35, 0.8):
        generic = v_ff_generic(phases, traj, t, x)
        np.testing.assert_allclose(generic, v_ff(x, t, traj), atol=1e-8)


def test_generic_drive_requires_all_phase_functions():
    traj = box_ramp(POLYNOMIAL)
    ph = scaling_phase_functions()
    broken = PhaseFunctions(ph.theta, None, ph.dtheta_dl, ph.eta, ph.deta_dx, ph.deta_dl)
    with pytest.raises(ValueError):
        v_ff_generic(broken, traj, 0.5, np.linspace(0.0, 1.0, 16))


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
        grid = model.default_grid(1.0, 512, n_max=2)
    for n in (model.n_min, model.n_min + 2):
        field = psi_ff(model, n, t, traj, grid)
        vals = psi_ff_values(model, n, t, traj, grid.points)
        np.testing.assert_allclose(vals[1:-1], field.values[1:-1], atol=1e-12)


def test_level_fields_per_model():
    # the fields of one accelerated level: theta, eta, v_tilde, v_ff, psi_ff
    traj = box_ramp(POLYNOMIAL)
    phases = scaling_phase_functions()
    x = np.linspace(0.0, 1.0, 65)
    np.testing.assert_allclose(phases.theta(x, 2.0), 0.25 * x * x, atol=1e-14)
    np.testing.assert_allclose(phases.eta(x, 2.0), 0.0)
    grid1 = Grid(0.0, 2.0, 65)
    np.testing.assert_allclose(v_tilde(box_amplitude_fn(1, grid1), None, None, 2.0, grid1), 0.0)
    np.testing.assert_allclose(v_ff(x, 0.0, traj), -27.0 * x * x, atol=1e-10)
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
