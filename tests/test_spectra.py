import numpy as np
import pytest

from ffqd._numutil import lap2
from ffqd.core import ComplexField, Grid, inner_product
from ffqd.spectra import BoxModel, HarmonicModel

HO, BOX = HarmonicModel(), BoxModel()


def test_ho_energy_values():
    assert HO.energy(0, 1.0) == pytest.approx(0.5)
    assert HO.energy(2, 1.0 / np.sqrt(10.0)) == pytest.approx(25.0)  # (2.5)*omega with omega=10
    assert HO.energy(1, np.sqrt(1.0 / 10.0)) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        HO.energy(-1, 1.0)


def test_ho_ground_state_peak_value():
    grid = Grid(-8.0, 8.0, 2049)  # odd count so x = 0 is a grid point
    phi = HO.amplitudes(0, 1.0, grid)[0]
    assert phi[1024] == pytest.approx(np.pi ** -0.25, rel=1e-8)


def test_ho_odd_state_vanishes_at_origin():
    grid = Grid(-8.0, 8.0, 2049)  # odd count so x = 0 is a grid point
    phi = HO.amplitudes(1, 1.0, grid)[1]
    assert phi[1024] == 0.0


def test_ho_grid_norm():
    grid = Grid(-10.0, 10.0, 2048)
    phi = ComplexField(grid, HO.amplitudes(3, 1.0, grid)[3])
    assert inner_product(phi, phi).real == pytest.approx(1.0, abs=1e-8)


def test_ho_narrow_grid_rejected():
    with pytest.raises(ValueError):
        HO.amplitudes(0, 1.0, Grid(-2.0, 2.0, 256))


def test_box_energy_values():
    assert BOX.energy(1, 1.0) == pytest.approx(np.pi**2 / 2.0)
    assert BOX.energy(2, 2.0) == pytest.approx(np.pi**2 / 2.0)
    assert BOX.energy(1, 2.0) == pytest.approx(BOX.energy(1, 1.0) / 4.0)
    with pytest.raises(ValueError):
        BOX.energy(0, 1.0)


def test_box_eigenstate_values():
    grid = Grid(0.0, 1.0, 2049)
    phi1, phi2 = BOX.amplitudes(2, 1.0, grid)
    assert phi1[1024] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert phi1[0] == 0.0 and phi1[-1] == 0.0
    assert abs(phi2[1024]) < 1e-12  # node of sin(2 pi x) at x = 1/2


def test_box_eigenstate_grid_domain_checked():
    with pytest.raises(ValueError):
        BOX.amplitudes(1, 2.0, Grid(0.0, 1.0, 256))


@pytest.mark.parametrize("model_case", ["box", "ho"])
def test_orthonormality_up_to_n10(model_case):
    if model_case == "box":
        grid = Grid(0.0, 1.0, 2048)
        states = BoxModel().amplitudes(10, 1.0, grid)
    else:
        grid = Grid(-10.0, 10.0, 2048)
        states = HarmonicModel().amplitudes(10, 1.0, grid)
    w = np.full(grid.n_points, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    gram = (states * w) @ states.T
    np.testing.assert_allclose(gram, np.eye(states.shape[0]), atol=1e-8)


@pytest.mark.parametrize("model_case", ["box", "ho"])
def test_eigen_residual_second_order_fd(model_case):
    if model_case == "box":
        grid = Grid(0.0, 1.0, 2048)
        model = BoxModel()
        levels = range(1, 6)
        l = 1.0
    else:
        grid = Grid(-10.0, 10.0, 2048)
        model = HarmonicModel()
        levels = range(0, 5)
        l = 1.0
    amps = model.amplitudes(max(levels), l, grid)
    v0 = model._v0_coefficient(l) * grid.points**2
    for i, n in enumerate(levels):
        phi = amps[i]
        h_phi = -0.5 * lap2(phi, grid.dx) + v0 * phi
        e = model.energy(n, l)
        resid = np.sqrt(np.trapezoid((h_phi - e * phi)[2:-2] ** 2, dx=grid.dx))
        assert resid / e < 1e-4


def test_amplitudes_are_real():
    grid = Grid(0.0, 1.0, 512)
    assert BOX.amplitudes(3, 1.0, grid).dtype == np.float64
    assert BOX._unit_amplitudes(3, grid.points).dtype == np.float64
    gridh = Grid(-9.0, 9.0, 512)
    assert HO.amplitudes(2, 1.0, gridh).dtype == np.float64
    assert HO._unit_amplitudes(2, gridh.points).dtype == np.float64


def test_model_metadata():
    assert HarmonicModel().n_min == 0
    assert BoxModel().n_min == 1
    with pytest.raises(TypeError):  # the lowest level is the model's, not a setting
        HarmonicModel(n_min=3)
    np.testing.assert_array_equal(BoxModel().level_numbers(3), [1, 2, 3])
    np.testing.assert_array_equal(HarmonicModel().level_numbers(3), [0, 1, 2, 3])


def test_model_energy_and_amplitude_row():
    # level n is row n - n_min of the model's table, with energy model.energy(n, l)
    amp = BOX.amplitudes(2, 1.0, Grid(0.0, 1.0, 256))[2 - BOX.n_min]
    assert BOX.energy(2, 1.0) == pytest.approx(2.0 * np.pi**2)
    assert np.trapezoid(amp**2, dx=1.0 / 255) == pytest.approx(1.0, abs=1e-8)
    amp_h = HO.amplitudes(0, 1.0, Grid(-8.0, 8.0, 256))[0 - HO.n_min]
    assert HO.energy(0, 1.0) == pytest.approx(0.5)
    assert np.trapezoid(amp_h**2, dx=16.0 / 255) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", [HarmonicModel(), BoxModel()], ids=["harmonic", "box"])
def test_vectorised_energies_match_per_level_calls(model):
    ns = model.level_numbers(40)
    for l in (0.3, 1.0, 7.5, np.float64(2.25)):
        per_level = np.array([model.energy(int(n), l) for n in ns])
        np.testing.assert_array_equal(model.energy(ns, l), per_level)
    # an array of l broadcast against the levels: one row of energies per l
    ls = np.array([0.3, 1.0, 7.5, 2.25])
    per_pair = np.array([[model.energy(int(n), float(l)) for n in ns] for l in ls])
    np.testing.assert_array_equal(model.energy(ns, ls[:, None]), per_pair)
    for bad_l in (np.array([[1.0], [0.0]]), np.nan):
        with pytest.raises(ValueError, match="positive"):
            model.energy(ns, bad_l)
    bad = np.append(ns, model.n_min - 1)
    with pytest.raises(ValueError, match="quantum number"):
        model.energy(bad, 1.0)
    with pytest.raises(ValueError, match="positive"):
        model.energy(ns, 0.0)
