import numpy as np
import pytest

from ffqd.core import ComplexField, Grid, inner_product, norm, normalize


def unit_grid(n=1024):
    return Grid(0.0, 1.0, n)


def test_grid_validation():
    g = unit_grid(9)
    assert g.dx == pytest.approx(1.0 / 8.0)
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 64)


def test_field_validation():
    g = unit_grid(16)
    with pytest.raises(ValueError):
        ComplexField(g, np.ones(15))
    with pytest.raises(ValueError):
        ComplexField(g, np.full(16, np.nan))
    f = ComplexField(g, np.ones(16))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # frozen storage


def test_inner_product_normalized_box_mode():
    g = unit_grid()
    phi = ComplexField(g, np.sqrt(2.0) * np.sin(np.pi * g.points))
    assert inner_product(phi, phi).real == pytest.approx(1.0, abs=1e-10)


def test_inner_product_orthogonal_modes():
    g = unit_grid()
    a = ComplexField(g, np.sin(np.pi * g.points))
    b = ComplexField(g, np.sin(2.0 * np.pi * g.points))
    assert abs(inner_product(a, b)) < 1e-10


def test_inner_product_linear_moment():
    g = unit_grid()
    one = ComplexField(g, np.ones(g.n_points))
    x = ComplexField(g, g.points)
    assert inner_product(one, x).real == pytest.approx(0.5, abs=1e-12)


def test_inner_product_grid_mismatch():
    a = ComplexField(unit_grid(64), np.ones(64))
    b = ComplexField(unit_grid(65), np.ones(65))
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry_and_positivity():
    g = unit_grid(256)
    rng = np.random.default_rng(7)
    a = ComplexField(g, rng.normal(size=256) + 1j * rng.normal(size=256))
    b = ComplexField(g, rng.normal(size=256) + 1j * rng.normal(size=256))
    assert inner_product(a, b) == np.conjugate(inner_product(b, a))
    aa = inner_product(a, a)
    assert aa.imag == 0.0 and aa.real >= 0.0


def test_normalize_scaling_and_idempotence():
    g = unit_grid()
    phi = np.sqrt(2.0) * np.sin(np.pi * g.points)
    f = normalize(ComplexField(g, 2.0 * phi))
    np.testing.assert_allclose(f.values.real, phi, atol=1e-12)
    again = normalize(f)
    np.testing.assert_allclose(again.values, f.values, atol=1e-12)


def test_normalize_constant_field_already_unit():
    g = unit_grid()
    f = normalize(ComplexField(g, np.ones(g.n_points)))
    np.testing.assert_allclose(f.values.real, 1.0, atol=1e-12)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_field_errors():
    g = unit_grid(16)
    with pytest.raises(ValueError):
        normalize(ComplexField(g, np.zeros(16)))
