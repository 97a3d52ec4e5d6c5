import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ffqd.core import ComplexField, Grid, inner_product, norm

from helpers import src_env


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
    assert Grid(0.0, 1.0, np.int64(8)).points.size == 8


@pytest.mark.parametrize(
    "x_min, x_max, n_points",
    [
        (0.0, np.inf, 8),
        (-np.inf, 1.0, 8),
        (0.0, np.nan, 8),
        (np.nan, 1.0, 8),
        (0.0, 1.0, 8.0),
        (0.0, 1.0, np.float64(64.0)),
        (0.0, 1.0, "64"),
    ],
)
def test_grid_rejects_non_finite_bounds_and_non_integer_points(x_min, x_max, n_points):
    # an infinite bound used to give points [nan, inf, ...] and dx = inf with only a
    # numpy warning, and a float n_points numpy's TypeError from linspace
    with pytest.raises(ValueError):
        Grid(x_min, x_max, n_points)


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


def test_normalize_constant_field_already_unit():
    g = unit_grid()
    assert norm(ComplexField(g, np.ones(g.n_points))) == pytest.approx(1.0, abs=1e-12)


def test_public_names_of_the_package():
    # the public surface of a fresh `import ffqd`, one of the two sizes the design
    # tracks: a change to it edits this set on purpose.  A subprocess, as a test
    # session imports submodules (ffqd.cli) that a bare import does not
    code = "import ffqd; print(' '.join(n for n in dir(ffqd) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) == {
        "ADIABATIC_LINEAR", "BoxModel", "ComplexField", "ControlTrajectory", "CostReport",
        "FrobeniusCost", "Grid", "HarmonicModel", "POLYNOMIAL",
        "PropagationError", "QUINTIC", "RegularizationSingularity", "TRIGONOMETRIC",
        "ThermalEnsemble", "box_drive_prefactor", "coefficient_A", "coefficients_B",
        "continuity_residual", "core", "cost", "cost_ff", "cost_ff_closed", "cost_ff_numeric",
        "cost_ie", "dtheta_dx_numeric", "ermakov_residual", "fastforward", "fidelity",
        "frobenius_cost", "h_ie_expectation", "ie", "inner_product", "internal_energy_closed",
        "internal_energy_numeric", "norm", "propagate", "propagator",
        "psi_ff", "psi_ff_values", "solve_mu", "spectra", "tdse_residual", "theta_numeric",
        "trajectory", "trap_coefficient", "vbar_for_target",
    }


_FILE_CALLS = {"open", "write", "writelines", "write_text", "write_bytes"}  # open(...), f.write(...), ...


def test_only_the_cli_touches_files():
    # the numerics, the propagator included, hand back values; cli.run alone
    # writes them, after every row is computed, so a failing run leaves no file
    calls = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ffqd").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _FILE_CALLS:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def _is_positive_rule(node) -> bool:
    """A chained comparison `a < x < inf` (math.inf or np.inf): the positive-and-finite rule."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 2):
        return False
    last = node.comparators[-1]
    return getattr(last, "attr", getattr(last, "id", None)) == "inf"


def test_only_core_writes_the_positive_and_finite_rule():
    # every length, frequency, duration, step and tolerance takes core._require_positive;
    # the rule used to be copied into five modules, and the copies drift
    found, inside = [], []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ffqd").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, n.lineno) for n in ast.walk(tree) if _is_positive_rule(n)]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_require_positive":
                inside += [(path.name, n.lineno) for n in ast.walk(fn) if _is_positive_rule(n)]
    assert len(inside) == 1 and inside[0][0] == "core.py"
    assert found == inside
