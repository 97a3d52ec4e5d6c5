"""One rule per input quantity, pinned at every public entry point that takes it.

Each quantity has one check, in the module that owns it: times in
trajectory (the ramp's [0, t_ff] with a 1e-9 slack, NaN rejected); counts and
level numbers in core (an int or numpy integer, not a bool, at least a
minimum); lengths, frequencies, durations, steps and tolerances in core
(positive and finite, an array by its worst entry); beta and the particle
number in cost.  Every entry point gets the same bad inputs and must raise
ValueError, not return a NaN or fail inside numpy.
"""

import math
import re

import numpy as np
import pytest

from ffqd import (
    POLYNOMIAL,
    BoxModel,
    ControlTrajectory,
    Grid,
    HarmonicModel,
    ThermalEnsemble,
    cost_ff,
    cost_ff_numeric,
    cost_ie,
    ermakov_residual,
    frobenius_cost,
    h_ie_expectation,
    internal_energy_closed,
    internal_energy_numeric,
    propagate,
    psi_ff,
    psi_ff_values,
    solve_mu,
    tdse_residual,
    trap_coefficient,
    vbar_for_target,
)
from ffqd._numutil import gauss_legendre
from ffqd.cli import Scenario

from helpers import box_ramp, box_state, ie_ramp

T = 1.0
RAMP = box_ramp(t_ff=T)
IE_RAMP = ie_ramp(1.0, 10.0, T)
ENS = ThermalEnsemble(beta=1.0, n_particles=1)
BOX = BoxModel()
HO, HO_RAMP = HarmonicModel(), ControlTrajectory(POLYNOMIAL, 1.0, T, vbar=-1.0)

# NaN, both infinities, and both ends 1e-8 t_ff beyond the rule's 1e-9 t_ff slack
_BAD_TIMES = [math.nan, math.inf, -math.inf, -1e-8 * T, T * (1.0 + 1e-8)]

# entry points that take a time or an array of times
_TIME_ARRAYS = {
    "value": RAMP.value,
    "velocity": RAMP.velocity,
    "acceleration": RAMP.acceleration,
    "quintic.value": IE_RAMP.value,
    "quintic.velocity": IE_RAMP.velocity,
    "quintic.acceleration": IE_RAMP.acceleration,
    "ermakov_residual": lambda t: ermakov_residual(IE_RAMP, t),
    "h_ie_expectation": lambda t: h_ie_expectation(IE_RAMP, t, 1.0),
    "internal_energy_closed": lambda t: internal_energy_closed(BOX, RAMP, t, ENS),
    "trap_coefficient": trap_coefficient(BOX, RAMP),
}
# entry points that take one time
_TIME_SCALARS = {
    **_TIME_ARRAYS,
    "internal_energy_numeric": lambda t: internal_energy_numeric(BOX, RAMP, t, ENS, n_points=256),
    "psi_ff": lambda t: psi_ff(BOX, 1, t, RAMP, Grid(0.0, 1.0, 64)),
    "psi_ff_values": lambda t: psi_ff_values(BOX, 1, t, RAMP, np.linspace(0.0, 1.0, 64)),
}


@pytest.mark.parametrize("t", _BAD_TIMES)
@pytest.mark.parametrize("entry", sorted(_TIME_SCALARS))
def test_every_time_follows_the_ramp_rule(entry, t):
    # NaN times used to come back as NaN from the inverse-engineering functions
    with pytest.raises(ValueError, match="outside"):
        _TIME_SCALARS[entry](t)
    if entry in _TIME_ARRAYS:
        with pytest.raises(ValueError, match="outside"):
            _TIME_ARRAYS[entry](np.array([0.5 * T, t]))


@pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf, 1.004, T * (1.0 + 1e-8)])
def test_propagate_end_time_follows_the_ramp_rule(t_final):
    # 1.004 at dt 0.01 keeps every half step inside the ramp: it used to run, and report the
    # state on the grid of l(1)
    seen = []

    def coefficient(t):
        seen.append(t)
        return np.zeros_like(t)

    with pytest.raises(ValueError):
        propagate(box_state(1, 1.0, Grid(0.0, 1.0, 64)), RAMP, coefficient, 0.01, t_final)
    assert not seen  # raised before a(t) was evaluated


# (name, minimum, call) of every entry point that takes a count
_COUNTS = [
    ("Grid.n_points", 8, lambda n: Grid(0.0, 1.0, n)),
    ("internal_energy_numeric.n_points", 8, lambda n: internal_energy_numeric(HO, HO_RAMP, 0.5, ENS, n_points=n)),
    ("cost_ff_numeric.n_points", 8, lambda n: cost_ff_numeric(BOX, RAMP, ENS, n_nodes=4, n_points=n)),
    ("frobenius_cost.n_points", 8, lambda n: frobenius_cost(BOX, RAMP, 4, T, n_points=n)),
    ("Scenario.grid_points", 8, lambda n: Scenario(grid_points=n)),
    ("cost_ff_numeric.n_nodes", 1, lambda n: cost_ff_numeric(BOX, RAMP, ENS, n_nodes=n, n_points=256)),
    ("frobenius_cost.cutoff", 2, lambda n: frobenius_cost(BOX, RAMP, n, T)),
]


@pytest.mark.parametrize(
    "bad_of",
    [lambda m: m - 1, lambda m: m - 0.5, float, lambda m: True, np.float64],
    ids=["below", "half", "float", "bool", "np.float64"],
)
@pytest.mark.parametrize("name, minimum, call", _COUNTS, ids=[c[0] for c in _COUNTS])
def test_every_count_follows_the_integer_rule(name, minimum, call, bad_of):
    # at minimum 8: 7, 7.5, 8.0, True and np.float64(8).  Floats used to reach numpy, which
    # raised TypeError or "deg must be an integer", or to run (frobenius_cost's n_points)
    bad = bad_of(minimum)
    with pytest.raises(ValueError, match=f"need an integer .* >= {minimum}, got {re.escape(repr(bad))}"):
        call(bad)


_ENERGIES = np.arange(10) + 0.5

_N_ENTRIES = {
    "ThermalEnsemble": lambda n: ThermalEnsemble(1.0, n),
    "solve_mu": lambda n: solve_mu(_ENERGIES, 1.0, n),
    "Scenario": lambda n: Scenario(n_particles=n),
}


@pytest.mark.parametrize("n", [0, -1, True])
@pytest.mark.parametrize("entry", sorted(_N_ENTRIES))
def test_every_particle_number_is_at_least_one(entry, n):
    # ThermalEnsemble used to accept 0 (an empty trace) and True
    with pytest.raises(ValueError, match=f"need an integer n_particles >= 1, got {re.escape(repr(n))}"):
        _N_ENTRIES[entry](n)


_BETA_ENTRIES = {
    "ThermalEnsemble": lambda b: ThermalEnsemble(b, 1),
    "h_ie_expectation": lambda b: h_ie_expectation(IE_RAMP, 0.5, b),
    "cost_ie": lambda b: cost_ie(IE_RAMP, b),
    "solve_mu": lambda b: solve_mu(_ENERGIES, b, 1),
    "Scenario": lambda b: Scenario(beta=b),
}


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", sorted(_BETA_ENTRIES))
def test_every_beta_is_positive(entry, beta):
    with pytest.raises(ValueError, match=f"beta must be positive .*, got {re.escape(repr(beta))}"):
        _BETA_ENTRIES[entry](beta)


_BOX_GRID = Grid(0.0, 1.0, 64)
_HO_GRID = Grid(-8.0, 8.0, 64)
_PSI = box_state(1, 1.0, _BOX_GRID)

# (id, name, call) of every entry point that takes a length, frequency, duration or step
_POSITIVE = [
    *((f"Scenario.{n}", n, lambda v, n=n: Scenario(**{n: v})) for n in ("l0", "l_final", "omega0", "omegaF", "dt")),
    ("Scenario.t_ff_list", "t_ff", lambda v: Scenario(t_ff_list=(1.0, v))),
    ("ControlTrajectory.t_ff", "t_ff", lambda v: ControlTrajectory(POLYNOMIAL, 1.0, v, vbar=1.0)),
    ("vbar_for_target.l0", "l0", lambda v: vbar_for_target(POLYNOMIAL, v, 2.0, T)),
    ("vbar_for_target.l_final", "l_final", lambda v: vbar_for_target(POLYNOMIAL, 1.0, v, T)),
    ("vbar_for_target.t_ff", "t_ff", lambda v: vbar_for_target(POLYNOMIAL, 1.0, 2.0, v)),
    ("BoxModel.energy.l", "l", lambda v: BOX.energy(1, v)),
    ("BoxModel.energy.l_array", "l", lambda v: BOX.energy(np.array([1, 2]), np.array([1.0, v]))),
    ("HarmonicModel.energy.l", "l", lambda v: HO.energy(0, v)),
    ("HarmonicModel.energy.l_array", "l", lambda v: HO.energy(0, np.array([[2.0, 1.0], [v, 0.5]]))),
    ("BoxModel.amplitudes.L", "L", lambda v: BOX.amplitudes(2, v, _BOX_GRID)),
    ("HarmonicModel.amplitudes.R", "R", lambda v: HO.amplitudes(2, v, _HO_GRID)),
    ("cost_ff.t_ff", "t_ff", lambda v: cost_ff(lambda t: t, v)),
    ("propagate.dt", "dt", lambda v: propagate(_PSI, RAMP, np.zeros_like, v, 0.5)),
    ("propagate.t_final", "t_final", lambda v: propagate(_PSI, RAMP, np.zeros_like, 0.01, v)),
    ("tdse_residual.dt", "dt", lambda v: tdse_residual(lambda s: _PSI.values, lambda t: 0.0, _BOX_GRID, 0.5, v)),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, name, call", _POSITIVE, ids=[p[0] for p in _POSITIVE])
def test_every_length_frequency_duration_and_step_is_positive_and_finite(entry, name, call, bad):
    # vbar_for_target used to divide by t_ff = 0, return a negative vbar for t_ff < 0 and
    # inf for l_final = inf; tdse_residual returned NaN at dt = 0 and took dt < 0 as -dt;
    # BoxModel().energy(1, inf) returned 0.0, and energy([1, 2], [1.0, inf]) [pi^2/2, 0];
    # BoxModel().amplitudes(2, inf, ...) a zero table, and HarmonicModel().amplitudes(2, nan,
    # ...) "grid too narrow ... edge amplitude nan".  An array is judged by its worst entry
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {re.escape(repr(bad))}$"):
        call(bad)


# (id, call, message) of each propagate argument that is not of its kind: each used to fail
# inside the run, as an AttributeError on psi0.values, a TypeError "'float' object is not
# callable", or numpy's broadcast error for 3 values of a(t) against 1000 half steps
_PROPAGATE_KINDS = [
    ("psi0", lambda: propagate(_PSI.values, RAMP, np.zeros_like, 0.01, 0.5), "psi0 must be a ComplexField, got ndarray"),
    ("coefficient", lambda: propagate(_PSI, RAMP, 0.5, 0.01, 0.5), "coefficient must be callable, got 0.5"),
    (
        "coefficient_values",
        lambda: propagate(_PSI, RAMP, lambda t: np.zeros(3), 0.0005, 0.5),
        "coefficient must return one value or one per half step (1000), got shape (3,)",
    ),
]


@pytest.mark.parametrize("entry, call, message", _PROPAGATE_KINDS, ids=[k[0] for k in _PROPAGATE_KINDS])
def test_propagate_rejects_an_argument_of_the_wrong_kind(entry, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_propagate_takes_one_scalar_a_for_every_half_step():
    # a constant coefficient may return a plain number, which broadcasts over the half steps
    scalar = propagate(_PSI, RAMP, lambda t: 0.0, 0.01, 0.5)
    assert np.array_equal(scalar.values, propagate(_PSI, RAMP, np.zeros_like, 0.01, 0.5).values)


@pytest.mark.parametrize(
    "energies, beta",
    [(np.float64(0.5), 1.0), (np.ones((2, 3)), 1.0), (np.ones((2, 3)), math.inf), ([[0.5], [1.5], [2.5]], 1.0)],
    ids=["0-d", "2-D", "2-D_zero_T", "nested_list"],
)
def test_solve_mu_takes_one_1d_spectrum(energies, beta):
    # these used to raise numpy's AxisError, a broadcast ValueError, a TypeError and an IndexError
    with pytest.raises(ValueError, match=rf"^energies must be a 1-D spectrum, got shape {re.escape(str(np.shape(energies)))}$"):
        solve_mu(energies, beta, 1)


@pytest.mark.parametrize("energies", [[[1, 2], [3]], [0.5, "a"], [0.5, 1j]], ids=["ragged", "string", "complex"])
def test_solve_mu_names_energies_that_are_no_array_of_reals(energies):
    # a ragged nesting used to raise numpy's "inhomogeneous shape" ValueError, a complex entry a TypeError
    with pytest.raises(ValueError, match=r"^energies must be a 1-D spectrum of real numbers$"):
        solve_mu(energies, 1.0, 1)


# (id, name, call, zero allowed) of every entry point that takes a quadrature tolerance; cost_ie
# takes none of its own, it averages by cost_ff's default
_TOLERANCES = [
    ("cost_ff.rel_tol", "rel_tol", lambda v: cost_ff(lambda t: t, T, v), False),
    ("frobenius_cost.rel_tol", "rel_tol", lambda v: frobenius_cost(BOX, RAMP, 4, T, rel_tol=v), False),
    ("gauss_legendre.rel_tol", "rel_tol", lambda v: gauss_legendre(lambda t: t, 0.0, T, v), False),
    ("gauss_legendre.abs_tol", "abs_tol", lambda v: gauss_legendre(lambda t: t, 0.0, T, 1e-10, v), True),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, name, call, zero_ok", _TOLERANCES, ids=[t[0] for t in _TOLERANCES])
def test_every_tolerance_is_positive_and_finite(entry, name, call, zero_ok, bad):
    # a NaN or negative rel_tol made every panel's tolerance 0: cost_ff(t -> t, 1, nan)
    # returned 0.5 and frobenius_cost(..., rel_tol=-1) 49.35 with no error
    if bad == 0.0 and zero_ok:  # an absolute tolerance of 0 leaves the relative one alone
        assert call(bad)[0] == pytest.approx(0.5 * T * T, rel=1e-12)
        return
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {re.escape(repr(bad))}$"):
        call(bad)


# call(model, n) of every entry point that takes a level number or a top level
_LEVELS = {
    "energy": lambda model, n: model.energy(n, 1.0),
    "amplitudes": lambda model, n: model.amplitudes(n, 1.0, _HO_GRID if model is HO else _BOX_GRID),
    "psi_ff": lambda model, n: psi_ff(model, n, 0.0, *((HO_RAMP, _HO_GRID) if model is HO else (RAMP, _BOX_GRID))),
    "psi_ff_values": lambda model, n: psi_ff_values(model, n, 0.0, HO_RAMP if model is HO else RAMP, _BOX_GRID.points),
}


@pytest.mark.parametrize("bad", [0.5, 2.0, True, np.float64(1.0)], ids=["half", "float", "bool", "np.float64"])
@pytest.mark.parametrize("model", [BOX, HO], ids=["box", "harmonic"])
@pytest.mark.parametrize("entry", sorted(_LEVELS))
def test_every_level_number_follows_the_integer_rule(entry, model, bad):
    # HarmonicModel().energy(0.5, 1.0) used to return 1.0, BoxModel().energy(True, 1.0) pi^2/2,
    # BoxModel().amplitudes(2.5, ...) three rows, and psi_ff(BoxModel(), 2.0, ...) an IndexError
    name = "n_max" if entry == "amplitudes" else "quantum number"
    with pytest.raises(ValueError, match=f"^need an integer {name} >= {model.n_min}, got {re.escape(repr(bad))}$"):
        _LEVELS[entry](model, bad)
