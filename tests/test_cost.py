import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import expit

from ffqd.cost import (
    ThermalEnsemble,
    box_drive_prefactor,
    coefficient_A,
    coefficients_B,
    cost_ff,
    cost_ff_closed,
    cost_ff_numeric,
    frobenius_cost,
    internal_energy_closed,
    internal_energy_numeric,
    solve_mu,
    _fermi,
    _fermi_factor,
    _costs_ff_numeric,
    _mu_at_one_ulp,
    _node_traces,
    _solve_mu_rows,
    _trace_finish,
)
from ffqd import cost as cost_mod
from ffqd._numutil import gauss_legendre
from ffqd.cli import _PRESETS, Scenario, run
from ffqd.core import Grid
from ffqd.ie import cost_ie
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import ADIABATIC_LINEAR, POLYNOMIAL, QUINTIC, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

from helpers import box_ramp, ho_ramp

ZERO_T = ThermalEnsemble(beta=math.inf, n_particles=1)


def static_trajectory(l0=1.0, t_ff=1.0):
    return ControlTrajectory(POLYNOMIAL, l0, t_ff, vbar=0.0)


# ---------------------------------------------------------------------------
# occupations


def test_fermi_occupation_values():
    assert _fermi(1.0, 2.0, 1.0) == pytest.approx(0.5)
    # beta (E - mu) = ln 3  ->  f = 1/4
    assert _fermi(math.log(3.0), 1.0, 0.0) == pytest.approx(0.25, rel=1e-12)
    assert _fermi(-1.0, 1e4, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_solve_mu_zero_t_filling():
    e = [BoxModel().energy(n, 1.0) for n in range(1, 13)]
    mu = solve_mu(e, 1e3, 3)
    assert e[2] < mu < e[3]
    mu0 = solve_mu(e, math.inf, 3)
    assert e[2] < mu0 < e[3]


def test_solve_mu_symmetric_levels():
    assert solve_mu([-0.7, 0.7], 2.5, 1) == pytest.approx(0.0, abs=1e-9)


def test_solve_mu_residual_tolerance():
    rng = np.random.default_rng(3)
    e = np.sort(rng.uniform(0.0, 10.0, size=40))
    for beta in (0.3, 2.0, 50.0):
        mu = solve_mu(e, beta, 7)
        f = 1.0 / (np.exp(np.clip(beta * (e - mu), -700, 700)) + 1.0)
        assert abs(f.sum() - 7.0) < 1e-10


@pytest.mark.parametrize("beta", [1.0, math.inf])
@pytest.mark.parametrize("energies", [[0.0, 1.0, math.nan], [0.0, 1.0, 2.0, math.inf], [-math.inf, 0.0, 1.0]])
def test_solve_mu_rejects_non_finite_energies(energies, beta):
    # at finite beta the bisection bracket, padded by e[-1] - e[0], was not finite and
    # the bisection never ended
    with pytest.raises(ValueError, match="energies must be finite"):
        solve_mu(energies, beta, 1)


def test_solve_mu_rejects_a_beta_whose_bracket_is_not_finite():
    # 50/beta overflows to inf below beta ~ 2.8e-307: the midpoint was NaN and the
    # bisection never ended
    with pytest.raises(ValueError, match="bracket"):
        solve_mu([1.0, 2.0, 3.0], 1e-310, 1)


def test_solve_mu_range_check():
    with pytest.raises(ValueError):
        solve_mu([1.0, 2.0], 1.0, 2)


@pytest.mark.parametrize("beta", [math.inf, 2.0])
def test_solve_mu_needs_more_levels_than_particles(beta):
    with pytest.raises(ValueError, match="n_particles"):
        solve_mu(BoxModel().energy(np.arange(1, 4), 1.0), beta, 3)


def test_ensemble_validation_and_temperature():
    with pytest.raises(ValueError):
        ThermalEnsemble(beta=0.0, n_particles=1)
    assert ThermalEnsemble(beta=0.5, n_particles=1).temperature == 2.0
    assert ZERO_T.temperature == 0.0


@pytest.mark.parametrize("n", [1.5, 2.0, -1])
def test_ensemble_rejects_non_integer_or_negative_particle_count(n):
    # 1.5 used to pass here and fail with an IndexError inside the trace
    with pytest.raises(ValueError, match="need an integer n_particles >= 1"):
        ThermalEnsemble(beta=1.0, n_particles=n)


# ---------------------------------------------------------------------------
# printed constants and internal energies


def test_coefficient_a_printed_truncation():
    assert coefficient_A(ZERO_T, 1.0) == pytest.approx(1.0)
    ens = ThermalEnsemble(beta=math.inf, n_particles=5)
    assert coefficient_A(ens, 1.0) == pytest.approx(25.0)
    # the printed correction is positive, so A grows with temperature
    a_cold = coefficient_A(ThermalEnsemble(beta=10.0, n_particles=2), 1.0)
    a_warm = coefficient_A(ThermalEnsemble(beta=5.0, n_particles=2), 1.0)
    assert a_warm > a_cold > 4.0


def test_printed_constants_reject_empty_ensemble():
    # the printed constants divide by N: N = 0 used to raise ZeroDivisionError, and the
    # ensemble that would reach them is now rejected where it is built
    with pytest.raises(ValueError, match="need an integer n_particles >= 1"):
        ThermalEnsemble(beta=2.0, n_particles=0)


def test_coefficients_b_zero_temperature():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    b1, b2 = coefficients_B(ens, 1.0)
    assert b1 == pytest.approx(np.pi**2 * 27.0 / 24.0, rel=1e-12)
    assert b2 == pytest.approx(0.5, rel=1e-12)


def test_internal_energy_ho_static():
    assert sum(internal_energy_closed(HarmonicModel(), static_trajectory(), 0.5, ZERO_T)) == pytest.approx(0.25)


def test_internal_energy_ho_endpoint_kinetic_term_vanishes():
    traj = ho_ramp(POLYNOMIAL)
    ens = ThermalEnsemble(beta=2.0, n_particles=2)
    a = coefficient_A(ens, traj.value(0.0))
    # at t = 0: L_dot = 0, so only confinement + L_ddot survive
    L0, Ldd = traj.value(0.0), traj.acceleration(0.0)
    expected = a * (1.0 / (4.0 * L0 * L0) - Ldd * L0 / 8.0)
    assert sum(internal_energy_closed(HarmonicModel(), traj, 0.0, ens)) == pytest.approx(expected, rel=1e-12)


def test_internal_energy_box_static_printed_value():
    # N = 1, T = 0, L = 1, static wall: the printed expansion gives pi^2/24,
    # a large-N density-of-states form (the exact n=1 level is pi^2/2)
    u = sum(internal_energy_closed(BoxModel(), static_trajectory(), 0.3, ZERO_T))
    assert u == pytest.approx(np.pi**2 / 24.0, rel=1e-12)


def test_internal_energy_box_endpoint_reduction():
    traj = box_ramp(POLYNOMIAL)
    ens = ThermalEnsemble(beta=math.inf, n_particles=2)
    conf, drive = internal_energy_closed(BoxModel(), traj, 0.0, ens)
    k = box_drive_prefactor(ens, traj.value(0.0))
    assert drive == pytest.approx(-k * traj.value(0.0) * traj.acceleration(0.0), rel=1e-12)


class _NodeRamp:
    """A ramp whose scalar calls return its node-array path's value at that time.

    ControlTrajectory's scalar path rounds t**3 differently from its array
    path (polynomial ramps), so both sides below see the same l, l_dot and
    l_ddot and only the closed forms' own arithmetic is compared.
    """

    def __init__(self, traj):
        self.traj = traj

    def __getattr__(self, name):
        f = getattr(self.traj, name)
        return lambda t: f(np.array([t]))[0].item() if np.ndim(t) == 0 else f(t)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.05, 10.0),
    st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)),
    st.integers(1, 200),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
)
def test_closed_forms_on_a_node_array_match_per_node_calls(kind, l0, l1, t_ff, beta, n, fracs):
    traj = _NodeRamp(ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff)))
    ens = ThermalEnsemble(beta=beta, n_particles=n)
    ts = t_ff * np.array(fracs)
    of_time = [
        lambda t, model=model, part=part: internal_energy_closed(model, traj, t, ens)[part]
        for model in (HarmonicModel(), BoxModel())
        for part in (0, 1)
    ]
    of_l = [
        lambda l: coefficient_A(ens, l),
        lambda l: coefficients_B(ens, l)[0],
        lambda l: coefficients_B(ens, l)[1],
        lambda l: box_drive_prefactor(ens, l),
    ]
    for form, nodes in [(f, ts) for f in of_time] + [(f, traj.value(ts)) for f in of_l]:
        per_node = [form(float(x)) for x in nodes]
        assert all(isinstance(v, float) for v in per_node)
        np.testing.assert_array_max_ulp(form(nodes), np.array(per_node), maxulp=4)


# ---------------------------------------------------------------------------
# numeric thermal trace


def test_trace_zero_temperature_single_level_at_rest():
    # trigonometric ramp has l_dot(0) = l_ddot(0) = 0, so the t = 0 trace is
    # the static ground level; 4096 points keep the FD error under 1e-6
    traj = box_ramp(TRIGONOMETRIC)
    u0 = internal_energy_numeric(BoxModel(), traj, 0.0, ZERO_T, n_points=4096)
    assert u0 == pytest.approx(np.pi**2 / 2.0, abs=1e-6)


# fast oscillator ramps and a box of 50 cold fermions, on grids too coarse for them: before
# the trace check, the costs 3843.3, 4554.0, 12453.3, 14213.7 (l 1.5 -> 0.3), 278.3 and
# 343.5 (omega 1 -> 10) and 153952.7 and 195883.0 (the box, against 211826.4 from the
# grid-free trace) came back without an error
_UNRESOLVED = [
    *[
        (HarmonicModel(), ControlTrajectory(kind, 1.5, t_ff, vbar=vbar_for_target(kind, 1.5, 0.3, t_ff)), 0.5, 12, 1024)
        for t_ff in (0.2, 0.1)
        for kind in (POLYNOMIAL, TRIGONOMETRIC)
    ],
    *[(HarmonicModel(), ho_ramp(kind, t_ff=0.05), 1.0, 1, 1024) for kind in (POLYNOMIAL, TRIGONOMETRIC)],
    *[(BoxModel(), box_ramp(POLYNOMIAL, l_final=1.0001), math.inf, 50, p) for p in (64, 128)],
]


@pytest.mark.parametrize("model, traj, beta, n, n_points", _UNRESOLVED)
def test_trace_the_grid_does_not_resolve_raises(model, traj, beta, n, n_points):
    with pytest.raises(ValueError, match=r"^trace grid too coarse at t=\S+, l=\S+: \|grid - exact\| \S+ exceeds \S+, 0\.05 of the node's scale$"):
        cost_ff_numeric(model, traj, ThermalEnsemble(beta, n), n_points=n_points)


def test_internal_energy_numeric_is_checked_at_its_node():
    # the box of _UNRESOLVED at one node: 64 points miss the grid-free trace by 27% of its
    # scale, 256 points by 1.9%
    traj, ens = box_ramp(POLYNOMIAL, l_final=1.0001), ThermalEnsemble(math.inf, 50)
    with pytest.raises(ValueError, match=r"^trace grid too coarse at t=0\.5, l=1\.00005: "):
        internal_energy_numeric(BoxModel(), traj, 0.5, ens, n_points=64)
    exact, scale = _exact_trace(BoxModel(), traj, np.array([0.5]), ens)
    got = internal_energy_numeric(BoxModel(), traj, 0.5, ens, n_points=256)
    assert 0.01 * scale[0] < exact[0] - got < 0.05 * scale[0]


def test_trace_cutoff_too_small():
    # at beta = 1e-8 the occupation of level 4096 is still ~1e-4: the cutoff
    # stops doubling there and the trace refuses
    ens = ThermalEnsemble(beta=1e-8, n_particles=1)
    with pytest.raises(ValueError, match="no cutoff below 4096"):
        internal_energy_numeric(BoxModel(), box_ramp(), 0.0, ens, n_points=64)


def test_trace_endpoints_match_static_thermal_energy():
    # trig ramp endpoints are at rest: the trace equals the static thermal
    # energy of the instantaneous wall position
    traj = box_ramp(TRIGONOMETRIC)
    ens = ThermalEnsemble(beta=2.0, n_particles=2)
    for t, L in ((0.0, 1.0), (1.0, 10.0)):
        u = internal_energy_numeric(BoxModel(), traj, t, ens, n_points=4096)
        static = internal_energy_numeric(
            BoxModel(), ControlTrajectory(POLYNOMIAL, L, 1.0, vbar=0.0), 0.5, ens, n_points=4096
        )
        assert u == pytest.approx(static, abs=1e-6)


def test_trace_vs_printed_ho_form_is_factor_two_at_n1():
    # spinless trace of a single zero-temperature fermion against the printed
    # A-form with A(N=1, T=0) = 1: the printed constants correspond to doubly
    # occupied levels, so the ratio is exactly 2 (see also the box ratios in
    # the acceptance module)
    traj = ho_ramp(POLYNOMIAL)
    for t in (0.0, 0.3, 0.7):
        numeric = internal_energy_numeric(HarmonicModel(), traj, t, ZERO_T, n_points=2048)
        closed = sum(internal_energy_closed(HarmonicModel(), traj, t, ZERO_T))
        assert numeric / closed == pytest.approx(2.0, abs=2e-4)


def _exact_trace(model, traj, ts, ens):
    """The grid-free trace sum_n f_n [E_n(1) / l^2 + (l_dot^2 - l l_ddot) X_n / 2], X_n = <n|xi^2|n> at l = 1, and its scale.

    For psi_n = l^-1/2 phi_n(x / l; 1) exp(i l_dot x^2 / 2l) under H0 + V_FF,
    V_FF = -(l_ddot / 2l) x^2: the gauge adds l_dot^2 X_n / 2 of kinetic energy
    and V_FF its -l l_ddot X_n / 2.  The scale takes |l_dot^2 - l l_ddot|.
    """
    l, ld, ldd = traj.value(ts), traj.velocity(ts), traj.acceleration(ts)
    f, _ = cost_mod._occupied_levels(model, ens, l)
    ns = model.level_numbers(model.n_min + f.shape[1] - 1)
    conf, drive = f @ model._unit_energy(ns) / (l * l), 0.5 * (ld * ld - l * ldd) * (f @ model._unit_xi2(ns))
    return conf + drive, conf + np.abs(drive)


@st.composite
def _asymptotic_trace_cases(draw):
    """A trap, a smooth ramp, an ensemble and 1-4 times, nearly all resolved at 513 points.

    Oscillator ramps within [0.5, 1.5], box walls up to 6, t_ff >= 0.5 and
    beta >= 1: faster or wider oscillator ramps or hotter ensembles put
    levels or gauge phases of 513-point grids outside the asymptotic range.
    The corner of the fastest compression (l 1.5 -> 0.5 in t_ff = 0.5 at
    beta = 1, N = 8) is already outside it, and the trace check rejects it.
    """
    box = draw(st.booleans())
    kind = draw(st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]))
    l0 = draw(st.floats(0.5, 1.5))
    l1 = draw(st.floats(0.5, 6.0) if box else st.floats(0.5, 1.5))
    t_ff = draw(st.floats(0.5, 3.0))
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff))
    beta = draw(st.one_of(st.just(math.inf), st.floats(1.0, 5.0)))
    ens = ThermalEnsemble(beta=beta, n_particles=draw(st.integers(1, 12)))
    ts = t_ff * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    return BoxModel() if box else HarmonicModel(), traj, ens, ts


@settings(max_examples=60, deadline=None)
@given(_asymptotic_trace_cases())
def test_grid_trace_converges_at_second_order_to_the_exact_trace(case):
    # 513 and 1025 points halve dx exactly, so the error of a second-order trace drops by 4
    model, traj, ens, ts = case
    try:
        traces = [_node_traces(model, [traj], [ts], ens, p)[0] for p in (513, 1025)]
    except ValueError as exc:  # a grid the trace check rejects has no convergence order to measure
        assert str(exc).startswith("trace grid too coarse at")
        assume(False)
    exact, _ = _exact_trace(model, traj, ts, ens)
    coarse, fine = (np.max(np.abs(t - exact) / np.abs(exact)) for t in traces)
    assert 3.8 <= coarse / fine <= 4.2


@st.composite
def _ramp_family_cases(draw):
    """A trap, a smooth ramp shape between two end points, an ensemble and a third ramp time T in [0.3, 10]."""
    box = draw(st.booleans())
    kind = draw(st.sampled_from([POLYNOMIAL, TRIGONOMETRIC, QUINTIC]))
    l0 = draw(st.floats(0.5, 1.5))
    l1 = draw(st.floats(0.5, 6.0) if box else st.floats(0.5, 1.5))
    beta = draw(st.one_of(st.just(math.inf), st.floats(1.0, 5.0)))
    ens = ThermalEnsemble(beta=beta, n_particles=draw(st.integers(1, 12)))
    return BoxModel() if box else HarmonicModel(), kind, l0, l1, ens, draw(st.floats(0.3, 10.0))


def _ramp_costs(model, kind, l0, l1, ens, t_ff) -> np.ndarray:
    """The costs of the kind's ramp from l0 to l1 over t_ff.

    They are cost_ff_closed's three values, the grid-free trace averaged by
    cost_ff and, for the oscillator, cost_ie on the quintic ramp between the
    same end points.
    """
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff))
    rep = cost_ff_closed(model, traj, ens)
    costs = [rep.quadrature_value, rep.closed_form_value, rep.published_value]
    costs.append(cost_ff(lambda t: _exact_trace(model, traj, t, ens)[0], t_ff))
    if isinstance(model, HarmonicModel):
        costs.append(cost_ie(ControlTrajectory(QUINTIC, l0, t_ff, vbar=vbar_for_target(QUINTIC, l0, l1, t_ff)), ens.beta))
    return np.array(costs)


@settings(max_examples=30, deadline=None)
@given(_ramp_family_cases())
def test_every_cost_is_a_plus_b_over_t_squared(case):
    # on l0 + (l1 - l0) F(t/T) the confinement part of the energy is a
    # function of t/T alone and the drive part scales as 1/T^2, so every
    # time-averaged cost is A + B/T^2: A and B fitted on T = 1 and 2 predict
    # the cost at any third T, to a few times cost_ff's 1e-10
    model, kind, l0, l1, ens, t_ff = case
    at_1, at_2 = (_ramp_costs(model, kind, l0, l1, ens, t) for t in (1.0, 2.0))
    b = 4.0 * (at_1 - at_2) / 3.0
    a = at_1 - b
    got = _ramp_costs(model, kind, l0, l1, ens, t_ff)
    law = a + b / t_ff**2
    assert np.all(np.abs(got - law) <= 5e-10 * (np.abs(a) + np.abs(b) / t_ff**2))


def _complex_trace_reference(amps, f, a, x, v, dx):
    """The complex-table trace: psi = phi exp(i a x^2), row Laplacian with walls at both ends, per-level trapezoid.

    Also returns the scale sum_n f_n int (|Re conj(psi) T psi| + |v| phi^2),
    against which rounding differences are measured.
    """
    psi = amps * np.exp(1j * a * x * x)[None, :]
    lap = np.zeros_like(psi)  # the wall rows stay 0
    lap[:, 1:-1] = (psi[:, 2:] - 2.0 * psi[:, 1:-1] + psi[:, :-2]) / (dx * dx)
    kinetic = (np.conjugate(psi) * (-0.5 * lap)).real
    potential = v[None, :] * (amps * amps)
    h_diag = np.trapezoid(kinetic + potential, dx=dx, axis=1)
    scale = np.dot(f, np.trapezoid(np.abs(kinetic) + np.abs(potential), dx=dx, axis=1))
    return float(np.dot(f, h_diag)), float(scale)


def _random_trace_case(n_levels, n_points, seed, a, x0, width, v_scale):
    rng = np.random.default_rng(seed)
    x = np.linspace(x0, x0 + width, n_points)
    amps = rng.normal(size=(n_levels, n_points))
    f = rng.random(n_levels)
    v = v_scale * rng.normal(size=n_points)
    return amps, f, a, x, v, x[1] - x[0]


_trace_cases = st.builds(
    _random_trace_case,
    st.integers(1, 60),
    st.integers(8, 600),
    st.integers(0, 2**32 - 1),
    st.floats(-20.0, 20.0),
    st.floats(-30.0, 30.0),
    st.floats(0.5, 60.0),
    st.floats(0.0, 1e4),
)


def _trace_moments(table, f):
    """rho0_j = sum_n f_n phi_n,j^2 and rho1_j = sum_n f_n phi_n,j phi_n,j+1 of one table shared by the rows of f."""
    return np.einsum("...n,nj,nj->...j", f, table, table), np.einsum("...n,nj,nj->...j", f, table[:, :-1], table[:, 1:])


@settings(max_examples=80, deadline=None)
@given(_trace_cases)
def test_weighted_trace_matches_complex_reference(case):
    amps, f, a, x, v, dx = case
    ref, scale = _complex_trace_reference(amps, f, a, x, v, dx)
    (got,) = _trace_finish(*_trace_moments(amps, f[None]), (a * x * x)[None], v[None], np.array([dx]))
    assert abs(got - ref) <= 1e-12 * scale


def _one_ulp_reach(e, beta, n, mu):
    """Residual that one ulp of mu can reach: beta ulp(mu) sum f (1 - f), plus the sum's rounding."""
    f = expit(-beta * (e - mu))
    return beta * np.spacing(abs(mu)) * float(np.sum(f * (1.0 - f))) + 2.0 * e.size * np.finfo(float).eps * n


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=200),
    st.floats(1e-3, 1e4),
    st.data(),
)
def test_solve_mu_matches_particle_number(energies, beta, data):
    e = np.array(energies)
    n = data.draw(st.integers(1, e.size - 1))
    mu = solve_mu(e, beta, n)
    residual = abs(float(np.sum(expit(-beta * (e - mu)))) - n)
    if residual > 1e-10:
        # the bisection stalls at a bracket of 1e-15 (1 + |mu|), across which
        # sum f can still move by beta * bracket * e.size / 4: only there may
        # the 1e-10 residual be out of reach, and then the residual is what
        # one ulp of mu can reach (plus 4 ulp per level, expit against the
        # library's Fermi factor)
        bracket = 1e-15 * (2.0 + np.max(np.abs(e)) + 50.0 / beta)
        assert beta * bracket * e.size > 4e-11
        assert residual <= _one_ulp_reach(e, beta, n, mu) + 4.0 * e.size * np.finfo(float).eps


# near-degenerate spectra at large beta |mu|: the bisection used to stop at
# a bracket of 1e-15 (1 + |mu|) with a residual above 1e-10 and raise "mu
# bisection stalled".  Past that bracket, the first has a double with residual
# 0 (mu = -386); the second has no double within 1e-10.
@pytest.mark.parametrize(
    "energies, beta, n, within_1e10",
    [([0.0, -386.0, -386.0], 4148.0, 1, True), ([461.0, 461.0, 461.0], 9114.0, 1, False)],
    ids=["pair_at_-386", "triple_at_461"],
)
def test_solve_mu_near_degenerate_spectra_no_longer_stall(energies, beta, n, within_1e10):
    e = np.array(energies)
    mu = solve_mu(e, beta, n)
    residual = abs(float(np.sum(expit(-beta * (e - mu)))) - n)
    assert (residual <= 1e-10) == within_1e10
    assert residual <= max(1e-10, _one_ulp_reach(e, beta, n, mu))


def test_solve_mu_one_ulp_bound_is_tight():
    e, beta, n = np.array([461.0, 461.0, 461.0]), 9114.0, 1

    def g(m):
        return float(np.sum(expit(-beta * (e - m)))) - n

    mu = solve_mu(e, beta, n)
    other = np.nextafter(mu, math.inf if g(mu) < 0 else -math.inf)
    # mu and its neighbour bracket the root and both miss 1e-10: no double meets it
    assert g(mu) * g(other) < 0
    assert min(abs(g(mu)), abs(g(other))) > 1e-10
    assert abs(g(mu)) <= abs(g(other))
    # the bound is the jump of sum f across that one ulp, not a wider tolerance
    jump = abs(g(other) - g(mu))
    assert jump <= _one_ulp_reach(e, beta, n, mu) <= 1.001 * jump


def _one_ulp_terms(e, beta, n, lo, hi):
    """(better residual, beta (hi - lo) sum f (1 - f), rounding 2 n_levels eps N) of the bracket [lo, hi]."""
    with np.errstate(over="ignore"):
        g, mu = min((abs(float(np.sum(_fermi_factor(beta * (e - m)))) - n), m) for m in (lo, hi))
        f = _fermi_factor(beta * (e - mu))
    return g, beta * (hi - lo) * float(np.sum(f * (1.0 - f))), 2.0 * e.size * np.finfo(float).eps * n


def test_one_ulp_rule_accepts_a_residual_only_the_rounding_term_reaches():
    # f is 1 or 0 to rounding at all but the level at 0.835, whose f ~ 2.6e-15 leaves the sum 6 ulp
    # above N = 2: far beyond what one ulp of mu moves (3.1e-29), within the sum's rounding (3.6e-15)
    # and beyond half of it
    e, beta, n = np.array([-1.0, 0.0, 0.835, 1.0]), 100.0, 2
    lo, hi = 0.5, np.nextafter(0.5, math.inf)
    g, drift, rounding = _one_ulp_terms(e, beta, n, lo, hi)
    assert drift < g <= drift + rounding and g > 0.5 * rounding
    assert _mu_at_one_ulp(e, beta, n, lo, hi) in (lo, hi)


def test_one_ulp_rule_raises_on_a_residual_beyond_its_reach():
    # mu 11.5 / beta below the middle level fills it to f ~ 1.0e-5, above N = 1 at both adjacent
    # doubles; one ulp moves sum f by only 1.1e-9, though beta ulp(mu) itself (1.1e-4) is larger
    e, beta, n = np.array([0.0, 0.5 + 11.5 / 1e12, 1.0]), 1e12, 1
    lo, hi = 0.5, np.nextafter(0.5, math.inf)
    g, drift, rounding = _one_ulp_terms(e, beta, n, lo, hi)
    assert drift + rounding < g < beta * (hi - lo)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=r"^mu bisection stalled with residual 1\.013e-05 above"):
        _mu_at_one_ulp(e, beta, n, lo, hi)


def _bisection_before_stall_rule(e, beta, n):
    """solve_mu as it was before the one-ulp rule; None where it raised."""
    pad = 50.0 / beta + (e[-1] - e[0])
    lo, hi = e[0] - pad, e[-1] + pad
    with np.errstate(over="ignore"):
        excess = lambda m: float((1.0 / (np.exp(beta * (e - m)) + 1.0)).sum()) - n  # noqa: E731
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = excess(mid)
            if abs(g) < 1e-10:
                return mid
            if g > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-15 * (1.0 + abs(mid)):
                break
        g = excess(0.5 * (lo + hi))
    return None if abs(g) > 1e-10 else 0.5 * (lo + hi)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 30.0, 1e3]),
    st.one_of(st.just(math.inf), st.floats(1e-2, 1e3)),
    st.data(),
)
def test_row_wise_mu_is_bit_identical_to_solve_mu(rows, levels, seed, spread, beta, data):
    # rounded energies give degenerate levels, so stalled rows are drawn too
    e = np.sort(np.round(np.random.default_rng(seed).normal(scale=spread, size=(rows, levels))), axis=1)
    n = data.draw(st.integers(1, levels - 1))
    mu = _solve_mu_rows(e, beta, n)
    for row, m in zip(e, mu):
        assert m == solve_mu(row, beta, n)
        before = math.inf if math.isinf(beta) else _bisection_before_stall_rule(row, beta, n)
        if before not in (None, math.inf):
            assert m == before


# cost_ff_numeric at the 1 -> 10 ramps over T = 1, 64 nodes, 1024 points, as
# computed by the complex-table trace with per-level energies
@pytest.mark.parametrize(
    "model, traj, ens, pinned",
    [
        (HarmonicModel(), ho_ramp(TRIGONOMETRIC), ThermalEnsemble(beta=1.0, n_particles=32), 2387.9791270685087),
        (BoxModel(), box_ramp(POLYNOMIAL), ThermalEnsemble(beta=math.inf, n_particles=50), 37037.78697902546),
    ],
    ids=["oscillator_beta1_N32", "box_T0_N50"],
)
def test_cost_ff_numeric_pinned(model, traj, ens, pinned):
    assert cost_ff_numeric(model, traj, ens) == pytest.approx(pinned, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# time-averaged costs


def test_cost_ff_constant():
    assert cost_ff(lambda t: np.full_like(t, 3.25), 2.0) == pytest.approx(3.25, rel=1e-12)


@pytest.mark.parametrize("t_ff", [0.0, -1.0, math.inf, math.nan])
def test_cost_ff_rejects_non_positive_or_non_finite_t_ff(t_ff):
    # t_ff = 0 used to divide by zero and t_ff = -1 to return 1.0
    with pytest.raises(ValueError, match="t_ff must be positive and finite"):
        cost_ff(np.ones_like, t_ff)


def test_cost_ff_calls_its_integrand_once_per_panel():
    def counted(f):
        def u(ts):
            calls.append(np.shape(ts))
            return f(ts)

        return u

    calls = []
    cost_ff(counted(np.cos), 1.0)  # smooth: one panel
    assert calls == [(96,)]  # its 32 and 64 nodes in one array
    calls = []
    cost_ff(counted(lambda t: np.abs(t - 1.0 / 3.0) ** 3), 1.0)  # a kink: [0, 1] is halved
    assert len(calls) >= 3 and len(calls) % 2 == 1  # [0, 1], then halves in pairs
    assert all(shape == (96,) for shape in calls)


def test_cost_ff_ho_closed_form_identity():
    # quadrature of the full internal energy equals the confinement average
    # plus the drive constants vbar^2/120 and 3 vbar^2/8
    ens = ThermalEnsemble(beta=3.0, n_particles=1)
    for kind, shape in ((POLYNOMIAL, 1.0 / 120.0), (TRIGONOMETRIC, 3.0 / 8.0)):
        traj = ho_ramp(kind)
        a = coefficient_A(ens, traj.value(0.0))
        total = cost_ff(lambda s: sum(internal_energy_closed(HarmonicModel(), traj, s, ens)), traj.t_ff)
        conf = cost_ff(lambda s: a / (4.0 * traj.value(s) ** 2), traj.t_ff)
        assert total == pytest.approx(conf + a * traj.vbar**2 * shape, rel=1e-8)


@pytest.mark.parametrize("kind,shape", [(POLYNOMIAL, 1.0 / 15.0), (TRIGONOMETRIC, 3.0), (QUINTIC, 20.0 / 7.0)])
def test_box_drive_three_way_agreement(kind, shape):
    # (a) quadrature of the drive term, (b) integration-by-parts identity,
    # (c) closed-form coefficient -- all with the same prefactor K
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    traj = box_ramp(kind)
    T = traj.t_ff
    k = box_drive_prefactor(ens, traj.value(0.0))
    a_quad = cost_ff(lambda s: internal_energy_closed(BoxModel(), traj, s, ens)[1], T)
    b_ibp = 2.0 * k / T * quad(lambda s: traj.velocity(s) ** 2, 0.0, T, epsabs=1e-14, epsrel=1e-12)[0]
    c_closed = k * traj.vbar**2 * shape
    assert a_quad == pytest.approx(b_ibp, rel=1e-8)
    assert a_quad == pytest.approx(c_closed, rel=1e-8)


def test_drive_term_scales_as_vbar_squared():
    ens = ThermalEnsemble(beta=math.inf, n_particles=2)
    T = 1.0
    vals = []
    for vbar in (9.0, 18.0):
        traj = ControlTrajectory(TRIGONOMETRIC, 1.0, T, vbar=vbar)
        vals.append(cost_ff(lambda s: internal_energy_closed(BoxModel(), traj, s, ens)[1], T))
    assert vals[1] / vals[0] == pytest.approx(4.0, abs=1e-10)


def test_box_report_records_published_form_disagreement():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    traj = box_ramp(POLYNOMIAL)
    rep = cost_ff_closed(BoxModel(), traj, ens)
    # quadrature and the artifact closed form agree exactly at T = 0
    assert rep.quadrature_value == pytest.approx(rep.closed_form_value, rel=1e-10)
    # the printed drive coefficient is 6x low (B2/90 vs K/15); on top the
    # printed cost line divides the confinement term by an extra 24
    k = rep.constants["B2_drive"]
    b2 = rep.constants["B2"]
    assert 6.0 * k / b2 == pytest.approx(6.0 * box_drive_prefactor(ens, 1.0) / b2, rel=1e-12)
    assert rep.published_ratio > 1.0


def test_box_report_static_confinement():
    ens = ThermalEnsemble(beta=math.inf, n_particles=2)
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=0.0)  # static wall
    rep = cost_ff_closed(BoxModel(), traj, ens)
    b1, _ = coefficients_B(ens, 1.0)
    assert rep.quadrature_value == pytest.approx(b1, rel=1e-10)  # B1/L0^2 with L0 = 1


def test_box_report_rejects_linear_ramp():
    with pytest.raises(ValueError, match="starts and ends at rest"):
        cost_ff_closed(BoxModel(), ControlTrajectory(ADIABATIC_LINEAR, 1.0, 1.0, vbar=0.1), ZERO_T)


@pytest.mark.parametrize("system, beta", [("box", math.inf), ("harmonic", 2.0)])
def test_cost_ff_closed_takes_the_quintic_ramp(system, beta):
    # l_dot = 30 vbar s^2 (1 - s)^2 gives (2/T) int l_dot^2 dt / vbar^2 = 20/7; the
    # box's K(l) is frozen at l0 by the closed form, which is exact only at T = 0
    model, ramp = (BoxModel(), box_ramp) if system == "box" else (HarmonicModel(), ho_ramp)
    rep = cost_ff_closed(model, ramp(QUINTIC), ThermalEnsemble(beta=beta, n_particles=3))
    assert rep.closed_form_value == pytest.approx(rep.quadrature_value, rel=1e-10, abs=0.0)


def test_cost_monotone_decreasing_in_t_ff():
    ens = ThermalEnsemble(beta=math.inf, n_particles=1)
    values = [
        cost_ff_closed(BoxModel(), box_ramp(POLYNOMIAL, t_ff=T), ens).quadrature_value
        for T in (0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


# (quadrature, closed form, published, ratio) and the constants of the box and
# oscillator reports as the per-trap functions that cost_ff_closed replaced gave
# them: N = 3 on the 1 -> 10 ramps of helpers, over T = 1
_TWIN_REPORTS = {
    ("box", POLYNOMIAL, math.inf): (
        (105.62494167623223, 105.62494167623224, 16.277472040675363, 6.489026146829724),
        {"B1": 11.103304951225526, "B2": 0.5, "B2_drive": 0.5337737278807793},
    ),
    ("box", POLYNOMIAL, 2.0): (
        (171.60704994303, 108.97636824778012, 16.305072471784463, 10.524764624014514),
        {"B1": 11.18663828455886, "B2": 0.5008339192069329, "B2_drive": 0.5338300570015183},
    ),
    ("box", TRIGONOMETRIC, math.inf): (
        (132.1756036647732, 132.175603664773, 20.352857824572652, 6.494203654544935),
        {"B1": 11.103304951225526, "B2": 0.5, "B2_drive": 0.5337737278807793},
    ),
    ("box", TRIGONOMETRIC, 2.0): (
        (210.59657561842343, 135.70007371793707, 20.387403528492882, 10.32973989670138),
        {"B1": 11.18663828455886, "B2": 0.5008339192069329, "B2_drive": 0.5338300570015183},
    ),
    ("harmonic", POLYNOMIAL, math.inf): ((9.484794240243819,) * 3 + (1.0,), {"A": 9.0}),
    ("harmonic", POLYNOMIAL, 2.0): ((12.951874498648905,) * 3 + (1.0,), {"A": 12.289868133696451}),
    ("harmonic", TRIGONOMETRIC, math.inf): ((10.575349909621334,) * 3 + (1.0,), {"A": 9.0}),
    ("harmonic", TRIGONOMETRIC, 2.0): (
        (14.441072872993876, 14.441072872993873, 14.441072872993873, 1.0000000000000002),
        {"A": 12.289868133696451},
    ),
}


@pytest.mark.parametrize("system, kind, beta", list(_TWIN_REPORTS), ids=lambda v: str(v))
def test_cost_ff_closed_reproduces_the_per_trap_reports(system, kind, beta):
    model, ramp = (BoxModel(), box_ramp) if system == "box" else (HarmonicModel(), ho_ramp)
    rep = cost_ff_closed(model, ramp(kind), ThermalEnsemble(beta=beta, n_particles=3))
    values, constants = _TWIN_REPORTS[system, kind, beta]
    got = (rep.quadrature_value, rep.closed_form_value, rep.published_value, rep.published_ratio)
    np.testing.assert_allclose(got, values, rtol=1e-12, atol=0.0)
    assert rep.constants.keys() == constants.keys()
    np.testing.assert_allclose([rep.constants[k] for k in constants], list(constants.values()), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("system, ramp_averages", [("box", 3), ("harmonic", 2)])
def test_cost_ff_closed_averages_the_oscillator_confinement_once(monkeypatch, system, ramp_averages):
    # the quadrature, the closed form's confinement and, for the box alone, the printed
    # line's: the oscillator's printed line is its closed form, whose value it takes
    calls = []
    real = cost_mod.cost_ff

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cost_mod, "cost_ff", counted)
    model, ramp = (BoxModel(), box_ramp) if system == "box" else (HarmonicModel(), ho_ramp)
    rep = cost_ff_closed(model, ramp(TRIGONOMETRIC), ThermalEnsemble(beta=2.0, n_particles=3))
    assert len(calls) == ramp_averages
    assert (rep.published_value == rep.closed_form_value) == (system == "harmonic")


def test_cost_report_csv(tmp_path):
    # a CostReport holds the row cost_curve.csv prints, plus its constants
    for system in ("box", "harmonic"):
        scn = Scenario(system=system, beta=2.0, n_particles=2, t_ff_list=(1.0,), outputs=("cost_curve",))
        (path,) = run(scn, tmp_path / system)
        model = BoxModel() if system == "box" else HarmonicModel()
        rep = cost_ff_closed(model, scn.trajectory(1.0), scn.ensemble())
        fields = [f.name for f in dataclasses.fields(rep)]
        assert fields == ["quadrature_value", "closed_form_value", "published_value", "published_ratio", "constants"]
        row = ",".join(f"{v:.14e}" for v in [1.0] + [getattr(rep, f) for f in fields[:4]])
        assert path.read_text().splitlines()[-1] == row


def test_cost_ff_numeric_matches_quadrature_of_trace():
    # Gauss-Legendre average against a dense Simpson reference
    traj = ho_ramp(POLYNOMIAL)
    ens = ThermalEnsemble(beta=1.0, n_particles=1)
    model = HarmonicModel()
    fast = cost_ff_numeric(model, traj, ens, n_nodes=48, n_points=512)
    ts = np.linspace(0.0, traj.t_ff, 129)
    vals = [internal_energy_numeric(model, traj, float(t), ens, n_points=512) for t in ts]
    from scipy.integrate import simpson

    ref = simpson(vals, x=ts) / traj.t_ff
    assert fast == pytest.approx(ref, rel=1e-6)


def _per_node_trace(model, traj, t, ens, n_points):
    """The thermal trace one node at a time, as the one-node path formed it.

    Per-node energies E_n(l), a scalar mu, the node's own grid and amplitude
    table (sines at L, or grid-normalized Hermite functions), the drive
    -(m/2)(l_ddot/l) x^2, and the complex-table trace of the reference above.
    Returns (trace, scale), or raises ValueError where an oscillator level's
    trapezoid norm is 0, as the library does.
    """
    l, ldot, lddot = traj.value(t), traj.velocity(t), traj.acceleration(t)
    n_max = max(4 * ens.n_particles + 16, 64)
    while True:
        ns = model.level_numbers(n_max)
        e = model.energy(ns, l)
        f = _fermi(e, ens.beta, solve_mu(e, ens.beta, ens.n_particles))
        if f[-1] < 1e-12:
            break
        n_max *= 2
    keep = max(int(np.max(np.nonzero(f >= 1e-12)[0], initial=0)) + 2, ens.n_particles + 1)
    ns, f = ns[: min(keep, f.size)], f[: min(keep, f.size)]
    if isinstance(model, BoxModel):
        grid = Grid(0.0, l, n_points)
        amps = np.sqrt(2.0 / l) * np.sin(ns[:, None] * np.pi * grid.points / l)
        amps[:, [0, -1]] = 0.0
    else:
        half = model._half_width(traj._l_max, int(ns[-1]))
        grid = Grid(-half, half, n_points)
        scale = np.sqrt(1.0 / (l * l))
        amps = HarmonicModel()._unit_amplitudes(int(ns[-1]), scale * grid.points) * np.sqrt(scale)
        nrm = np.trapezoid(amps * amps, dx=grid.dx, axis=1)
        if not np.all(nrm > 0.0):
            raise ValueError("grid too coarse for level")
        amps /= np.sqrt(nrm)[:, None]
    x = grid.points
    v = model._v0_coefficient(l) * x**2 - 0.5 * lddot / l * x * x
    a = ldot / (2.0 * l)
    return _complex_trace_reference(amps, f, a, x, v, grid.dx)


@st.composite
def _trace_scenarios(draw):
    box = draw(st.booleans())
    kind = draw(st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]))
    l0 = draw(st.floats(0.5, 1.5))
    l1 = draw(st.floats(0.5, 6.0) if box else st.floats(0.3, 1.5))
    t_ff = draw(st.floats(0.2, 3.0))
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff))
    beta = draw(st.one_of(st.just(math.inf), st.floats(0.5, 5.0)))
    ens = ThermalEnsemble(beta=beta, n_particles=draw(st.integers(1, 12)))
    n_nodes = draw(st.integers(1, 20).filter(lambda k: k % 8))
    model = BoxModel() if box else HarmonicModel()
    return model, traj, ens, n_nodes, draw(st.sampled_from([64, 160, 256]))


@settings(max_examples=60, deadline=None)
@given(_trace_scenarios())
def test_batched_trace_matches_per_node_reference(scenario):
    model, traj, ens, n_nodes, n_points = scenario
    ts = 0.5 * traj.t_ff * (np.polynomial.legendre.leggauss(n_nodes)[0] + 1.0)
    try:
        refs = [_per_node_trace(model, traj, float(t), ens, n_points) for t in ts]
    except ValueError:
        with pytest.raises(ValueError, match="grid too coarse for level"):
            _node_traces(model, [traj], [ts], ens, n_points)
        return
    # the check raises where the reference misses the grid-free trace by 5e-2 of its scale
    misses = [abs(ref - e) / s for (ref, _), e, s in zip(refs, *_exact_trace(model, traj, ts, ens))]
    try:
        (got,) = _node_traces(model, [traj], [ts], ens, n_points)
    except ValueError as exc:
        assert "trace grid too coarse at" in str(exc) and max(misses) > 0.999 * 5e-2
        return
    assert max(misses) < 1.001 * 5e-2
    for g, (ref, scale) in zip(got, refs):
        assert abs(g - ref) <= 1e-12 * scale
    weights = np.polynomial.legendre.leggauss(n_nodes)[1]
    assert cost_ff_numeric(model, traj, ens, n_nodes, n_points) == 0.5 * float(np.dot(weights, got))


def test_trace_check_names_the_first_failing_node():
    # a static box passes at 64 points; the gauge phase of a 1 -> 10 wall in t_ff = 0.05
    # turns by about 6 rad per point there, and its first node misses the grid-free trace
    # by 48 times the bound.  A pooled sweep raises at that node, as its own call does
    model, ens = BoxModel(), ThermalEnsemble(beta=math.inf, n_particles=2)
    static, fast = static_trajectory(1.0), box_ramp(POLYNOMIAL, t_ff=0.05)
    ts, fast_ts = np.array([0.25, 0.5]), np.array([0.0125, 0.025])
    (fine,) = _node_traces(model, [static], [ts], ens, 64)
    assert np.allclose(fine, 2.5 * np.pi**2, rtol=2e-3)
    with pytest.raises(ValueError, match=r"^trace grid too coarse at t=0\.0125, l=2\.40625: \|grid - exact\| ") as own:
        _node_traces(model, [fast], [fast_ts], ens, 64)
    with pytest.raises(ValueError) as pooled:
        _node_traces(model, [static, fast, fast], [ts, fast_ts, fast_ts[::-1]], ens, 64)
    assert str(pooled.value) == str(own.value)


@pytest.mark.parametrize(
    "r_final, n_points",
    [(0.1, 9), (0.05, 8), (0.086, 9)],
    ids=["zero_norm_9_points", "zero_norm_8_points", "subnormal_norm_9_points"],
)
def test_grid_too_coarse_for_a_level_raises(r_final, n_points):
    # omega 1 -> 100 and 1 -> 400 on grids sized for R = 1: the narrowest nodes sample
    # their odd levels (9 points, the centre at 0) or every level (8 points) only where
    # the Gaussian has underflowed to 0, so that level's trapezoid norm is 0, or at
    # R 1 -> 0.086 a subnormal whose weight f_n / norm overflows.  The backstop raises
    # before the division
    traj = ho_ramp(TRIGONOMETRIC, r_final=r_final)
    with pytest.raises(ValueError, match=r"grid too coarse for level n=\d+: trapezoid norm \d\.\d{3}e[+-]\d+$"):
        cost_ff_numeric(HarmonicModel(), traj, ThermalEnsemble(beta=0.375, n_particles=21), n_points=n_points)


@pytest.mark.parametrize("n_points, rejected", [(9, True), (64, True), (256, True), (512, True), (1024, False)])
def test_grid_coarser_than_half_the_top_levels_period_raises(n_points, rejected):
    # R 1 -> 0.15 on grids sized for R = 1: at the narrowest node dx / (pi l / sqrt(2 n_top + 1))
    # is 50, 6.4, 1.6, 0.79 and 0.39, and the worst node misses the grid-free trace by
    # 11, 0.60, 0.29, 0.10 and 0.028 of its scale.  Unchecked, the first four gave the
    # finite but wrong costs 22133, 1391, 2260 and 2668 against 2816 at 1024 points and
    # 2856 at 2048: half the local period was not enough at 512 points
    traj = ho_ramp(TRIGONOMETRIC, r_final=0.15)
    ens = ThermalEnsemble(beta=0.375, n_particles=21)
    if rejected:
        with pytest.raises(ValueError, match=r"trace grid too coarse at t=0\.\d+, l=[\d.]+: "):
            cost_ff_numeric(HarmonicModel(), traj, ens, n_points=n_points)
    else:
        assert 2600.0 < cost_ff_numeric(HarmonicModel(), traj, ens, n_points=n_points) < 2900.0


def test_rows_above_a_nodes_top_level_add_exact_zeros():
    # node 0 (l = 0.1 on a grid sized for l = 1, top level 0), padded up to node 1's
    # top level 3 in one block: its rows 1..3 weigh 0 and leave its moments as alone
    model, occ = HarmonicModel(), np.ones((2, 4))
    l, top = np.array([0.1, 1.0]), np.array([0, 3])
    ((nodes, *pooled),) = model._moment_blocks(1.0, l, occ, top, 65)
    ((_, *alone),) = model._moment_blocks(1.0, l[:1], occ[:1], top[:1], 65)
    row = nodes.tolist().index(0)
    for p, a in zip(pooled, alone):
        assert np.all(np.isfinite(p)) and np.array_equal(p[row], a[0])


def _full_grid_stack_trace(l, half, f, n_points, g, a):
    """One oscillator node's trace from the full-grid amplitude stack that the streamed kernel replaces.

    The levels 0..f.size - 1 as one (levels x points) table on the whole
    mirror-symmetric grid, each row normalized by the trapezoid rule, and the
    complex-table trace of the reference above with gauge g x^2 and potential
    a x^2.  Returns (trace, scale).
    """
    x = half * (np.arange(1 - n_points, n_points, 2) / (n_points - 1))
    dx = 2.0 * half / (n_points - 1)
    scale = np.sqrt(1.0 / (l * l))
    amps = HarmonicModel()._unit_amplitudes(f.size - 1, scale * x) * np.sqrt(scale)
    amps /= np.sqrt(np.trapezoid(amps * amps, dx=dx, axis=1))[:, None]
    return _complex_trace_reference(amps, f, g, x, a * x * x, dx)


@pytest.mark.parametrize("n_points", [8, 9, 1024, 1025])
def test_oscillator_trace_grid_is_mirror_symmetric(n_points):
    # three half widths from three l_max; on 8 and 9 points only a top level 0 at
    # l = l_max has two points per local period
    l = np.array([1.0, 0.7, 3.1])
    top = np.array([0, 5, 60]) if n_points > 9 else np.zeros(3, dtype=int)
    half = HarmonicModel()._half_width(l, top)
    ((nodes, x, *_),) = HarmonicModel()._moment_blocks(l, l, np.ones((3, 61)), top, n_points)
    x = x[np.argsort(nodes)]
    assert np.array_equal(x[:, ::-1], -x)
    if n_points % 2:
        assert np.all(x[:, n_points // 2] == 0.0)  # the centre point is 0, not a rounding residue
    for row, h in zip(x, half):
        # each point within 2 ulp of its exact value half (2j - P + 1) / (P - 1) ...
        exact = [Fraction(float(h)) * (2 * j - n_points + 1) / (n_points - 1) for j in range(n_points)]
        assert all(abs(Fraction(float(v)) - e) <= 2 * Fraction(float(np.spacing(abs(v)))) for v, e in zip(row, exact))
        # ... and within 4 ulp of the end from linspace, which is itself up to 3 ulp asymmetric
        assert np.max(np.abs(row - np.linspace(-h, h, n_points))) <= 4 * np.spacing(h)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.5, 1.5), min_size=1, max_size=24),
    st.floats(1.0, 1.5),
    st.one_of(st.just(math.inf), st.floats(0.3, 5.0)),
    st.integers(1, 32),
    st.sampled_from([8, 9, 64, 65, 256, 257, 1024, 1025]),
    st.integers(0, 2**32 - 1),
)
def test_streamed_half_grid_trace_matches_full_grid_stack(ls, widen, beta, n, n_points, seed):
    # nodes of one sweep at several l, sharing one l_max: a block mixes top levels
    # (from 1 to well past 60 here) and both parities of the point count.  Grids too
    # coarse for the trace are compared too: whether they resolve the levels is the
    # trace check's to judge, and the moments must be the stack's either way
    model, l = HarmonicModel(), np.array(ls)
    l_max = widen * float(np.max(l))
    f, n_top = cost_mod._occupied_levels(model, ThermalEnsemble(beta=beta, n_particles=n), l)
    g, a = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(2, l.size))
    half = model._half_width(l_max, n_top)
    seen = []
    for nodes, x, *moments in model._moment_blocks(l_max, l, f, n_top, n_points):
        assert np.array_equal(x[:, ::-1], -x)  # mirror-symmetric bit for bit
        dx = (x[:, -1] - x[:, 0]) / (n_points - 1)
        got = _trace_finish(*moments, g[nodes, None] * x**2, a[nodes, None] * x**2, dx)
        for row, i in enumerate(nodes):
            ref, scale = _full_grid_stack_trace(l[i], half[i], f[i, : n_top[i] + 1], n_points, g[i], a[i])
            assert abs(got[row] - ref) <= 1e-12 * scale
        seen += nodes.tolist()
    assert sorted(seen) == list(range(l.size))


@st.composite
def _t_ff_sweeps(draw):
    """A model, 1-5 ramps of one shape and end points, an ensemble, nodes and points.

    The t_ff values mix power-of-two multiples of one base, whose
    Gauss-Legendre nodes fall on the same control values, with arbitrary ones,
    whose nodes do not.
    """
    box = draw(st.booleans())
    kind = draw(st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]))
    l0 = draw(st.floats(0.5, 1.5))
    l1 = draw(st.floats(0.5, 6.0) if box else st.floats(0.3, 1.5))
    base = draw(st.floats(0.2, 3.0))
    t_ff = st.one_of(st.integers(-2, 2).map(lambda k: base * 2.0**k), st.floats(0.2, 3.0))
    t_ffs = draw(st.lists(t_ff, min_size=1, max_size=5, unique=True))
    trajs = [ControlTrajectory(kind, l0, t, vbar=vbar_for_target(kind, l0, l1, t)) for t in t_ffs]
    beta = draw(st.one_of(st.just(math.inf), st.floats(0.5, 5.0)))
    ens = ThermalEnsemble(beta=beta, n_particles=draw(st.integers(1, 12)))
    model = BoxModel() if box else HarmonicModel()
    return model, trajs, ens, draw(st.integers(1, 20)), draw(st.sampled_from([64, 160, 256]))


@settings(max_examples=40, deadline=None)
@given(_t_ff_sweeps(), st.data())
def test_pooled_sweep_matches_per_ramp_costs(sweep, data):
    model, trajs, ens, n_nodes, n_points = sweep
    per_ramp = []
    for traj in trajs:
        try:
            per_ramp.append(cost_ff_numeric(model, traj, ens, n_nodes, n_points))
        except ValueError as exc:
            per_ramp.append(exc)
    errors = [str(v) for v in per_ramp if isinstance(v, ValueError)]
    if errors:  # the pooled sweep fails as its first failing ramp's own call does
        with pytest.raises(ValueError) as pooled:
            _costs_ff_numeric(model, trajs, ens, n_nodes, n_points)
        assert str(pooled.value) == errors[0]
        return
    assert _costs_ff_numeric(model, trajs, ens, n_nodes, n_points) == per_ramp  # bit for bit
    # l doubled in t_ff = 1e-5 turns the gauge phase by hundreds of radians per point: the
    # ramp fails the check wherever it is put in the sweep
    kind, l0 = trajs[0].kind, trajs[0].l0
    fast = ControlTrajectory(kind, l0, 1e-5, vbar=vbar_for_target(kind, l0, 2.0 * l0, 1e-5))
    with pytest.raises(ValueError, match="trace grid too coarse at") as own:
        cost_ff_numeric(model, fast, ens, n_nodes, n_points)
    at = data.draw(st.integers(0, len(trajs)))
    with pytest.raises(ValueError) as pooled:
        _costs_ff_numeric(model, trajs[:at] + [fast] + trajs[at:], ens, n_nodes, n_points)
    assert str(pooled.value) == str(own.value)


@pytest.mark.parametrize("preset, distinct", [("fig1", 67), ("fig2", 66)])
def test_fig1_sweep_forms_moments_once_per_distinct_node(monkeypatch, preset, distinct):
    # the ramps l0 + vbar T F(t / T) of a preset share vbar T bit for bit, so the 64
    # nodes of t_ff = 0.5, 1 and 2 fall on the same control values, and t_ff = 5, whose
    # t / T rounds apart at a few nodes, shares 61 (fig1) or 62 (fig2) of them
    scn = _PRESETS[preset]
    trajs = [scn.trajectory(t_ff) for t_ff in scn.t_ff_list]
    formed = []
    blocks = HarmonicModel._moment_blocks

    def counted(self, *args):
        for block in blocks(self, *args):
            formed.append(block[0].size)
            yield block

    monkeypatch.setattr(HarmonicModel, "_moment_blocks", counted)
    per_ramp = [cost_ff_numeric(HarmonicModel(), traj, scn.ensemble(), 64, 256) for traj in trajs]
    assert sum(formed) == 4 * 64
    formed.clear()
    assert _costs_ff_numeric(HarmonicModel(), trajs, scn.ensemble(), 64, 256) == per_ramp
    assert sum(formed) == distinct


# ---------------------------------------------------------------------------
# Frobenius cost


def test_frobenius_requires_cutoff_of_two():
    with pytest.raises(ValueError):
        frobenius_cost(BoxModel(), box_ramp(), 1, 1.0)
    assert frobenius_cost(BoxModel(), box_ramp(), np.int64(2), 1.0) == frobenius_cost(BoxModel(), box_ramp(), 2, 1.0)


@pytest.mark.parametrize("cutoff", [10.9, math.inf, math.nan, 10.0, True, np.float64(3.0), "3", 1, np.int64(-2)])
def test_frobenius_cutoff_must_be_an_integer_of_at_least_two(cutoff):
    # 10.9 used to give the cutoff-10 value and inf to raise OverflowError
    with pytest.raises(ValueError, match="need an integer Frobenius cutoff >= 2"):
        frobenius_cost(BoxModel(), box_ramp(), cutoff, 1.0)


@pytest.mark.parametrize("t_ff", [0.5, 2.0])
def test_frobenius_cost_averages_over_the_whole_ramp_only(t_ff):
    # t_ff = 0.5 used to average a t_ff = 1 ramp over [0, 0.5] and return 45.5
    with pytest.raises(ValueError, match="must be the ramp's own t_ff 1.0"):
        frobenius_cost(BoxModel(), box_ramp(POLYNOMIAL), 4, t_ff)


def test_frobenius_static_diagonal():
    # static wall: H is diagonal in its own eigenbasis, norm = sqrt(sum E_n^2)
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=0.0)
    got = frobenius_cost(BoxModel(), traj, 4, 1.0, rel_tol=1e-10)
    expected = np.sqrt(sum(BoxModel().energy(n, 1.0) ** 2 for n in range(1, 5)))
    assert got.value == pytest.approx(expected, rel=1e-8)
    assert got.cutoff == 4


def _box_x2_exact(L, n_max):
    """<m|x^2|n> of the box eigenstates, m, n = 1..n_max, from the closed-form sine integrals."""

    def analytic(m, n):
        if m == n:
            return L * L * (1.0 / 3.0 - 1.0 / (2.0 * np.pi**2 * n * n))
        sign = (-1.0) ** (m + n)
        return (2.0 * L * L / np.pi**2) * sign * (1.0 / (m - n) ** 2 - 1.0 / (m + n) ** 2)

    return np.array([[analytic(m, n) for n in range(1, n_max + 1)] for m in range(1, n_max + 1)])


def _x2_grid(model, l, n_max, n_points):
    """<k|x^2|m> of the levels up to n_max by the trapezoid rule on the node's own grid at l."""
    if model.n_min:
        grid = Grid(0.0, l, n_points)
    else:
        half = model._half_width(l, n_max)
        grid = Grid(-half, half, n_points)
    amps = model.amplitudes(n_max, l, grid)
    w = np.full(grid.n_points, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return (amps * w) @ (grid.points**2 * amps).T


def test_frobenius_box_x2_matrix_elements_match_analytic():
    # grid quadrature of <m|x^2|n> against the closed-form sine integrals
    np.testing.assert_allclose(_x2_grid(BoxModel(), 4.6, 10, 2048), _box_x2_exact(4.6, 10), atol=1e-8)


@pytest.mark.parametrize("model, atol", [(BoxModel(), 1e-9), (HarmonicModel(), 1e-12)], ids=["box", "harmonic"])
def test_unit_x2_matrices_match_grid_quadrature(model, atol):
    # the exact l = 1 matrices of the Frobenius cost, scaled to l, against the trapezoid
    # rule on the node's own grid: box levels 1..c, oscillator levels 0..c
    l, c = 1.7, 14
    exact = l * l * model._unit_x2(model.level_numbers(c))
    assert exact.shape == (c + 1 - model.n_min,) * 2
    np.testing.assert_allclose(exact, _x2_grid(model, l, c, 4096), rtol=0.0, atol=atol * l * l * c)


def _frobenius_h_norm(model, traj, ts, x2_of_l, m_cut):
    """||H0 + V_FF|| at each time, one node's matrix at a time from its own <k|x^2|m>."""
    ns = model.level_numbers(m_cut)
    h = np.array(
        [-0.5 * a / l * x2_of_l(l) + np.diag(model.energy(ns, l)) for l, a in zip(traj.value(ts), traj.acceleration(ts))]
    )
    return np.sqrt(np.sum(h * h, axis=(1, 2)))


def test_box_frobenius_from_unit_table_matches_per_node_forms():
    model, traj, m_cut, n_points = BoxModel(), box_ramp(POLYNOMIAL), 12, 1024
    got = frobenius_cost(model, traj, m_cut, traj.t_ff, n_points=n_points, rel_tol=1e-10).value
    exact = cost_ff(lambda t: _frobenius_h_norm(model, traj, t, lambda l: _box_x2_exact(l, m_cut), m_cut), traj.t_ff)
    per_node_grid = cost_ff(
        lambda t: _frobenius_h_norm(model, traj, t, lambda l: _x2_grid(model, l, m_cut, n_points), m_cut), traj.t_ff
    )
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert got == pytest.approx(per_node_grid, rel=1e-9, abs=0.0)  # the grid is now the oracle


def _panels_at_minima(f, t_ff, n_scan=1024):
    """Edges of [0, t_ff] split at every interior local minimum of f on a scan, each refined by Brent's bounded search."""
    ts = np.linspace(0.0, t_ff, n_scan + 1)
    v = f(ts)
    edges = [0.0, t_ff]
    for i in np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1:
        found = minimize_scalar(lambda t: f(np.array([t]))[0], bounds=(ts[i - 1], ts[i + 1]), method="bounded")
        edges.append(found.x)
    return sorted(edges)


@settings(max_examples=25, deadline=None)
@given(
    st.booleans(),
    st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]),
    st.floats(0.5, 1.5),
    st.floats(0.3, 4.0),
    st.floats(0.5, 3.0),
    st.integers(2, 24),
)
@example(False, TRIGONOMETRIC, 1.0, 4.0, 0.5, 2)  # a whole-ramp reference did not converge here
@example(False, TRIGONOMETRIC, 0.5, 4.0, 0.5, 14)  # frobenius_cost at rel_tol 1e-8 missed by 1.0e-9
def test_frobenius_cost_matches_the_grid_oracle(box, kind, l0, l1, t_ff, m_cut):
    # the exact-matrix Frobenius cost against the grid matrix it replaced: the trapezoid
    # <k|x^2|m> on the l = 1 grid, scaled by l^2 as both traps' grids scale with l.
    # ||H|| dips sharply where l_ddot l^3 = 2 on faster oscillator ramps, as
    # E_n(1) = X_nn = n + 1/2 (see the fast-ramp tests below), beyond what one cost_ff over
    # the whole ramp resolves: the reference splits its panels at the minima it finds itself
    model = BoxModel() if box else HarmonicModel()
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff))
    got = frobenius_cost(model, traj, m_cut, t_ff)
    unit = _x2_grid(model, 1.0, m_cut, 1024)

    def h_norm(t):
        return _frobenius_h_norm(model, traj, t, lambda l: l * l * unit, m_cut)

    edges = _panels_at_minima(h_norm, t_ff)
    grid = sum(gauss_legendre(h_norm, a, b, 1e-10)[0] for a, b in zip(edges, edges[1:])) / t_ff
    assert got.cutoff == m_cut
    assert got.value == pytest.approx(grid, rel=1e-9, abs=0.0)


def _frobenius_trapezoid(model, traj, m_cut, n_intervals=2**16):
    """The Frobenius cost by the trapezoid rule on n_intervals equal panels: no dip is looked for."""
    ns = model.level_numbers(m_cut)
    e, x2 = model._unit_energy(ns), model._unit_x2(ns)
    ts = np.linspace(0.0, traj.t_ff, n_intervals + 1)
    l, c = traj.value(ts), -0.5 * traj.acceleration(ts) / traj.value(ts)
    h2 = e @ e / l**4 + 2.0 * c * (e @ np.diag(x2)) + (c * l * l) ** 2 * np.sum(x2 * x2)
    return np.trapezoid(np.sqrt(h2), ts) / traj.t_ff


@pytest.mark.parametrize(
    "l0, l1, t_ff, m_cut, rel_tol",
    [(0.83, 4.55, 0.367, 3, 1e-8), (0.98, 5.23, 0.381, 20, 1e-8), (1.0, 4.0, 0.5, 3, 1e-10)],
)
def test_frobenius_cost_converges_through_the_dips_of_fast_oscillator_ramps(l0, l1, t_ff, m_cut, rel_tol):
    # each raised "did not converge ... after 8 halvings" from one cost_ff over the
    # ramp: ||H|| dips to 0.2 from ~1e3 within ~1e-5 of the time where c l^4 = -ex/xx
    model = HarmonicModel()
    traj = ControlTrajectory(TRIGONOMETRIC, l0, t_ff, vbar=vbar_for_target(TRIGONOMETRIC, l0, l1, t_ff))
    got = frobenius_cost(model, traj, m_cut, t_ff, rel_tol=rel_tol)
    assert got.value == pytest.approx(_frobenius_trapezoid(model, traj, m_cut), rel=1e-8, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]),
    st.floats(0.5, 1.5),
    st.floats(-math.log(6.0), math.log(6.0)),
    st.floats(0.3, 1.0),
    st.integers(2, 40),
    st.sampled_from([1e-8, 1e-10]),
)
def test_frobenius_cost_converges_on_fast_ramps(box, kind, l0, log_ratio, t_ff, m_cut, rel_tol):
    # fast ramps of both traps, widening or narrowing up to 6x, against the trapezoid
    # rule on 2^16 equal panels, whose own error here is below 1e-9
    model = BoxModel() if box else HarmonicModel()
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l0 * math.exp(log_ratio), t_ff))
    got = frobenius_cost(model, traj, m_cut, t_ff, rel_tol=rel_tol)
    assert got.value == pytest.approx(_frobenius_trapezoid(model, traj, m_cut), rel=1e-8, abs=0.0)


# a trace grid needs the 8 points Grid asks for: below that the stencils and
# the sine table degenerate (at 2 points every sine vanishes) and a number
# came back anyway


@pytest.mark.parametrize("model", [HarmonicModel(), BoxModel()], ids=["harmonic", "box"])
@pytest.mark.parametrize("n_points", [0, 2, 4, 7])
def test_cost_ff_numeric_rejects_fewer_than_8_points(model, n_points):
    traj = box_ramp(POLYNOMIAL) if model.n_min else ho_ramp(POLYNOMIAL)
    with pytest.raises(ValueError, match="n_points >= 8"):
        cost_ff_numeric(model, traj, ThermalEnsemble(beta=1.0, n_particles=1), n_nodes=4, n_points=n_points)


@pytest.mark.parametrize("model", [HarmonicModel(), BoxModel()], ids=["harmonic", "box"])
@pytest.mark.parametrize("n_points", [2, 7])
def test_internal_energy_numeric_rejects_fewer_than_8_points(model, n_points):
    traj = box_ramp(POLYNOMIAL) if model.n_min else ho_ramp(POLYNOMIAL)
    with pytest.raises(ValueError, match="n_points >= 8"):
        internal_energy_numeric(model, traj, 0.5, ThermalEnsemble(beta=math.inf, n_particles=2), n_points=n_points)


@pytest.mark.parametrize("model", [HarmonicModel(), BoxModel()], ids=["harmonic", "box"])
def test_empty_ensemble_rejects_fewer_than_8_points(model):
    # N = 0 had a zero trace, whose point count was checked first; the empty ensemble is
    # now rejected where it is built, and the smallest one, N = 1, has its points checked
    traj = box_ramp(POLYNOMIAL) if model.n_min else ho_ramp(POLYNOMIAL)
    with pytest.raises(ValueError, match="need an integer n_particles >= 1"):
        ThermalEnsemble(beta=1.0, n_particles=0)
    one = ThermalEnsemble(beta=1.0, n_particles=1)
    with pytest.raises(ValueError, match="n_points >= 8"):
        internal_energy_numeric(model, traj, 0.5, one, n_points=2)
    with pytest.raises(ValueError, match="n_points >= 8"):
        cost_ff_numeric(model, traj, one, n_nodes=4, n_points=0)


@pytest.mark.parametrize("model", [HarmonicModel(), BoxModel()], ids=["harmonic", "box"])
@pytest.mark.parametrize("n_points", [2, 7])
def test_frobenius_cost_rejects_fewer_than_8_points(model, n_points):
    traj = box_ramp(POLYNOMIAL) if model.n_min else ho_ramp(POLYNOMIAL)
    with pytest.raises(ValueError, match="n_points >= 8"):
        frobenius_cost(model, traj, 4, 1.0, n_points=n_points)
    assert frobenius_cost(model, traj, 4, 1.0, n_points=8).value > 0.0


def test_frobenius_cutoff_from_ensemble():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    got = frobenius_cost(BoxModel(), box_ramp(POLYNOMIAL), ens, 1.0, n_points=512, rel_tol=1e-6)
    assert got.cutoff >= 4
    assert got.value > 0.0
