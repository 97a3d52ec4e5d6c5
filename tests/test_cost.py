import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from ffqd.cost import (
    ThermalEnsemble,
    box_drive_prefactor,
    coefficient_A,
    coefficients_B,
    cost_ff,
    cost_ff_box_closed,
    cost_ff_ho_closed,
    cost_ff_numeric,
    frobenius_cost,
    internal_energy_box,
    internal_energy_box_parts,
    internal_energy_ho,
    internal_energy_numeric,
    solve_mu,
    _fermi,
    _node_traces,
    _solve_mu_rows,
    _weighted_trace,
)
from ffqd.cli import Scenario, run
from ffqd.core import Grid
from ffqd.spectra import BoxModel, HarmonicModel, _hermite_functions
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

from helpers import box_ramp, ho_ramp

ZERO_T = ThermalEnsemble(beta=math.inf, n_particles=1)


def static_trajectory(l0=1.0, t_ff=1.0):
    return ControlTrajectory.polynomial(l0, 0.0, t_ff)


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
    with pytest.raises(ValueError, match="n_particles must be an integer >= 0"):
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
    # the printed constants divide by N: N = 0 used to raise ZeroDivisionError
    empty = ThermalEnsemble(beta=2.0, n_particles=0)
    for call in (
        lambda: coefficient_A(empty, 1.0),
        lambda: coefficients_B(empty, 1.0),
        lambda: box_drive_prefactor(empty, 1.0),
        lambda: cost_ff_box_closed(box_ramp(POLYNOMIAL), empty),
    ):
        with pytest.raises(ValueError, match="n_particles >= 1"):
            call()


def test_coefficients_b_zero_temperature():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    b1, b2 = coefficients_B(ens, 1.0)
    assert b1 == pytest.approx(np.pi**2 * 27.0 / 24.0, rel=1e-12)
    assert b2 == pytest.approx(0.5, rel=1e-12)


def test_internal_energy_ho_static():
    assert internal_energy_ho(static_trajectory(), 0.5, 1.0) == pytest.approx(0.25)


def test_internal_energy_ho_endpoint_kinetic_term_vanishes():
    traj = ho_ramp(POLYNOMIAL)
    a = 2.0
    # at t = 0: L_dot = 0, so only confinement + L_ddot survive
    L0, Ldd = traj.value(0.0), traj.acceleration(0.0)
    expected = a * (1.0 / (4.0 * L0 * L0) - Ldd * L0 / 8.0)
    assert internal_energy_ho(traj, 0.0, a) == pytest.approx(expected, rel=1e-12)


def test_internal_energy_box_static_printed_value():
    # N = 1, T = 0, L = 1, static wall: the printed expansion gives pi^2/24,
    # a large-N density-of-states form (the exact n=1 level is pi^2/2)
    u = internal_energy_box(static_trajectory(), 0.3, ZERO_T)
    assert u == pytest.approx(np.pi**2 / 24.0, rel=1e-12)


def test_internal_energy_box_endpoint_reduction():
    traj = box_ramp(POLYNOMIAL)
    ens = ThermalEnsemble(beta=math.inf, n_particles=2)
    conf, drive = internal_energy_box_parts(traj, 0.0, ens)
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
    st.floats(0.1, 5.0),
)
def test_closed_forms_on_a_node_array_match_per_node_calls(kind, l0, l1, t_ff, beta, n, fracs, a_coeff):
    traj = _NodeRamp(ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff)))
    ens = ThermalEnsemble(beta=beta, n_particles=n)
    ts = t_ff * np.array(fracs)
    of_time = [
        lambda t: internal_energy_ho(traj, t, a_coeff),
        lambda t: internal_energy_box(traj, t, ens),
        lambda t: internal_energy_box_parts(traj, t, ens)[0],
        lambda t: internal_energy_box_parts(traj, t, ens)[1],
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


def test_trace_empty_ensemble():
    ens = ThermalEnsemble(beta=1.0, n_particles=0)
    assert internal_energy_numeric(BoxModel(), box_ramp(), 0.5, ens) == 0.0


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
            BoxModel(), ControlTrajectory.polynomial(L, 0.0, 1.0), 0.5, ens, n_points=4096
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
        closed = internal_energy_ho(traj, t, 1.0)
        assert numeric / closed == pytest.approx(2.0, abs=2e-4)


def _complex_trace_reference(amps, f, a, x, v, dx, kin):
    """The complex-table trace: psi = phi exp(i a x^2), row Laplacian, per-level trapezoid.

    Also returns the scale sum_n f_n int (|Re conj(psi) T psi| + |v| phi^2),
    against which rounding differences are measured.
    """
    psi = amps * np.exp(1j * a * x * x)[None, :]
    lap = np.empty_like(psi)
    inv = 1.0 / (dx * dx)
    lap[:, 1:-1] = (psi[:, 2:] - 2.0 * psi[:, 1:-1] + psi[:, :-2]) * inv
    lap[:, 0] = (2.0 * psi[:, 0] - 5.0 * psi[:, 1] + 4.0 * psi[:, 2] - psi[:, 3]) * inv
    lap[:, -1] = (2.0 * psi[:, -1] - 5.0 * psi[:, -2] + 4.0 * psi[:, -3] - psi[:, -4]) * inv
    kinetic = (np.conjugate(psi) * (-kin * lap)).real
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


@settings(max_examples=80, deadline=None)
@given(_trace_cases, st.floats(0.1, 10.0))
def test_weighted_trace_matches_complex_reference(case, kin):
    amps, f, a, x, v, dx = case
    ref, scale = _complex_trace_reference(amps, f, a, x, v, dx, kin)
    got = _weighted_trace(amps, f, a * x * x, v, dx, kin)
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


def _bisection_before_stall_rule(e, beta, n):
    """solve_mu as it was before the one-ulp rule; None where it raised."""
    pad = 50.0 / beta + 1.0
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
    a = 1.7
    for kind, shape in ((POLYNOMIAL, 1.0 / 120.0), (TRIGONOMETRIC, 3.0 / 8.0)):
        traj = ho_ramp(kind)
        total = cost_ff(lambda s: internal_energy_ho(traj, s, a), traj.t_ff)
        conf = cost_ff(lambda s: a / (4.0 * traj.value(s) ** 2), traj.t_ff)
        assert total == pytest.approx(conf + a * traj.vbar**2 * shape, rel=1e-8)


@pytest.mark.parametrize("kind,shape", [(POLYNOMIAL, 1.0 / 15.0), (TRIGONOMETRIC, 3.0)])
def test_box_drive_three_way_agreement(kind, shape):
    # (a) quadrature of the drive term, (b) integration-by-parts identity,
    # (c) closed-form coefficient -- all with the same prefactor K
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    traj = box_ramp(kind)
    T = traj.t_ff
    k = box_drive_prefactor(ens, traj.value(0.0))
    a_quad = cost_ff(lambda s: internal_energy_box_parts(traj, s, ens)[1], T)
    b_ibp = 2.0 * k / T * quad(lambda s: traj.velocity(s) ** 2, 0.0, T, epsabs=1e-14, epsrel=1e-12)[0]
    c_closed = k * traj.vbar**2 * shape
    assert a_quad == pytest.approx(b_ibp, rel=1e-8)
    assert a_quad == pytest.approx(c_closed, rel=1e-8)


def test_drive_term_scales_as_vbar_squared():
    ens = ThermalEnsemble(beta=math.inf, n_particles=2)
    T = 1.0
    vals = []
    for vbar in (9.0, 18.0):
        traj = ControlTrajectory.trigonometric(1.0, vbar, T)
        vals.append(cost_ff(lambda s: internal_energy_box_parts(traj, s, ens)[1], T))
    assert vals[1] / vals[0] == pytest.approx(4.0, abs=1e-10)


def test_box_report_records_published_form_disagreement():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    traj = box_ramp(POLYNOMIAL)
    rep = cost_ff_box_closed(traj, ens)
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
    traj = ControlTrajectory.polynomial(1.0, 0.0, 1.0)  # static wall
    rep = cost_ff_box_closed(traj, ens)
    b1, _ = coefficients_B(ens, 1.0)
    assert rep.quadrature_value == pytest.approx(b1, rel=1e-10)  # B1/L0^2 with L0 = 1


def test_box_report_rejects_linear_ramp():
    with pytest.raises(ValueError):
        cost_ff_box_closed(ControlTrajectory.adiabatic_linear(1.0, 0.1, 1.0), ZERO_T)


def test_cost_monotone_decreasing_in_t_ff():
    ens = ThermalEnsemble(beta=math.inf, n_particles=1)
    values = [
        cost_ff_box_closed(box_ramp(POLYNOMIAL, t_ff=T), ens).quadrature_value
        for T in (0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_cost_report_csv(tmp_path):
    # a CostReport holds the row cost_curve.csv prints, plus its constants
    for system in ("box", "harmonic"):
        scn = Scenario(system=system, beta=2.0, n_particles=2, t_ff_list=(1.0,), outputs=("cost_curve",))
        (path,) = run(scn, tmp_path / system)
        traj = scn.trajectory(1.0)
        if system == "box":
            rep = cost_ff_box_closed(traj, scn.ensemble())
        else:
            rep = cost_ff_ho_closed(traj, coefficient_A(scn.ensemble(), traj.value(0.0)))
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
    Returns (trace, scale) or raises ValueError like the library.
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
        grid = model.default_grid(traj._l_max, n_points, n_max=int(ns[-1]))
        scale = np.sqrt(1.0 / (l * l))
        amps = _hermite_functions(int(ns[-1]), scale * grid.points) * np.sqrt(scale)
        amps /= np.sqrt(np.trapezoid(amps * amps, dx=grid.dx, axis=1))[:, None]
    x = grid.points
    v = model._v0_coefficient(l) * x**2 - 0.5 * lddot / l * x * x
    a = ldot / (2.0 * l)
    return _complex_trace_reference(amps, f, a, x, v, grid.dx, 0.5)


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
        with pytest.raises(ValueError):
            _node_traces(model, traj, ts, ens, n_points)
        return
    got = _node_traces(model, traj, ts, ens, n_points)
    for g, (ref, scale) in zip(got, refs):
        assert abs(g - ref) <= 1e-12 * scale
    weights = np.polynomial.legendre.leggauss(n_nodes)[1]
    assert cost_ff_numeric(model, traj, ens, n_nodes, n_points) == 0.5 * float(np.dot(weights, got))


def test_batched_edge_check_sees_each_nodes_own_rows_only():
    model, traj = HarmonicModel(), ho_ramp(POLYNOMIAL)  # grids sized for the widest l = 1
    # node 0 needs levels up to 2, node 1 up to 60: one chunk, one recurrence
    ((sl, x, _, table, _),) = model._trace_stacks(traj, np.array([1.0, 1.0]), np.array([2, 60]), 64)
    assert sl == slice(0, 2)
    # node 0's padded rows leak at the edge of its narrow grid and do not raise
    assert np.max(np.abs(table[0, 3:, [0, -1]])) > 1e-6
    assert np.max(np.abs(table[0, :3, [0, -1]])) < 1e-6
    # a node whose own rows leak raises inside the same batch
    with pytest.raises(ValueError, match="grid too narrow for levels up to n=2"):
        list(model._trace_stacks(traj, np.array([1.0, 3.0, 1.0]), np.array([2, 2, 60]), 64))


# ---------------------------------------------------------------------------
# Frobenius cost


def test_frobenius_requires_cutoff_of_two():
    with pytest.raises(ValueError):
        frobenius_cost(BoxModel(), box_ramp(), 1, 1.0)


def test_frobenius_static_diagonal():
    # static wall: H is diagonal in its own eigenbasis, norm = sqrt(sum E_n^2)
    traj = ControlTrajectory.polynomial(1.0, 0.0, 1.0)
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


def _box_x2_grid(L, n_max, n_points):
    """<m|x^2|n> by the trapezoid rule on the node's own [0, L] grid."""
    grid = Grid(0.0, L, n_points)
    amps = BoxModel().amplitudes(n_max, L, grid)
    w = np.full(grid.n_points, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return (amps * w) @ (grid.points**2 * amps).T


def test_frobenius_box_x2_matrix_elements_match_analytic():
    # grid quadrature of <m|x^2|n> against the closed-form sine integrals
    np.testing.assert_allclose(_box_x2_grid(4.6, 10, 2048), _box_x2_exact(4.6, 10), atol=1e-8)


def test_box_frobenius_from_unit_table_matches_per_node_forms():
    traj, m_cut, n_points = box_ramp(POLYNOMIAL), 12, 1024
    ns = np.arange(1, m_cut + 1)

    def h_norm(ts, x2_of_l):
        # one node's matrix at a time, from that node's own forms
        h = np.array(
            [-0.5 * a / l * x2_of_l(l) + np.diag(BoxModel().energy(ns, l)) for l, a in zip(traj.value(ts), traj.acceleration(ts))]
        )
        return np.sqrt(np.sum(h * h, axis=(1, 2)))

    got = frobenius_cost(BoxModel(), traj, m_cut, traj.t_ff, n_points=n_points, rel_tol=1e-10).value
    per_node_grid = cost_ff(lambda t: h_norm(t, lambda l: _box_x2_grid(l, m_cut, n_points)), traj.t_ff)
    exact = cost_ff(lambda t: h_norm(t, lambda l: _box_x2_exact(l, m_cut)), traj.t_ff)
    assert got == pytest.approx(per_node_grid, rel=1e-12, abs=0.0)
    assert got == pytest.approx(exact, rel=1e-7, abs=0.0)


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
    # N = 0 has a zero trace, but the point count is checked first, as for N >= 1
    traj = box_ramp(POLYNOMIAL) if model.n_min else ho_ramp(POLYNOMIAL)
    empty = ThermalEnsemble(beta=1.0, n_particles=0)
    with pytest.raises(ValueError, match="n_points >= 8"):
        internal_energy_numeric(model, traj, 0.5, empty, n_points=2)
    with pytest.raises(ValueError, match="n_points >= 8"):
        cost_ff_numeric(model, traj, empty, n_nodes=4, n_points=0)
    assert cost_ff_numeric(model, traj, empty, n_nodes=4, n_points=8) == 0.0


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
