import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd.fastforward import trap_coefficient
from ffqd.ie import cost_ie, ermakov_residual, h_ie_expectation
from ffqd.spectra import HarmonicModel
from ffqd.trajectory import POLYNOMIAL, QUINTIC, TRIGONOMETRIC

from helpers import ho_ramp, ie_ramp


def _b(traj, t):
    """The scaling function b = l/l0 of the design."""
    return traj.value(t) / traj.l0


def _omega_sq(traj, t):
    """omega^2 = 2 a(t) of the fast-forward trap coefficient on the ramp."""
    return 2.0 * trap_coefficient(HarmonicModel(), traj)(t)


def test_no_ramp_is_constant():
    traj = ie_ramp(1.0, 1.0, 1.0)
    ts = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(_b(traj, ts), 1.0, atol=1e-15)
    np.testing.assert_allclose(_omega_sq(traj, ts), 1.0, atol=1e-13)


def test_boundary_values():
    traj = ie_ramp(1.0, 10.0, 1.0)
    assert _b(traj, 1.0) == pytest.approx(10.0**-0.5, abs=1e-12)
    assert _b(traj, 0.0) == 1.0
    assert traj.velocity(0.0) == 0.0 and traj.velocity(1.0) == 0.0
    assert traj.acceleration(0.0) == 0.0 and traj.acceleration(1.0) == 0.0
    assert _omega_sq(traj, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert _omega_sq(traj, 1.0) == pytest.approx(100.0, abs=1e-10)


def test_residual_vanishes_on_the_fast_forward_drive():
    traj = ie_ramp(1.0, 10.0, 2.0)
    ts = np.linspace(0.0, 2.0, 10_000)
    assert np.max(np.abs(ermakov_residual(traj, ts))) < 1e-8


def test_residual_perturbation_first_order():
    traj = ie_ramp(1.0, 10.0, 1.0)
    delta = 1e-3
    # residual of (b + delta) at fixed omega^2, at t = 0: (omega0^2 + 3 omega0^2) delta
    b0 = _b(traj, 0.0) + delta
    omega0 = 1.0 / traj.l0**2
    resid = traj.acceleration(0.0) / traj.l0 + _omega_sq(traj, 0.0) * b0 - omega0**2 / b0**3
    assert resid == pytest.approx(4.0 * delta, rel=5e-3)


def test_h_ie_at_start():
    traj = ie_ramp(1.0, 10.0, 1.0)
    for beta in (0.5, 1.0, 4.0):
        expected = 0.5 / np.tanh(0.5 * beta)
        assert h_ie_expectation(traj, 0.0, beta) == pytest.approx(expected, rel=1e-12)


def test_h_ie_zero_temperature_limit():
    traj = ie_ramp(1.0, 10.0, 1.0)
    assert h_ie_expectation(traj, 0.0, 1e4) == pytest.approx(0.5, rel=1e-10)


def test_h_ie_at_end():
    traj = ie_ramp(1.0, 10.0, 1.0)
    beta = 1.3
    # b_F^2 = 1/10: (1/2)[100*0.1/2 + 10/2] coth = 5 coth(beta/2)
    assert h_ie_expectation(traj, 1.0, beta) == pytest.approx(
        5.0 / np.tanh(0.5 * beta), rel=1e-10
    )


def test_h_ie_positive():
    traj = ie_ramp(1.0, 10.0, 0.5)
    ts = np.linspace(0.0, 0.5, 501)
    assert np.all(h_ie_expectation(traj, ts, 1.0) > 0.0)


def test_cost_ie_constant_case():
    traj = ie_ramp(2.0, 2.0, 1.0)
    beta = 0.7
    assert cost_ie(traj, beta) == pytest.approx(1.0 / np.tanh(beta), rel=1e-10)


def test_cost_ie_nonincreasing_in_t_ff():
    costs = [cost_ie(ie_ramp(1.0, 10.0, T), 1.0) for T in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


@pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0])
def test_non_positive_or_nan_beta_rejected(beta):
    # bad input, not a quadrature that fails to converge on a NaN integrand
    traj = ie_ramp(1.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        h_ie_expectation(traj, 0.5, beta)
    with pytest.raises(ValueError, match="beta must be positive"):
        cost_ie(traj, beta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["omega0", "omegaF", "t_ff"])
def test_non_finite_parameters_rejected(field, bad):
    args = {"omega0": 1.0, "omegaF": 10.0, "t_ff": 1.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        ie_ramp(**args)


def test_ratio_beyond_double_precision_rejected():
    # b(t_ff) = 1 + (sqrt(omega0/omegaF) - 1) rounds to exactly 0: the ramp's end rule
    with pytest.raises(ValueError, match=r"l\(0\) and l\(t_ff\) must be positive and finite, got \[1.0, 0.0\]"):
        ie_ramp(1.0, 1e40, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([POLYNOMIAL, TRIGONOMETRIC, QUINTIC]),
    st.floats(0.5, 2.0),
    st.floats(0.5, 20.0),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
def test_h_ie_is_the_printed_fast_forward_oscillator_energy(kind, omega0, omegaF, t_ff, beta):
    # on any ramp l = l0 b(t), omega0 = 1/l0^2, the printed <H_IE> is the printed fast-forward
    # energy C/l^2 + K (l_dot^2 - l l_ddot) with (C, K) = (A/4, A/8), A = 2 coth(beta omega0/2):
    # one-particle Boltzmann populations on the fast-forward Hamiltonian.  Rounding is judged
    # against the size of the terms: l l_ddot can cancel the rest, and the energy cross zero
    traj = ho_ramp(kind, 1.0 / math.sqrt(omega0), 1.0 / math.sqrt(omegaF), t_ff)
    ts = np.linspace(0.0, t_ff, 257)
    l, ld, ldd = traj.value(ts), traj.velocity(ts), traj.acceleration(ts)
    a = 2.0 / math.tanh(0.5 * beta / traj.l0**2)
    printed = a / 4.0 / l**2 + a / 8.0 * (ld * ld - l * ldd)
    scale = a / 4.0 / l**2 + a / 8.0 * (ld * ld + np.abs(l * ldd))
    assert np.all(np.abs(h_ie_expectation(traj, ts, beta) - printed) <= 1e-12 * scale)
    if kind == QUINTIC:
        # the fast-forward drive on the design's ramp solves the auxiliary equation
        assert np.max(np.abs(ermakov_residual(traj, ts))) < 1e-8
