import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from ffqd._numutil import gauss_legendre
from ffqd.cost import _fermi_factor, cost_ff
from ffqd.fastforward import _dynamical_phase
from ffqd.ie import ErmakovSolution, cost_ie, h_ie_expectation
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

_ramps = st.builds(
    lambda kind, l0, l1, t_ff: ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff)),
    st.sampled_from((POLYNOMIAL, TRIGONOMETRIC)),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.05, 10.0),
)


def _quad(f, a, b, tol_abs, tol_rel):
    return quad(f, a, b, epsabs=tol_abs, epsrel=tol_rel, limit=200)[0]


# E_n(1)/hbar of level n_min + k, written out independently of the models
_UNIT_LEVEL = {
    "harmonic": (HarmonicModel(), lambda k: k + 0.5),
    "box": (BoxModel(), lambda k: 0.5 * (math.pi * (k + 1)) ** 2),
}


@settings(max_examples=80, deadline=None)
@given(_ramps, st.floats(0.01, 1.0), st.sampled_from(sorted(_UNIT_LEVEL)), st.integers(0, 3))
def test_inverse_l2_integrals_match_adaptive_quad(traj, frac, system, k):
    # the mean of l^-2 (rel 1e-12) and the dynamical phase E_n(1)/hbar int_0^t l^-2
    # of either trap, its integral to abs = rel = 1e-12
    T = traj.t_ff
    ref_mean = _quad(lambda s: 1.0 / traj.value(s) ** 2, 0.0, T, 1e-300, 1e-12) / T
    assert abs(cost_ff(lambda s: 1.0 / traj.value(s) ** 2, T, 1e-12) - ref_mean) <= 1e-12 * ref_mean

    model, pref = _UNIT_LEVEL[system][0], _UNIT_LEVEL[system][1](k)
    t = frac * T
    ref_phase = pref * _quad(lambda s: 1.0 / traj.value(s) ** 2, 0.0, t, 1e-12, 1e-12)
    got = _dynamical_phase(model, model.n_min + k, t, traj)
    assert abs(got - ref_phase) <= max(2e-12 * pref, 1e-12 * ref_phase)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 20.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_cost_ie_matches_adaptive_quad(omega0, omegaF, t_ff, beta):
    sol = ErmakovSolution(omega0, omegaF, t_ff)
    ref = _quad(lambda s: h_ie_expectation(sol, s, beta), 0.0, t_ff, 1e-300, 1e-10) / t_ff
    assert abs(cost_ie(sol, beta) - ref) <= 1e-10 * abs(ref)


def test_panels_are_halved_until_the_tolerance_is_met():
    # a kink at 1/3: one 64-node panel misses 1e-10, halved panels meet it
    val, err = gauss_legendre(lambda t: np.abs(t - 1.0 / 3.0) ** 3, 0.0, 1.0, 1e-10)
    exact = ((1.0 / 3.0) ** 4 + (2.0 / 3.0) ** 4) / 4.0
    assert abs(val - exact) <= 1e-10 * exact
    assert err <= 1e-10 * exact


def test_discontinuous_integrand_raises():
    with pytest.raises(RuntimeError, match="did not converge"):
        cost_ff(lambda t: np.where(t < 0.3, 0.0, 1.0), 1.0)


def test_non_finite_integrand_raises():
    with pytest.raises(RuntimeError, match="not finite"):
        gauss_legendre(lambda t: np.where(t > 0.5, np.nan, 1.0), 0.0, 1.0, 1e-10)


def test_fermi_factor_is_expit_within_4_ulp():
    x = np.concatenate((np.linspace(-800.0, 800.0, 1_100_001), [-math.inf, math.inf]))
    with np.errstate(over="ignore"):
        got = _fermi_factor(-x)
    np.testing.assert_array_max_ulp(got, expit(x), maxulp=4)
    assert got[-2] == 0.0 and got[-1] == 1.0
