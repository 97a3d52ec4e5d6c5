import numpy as np
import pytest

from ffqd.ie import ErmakovSolution, cost_ie, ermakov_residual, h_ie_expectation


def test_no_ramp_is_constant():
    sol = ErmakovSolution(1.0, 1.0, 1.0)
    ts = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(sol.b(ts), 1.0, atol=1e-15)
    np.testing.assert_allclose(sol.omega_sq(ts), 1.0, atol=1e-13)


def test_boundary_values():
    sol = ErmakovSolution(1.0, 10.0, 1.0)
    assert sol.b(1.0) == pytest.approx(10.0**-0.5, abs=1e-12)
    assert sol.b(0.0) == 1.0
    assert sol.b_dot(0.0) == 0.0 and sol.b_dot(1.0) == 0.0
    assert sol.b_ddot(0.0) == 0.0 and sol.b_ddot(1.0) == 0.0
    assert sol.omega_sq(0.0) == pytest.approx(1.0, abs=1e-10)
    assert sol.omega_sq(1.0) == pytest.approx(100.0, abs=1e-10)


def test_residual_zero_by_construction():
    sol = ErmakovSolution(1.0, 10.0, 2.0)
    ts = np.linspace(0.0, 2.0, 10_000)
    assert np.max(np.abs(ermakov_residual(sol, ts))) < 1e-8


def test_residual_perturbation_first_order():
    sol = ErmakovSolution(1.0, 10.0, 1.0)
    delta = 1e-3
    # residual of (b + delta) at fixed omega^2, at t = 0: (omega0^2 + 3 omega0^2) delta
    b0 = sol.b(0.0) + delta
    resid = sol.b_ddot(0.0) + sol.omega_sq(0.0) * b0 - sol.omega0**2 / b0**3
    assert resid == pytest.approx(4.0 * delta, rel=5e-3)


def test_h_ie_at_start():
    sol = ErmakovSolution(1.0, 10.0, 1.0)
    for beta in (0.5, 1.0, 4.0):
        expected = 0.5 / np.tanh(0.5 * beta)
        assert h_ie_expectation(sol, 0.0, beta) == pytest.approx(expected, rel=1e-12)


def test_h_ie_zero_temperature_limit():
    sol = ErmakovSolution(1.0, 10.0, 1.0)
    assert h_ie_expectation(sol, 0.0, 1e4) == pytest.approx(0.5, rel=1e-10)


def test_h_ie_at_end():
    sol = ErmakovSolution(1.0, 10.0, 1.0)
    beta = 1.3
    # b_F^2 = 1/10: (1/2)[100*0.1/2 + 10/2] coth = 5 coth(beta/2)
    assert h_ie_expectation(sol, 1.0, beta) == pytest.approx(
        5.0 / np.tanh(0.5 * beta), rel=1e-10
    )


def test_h_ie_positive():
    sol = ErmakovSolution(1.0, 10.0, 0.5)
    ts = np.linspace(0.0, 0.5, 501)
    assert np.all(h_ie_expectation(sol, ts, 1.0) > 0.0)


def test_cost_ie_constant_case():
    sol = ErmakovSolution(2.0, 2.0, 1.0)
    beta = 0.7
    assert cost_ie(sol, beta) == pytest.approx(1.0 / np.tanh(beta), rel=1e-10)


def test_cost_ie_nonincreasing_in_t_ff():
    costs = [cost_ie(ErmakovSolution(1.0, 10.0, T), 1.0) for T in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))



@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["omega0", "omegaF", "t_ff"])
def test_non_finite_parameters_rejected(field, bad):
    args = {"omega0": 1.0, "omegaF": 10.0, "t_ff": 1.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        ErmakovSolution(**args)


def test_ratio_beyond_double_precision_rejected():
    # b(t_ff) = 1 + (sqrt(omega0/omegaF) - 1) rounds to exactly 0
    with pytest.raises(ValueError, match="reaches zero"):
        ErmakovSolution(1.0, 1e40, 1.0)
