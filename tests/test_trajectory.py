import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd.trajectory import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    QUINTIC,
    TRIGONOMETRIC,
    ControlTrajectory,
    vbar_for_target,
)

from helpers import BOTH_RAMPS


def test_polynomial_reaches_target():
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
    assert traj.value(1.0) == pytest.approx(10.0, abs=1e-12)  # 1 + 54*(1/2 - 1/3)


def test_value_at_zero_is_l0():
    for traj in (
        ControlTrajectory(POLYNOMIAL, 2.0, 1.5, vbar=5.0),
        ControlTrajectory(TRIGONOMETRIC, 2.0, 1.5, vbar=5.0),
        ControlTrajectory(ADIABATIC_LINEAR, 2.0, 1.5, vbar=0.1),
    ):
        assert traj.value(0.0) == 2.0


def test_trigonometric_midpoint():
    traj = ControlTrajectory(TRIGONOMETRIC, 1.0, 1.0, vbar=9.0)
    # sin(pi) = 0, so l(T/2) = 1 + 9*0.5
    assert traj.value(0.5) == pytest.approx(5.5, abs=1e-12)


def test_ramp_endpoint_velocities_vanish_exactly():
    for kind in (*BOTH_RAMPS, QUINTIC):
        traj = ControlTrajectory(kind, 1.0, 1.0, vbar=54.0 if kind == POLYNOMIAL else 9.0)
        assert traj.velocity(0.0) == 0.0
        assert traj.velocity(traj.t_ff) == 0.0


def test_quintic_accelerations_vanish_exactly_at_both_ends():
    # the Ermakov design's scaling function: b_ddot = 0 at both ends pins omega(0) and omega(T)
    traj = ControlTrajectory(QUINTIC, 1.0, 2.0, vbar=-0.4)
    assert traj.acceleration(0.0) == 0.0 and traj.acceleration(2.0) == 0.0
    assert traj.value(1.0) == pytest.approx(0.6, rel=1e-15)  # s = 1/2: l0 + vbar T / 2


def test_polynomial_acceleration_at_zero():
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
    assert traj.acceleration(0.0) == pytest.approx(54.0, rel=1e-14)


def test_trigonometric_velocity_peak():
    traj = ControlTrajectory(TRIGONOMETRIC, 1.0, 1.0, vbar=9.0)
    assert traj.velocity(0.5) == pytest.approx(18.0, rel=1e-14)  # 1 - cos(pi) = 2


def test_domain_errors():
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
    with pytest.raises(ValueError):
        traj.value(-0.01)
    with pytest.raises(ValueError):
        traj.velocity(1.01)


@pytest.mark.parametrize("t", [float("nan"), np.float64("nan"), np.array([0.1, np.nan, 0.5])])
def test_nan_times_rejected(t):
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=54.0)
    for fn in (traj.value, traj.velocity, traj.acceleration):
        with pytest.raises(ValueError):
            fn(t)


def _ramp(kind, l0, l_final, t_ff):
    vbar = (l_final - l0) / t_ff if kind == ADIABATIC_LINEAR else vbar_for_target(kind, l0, l_final, t_ff)
    return ControlTrajectory(kind, l0, t_ff, vbar=vbar)


def test_scalar_and_array_paths_agree():
    for kind in (*BOTH_RAMPS, QUINTIC, ADIABATIC_LINEAR):
        traj = _ramp(kind, 1.0, 10.0, 1.0)  # the linear ramp's explicit vbar is its slope 9
        ts = np.array([0.0, 0.3, 0.5, 1.0 + 1e-10])
        for fn in (traj.value, traj.velocity, traj.acceleration):
            np.testing.assert_allclose([fn(float(t)) for t in ts], fn(ts), rtol=1e-14, atol=1e-12)


_RAMP_ARGS = (
    st.sampled_from((POLYNOMIAL, TRIGONOMETRIC, QUINTIC, ADIABATIC_LINEAR)),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)


@settings(max_examples=200, deadline=None)
@given(*_RAMP_ARGS, st.integers(0, 2**32 - 1))
def test_scalar_value_is_the_array_entry_bit_for_bit(kind, l0, l_final, t_ff, seed):
    # a propagation run's half-step arrays and a residual's scalar calls must
    # see the same ramp, also where l0 + vbar (...) nearly cancels (l_final < l0)
    traj = _ramp(kind, l0, l_final, t_ff)
    ts = np.append(np.random.default_rng(seed).uniform(0.0, t_ff, 96), [0.0, t_ff])
    assert [traj.value(float(t)) for t in ts] == traj.value(ts).tolist()


@settings(max_examples=200, deadline=None)
@given(
    *_RAMP_ARGS,
    st.one_of(
        st.floats(-1e-8, 1.0 + 1e-8),  # inside, and on both sides of the 1e-9 t_ff slack
        st.sampled_from([-0.0, -1e-9, 1.0 + 1e-9, -1.0, 2.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
def test_scalar_errors_and_values_match_the_0d_array_path(kind, l0, l_final, t_ff, frac):
    # the Python-float path of value/velocity/acceleration against the 0-d array
    # path it bypasses: the same ValueError message, or the same double bit for bit
    traj = _ramp(kind, l0, l_final, t_ff)
    t = frac * t_ff
    for fn in (traj.value, traj.velocity, traj.acceleration):
        try:
            want = fn(np.float64(t))
        except ValueError as exc:
            with pytest.raises(ValueError) as scalar:
                fn(t)
            assert str(scalar.value) == str(exc)
        else:
            got = fn(t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(*_RAMP_ARGS)
def test_ramps_stay_positive_and_hit_both_endpoints(kind, l0, l_final, t_ff):
    traj = _ramp(kind, l0, l_final, t_ff)
    assert traj.value(0.0) == l0
    # l0 + (l_final - l0) rounds at the scale of the larger endpoint
    assert abs(traj.value(t_ff) - l_final) <= 1e-12 * max(l0, l_final)
    assert np.min(traj.value(np.linspace(0.0, t_ff, 20_001))) > 0.0
    # the larger end, through the array path, is bit for bit the max over the
    # 257 even samples that sized oscillator grids before
    assert traj._l_max == float(np.max(traj.value(np.linspace(0.0, t_ff, 257))))


def test_positivity_enforced_at_construction():
    with pytest.raises(ValueError):
        ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=-7.0)  # l(T) = 1 - 7/6 < 0


@pytest.mark.parametrize(
    "make",
    [lambda kind: ControlTrajectory(kind, 1.0, 1.0, vbar=1.0), lambda kind: vbar_for_target(kind, 1.0, 2.0, 1.0)],
    ids=["ControlTrajectory", "vbar_for_target"],
)
def test_unknown_trajectory_kind_rejected(make):
    with pytest.raises(ValueError, match="^unknown trajectory kind 'cubic'$"):
        make("cubic")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["l0", "vbar", "epsilon", "t_ff"])
def test_non_finite_ends_rejected(field, bad):
    # each leaves l(0) or l(t_ff) NaN or inf, which a positivity test alone passes;
    # "epsilon" is the slope of a linear ramp, which is its vbar
    kind, name = (ADIABATIC_LINEAR, "vbar") if field == "epsilon" else (POLYNOMIAL, field)
    args = {"kind": kind, "l0": 1.0, "t_ff": 1.0, "vbar": 1.0, name: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        ControlTrajectory(**args)


@pytest.mark.parametrize("t_ff", [np.nan, np.inf])
@pytest.mark.parametrize("kind", [POLYNOMIAL, TRIGONOMETRIC, QUINTIC, ADIABATIC_LINEAR])
def test_non_finite_t_ff_rejected_by_name(kind, t_ff):
    # t_ff <= 0 is False for both; they used to fail later, on "l(0) and l(t_ff) ..."
    with pytest.raises(ValueError, match=r"^t_ff must be positive and finite, got (nan|inf)$"):
        ControlTrajectory(kind, 1.0, t_ff, vbar=1.0)


def test_linear_ramp_velocity_is_its_vbar():
    # every kind reads the one velocity scale vbar; a linear ramp's is its slope
    traj = ControlTrajectory(ADIABATIC_LINEAR, 1.0, 1.0, vbar=5.0)
    assert traj.velocity(0.5) == 5.0
    assert traj.value(1.0) == 6.0


def test_derivatives_match_finite_differences():
    h = 1e-5
    for kind in (*BOTH_RAMPS, QUINTIC, ADIABATIC_LINEAR):
        traj = _ramp(kind, 1.0, 10.0, 1.0)
        ts = np.linspace(0.05, 0.95, 41)
        v_fd = (traj.value(ts + h) - traj.value(ts - h)) / (2.0 * h)
        a_fd = (traj.value(ts + h) - 2.0 * traj.value(ts) + traj.value(ts - h)) / (h * h)
        np.testing.assert_allclose(traj.velocity(ts), v_fd, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(traj.acceleration(ts), a_fd, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize(
    "kind,expected",
    [(POLYNOMIAL, 54.0), (TRIGONOMETRIC, 9.0), (QUINTIC, 9.0)],
)
def test_vbar_for_target(kind, expected):
    assert vbar_for_target(kind, 1.0, 10.0, 1.0) == pytest.approx(expected, rel=1e-14)
    traj = ControlTrajectory(kind, 1.0, 1.0, vbar=expected)
    assert traj.value(1.0) == pytest.approx(10.0, rel=1e-12)


def test_vbar_for_target_no_motion():
    assert vbar_for_target(POLYNOMIAL, 1.0, 1.0, 2.0) == 0.0


def test_vbar_for_target_linear_rejected():
    with pytest.raises(ValueError):
        vbar_for_target(ADIABATIC_LINEAR, 1.0, 10.0, 1.0)

