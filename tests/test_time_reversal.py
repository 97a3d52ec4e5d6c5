"""Time reversal, a second exact symmetry of the oracle and of the costs, through the public API.

Every smooth ramp reverses into its own kind: l(T - t) is
ControlTrajectory(kind, l(T), T, vbar=-vbar), as each shape F of
l0 + vbar T F(t/T), the inverse-engineering quintic's too, is point
symmetric, F(1) - F(1 - s) = F(s).  l_dot flips sign and l_ddot does not.
In the propagator's frame the dilation term, odd in s_dot, is the only
imaginary part of H, so the reversed ramp's H(t) is
conj(H(T - t)); the half-step times of the two runs mirror each other.  So
the Cayley steps of the reversed run undo the forward run's: propagating
conj(psi(T)) back along the reversed ramp returns conj(psi0), on any grid, at
any dt, for states of any parity.  The thermal trace sees l and l_dot^2 - l
l_ddot, and the Frobenius norm l and l_ddot, on Gauss-Legendre nodes that are
symmetric about T/2: each cost of a ramp equals its reverse's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd import (
    POLYNOMIAL,
    QUINTIC,
    TRIGONOMETRIC,
    BoxModel,
    ComplexField,
    ControlTrajectory,
    HarmonicModel,
    ThermalEnsemble,
    coefficient_A,
    cost_ff_closed,
    cost_ff_numeric,
    frobenius_cost,
    propagate,
    trap_coefficient,
    vbar_for_target,
)

from helpers import normalized


def _reversed(traj: ControlTrajectory) -> ControlTrajectory:
    """The ramp l(T - t) of the same kind."""
    return ControlTrajectory(traj.kind, traj.value(traj.t_ff), traj.t_ff, vbar=-traj.vbar)


def _ramp(kind, l1, t_ff):
    return ControlTrajectory(kind, 1.0, t_ff, vbar=vbar_for_target(kind, 1.0, l1, t_ff))


# The bound on the round trip.  Each Cayley step is a backward-stable tridiagonal
# solve and one subtraction, a few eps relative to the state; over the 2 n steps of
# the round trip they add up at most linearly, to 2 n c eps.  The coherent worst case
# is a static ramp, where every step rounds the same numbers the same way: there c
# reached 1.2 (box and oscillator, these mixes, 256 and 257 points, 2500 and 5000
# steps).  The moving ramps drawn here stay below c = 0.07 (120 random draws, median
# 0.03).  c = 4 is the bound, three times the coherent worst case.  A slip that breaks
# the symmetry, half-step times at (k + 0.45) dt, misses by 3e-4.  The state must be
# zero at both grid ends, where propagate's walls set it to zero: an oscillator level
# n <= 5 keeps up to 1e-10 of its peak at the ends of its default grid, which a round
# trip would report as a miss.
_ROUND_TRIP_C = 4.0


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from([BoxModel(), HarmonicModel()]),
    kind=st.sampled_from([POLYNOMIAL, TRIGONOMETRIC, QUINTIC]),
    l1=st.floats(0.5, 2.0).filter(lambda l: abs(l - 1.0) > 0.05),
    half=st.integers(64, 128),
    odd=st.booleans(),
    same_parity=st.booleans(),
    phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
)
def test_propagating_back_along_the_reversed_ramp_returns_psi0(model, kind, l1, half, odd, same_parity, phases):
    n_points, t_ff, n_steps = 2 * half + odd, 0.5, 2500
    traj = _ramp(kind, l1, t_ff)
    grid = model.default_grid(1.0, n_points)
    # three levels with random phases: of one parity (the oscillator's half-grid path) or of none
    levels = [0, 2, 4] if same_parity else [0, 1, 2]
    table = model.amplitudes(model.n_min + 4, 1.0, grid)
    values = sum(np.exp(1j * p) * table[k] for p, k in zip(phases, levels))
    values[[0, -1]] = 0.0  # the walls: propagate's state is zero at both grid ends
    psi0 = normalized(grid, values)
    dt = t_ff / n_steps

    forward = propagate(psi0, traj, trap_coefficient(model, traj), dt, t_ff)
    rev = _reversed(traj)
    back = propagate(ComplexField(forward.grid, forward.values.conj()), rev, trap_coefficient(model, rev), dt, t_ff)

    assert back.grid.n_points == n_points
    assert (back.grid.x_min, back.grid.x_max) == pytest.approx((grid.x_min, grid.x_max), rel=1e-15, abs=0.0)
    miss = np.abs(back.values.conj() - psi0.values).max() / np.abs(psi0.values).max()
    assert miss <= 2 * n_steps * _ROUND_TRIP_C * np.finfo(float).eps


_COST_CASES = [(BoxModel(), 3.0), (HarmonicModel(), 0.5)]


@pytest.mark.parametrize("kind", [POLYNOMIAL, TRIGONOMETRIC, QUINTIC])
@pytest.mark.parametrize("model, l1", _COST_CASES, ids=["box", "harmonic"])
def test_costs_equal_their_reverse(model, l1, kind):
    # measured: the trace within 3.3e-15 and the Frobenius cost within 6.7e-16
    traj = _ramp(kind, l1, 0.5)
    rev = _reversed(traj)
    ens = ThermalEnsemble(beta=2.0, n_particles=3)
    trace = [cost_ff_numeric(model, r, ens, n_points=256) for r in (traj, rev)]
    frob = [frobenius_cost(model, r, 12, 0.5).value for r in (traj, rev)]
    assert trace[1] == pytest.approx(trace[0], rel=1e-12)
    assert frob[1] == pytest.approx(frob[0], rel=1e-12)


@pytest.mark.parametrize("kind", [POLYNOMIAL, TRIGONOMETRIC])
def test_printed_oscillator_cost_depends_on_the_ramp_direction(kind):
    # a fact, not a failure: the printed A = N^2 [1 + (4 pi^2/3) l0^2 (kT)^2 (l0/N)^2] is
    # frozen at l0 = l(0), so the printed cost of the reversed ramp is A(l(T)) / A(l(0))
    # times the forward one, though the trace above is direction-free.  The box's printed
    # energy takes its constants at l(t) and is direction-free too.
    ens = ThermalEnsemble(beta=2.0, n_particles=3)
    ratios = []
    for model, l1 in _COST_CASES:
        traj = _ramp(kind, l1, 1.0)
        forward, back = (cost_ff_closed(model, r, ens).quadrature_value for r in (traj, _reversed(traj)))
        ratios.append(back / forward)
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)
    assert ratios[1] == pytest.approx(coefficient_A(ens, 0.5) / coefficient_A(ens, 1.0), rel=1e-12)
    assert ratios[1] == pytest.approx(0.7490, abs=5e-5)
