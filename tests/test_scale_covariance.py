"""Scale covariance of every layer, through the public API.

Both traps are scale-invariant, V0(x, l) = l^-2 U(x/l), so the copy of a
scenario with (l, t_ff, dt, beta) -> (c l, c^2 t_ff, c^2 dt, c^2 beta), the
oscillator's inverse-engineering cost on the quintic ramp between the same
ends included, has every energy and cost scaled by c^-2 and every fidelity
unchanged.  On the
grid the symmetry holds too: every grid, frame and Cayley coefficient scales
with it.  With c = 4^k every scale factor, and sqrt(c) in the frame map, is a
power of two, so the results agree bit for bit.  A stray absolute constant,
unit or mis-scaled grid rule in any layer breaks this.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    QUINTIC,
    TRIGONOMETRIC,
    BoxModel,
    ComplexField,
    ControlTrajectory,
    Grid,
    HarmonicModel,
    ThermalEnsemble,
    cost_ff_closed,
    cost_ff_numeric,
    cost_ie,
    fidelity,
    frobenius_cost,
    propagate,
    psi_ff,
    trap_coefficient,
    vbar_for_target,
)

def _quantities(model, kind, l0, l1, t_ff, beta, n_particles, c):
    """Every checked quantity of the scenario scaled by c: fidelity, then costs times c^2."""
    l0, l1, t_ff, beta = c * l0, c * l1, c * c * t_ff, c * c * beta
    traj = ControlTrajectory(kind, l0, t_ff, vbar=vbar_for_target(kind, l0, l1, t_ff))
    n = model.n_min
    psi0 = psi_ff(model, n, 0.0, traj, model.default_grid(l0, 64))
    t_run = t_ff / 8  # 128 steps: a short run
    out = propagate(psi0, traj, trap_coefficient(model, traj), t_run / 128, t_run)
    thermal, cold = ThermalEnsemble(beta, n_particles), ThermalEnsemble(math.inf, n_particles)
    rep = cost_ff_closed(model, traj, thermal)
    costs = [
        rep.quadrature_value,
        rep.closed_form_value,
        rep.published_value,
        frobenius_cost(model, traj, cold, t_ff).value,
        *(_trace_cost(model, traj, ens) for ens in (cold, thermal)),
    ]
    if isinstance(model, HarmonicModel):
        costs.append(cost_ie(ControlTrajectory(QUINTIC, l0, t_ff, vbar=vbar_for_target(QUINTIC, l0, l1, t_ff)), beta))
    return [fidelity(out, psi_ff(model, n, t_run, traj, out.grid)), rep.published_ratio] + [
        None if v is None else c * c * v for v in costs
    ]


def _trace_cost(model, traj, ens):
    """cost_ff_numeric on 256 points, or None where its trace check rejects the grid: a decision that must scale too."""
    try:
        return cost_ff_numeric(model, traj, ens, n_nodes=8, n_points=256)
    except ValueError as exc:
        assert str(exc).startswith("trace grid too coarse at")
        return None


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from([BoxModel(), HarmonicModel()]),
    kind=st.sampled_from([POLYNOMIAL, TRIGONOMETRIC]),
    l0=st.floats(0.7, 1.4),
    ratio=st.floats(0.6, 1.6),
    t_ff=st.floats(0.5, 1.5),
    beta=st.floats(2.0, 8.0),
    n_particles=st.integers(1, 3),
    k=st.integers(-2, 2),
)
def test_scaled_scenario_scales_every_layer(model, kind, l0, ratio, t_ff, beta, n_particles, k):
    args = (model, kind, l0, ratio * l0, t_ff, beta, n_particles)
    assert _quantities(*args, 4.0**k) == _quantities(*args, 1.0)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _edge_grid(c, edge):
    """A grid of 64 points on which the oscillator ground state at l = c falls to edge times its peak at both ends."""
    half = c * math.sqrt(2.0 * math.log(1.0 / edge))
    return Grid(-half, half, 64)


def _table_accepts(c, edge):
    ramp = ControlTrajectory(ADIABATIC_LINEAR, c, c * c, vbar=0.0)
    return _accepts(lambda: psi_ff(HarmonicModel(), 0, 0.0, ramp, _edge_grid(c, edge)))


def _propagation_accepts(c, edge):
    grid = _edge_grid(c, edge)
    xi = grid.points / c
    psi0 = ComplexField(grid, np.pi**-0.25 / math.sqrt(c) * np.exp(-0.5 * xi * xi) + 0j)
    ramp = ControlTrajectory(ADIABATIC_LINEAR, c, c * c * 4e-3, vbar=0.0)
    coefficient = trap_coefficient(HarmonicModel(), ramp, driven=False)
    return _accepts(lambda: propagate(psi0, ramp, coefficient, c * c * 1e-3, c * c * 4e-3))


# the ground state's peak is pi^-1/4 / sqrt(c): compared with the absolute limits 1e-6 and
# 1e-5, grid ends at these fractions of it passed (or failed) at c = 1 and failed at c = 4^-2
# (or passed at c = 4 and 4^2)
@pytest.mark.parametrize("k", [-2, -1, 1, 2])
@pytest.mark.parametrize(
    "accepts, edge",
    [(_table_accepts, 0.5e-6), (_table_accepts, 2e-6), (_propagation_accepts, 5e-6), (_propagation_accepts, 2e-5)],
    ids=["table_inside", "table_outside", "psi0_inside", "psi0_outside"],
)
def test_edge_limits_do_not_depend_on_the_unit_of_length(accepts, edge, k):
    assert accepts(4.0**k, edge) == accepts(1.0, edge) == (edge < 1e-6 if accepts is _table_accepts else edge < 1e-5)
