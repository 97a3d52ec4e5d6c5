"""Scale covariance of every layer, through the public API.

Both traps are scale-invariant, V0(x, l) = l^-2 U(x/l), so the copy of a
scenario with (l, t_ff, dt, beta) -> (c l, c^2 t_ff, c^2 dt, c^2 beta), and
for the oscillator's inverse-engineering protocol omega -> omega / c^2, has
every energy and cost scaled by c^-2 and every fidelity unchanged.  On the
grid the symmetry holds too: every grid, frame and Cayley coefficient scales
with it.  With c = 4^k every scale factor, and sqrt(c) in the frame map, is a
power of two, so the results agree bit for bit.  A stray absolute constant,
unit or mis-scaled grid rule in any layer breaks this.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd import (
    POLYNOMIAL,
    TRIGONOMETRIC,
    BoxModel,
    ControlTrajectory,
    ErmakovSolution,
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
        cost_ff_numeric(model, traj, cold, n_nodes=8, n_points=256),
        cost_ff_numeric(model, traj, thermal, n_nodes=8, n_points=256),
    ]
    if isinstance(model, HarmonicModel):
        costs.append(cost_ie(ErmakovSolution(1.0 / (l0 * l0), 1.0 / (l1 * l1), t_ff), beta))
    return [fidelity(out, psi_ff(model, n, t_run, traj, out.grid)), rep.published_ratio] + [c * c * v for v in costs]


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
