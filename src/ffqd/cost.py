"""Energy cost of acceleration: thermal traces, closed forms, Frobenius norm.

Both printed internal energies have the form scale invariance forces,
C/l^2 + K (l_dot^2 - l l_ddot); each trap supplies only its constants
(_printed_constants).  Three independent routes to the drive part of the
time-averaged cost are kept side by side and must agree:

  (a) direct time quadrature of the drive term of the internal energy,
  (b) the integration-by-parts identity
          (1/T) int K (l_dot^2 - l l_dd) dt = (2K/T) int l_dot^2 dt,
      valid because every smooth ramp has l_dot = 0 at the endpoints,
  (c) the resulting constants: int l_dot^2 dt = vbar^2 T/30 (polynomial),
      (3/2) vbar^2 T (trigonometric) and (10/7) vbar^2 T (quintic).

The literature's printed closed-form coefficients are treated as claims under
test: CostReport carries the quadrature value (primary) and the printed
form, and records their ratio instead of hiding a disagreement.  The closed
forms take a time or a time array; cost_ff, the one ramp average, calls them
once per Gauss-Legendre panel on its node array.

The numeric thermal trace sum_n f_n <psi_n| H_FF |psi_n> that judges them is
evaluated in real arithmetic.  The eigenamplitudes phi_n are real and the
gauge phase theta_j = a x_j^2 is common to every level, so
Re(conj psi_n,j psi_n,k) = phi_n,j phi_n,k cos(theta_k - theta_j).  The
kinetic operator is the propagator's, the three-point second difference with
hard walls at both grid ends, so the occupation-weighted trace needs only
rho0_j = sum_n f_n phi_n,j^2 and rho1_j = sum_n f_n phi_n,j phi_n,j+1; no
complex level x grid table is formed.

The trace is pooled over the time nodes of a whole sweep of ramps
(_node_traces) and split in two.  The node moments (rho0, and rho1 before
its cosine) depend only on the control value l and the node's grid; the
per-ramp finish (_trace_finish) adds the gauge phase g x^2, g = l_dot / 2l,
the potential a(t) x^2, the stencil and the trapezoid rule.  Both smooth
ramps have the form l0 + (l1 - l0) F(t/t_ff), so the Gauss-Legendre nodes of
a t_ff sweep fall on the same control values (bit for bit at power-of-two
multiples of t_ff, whose node times and vbar scale exactly, and at many
nodes of other t_ff), and the moments are formed once per distinct value.
Energies are E_n(l) = E_n(1) / l^2, mu comes from one row-wise bisection,
and the model forms the moments in blocks of nodes (spectra): the box from
one sine table at L = 1, the oscillator streamed on the mirror half of its
fixed grid, sized by its ramp's widest l.
cost_ff_numeric is the one-ramp call and internal_energy_numeric the
one-node call of this pass.  The Frobenius cost needs no grid.

Whether a grid resolves the trace is measured, for both traps alike: these
states' trace is sum_n f_n [E_n(1)/l^2 + (l_dot^2 - l l_ddot) X_n/2] with
X_n = <n|xi^2|n> at l = 1 (Deffner, Jarzynski & del Campo, PRX 4, 021013
(2014)); a node whose grid trace (the reported number) misses it by more
than _TRACE_TOL of the sum with |l_dot^2 - l l_ddot| raises.

Three population conventions meet in the comparisons, and they differ at
finite temperature:
  - the trace re-solves mu from the fixed particle number at every node, so
    its Fermi-Dirac occupations re-thermalise as l(t) moves;
  - the unitary fast-forward dynamics (the propagator's) carries each
    level's t = 0 occupation f_n(0) unchanged; at T = 0 both fill the
    lowest N levels and coincide;
  - ie.cost_ie weights the inverse-engineering energy, the oscillator's
    fast-forward energy on the quintic ramp, with the one-particle Boltzmann
    factor coth(beta omega0 / 2) / 2 of the initial trap: it differs from
    cost_ff_numeric only in ramp shape and in population.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numutil import gauss_legendre, legendre_rule
from .core import _require_count, _require_positive
from .fastforward import _v_ff_coefficient
from .spectra import _CHUNK_NODES, BoxModel, Model
from .trajectory import POLYNOMIAL, QUINTIC, TRIGONOMETRIC, ControlTrajectory

_F_TOL = 1e-12  # occupation below which a level is outside the truncated trace


def _require_beta(beta: float) -> None:
    """The rule of every inverse temperature: positive, math.inf for T = 0."""
    if not beta > 0:  # False for NaN too
        raise ValueError(f"beta must be positive (inf for zero temperature), got {beta!r}")


@dataclass(frozen=True)
class ThermalEnsemble:
    """Fermi-Dirac ensemble with fixed particle number.

    beta may be math.inf for the zero-temperature limit.  n_particles is an
    integer >= 1, so the printed constants, which divide by N, are defined;
    the thermal-trace routines solve mu from it at each evaluation time.
    """

    beta: float
    n_particles: int

    def __post_init__(self):
        _require_beta(self.beta)
        _require_count(self.n_particles, "n_particles", 1)

    @property
    def temperature(self) -> float:
        return 0.0 if math.isinf(self.beta) else 1.0 / self.beta


def _fermi_factor(z):
    """1 / (exp(z) + 1) for z = beta (E - mu): the logistic function of -z.

    exp(z) overflows to inf above z = 709.78, which gives the exact limit 0;
    callers hold np.errstate(over="ignore") around the call.
    """
    return 1.0 / (np.exp(z) + 1.0)


def _fermi(e, beta: float, mu: float):
    e = np.asarray(e, dtype=float)
    if math.isinf(beta):
        out = np.where(e < mu, 1.0, np.where(e > mu, 0.0, 0.5))
    else:
        with np.errstate(over="ignore"):
            out = _fermi_factor(beta * (e - mu))
    return float(out) if out.ndim == 0 else out


_MU_TOL = 1e-10  # occupation-sum residual the bisection accepts at once


def _excess(e, beta: float, mu, n_particles: int):
    """sum_n f_n - N along the last axis of e, one mu per row.

    The occupations are formed exactly as _fermi forms them, so the accepted
    residual is that of the occupations the trace then uses.
    """
    return _fermi_factor(beta * (e - np.asarray(mu)[..., None])).sum(axis=-1) - n_particles


def _mu_at_one_ulp(e: np.ndarray, beta: float, n_particles: int, lo: float, hi: float) -> float:
    """mu of one spectrum whose bisection bracket [lo, hi] is two adjacent doubles.

    Near a degenerate level at large beta, sum f moves by more than 1e-10
    across one ulp of mu.  The better end is accepted if its residual is
    within what one ulp can reach, beta ulp(mu) sum f (1 - f), plus the
    rounding of the sum (2 n_levels eps N); RuntimeError above that.
    """
    g, mu = min((abs(float(_excess(e, beta, m, n_particles))), m) for m in (lo, hi))
    f = _fermi_factor(beta * (e - mu))
    rounding = 2.0 * e.size * np.finfo(float).eps * n_particles
    reach = beta * (hi - lo) * float(np.sum(f * (1.0 - f))) + rounding
    if g > reach:
        raise RuntimeError(f"mu bisection stalled with residual {g:.3e} above the one-ulp reach {reach:.3e}")
    return mu


def _solve_mu_rows(e: np.ndarray, beta: float, n_particles: int) -> np.ndarray:
    """Chemical potential of each row of e (ascending energies), all rows in one bisection.

    Each row bisects until its residual is below 1e-10 or its bracket is two
    adjacent doubles, where the one-ulp rule of _mu_at_one_ulp decides.  Row
    sums are the contiguous 1-D sums, so every mu is bit-identical to
    solve_mu's for that row alone.
    """
    if not n_particles < e.shape[1]:
        raise ValueError(f"need n_particles < {e.shape[1]}, got {n_particles}")
    if not np.all(np.isfinite(e)):  # a bracket padded by inf or NaN would never close
        raise ValueError("energies must be finite")
    if math.isinf(beta):
        return 0.5 * (e[:, n_particles - 1] + e[:, n_particles])
    pad = 50.0 / beta + (e[:, -1] - e[:, 0])  # no absolute energy: the bracket scales with e and 1/beta
    lo, hi = e[:, 0] - pad, e[:, -1] + pad
    mu = np.empty(e.shape[0])
    rows = np.arange(e.shape[0])
    with np.errstate(over="ignore"):
        while rows.size:
            mid = 0.5 * (lo + hi)
            g = _excess(e[rows], beta, mid, n_particles)
            done = np.abs(g) < _MU_TOL
            mu[rows[done]] = mid[done]
            adjacent = ~done & ((mid == lo) | (mid == hi))
            for i in np.flatnonzero(adjacent):
                mu[rows[i]] = _mu_at_one_ulp(e[rows[i]], beta, n_particles, lo[i], hi[i])
            up = g > 0
            live = ~done & ~adjacent
            rows, lo, hi = rows[live], np.where(up, lo, mid)[live], np.where(up, mid, hi)[live]
    return mu


def solve_mu(energies, beta: float, n_particles: int) -> float:
    """Chemical potential with sum_n f_n = n_particles, by bisection.

    The occupation sum is monotone increasing in mu, so the root is unique at
    finite beta; at beta = inf any point of the zero-temperature plateau is
    returned, for finite energies only (ValueError).  beta and n_particles
    follow ThermalEnsemble's rules, and n_particles is below the number of
    energies (ValueError).  Residual tolerance 1e-10, or, where no double
    meets it, the one-ulp reach (RuntimeError beyond it).
    """
    ThermalEnsemble(beta, n_particles)  # its rules for beta and n_particles
    e = np.sort(np.asarray(energies, dtype=float))
    return float(_solve_mu_rows(e[None, :], beta, n_particles)[0])


# ---------------------------------------------------------------------------
# closed-form internal energies and their printed constants

def coefficient_A(ens: ThermalEnsemble, l0: float) -> float:
    """Printed thermal constant N^2 [1 + (4 pi^2/3) l0^2 (m k T/hbar^2)^2 (l0/N)^2].

    Truncated exactly at the printed term; a low-temperature expansion whose
    validity requires k T well below the level spacing times N.
    """
    N = ens.n_particles
    kT = ens.temperature
    r = l0 / N
    corr = (4.0 * np.pi**2 / 3.0) * (l0 * l0) * (kT * kT) * (r * r)
    return N * N * (1.0 + corr)


def _thermal_l4(ens: ThermalEnsemble, L):
    # powers of L are products here and in coefficient_A: a Python float's ** rounds
    # apart from numpy's, products keep a node array bit-identical to per-node calls
    r2 = (L / ens.n_particles) * (L / ens.n_particles)
    return (ens.temperature * ens.temperature) * (r2 * r2)


def coefficients_B(ens: ThermalEnsemble, L):
    """Printed box constants (B1, B2), each truncated at its printed term; L may be an array."""
    N = ens.n_particles
    th = _thermal_l4(ens, L)
    b1 = (np.pi**2 * N**3 / 24.0) * (1.0 + (24.0 / np.pi**2) * th)
    b2 = (N / 6.0) * (1.0 + (16.0 / (3.0 * np.pi**2)) * th)
    return b1, b2


def box_drive_prefactor(ens: ThermalEnsemble, L):
    """Drive prefactor of the box internal energy, with its full two-layer bracket.

    This differs from the printed B2 (whose bracket drops the 6/(pi N)^2
    layer); the internal energy is evaluated with the bracket as printed in
    its own equation, and this constant is what the cost oracle identities
    use.  L may be an array.
    """
    N = ens.n_particles
    inner = 1.0 + (16.0 / (3.0 * np.pi**2)) * _thermal_l4(ens, L)
    return (N / 6.0) * (1.0 + (6.0 / (np.pi**2 * N * N)) * inner)


def _printed_constants(model: Model, ens: ThermalEnsemble, l0: float):
    """(of_l, line, named): (C, K) of the trap's printed energy at l, of its printed cost line, and by name.

    Box: (B1(l), box_drive_prefactor(l)) and the line (B1(l0)/24, B2(l0)/6).
    Oscillator: (A/4, A/8), A = coefficient_A(ens, l0), and line None: its
    printed cost line is its closed form.
    """
    if isinstance(model, BoxModel):
        b1, b2 = coefficients_B(ens, l0)
        named = {"B1": b1, "B2": b2, "B2_drive": box_drive_prefactor(ens, l0)}
        return lambda l: (coefficients_B(ens, l)[0], box_drive_prefactor(ens, l)), (b1 / 24.0, b2 / 6.0), named
    a = coefficient_A(ens, l0)
    return lambda l: (a / 4.0, a / 8.0), None, {"A": a}


def internal_energy_closed(model: Model, traj: ControlTrajectory, t, ens: ThermalEnsemble):
    """(C/l^2, K (l_dot^2 - l l_ddot)) of the printed internal energy at a time or a time array.

    The box's B1/L^2 - B2 (L L_dd - L_dot^2), both brackets as printed; the
    oscillator's A (1/4L^2 - L L_dd/8 + L_dot^2/8), A at l0 = l(0).
    """
    l, ld, ldd = traj.value(t), traj.velocity(t), traj.acceleration(t)
    c, k = _printed_constants(model, ens, traj.value(0.0))[0](l)
    return c / (l * l), k * (ld * ld - l * ldd)


# ---------------------------------------------------------------------------
# numeric thermal trace (the oracle the closed forms are judged against)

def _trace_finish(rho0, rho1, theta: np.ndarray, v: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """sum_n f_n <psi_n| -D2/2 + v |psi_n> for psi_n = phi_n exp(i theta), from the moments, node by node.

    rho0 and rho1 are the level sums of spectra._trace_moments or a model's
    _moment_blocks; they, theta and v are (nodes, points) and dx is (nodes,).

    D2 is the propagator's kinetic operator: the three-point second
    difference with hard walls at both grid ends, where the kinetic row is 0.
    <.|.> is the trapezoid rule, in the real-arithmetic form of the module
    docstring.  The box amplitudes are exactly 0 at its walls; what the walls
    cost an oscillator node is measured by the trace check (_check_traces).
    """
    rho1 = rho1 * np.cos(np.diff(theta))
    k = np.zeros_like(rho0)
    k[:, 1:-1] = rho1[:, 1:] + rho1[:, :-1] - 2.0 * rho0[:, 1:-1]
    dx = dx[:, None]
    y = (-0.5 / (dx * dx)) * k + v * rho0
    return (dx * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=-1)  # trapezoid, row by row


_MAX_LEVELS = 4096  # the trace's level cutoff doubles at most up to this


def _occupied_levels(model: Model, ens: ThermalEnsemble, l: np.ndarray):
    """Occupations and top levels of the trace at control values l.

    Returns (f, n_top): f[i] holds node i's occupations of the levels from
    model.n_min up, zero above its own cutoff, and n_top[i] is its top
    level.  Energies scale as E_n(l) = E_n(1) / l^2, and mu is solved for all
    nodes at once.  Every node starts from max(4N + 16, 64) levels, the
    nodes whose top occupation is still >= 1e-12 double theirs (ValueError
    past 4096 levels), and each node keeps the levels up to two past its
    last occupation >= 1e-12, and at least N + 1.
    """
    n_max = max(4 * ens.n_particles + 16, 64)
    rows = np.arange(l.size)
    kept = [None] * l.size  # each node's occupations up to its cutoff
    while True:
        ns = model.level_numbers(n_max)
        e = model.energy(ns, l[rows, None])
        f = _fermi(e, ens.beta, _solve_mu_rows(e, ens.beta, ens.n_particles)[:, None])
        ok = f[:, -1] < _F_TOL
        last = np.where(f >= _F_TOL, np.arange(ns.size), 0).max(axis=1)
        keep = np.minimum(np.maximum(last + 2, ens.n_particles + 1), ns.size)
        for i in np.flatnonzero(ok):
            kept[rows[i]] = f[i, : keep[i]]
        rows = rows[~ok]
        if not rows.size:
            break
        if n_max >= _MAX_LEVELS:
            raise ValueError(f"no cutoff below {_MAX_LEVELS} reaches occupation < {_F_TOL:g}")
        n_max *= 2
    occ = np.zeros((l.size, max(k.size for k in kept)))
    for i, k in enumerate(kept):
        occ[i, : k.size] = k
    return occ, ns[[k.size - 1 for k in kept]]


def _node_traces(
    model: Model,
    trajs: Sequence[ControlTrajectory],
    ts: Sequence[np.ndarray],
    ens: ThermalEnsemble,
    n_points: int,
):
    """The thermal trace of internal_energy_numeric at the times of a sweep of ramps, in one pass.

    trajs is a sequence of ramps and ts the matching sequence of time arrays;
    one array of traces per ramp is returned.  The moments depend on a node's
    l and its ramp's widest l (traj._l_max sizes the oscillator's grid), so
    they are formed once per distinct (l, l_max), by exact equality, in order
    of first appearance.  model._moment_blocks(l_max, l, f, n_top, n_points)
    yields them in blocks (nodes, x, rho0, rho1), each node's on its grid x,
    and forms every row on its own, so every trace is bit-identical to its
    ramp's own call.  The finish takes blocks of at most _CHUNK_NODES of the
    sweep's nodes; _check_traces then runs on all of them in sweep order.
    """
    ts = [np.asarray(t, dtype=float) for t in ts]
    _require_count(n_points, "n_points", 8)
    offsets = list(itertools.accumulate((t.size for t in ts), initial=0))
    at = (ControlTrajectory.value, ControlTrajectory.velocity, ControlTrajectory.acceleration)
    ls, ld, ldd = (np.concatenate([q(traj, t) for traj, t in zip(trajs, ts)]) for q in at)  # every sweep node
    g, a = ld / (2.0 * ls), model._v0_coefficient(ls) + _v_ff_coefficient(ldd, ls)  # theta = g x^2, V = a x^2
    l_maxs = np.repeat([traj._l_max for traj in trajs], [t.size for t in ts])
    slot = {}  # distinct (l, l_max) -> its index, by exact equality, in order of first appearance
    inv = [slot.setdefault(key, len(slot)) for key in zip(ls.tolist(), l_maxs.tolist())]
    l, l_max = (np.array(v) for v in zip(*slot))
    f, n_top = _occupied_levels(model, ens, l)
    nodes_of = [[] for _ in slot]  # the nodes of the sweep at each distinct node
    for i, k in enumerate(inv):
        nodes_of[k].append(i)
    out = np.empty(offsets[-1])
    for nodes, x, *moments in model._moment_blocks(l_max, l, f, n_top, n_points):
        dx = (x[:, -1] - x[:, 0]) / (n_points - 1)
        rows = [(i, j) for j, k in enumerate(nodes.tolist()) for i in nodes_of[k]]
        for b in range(0, len(rows), _CHUNK_NODES):
            r, j = np.array(rows[b : b + _CHUNK_NODES]).T  # sweep node, its row in the block
            xj = x[j]
            out[r] = _trace_finish(*(m[j] for m in moments), g[r, None] * xj * xj, a[r, None] * xj**2, dx[j])
    _check_traces(model, out, np.concatenate(ts), ls, ld * ld - ls * ldd, f, inv)
    return [out[start:stop] for start, stop in zip(offsets, offsets[1:])]


_TRACE_TOL = 5e-2  # |grid - grid-free trace| a node may reach, as a fraction of its scale


def _check_traces(model: Model, out, t, l, drive, f, inv) -> None:
    """ValueError at the first sweep node off the grid-free trace by _TRACE_TOL of its scale. drive: l_dot^2 - l l_ddot."""
    ns = model.level_numbers(model.n_min + f.shape[1] - 1)
    # f is zero past each distinct node's own levels: these sum over them alone
    conf, xi2 = f @ model._unit_energy(ns), f @ model._unit_xi2(ns)
    conf, xi2 = conf[inv] / (l * l), 0.5 * xi2[inv]
    err, bound = np.abs(out - (conf + drive * xi2)), _TRACE_TOL * (conf + np.abs(drive) * xi2)
    bad = np.flatnonzero(~(err <= bound))  # NaN fails too
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"trace grid too coarse at t={t[i]:.6g}, l={l[i]:.6g}: |grid - exact| {err[i]:.3e} "
            f"exceeds {bound[i]:.3e}, {_TRACE_TOL:g} of the node's scale"
        )


def internal_energy_numeric(
    model: Model,
    traj: ControlTrajectory,
    t: float,
    ens: ThermalEnsemble,
    n_points: int = 2048,
) -> float:
    """Truncated thermal trace sum_n f_n <psi_n| H_FF |psi_n> on a grid.

    The chemical potential is re-solved from the fixed particle number at the
    instantaneous spectrum; each accelerated state carries the gauge phase
    exp(i theta), theta = a x^2 with a = m l_dot / 2 hbar l, and the matrix
    element is taken with the propagator's second-order finite-difference
    kinetic operator (walls at both grid ends) plus V0 + V_FF.  The sum is
    formed in real arithmetic and checked against its grid-free form
    (module docstring; ValueError).  This is the one-node call of the pooled
    trace that cost_ff_numeric runs on all its nodes.
    """
    return float(_node_traces(model, [traj], [np.array([float(t)])], ens, n_points)[0][0])


# ---------------------------------------------------------------------------
# time-averaged costs

def cost_ff(u_of_t: Callable[[np.ndarray], np.ndarray], t_ff: float, rel_tol: float = 1e-10) -> float:
    """Time average (1/T) int_0^T u(t) dt by 32/64-node Gauss-Legendre panels.

    u_of_t takes the array of a panel's nodes and is called once per panel.
    A panel whose 32/64-node difference exceeds its share of rel_tol is
    halved; RuntimeError if the quadrature does not converge, ValueError
    unless t_ff and rel_tol are positive and finite.  Every ramp average of
    the package except cost_ff_numeric's fixed rule and frobenius_cost's
    split panels goes through here: the closed forms and ie.cost_ie.
    """
    _require_positive(t_ff, "t_ff")
    return gauss_legendre(u_of_t, 0.0, t_ff, rel_tol)[0] / t_ff


# (1/T) int (l_dot^2 - l l_ddot) dt / vbar^2 = (2/T) int l_dot^2 dt / vbar^2 of each smooth ramp
_DRIVE_SHAPE = {POLYNOMIAL: 1.0 / 15.0, TRIGONOMETRIC: 3.0, QUINTIC: 20.0 / 7.0}


FrobeniusCost = namedtuple("FrobeniusCost", ["value", "cutoff"])


@dataclass(frozen=True)
class CostReport:
    """Cost of one ramp: quadrature value (primary), closed forms, constants.

    quadrature_value is the artifact's own number.  closed_form_value uses the
    integration-by-parts drive constant and must agree with the quadrature at
    the declared tolerance (exact while the drive constant is fixed).
    published_value is the printed cost line evaluated verbatim;
    published_ratio compares the quadrature against it, recording any
    disagreement rather than hiding it.  The four values are the row
    cost_curve.csv prints.
    """

    quadrature_value: float
    closed_form_value: float
    published_value: float
    published_ratio: float
    constants: dict


def _require_smooth_ramp(traj: ControlTrajectory) -> None:
    if traj.kind not in _DRIVE_SHAPE:
        raise ValueError("cost closed forms need a polynomial, trigonometric or quintic ramp")


def cost_ff_closed(model: Model, traj: ControlTrajectory, ens: ThermalEnsemble) -> CostReport:
    """CostReport of a smooth ramp from the printed internal energy of the model's trap.

    The closed form is the confinement average plus the drive by parts,
    K(l0) vbar^2 _DRIVE_SHAPE, which freezes the box's finite-temperature K(l)
    at l0.  The printed line is the same form with the printed constants;
    where those are the closed form's (the oscillator), it is the closed form.
    """
    _require_smooth_ramp(traj)
    T, l0 = traj.t_ff, traj.value(0.0)
    of_l, printed, named = _printed_constants(model, ens, l0)

    def line(c_of_l, k):
        conf = cost_ff(lambda s: c_of_l(traj.value(s)) / traj.value(s) ** 2, T, 1e-12)
        return conf + k * (traj.vbar * traj.vbar) * _DRIVE_SHAPE[traj.kind]

    quadrature = cost_ff(lambda s: sum(internal_energy_closed(model, traj, s, ens)), T)
    closed = line(lambda l: of_l(l)[0], of_l(l0)[1])
    published = closed if printed is None else line(lambda l: printed[0], printed[1])
    return CostReport(quadrature, closed, published, quadrature / published, named)


def cost_ff_numeric(
    model: Model,
    traj: ControlTrajectory,
    ens: ThermalEnsemble,
    n_nodes: int = 64,
    n_points: int = 1024,
) -> float:
    """Time average of the numeric thermal trace: the protocol's primary cost.

    Fixed-order Gauss-Legendre in time rather than adaptive quadrature: the
    trace integrand is smooth but carries a ~1e-9 grid-quadrature noise floor
    that adaptive refinement would chase forever.  This is the one-ramp call
    of the pooled trace (see _node_traces).
    """
    return _costs_ff_numeric(model, [traj], ens, n_nodes, n_points)[0]


def _costs_ff_numeric(
    model: Model,
    trajs: Sequence[ControlTrajectory],
    ens: ThermalEnsemble,
    n_nodes: int = 64,
    n_points: int = 1024,
) -> list[float]:
    """cost_ff_numeric of each ramp of a sweep, all nodes in one pooled trace.

    A t_ff sweep shares most of its node moments (module docstring); each
    cost is bit-identical to its ramp's own call.
    """
    _require_count(n_nodes, "n_nodes", 1)
    nodes, weights = legendre_rule(n_nodes)
    ts = [0.5 * traj.t_ff * (nodes + 1.0) for traj in trajs]
    return [float(np.dot(weights, tr) * 0.5) for tr in _node_traces(model, trajs, ts, ens, n_points)]


_DIP_SCAN = 64  # intervals of the scan for the dips of the Frobenius norm
_DIP_GRADING = 30  # panel edges at 1/2, 1/4, ... of the way from either ramp end to a dip


def frobenius_cost(
    model: Model,
    traj: ControlTrajectory,
    ens_or_cutoff: ThermalEnsemble | int,
    t_ff: float,
    n_points: int = 1024,
    rel_tol: float = 1e-10,
) -> FrobeniusCost:
    """Time-averaged Frobenius norm of H0 + V_FF in the instantaneous eigenbasis.

    The untruncated norm diverges for quadratic drives, so a basis cutoff is
    mandatory (an integer >= 2) and is reported with the value.  An ensemble
    gives the cutoff from its occupation tail at the widest l, the larger of
    l(0) and l(t_ff).
    At each node H = diag(E_n(1) / l^2) + c l^2 X, c = -(m/2) l_ddot / l,
    with X = <k|xi^2|m> the exact l = 1 matrix of the levels up to the
    cutoff (box 1..cutoff, oscillator 0..cutoff, model._unit_x2), so
    ||H||^2 = sum E_n(1)^2 / l^4 + 2 c sum E_n(1) X_nn + c^2 l^4 ||X||^2:
    three sums per cutoff serve every node, and no grid is built.  n_points
    is checked (>= 8) as the trace checks it, rel_tol before the dip scan;
    its default is cost_ff's, as at 1e-8 one panel can miss by 1e-9.
    The whole ramp is averaged: t_ff must be traj.t_ff (ValueError otherwise).
    l^4 ||H||^2 dips to (ee xx - ex^2)/xx where u = c l^4 = -ex/xx, for the
    oscillator (E_n(1) = X_nn) in a vertex far narrower than eight halvings
    of a panel resolve.  So the Gauss-Legendre panels are split at each dip,
    a sign change of u + ex/xx on a scan bisected to adjacent doubles, and at
    2^-k, k <= _DIP_GRADING, of the way to it from either ramp end.
    """
    _require_count(n_points, "n_points", 8)
    _require_positive(rel_tol, "rel_tol")
    if t_ff != traj.t_ff:
        raise ValueError(f"t_ff {t_ff!r} must be the ramp's own t_ff {traj.t_ff!r}")
    if isinstance(ens_or_cutoff, ThermalEnsemble):
        _, n_top = _occupied_levels(model, ens_or_cutoff, np.array([traj._l_max]))
        m_cut = max(int(n_top[0]), 2)
    else:
        _require_count(ens_or_cutoff, "Frobenius cutoff", 2)
        m_cut = int(ens_or_cutoff)
    ns = model.level_numbers(m_cut)
    e, x2 = model._unit_energy(ns), model._unit_x2(ns)
    ee, ex, xx = e @ e, e @ np.diag(x2), np.sum(x2 * x2)

    def h_norm(ts: np.ndarray) -> np.ndarray:
        l = traj.value(ts)
        c = _v_ff_coefficient(traj.acceleration(ts), l)  # V_FF = c x^2
        l2 = l * l
        return np.sqrt(ee / (l2 * l2) + 2.0 * c * ex + (c * l2) ** 2 * xx)

    def dip(ts):  # c l^4 + ex/xx, which changes sign where ||H|| dips
        l = traj.value(ts)
        return _v_ff_coefficient(traj.acceleration(ts), l) * (l * l) ** 2 + ex / xx

    scan = np.linspace(0.0, t_ff, _DIP_SCAN + 1)
    below, scan = dip(scan) < 0.0, scan.tolist()
    edges = {0.0, t_ff}
    for i in np.flatnonzero(below[:-1] != below[1:]):
        lo, hi = scan[i], scan[i + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if (dip(mid) < 0.0) == below[i] else (lo, mid)
        edges.update(mid + (end - mid) * 0.5**k for end in (0.0, t_ff) for k in range(1, _DIP_GRADING + 1))
        edges.add(mid)
    edges = sorted(edges)
    value = sum(gauss_legendre(h_norm, a, b, rel_tol)[0] for a, b in zip(edges, edges[1:]))
    return FrobeniusCost(value=value / t_ff, cutoff=m_cut)
