"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.

Criterion 8 is implemented exactly as stated and is expected to FAIL: the
printed large-N expansion of the box internal energy carries a 1/24 density-
of-states prefactor that corresponds to doubly occupied levels, while the
module's thermal trace is a plain (spinless) Fermi-Dirac sum, as its own
contracts specify.  The honest measured ratios are frozen in the companion
regression test below; see the repository notes for the full analysis.
"""

import math
import subprocess
import sys
import time
import numpy as np
import pytest
from scipy.integrate import quad

from ffqd.core import Grid, inner_product
from ffqd.cost import (
    ThermalEnsemble,
    box_drive_prefactor,
    coefficient_A,
    cost_ff,
    cost_ff_closed,
    cost_ff_numeric,
    internal_energy_closed,
    internal_energy_numeric,
)
from ffqd.fastforward import psi_ff, theta_numeric, trap_coefficient
from ffqd.ie import cost_ie, ermakov_residual
from ffqd.propagator import fidelity, propagate
from ffqd.spectra import BoxModel, HarmonicModel
from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory

from helpers import BOTH_RAMPS, box_ramp, ho_ramp, ie_ramp, src_env


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_oscillator_fast_forward_exactness():
    t_start = time.monotonic()
    traj = ho_ramp(POLYNOMIAL)  # omega 1 -> 10 over T = 1
    model = HarmonicModel()
    grid = model.default_grid(1.0, 1024)
    psi0 = psi_ff(model, 0, 0.0, traj, grid)
    out = propagate(psi0, traj, trap_coefficient(model, traj), 1e-4, 1.0)
    target = psi_ff(model, 0, 1.0, traj, out.grid)
    fid = fidelity(out, target)
    out0 = propagate(psi0, traj, trap_coefficient(model, traj, driven=False), 1e-4, 1.0)
    fid0 = fidelity(out0, target)
    elapsed = time.monotonic() - t_start

    ok = fid >= 1.0 - 1e-4 and (1.0 - fid0) >= 10.0 * (1.0 - fid) and elapsed < 60.0
    report(1, ok, f"fidelity={fid:.8f}, control loss x{(1 - fid0) / (1 - fid):.0f}, {elapsed:.1f}s")
    assert fid >= 1.0 - 1e-4
    assert (1.0 - fid0) >= 10.0 * (1.0 - fid)
    assert elapsed < 60.0


def test_criterion_02_box_fast_forward_exactness():
    results = []
    for kind in BOTH_RAMPS:
        traj = box_ramp(kind)  # L 1 -> 10 over T = 1
        grid = Grid(0.0, 1.0, 2048)
        psi0 = psi_ff(BoxModel(), 1, 0.0, traj, grid)
        out = propagate(psi0, traj, trap_coefficient(BoxModel(), traj), 5e-5, 1.0)
        fid = fidelity(out, psi_ff(BoxModel(), 1, 1.0, traj, out.grid))
        nrm = float(np.sqrt(np.trapezoid(np.abs(out.values) ** 2, dx=out.grid.dx)))
        results.append((kind, fid, abs(nrm - 1.0)))
    ok = all(f >= 1.0 - 1e-3 and d < 1e-8 for _, f, d in results)
    report(2, ok, "; ".join(f"{k}: fidelity={f:.7f}, norm_drift={d:.1e}" for k, f, d in results))
    for kind, fid, drift in results:
        assert fid >= 1.0 - 1e-3, kind
        assert drift < 1e-8, kind


def test_criterion_03_theta_closed_form():
    L = 1.0
    grid = Grid(0.0, L, 2048)
    worst = 0.0
    for n in range(1, 6):
        amp = lambda l, n=n: np.sqrt(2.0 / l) * np.sin(n * np.pi * grid.points / l)
        theta = theta_numeric(amp, L, grid)
        worst = max(worst, float(np.max(np.abs(theta - 0.5 * grid.points**2 / L))))
    report(3, worst < 1e-6, f"max |theta - x^2/2L| over n=1..5: {worst:.2e}")
    assert worst < 1e-6


def test_criterion_04_oscillator_cost_coefficients():
    ens = ThermalEnsemble(beta=2.0, n_particles=2)
    details = []
    for kind, shape in ((POLYNOMIAL, 1.0 / 120.0), (TRIGONOMETRIC, 3.0 / 8.0)):
        traj = ho_ramp(kind)
        a_coeff = coefficient_A(ens, traj.value(0.0))
        drive_quad = cost_ff(lambda s: internal_energy_closed(HarmonicModel(), traj, s, ens)[1], traj.t_ff)
        closed = a_coeff * traj.vbar**2 * shape
        rel = abs(drive_quad / closed - 1.0)
        details.append(f"{kind}: rel={rel:.1e}")
        assert rel < 1e-8
    report(4, True, "; ".join(details))


def test_criterion_05_box_cost_coefficients():
    ens = ThermalEnsemble(beta=math.inf, n_particles=3)
    details = []
    for kind, shape in ((POLYNOMIAL, 1.0 / 15.0), (TRIGONOMETRIC, 3.0)):
        traj = box_ramp(kind)
        T = traj.t_ff
        k_drive = box_drive_prefactor(ens, traj.value(0.0))
        a_quad = cost_ff(lambda s: internal_energy_closed(BoxModel(), traj, s, ens)[1], T)
        b_ibp = (
            2.0 * k_drive / T
            * quad(lambda s: traj.velocity(s) ** 2, 0.0, T, epsabs=1e-14, epsrel=1e-12)[0]
        )
        c_coeff = k_drive * traj.vbar**2 * shape
        assert abs(a_quad / b_ibp - 1.0) < 1e-8
        assert abs(a_quad / c_coeff - 1.0) < 1e-8
        # the report records the disagreement with the printed closed form
        rep = cost_ff_closed(BoxModel(), traj, ens)
        b2_printed = rep.constants["B2"]
        published_drive = b2_printed * traj.vbar**2 * (1.0 / 90.0 if kind == POLYNOMIAL else 0.5)
        factor = a_quad / published_drive
        assert factor == pytest.approx(6.0 * k_drive / b2_printed, rel=1e-8)
        assert rep.published_ratio > 1.0
        details.append(f"{kind}: three-way agreement, drive {factor:.3f}x the printed value")
    report(5, True, "; ".join(details))


def test_criterion_06_protocol_ordering_against_inverse_engineering():
    beta = 1.0
    ens = ThermalEnsemble(beta=beta, n_particles=1)
    model = HarmonicModel()
    rows = []
    for t_ff in (0.5, 1.0, 2.0, 5.0):
        traj = ho_ramp(POLYNOMIAL, t_ff=t_ff)
        mn = cost_ff_numeric(model, traj, ens, n_points=1024)
        ie = cost_ie(ie_ramp(1.0, 10.0, t_ff), beta)
        rows.append((t_ff, mn, ie))
    ok = all(mn < ie for _, mn, ie in rows) and all(
        b[1] < a[1] for a, b in zip(rows, rows[1:])
    )
    report(6, ok, "; ".join(f"T={t}: mn={mn:.3f} < ie={ie:.3f}" for t, mn, ie in rows))
    for t_ff, mn, ie in rows:
        assert mn < ie, f"ordering violated at t_ff={t_ff}"
    assert all(b[1] < a[1] for a, b in zip(rows, rows[1:])), "cost not decreasing in t_ff"


def test_criterion_07_ermakov_suite():
    # the quintic design b = l/l0, with omega^2 = 2 a(t) of the fast-forward trap coefficient
    traj = ie_ramp(1.0, 10.0, 1.0)
    omega_sq = trap_coefficient(HarmonicModel(), traj)
    ts = np.linspace(0.0, 1.0, 10_000)
    sup = float(np.max(np.abs(ermakov_residual(traj, ts))))
    b_end = abs(traj.value(1.0) / traj.l0 - math.sqrt(0.1))
    w0 = abs(2.0 * omega_sq(0.0) - 1.0)
    wf = abs(2.0 * omega_sq(1.0) - 100.0)
    ok = sup < 1e-8 and b_end < 1e-10 and w0 < 1e-10 and wf < 1e-10
    report(7, ok, f"residual sup={sup:.1e}, boundary errors {b_end:.1e}/{w0:.1e}/{wf:.1e}")
    assert sup < 1e-8
    assert b_end < 1e-10 and w0 < 1e-10 and wf < 1e-10


def test_criterion_08_thermal_trace_vs_printed_expansion():
    # As stated: the truncated trace against the printed expansion, box,
    # N = 50, T = 0, static wall, within 1%.  This is unattainable: the
    # printed N^3/24 prefactor corresponds to doubly occupied levels, while
    # the trace contract is a plain Fermi-Dirac sum (see module docstring and
    # the frozen ratios below).  Kept faithful, expected red.
    ens = ThermalEnsemble(beta=math.inf, n_particles=50)
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=0.0)  # static wall at L = 1
    numeric = internal_energy_numeric(BoxModel(), traj, 0.5, ens, n_points=2048)
    printed = sum(internal_energy_closed(BoxModel(), traj, 0.5, ens))
    rel = abs(numeric / printed - 1.0)
    report(8, rel <= 0.01, f"trace/printed = {numeric / printed:.4f} (|rel|={rel:.3f}, stated bound 0.01)")
    assert rel <= 0.01, (
        f"trace {numeric:.1f} vs printed expansion {printed:.1f}: ratio "
        f"{numeric / printed:.4f}. The spinless trace the contracts specify gives "
        f"4.12x the printed value (sum n^2 = N(N+1)(2N+1)/6 vs N^3/24); even a "
        f"spin-degenerate reading (2 per level) leaves 6.1% at N=50. "
        f"The 1% bound cannot hold under any filling convention."
    )


def test_criterion_08_companion_frozen_convention_ratios():
    # Honest record of what the trace actually gives at N = 50, T = 0, L = 1:
    #   spinless (contract) trace / printed = 4.1208 (= 12 sum n^2 / N^3)
    #   doubly-occupied reading / printed   = 1.0608
    # and the trace itself reproduces the exact level sum to FD accuracy.
    ens = ThermalEnsemble(beta=math.inf, n_particles=50)
    traj = ControlTrajectory(POLYNOMIAL, 1.0, 1.0, vbar=0.0)
    numeric = internal_energy_numeric(BoxModel(), traj, 0.5, ens, n_points=2048)
    exact_sum = sum(BoxModel().energy(n, 1.0) for n in range(1, 51))
    printed = sum(internal_energy_closed(BoxModel(), traj, 0.5, ens))
    assert numeric == pytest.approx(exact_sum, rel=1e-3)  # FD-limited
    assert exact_sum / printed == pytest.approx(4.1208, abs=1e-4)
    spinful = 2.0 * sum(BoxModel().energy(n, 1.0) for n in range(1, 26))
    assert spinful / printed == pytest.approx(1.0608, abs=1e-4)


def test_criterion_09_propagator_convergence_order():
    # gentle ramp (omega 1 -> 2 over T = 0.5) so three dt levels stay within
    # the potential-scale precondition; errors measured against a dt/8
    # reference as the complex overlap deficit |1 - <ref|psi>|, which carries
    # the full second-order phase error
    traj = ho_ramp(POLYNOMIAL, r_final=1.0 / math.sqrt(2.0), t_ff=0.5)
    model = HarmonicModel()
    grid = model.default_grid(1.0, 1024)
    psi0 = psi_ff(model, 0, 0.0, traj, grid)
    pot = trap_coefficient(model, traj)
    ref = propagate(psi0, traj, pot, 2.5e-5, 0.5)
    errs = []
    for dt in (8e-4, 4e-4, 2e-4):
        out = propagate(psi0, traj, pot, dt, 0.5)
        errs.append(abs(1.0 - inner_product(ref, out)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    report(9, ok, f"errors {errs[0]:.2e} / {errs[1]:.2e} / {errs[2]:.2e}, ratios {r1:.2f}, {r2:.2f}")
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


def test_criterion_10_preset_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "ffqd", "preset", "fig1", "--out", str(out_dir)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "ie_compare.csv" in names and "cost_curve.csv" in names
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    report(10, identical, f"{len(names)} files byte-identical across reruns")
    assert identical
