"""Correctness gate: every output of a workload run is checked here.

Nothing in this file imports ffqd.  Every check is counted in a Tally;
passed / attempted over a run is the `pass_ratio` metric.

* verify_box: the PASS/FAIL rows printed by `ffqd.cli.verify`.  A row counts
  as failed if it reads FAIL, if the number it prints misses verify's own
  threshold, or if it is missing.
* sweep_harmonic: verify's thresholds applied to the fidelity and residual
  CSVs written by `ffqd.cli.run`.
* cost_presets: the preset CSVs against references recorded at the commit
  the benchmark was defined at (relative tolerance REF_RTOL); the cost sweep
  against independent closed-form oracles for every seed, and against the
  recorded references for the seeds in references.json.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from workloads import plan

REFERENCES = Path(__file__).with_name("references.json")

# verify's thresholds (ffqd.cli: _FIDELITY_THRESHOLD, _NORM_THRESHOLD, ...)
FIDELITY_MIN = {"box": 1.0 - 1e-3, "harmonic": 1.0 - 1e-4}
NORM_MAX = 1e-8
RESIDUAL_MAX = 1e-3
CONTROL_FACTOR = 10.0

# Recorded references may move by reordered floating-point sums and by the
# library's own quadrature tolerances (1e-10 relative), not more.
REF_RTOL = 1e-8
# The numeric trace differentiates on a 1024-point grid, so its cost sits
# below the exact trace by a grid error that grows with the levels filled.
# Each tolerance is about 3x the largest error at the corners of the seed
# ranges at the commit the benchmark was defined at (oscillator N = 1, 8, 32:
# 2.1e-4, 1.5e-3, 9.4e-3; box N = 1, 16, 50: 1.7e-4, 2.9e-4, 1.3e-3).  The
# Frobenius cost uses exact matrix elements of sines and agrees to ~1e-10.
TRACE_ORACLE_RTOL = {"ho_N1": 1e-3, "ho_N8": 5e-3, "ho_N32": 3e-2, "box_N1": 1e-3, "box_N16": 1e-3, "box_N50": 5e-3}
FROBENIUS_ORACLE_RTOL = 1e-7

_ROW = re.compile(r"^t_ff=(\S+)\s+(\S+)\s+(PASS|FAIL)\s+(.*)$")
_NUM = r"([-+0-9.eE]+)"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# verify_box

def _verify_row_ok(name: str, detail: str) -> bool:
    if name == "fidelity":
        m = re.match(_NUM + r" >= ", detail)
        return bool(m) and float(m.group(1)) >= FIDELITY_MIN["box"]
    if name == "norm_drift":
        m = re.match(_NUM + r" < ", detail)
        return bool(m) and float(m.group(1)) < NORM_MAX
    if name == "tdse_residual":
        m = re.match(_NUM + r" < ", detail)
        return bool(m) and float(m.group(1)) < RESIDUAL_MAX
    if name == "negative_control":
        m = re.match(_NUM + r" >= \S+ x " + _NUM, detail)
        return bool(m) and float(m.group(1)) >= CONTROL_FACTOR * float(m.group(2))
    return False


def check_verify_box(p: dict, out: Path, result: dict, t: Tally) -> None:
    expected = ("fidelity", "norm_drift", "tdse_residual", "negative_control")
    for r in p["ramps"]:
        path = out / f"verify_{r['ramp']}.txt"
        text = path.read_text() if path.exists() else ""
        rows = {}
        for line in text.splitlines():
            m = _ROW.match(line)
            if m:
                rows[m.group(2)] = (float(m.group(1)), m.group(3), m.group(4))
        for name in expected:
            row = rows.get(name)
            ok = (
                row is not None
                and abs(row[0] - r["t_ff"]) <= 1e-6 * r["t_ff"]
                and row[1] == "PASS"
                and _verify_row_ok(name, row[2])
            )
            t.check(ok, f"verify {r['ramp']} {name}: {row}")
        t.check(
            text.rstrip().endswith("verification PASSED") and result["outputs"]["verify_passed"].get(r["ramp"]) is True,
            f"verify {r['ramp']} did not report PASSED",
        )


# ---------------------------------------------------------------------------
# sweep_harmonic

def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """(column names, numeric rows) of an ffqd result CSV, skipping '#' comments."""
    cols, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if cols:
            rows.append([float(v) for v in line.split(",")])
        else:
            cols = line.split(",")
    return cols, rows


def check_sweep_harmonic(p: dict, out: Path, result: dict, t: Tally) -> None:
    fmin = FIDELITY_MIN["harmonic"]
    for name, cols_expected in (
        ("fidelity", ["t_ff", "fidelity", "fidelity_no_drive", "norm_error"]),
        ("residual", ["t_ff", "residual", "residual_no_drive"]),
    ):
        path = out / "sweep" / f"{name}.csv"
        cols, rows = read_csv(path) if path.exists() else ([], [])
        t_col = [r[0] for r in rows]
        t.check(
            cols == cols_expected and _same(p["t_ff_list"], t_col, 1e-12),
            f"{name}.csv: columns {cols}, t_ff {t_col}, expected t_ff {p['t_ff_list']}",
        )
        for row in rows:
            if name == "fidelity":
                t.check(row[1] >= fmin, f"t_ff={row[0]} fidelity {row[1]} < {fmin}")
                t.check(row[3] < NORM_MAX, f"t_ff={row[0]} norm error {row[3]} >= {NORM_MAX}")
            else:
                t.check(row[1] < RESIDUAL_MAX, f"t_ff={row[0]} residual {row[1]} >= {RESIDUAL_MAX}")
                t.check(
                    row[2] >= CONTROL_FACTOR * row[1],
                    f"t_ff={row[0]} undriven residual {row[2]} < {CONTROL_FACTOR:g} x {row[1]}",
                )


def _same(expected, got, rtol: float) -> bool:
    return len(got) == len(expected) and all(_close(a, b, rtol) for a, b in zip(expected, got))


# ---------------------------------------------------------------------------
# cost_presets: independent oracles in natural units (hbar = m = kB = 1)

def _ramp(kind: str, l0: float, l1: float, T: float, t: np.ndarray):
    """l, l_dot, l_ddot of the polynomial or trigonometric ramp from l0 to l1."""
    if kind == "polynomial":
        v = 6.0 * (l1 - l0) / T
        return (
            l0 + v * (t * t / (2.0 * T) - t**3 / (3.0 * T * T)),
            v * (t / T - t * t / (T * T)),
            v * (1.0 / T - 2.0 * t / (T * T)),
        )
    v = (l1 - l0) / T
    w = 2.0 * np.pi / T
    return l0 + v * (t - np.sin(w * t) / w), v * (1.0 - np.cos(w * t)), v * w * np.sin(w * t)


def _time_average(fn, T: float, nodes: int = 128) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * float(np.dot(w, fn(0.5 * T * (x + 1.0))))


def _fermi(e: np.ndarray, beta: float, mu: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.tanh(0.5 * beta * (e - mu)))


def oracle_ho_trace_cost(ho: dict, n_particles: int, levels: int = 600) -> float:
    """Time average of sum_n f_n <H_FF>_n for the oscillator, l = R = omega^-1/2.

    The scaled states give <H_FF>_n = (n + 1/2) (1/R^2 + (R_dot^2 - R R_ddot)/2);
    f_n is Fermi-Dirac at the frozen energies (n + 1/2)/R^2 with mu fixed by
    sum f_n = N at each instant.
    """
    beta, nh = ho["beta"], np.arange(levels) + 0.5

    def u(t):
        R, Rd, Rdd = _ramp(ho["ramp"], ho["omega0"] ** -0.5, ho["omegaF"] ** -0.5, ho["t_ff"], t)
        e = nh[None, :] / (R * R)[:, None]
        lo, hi = e[:, :1] - 60.0 / beta - 1.0, e[:, -1:] + 1.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            high = _fermi(e, beta, mid).sum(axis=1, keepdims=True) > n_particles
            hi, lo = np.where(high, mid, hi), np.where(high, lo, mid)
        f = _fermi(e, beta, 0.5 * (lo + hi))
        return (f @ nh) * (1.0 / (R * R) + 0.5 * (Rd * Rd - R * Rdd))

    return _time_average(u, ho["t_ff"])


def _box_x2(m: int) -> np.ndarray:
    """<j| (x/L)^2 |k> for box levels j, k = 1..m."""
    n = np.arange(1, m + 1, dtype=float)
    j, k = np.meshgrid(n, n, indexing="ij")
    diff = np.where(j == k, 1.0, j * j - k * k)
    off = 8.0 * j * k * (-1.0) ** (j + k) / (np.pi**2 * diff * diff)
    return np.where(j == k, 1.0 / 3.0 - 1.0 / (2.0 * np.pi**2 * k * k), off)


def oracle_box_trace_cost(box: dict, n_particles: int) -> float:
    """Zero temperature: levels 1..N filled, <H_FF>_n = E_n(L) + (L_dot^2 - L L_ddot) <x^2>_n / 2L^2."""
    n = np.arange(1, n_particles + 1, dtype=float)
    x2 = np.diag(_box_x2(n_particles))

    def u(t):
        L, Ld, Ldd = _ramp(box["ramp"], box["l0"], box["l_final"], box["t_ff"], t)
        return (np.pi**2 / 2.0) * np.sum(n * n) / (L * L) + 0.5 * (Ld * Ld - L * Ldd) * np.sum(x2)

    return _time_average(u, box["t_ff"])


def oracle_box_frobenius(box: dict, cutoff: int) -> float:
    """Time average of ||diag(E_n) - a <x^2/L^2>||_F over levels 1..cutoff, a = L L_ddot / 2.

    ||M||^2 = a^2 ||X||^2 - 2 a sum_n X_nn E_n + sum_n E_n^2 with E_n = pi^2 n^2 / 2L^2.
    """
    x2 = _box_x2(cutoff)
    e1 = (np.pi**2 / 2.0) * np.arange(1, cutoff + 1, dtype=float) ** 2  # E_n at L = 1
    xx, xe, ee = np.sum(x2 * x2), np.dot(np.diag(x2), e1), np.dot(e1, e1)

    def h(t):
        L, _, Ldd = _ramp(box["ramp"], box["l0"], box["l_final"], box["t_ff"], t)
        a = 0.5 * L * Ldd
        return np.sqrt(a * a * xx - 2.0 * a * xe / (L * L) + ee / L**4)

    return _time_average(h, box["t_ff"], nodes=256)


def preset_tables(out: Path, presets) -> dict:
    """{"fig1/cost_curve.csv": {"columns": [...], "rows": [[...], ...]}, ...}"""
    tables = {}
    for fig in presets:
        for path in sorted((out / fig).glob("*.csv")):
            cols, rows = read_csv(path)
            tables[f"{fig}/{path.name}"] = {"columns": cols, "rows": rows}
    return tables


def check_cost_presets(p: dict, seed: int, out: Path, result: dict, t: Tally) -> None:
    refs = json.loads(REFERENCES.read_text())
    codes = result["outputs"]["preset_exit_codes"]
    for fig in p["presets"]:
        t.check(codes.get(fig) == 0, f"preset {fig} exited {codes.get(fig)}")
    got = preset_tables(out, p["presets"])
    for key, ref in refs["presets"].items():
        table = got.get(key, {"columns": None, "rows": []})
        t.check(table["columns"] == ref["columns"] and len(table["rows"]) == len(ref["rows"]), f"{key}: shape")
        for i, (row, ref_row) in enumerate(zip(table["rows"], ref["rows"])):
            t.check(_same(ref_row, row, REF_RTOL), f"{key} row {i}: {row} vs reference {ref_row}")

    sweep = result["outputs"]["sweep"]
    ho, box = p["ho"], p["box"]
    for n in ho["n_particles"]:
        want, have = oracle_ho_trace_cost(ho, n), sweep[f"ho_N{n}"]
        t.check(_close(want, have, TRACE_ORACLE_RTOL[f"ho_N{n}"]), f"ho N={n}: {have} vs oracle {want}")
    for n in box["n_particles"]:
        want, have = oracle_box_trace_cost(box, n), sweep[f"box_N{n}"]
        t.check(_close(want, have, TRACE_ORACLE_RTOL[f"box_N{n}"]), f"box N={n}: {have} vs oracle {want}")
    cutoff = sweep["box_frobenius_cutoff"]
    t.check(cutoff > box["frobenius_n_particles"], f"Frobenius cutoff {cutoff} leaves occupied levels out")
    want = oracle_box_frobenius(box, cutoff)
    t.check(_close(want, sweep["box_frobenius"], FROBENIUS_ORACLE_RTOL), f"Frobenius {sweep['box_frobenius']} vs oracle {want}")

    ref_sweep = refs["sweep"].get(str(seed))
    if ref_sweep is not None:
        for key, ref in ref_sweep.items():
            t.check(key in sweep and _close(ref, sweep[key], REF_RTOL), f"sweep {key}: {sweep.get(key)} vs reference {ref}")


def check(workload: str, seed: int, out: Path, result: dict) -> Tally:
    """Run the gate for one finished workload execution."""
    t = Tally()
    p = plan(workload, seed)
    if workload == "verify_box":
        check_verify_box(p, out, result, t)
    elif workload == "sweep_harmonic":
        check_sweep_harmonic(p, out, result, t)
    else:
        check_cost_presets(p, seed, out, result, t)
    return t
