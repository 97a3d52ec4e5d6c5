"""Scenario-driven command line: configure a system/ramp/ensemble, run cost and
verification experiments, emit figure-ready CSV tables.

Usage:
    ffqd run <config> [key=value ...] [--out DIR]
    ffqd verify <config> [key=value ...]
    ffqd preset <fig1|fig2|fig3|fig4> --out DIR

Config files are plain key=value lines ('#' comments allowed); command-line
key=value arguments override file entries.  Every emitted CSV starts with
'# key=value' provenance comments that parse back into the exact scenario,
and all numbers are printed with 15 significant digits so identical runs are
byte-identical.  A run computes the rows of every file before it writes the
first, so a run that fails leaves no CSV behind.

The Crank-Nicolson propagations of a sweep do not depend on each other: run
and verify plan them up front and share them between this process and
workers forked from it (propagator._fork), one per further usable CPU, where
this process runs one OS thread and the fork succeeds.  Where the usable
CPUs number at least twice the propagations, as for a one-t_ff verify on two
CPUs, each propagation large enough to repay it is paired too: it forks a
partner that solves every other block of its steps (see propagator).  Every
process runs single-threaded and a paired run returns the serial run's bits,
so the output is byte-identical to a run on one CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import cost as cost_mod
from . import fastforward as ff
from . import ie as ie_mod
from .core import _require_count, _require_positive, norm
from .propagator import PropagationError, _fork, _reap, _receive, fidelity, propagate, tdse_residual
from .spectra import BoxModel, HarmonicModel
from .trajectory import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    QUINTIC,
    TRIGONOMETRIC,
    ControlTrajectory,
    vbar_for_target,
)

_MODELS = {"harmonic": HarmonicModel(), "box": BoxModel()}
_RAMPS = (POLYNOMIAL, TRIGONOMETRIC, ADIABATIC_LINEAR)

_FIDELITY_THRESHOLD = {"harmonic": 1.0 - 1e-4, "box": 1.0 - 1e-3}
_NORM_THRESHOLD = 1e-8
_RESIDUAL_THRESHOLD = 1e-3
_CONTROL_FACTOR = 10.0


def _fmt(v: float) -> str:
    return f"{v:.14e}"


@dataclass(frozen=True)
class Scenario:
    """One experiment: system, ramp, thermal parameters, resolution, outputs."""

    system: str = "harmonic"
    ramp: str = POLYNOMIAL
    l0: float = 1.0
    l_final: float = 10.0
    omega0: float = 1.0
    omegaF: float = 10.0
    t_ff_list: tuple = (1.0,)
    beta: float = math.inf
    n_particles: int = 1
    grid_points: int = 1024
    dt: float = 1e-4
    epsilon: float = 0.01
    outputs: tuple = ("cost_curve",)

    def __post_init__(self):
        if self.system not in _MODELS:
            raise ValueError(f"system must be one of {tuple(_MODELS)}, got {self.system!r}")
        if self.ramp not in _RAMPS:
            raise ValueError(f"ramp must be one of {_RAMPS}, got {self.ramp!r}")
        for out in self.outputs:
            if out not in _OUTPUTS:
                raise ValueError(f"unknown output {out!r}; choose from {tuple(_OUTPUTS)}")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError(f"outputs has duplicate entries: {self.outputs!r}")
        if "ie_compare" in self.outputs and self.system != "harmonic":
            raise ValueError("ie_compare is only defined for the harmonic system")
        for out in ("cost_curve", "ie_compare"):
            # both compare smooth ramps between the scenario's end points; a linear ramp ends elsewhere
            if out in self.outputs and self.ramp == ADIABATIC_LINEAR:
                raise ValueError(f"{out} needs a polynomial or trigonometric ramp, got {self.ramp!r}")
        for name in ("l0", "l_final", "omega0", "omegaF", "dt"):
            _require_positive(getattr(self, name), name)
        for t_ff in self.t_ff_list:
            _require_positive(t_ff, "t_ff")
        if len(set(self.t_ff_list)) != len(self.t_ff_list):
            raise ValueError(f"t_ff_list has duplicate entries: {self.t_ff_list!r}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        self.ensemble()  # beta and n_particles follow the ensemble's rules
        _require_count(self.grid_points, "grid_points", 8)

    # -- geometry ----------------------------------------------------------
    def control_endpoints(self) -> tuple[float, float]:
        """(l0, l_final) of the control parameter actually ramped."""
        if self.system == "harmonic":
            return 1.0 / math.sqrt(self.omega0), 1.0 / math.sqrt(self.omegaF)
        return self.l0, self.l_final

    def trajectory(self, t_ff: float) -> ControlTrajectory:
        a, b = self.control_endpoints()
        vbar = self.epsilon if self.ramp == ADIABATIC_LINEAR else vbar_for_target(self.ramp, a, b, t_ff)
        return ControlTrajectory(self.ramp, a, t_ff, vbar=vbar)

    def ensemble(self) -> cost_mod.ThermalEnsemble:
        return cost_mod.ThermalEnsemble(beta=self.beta, n_particles=self.n_particles)

    # -- serialization -----------------------------------------------------
    def to_mapping(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    def comment_header(self) -> str:
        return "".join(f"# {k}={v}\n" for k, v in self.to_mapping().items())

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Scenario":
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(mapping) - set(defaults)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**{key: _decode(raw, defaults[key]) for key, raw in mapping.items()})


def _encode(value) -> str:
    """A field value as text: a tuple item by item, comma-joined, anything else by str.

    str of a Python float is its shortest round-trip repr; numpy scalars print
    the same digits, where repr would write np.float64(...).
    """
    if isinstance(value, (tuple, list)):
        return ",".join(_encode(item) for item in value)
    return str(value)


def _decode(raw: str, default):
    """Text back to the type of a field's default; tuple items take the type of its first item."""
    if isinstance(default, tuple):
        return tuple(_decode(tok, default[0]) for tok in raw.split(",") if tok.strip())
    return type(default)(raw.strip())


def parse_config_text(text: str) -> dict:
    """key=value lines; blank lines and '#' comments ignored."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, val = body.split("=", 1)
        mapping[key.strip()] = val.strip()
    return mapping


def scenario_from_csv_header(path) -> Scenario:
    """Rebuild the scenario recorded in a result file's provenance comments."""
    with open(path) as fh:
        header = "".join(line[1:] for line in itertools.takewhile(lambda line: line.startswith("#"), fh))
    return Scenario.from_mapping(parse_config_text(header))


# ---------------------------------------------------------------------------
# per-sweep-entry computations

def _system(scn: Scenario, traj: ControlTrajectory, t: float):
    """(model, grid at time t) of the scenario's trap: the model's grid at l(t)."""
    model = _MODELS[scn.system]
    return model, model.default_grid(traj.value(t), scn.grid_points)


def _propagation(scn: Scenario, job: tuple, paired: bool) -> tuple:
    """Propagate the tracked level for one job (t_ff, driven, frames wanted).

    Returns (fidelity vs target, norm error, frames): frames as propagate's,
    or None unless wanted.  A paired job's run shares its steps with a
    partner process that propagate forks (see propagator.propagate).
    """
    t_ff, driven, want_frames = job
    traj = scn.trajectory(t_ff)
    model, grid = _system(scn, traj, 0.0)
    n = model.n_min
    T = traj.t_ff
    frames = [] if want_frames else None
    psi0 = ff.psi_ff(model, n, 0.0, traj, grid)
    out = propagate(psi0, traj, ff.trap_coefficient(model, traj, driven), scn.dt, T, frames, _paired=paired)
    return fidelity(out, ff.psi_ff(model, n, T, traj, out.grid)), abs(norm(out) - 1.0), frames


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or 1 where the platform has none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _one_os_thread() -> bool:
    """Whether the OS lists one thread in this process (Linux's /proc/self/task; False where there is none).

    fork copies no other thread, nor a lock one holds; and where numpy's BLAS
    runs threads of its own, they already claim the CPUs.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _outcomes(scn: Scenario, jobs: list, paired: bool) -> list:
    """Each job's _propagation result, or the exception it raised, in job order, run in this process."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(_propagation(scn, job, paired))
        except Exception as exc:  # kept in the job's place; _result raises it where an output reads it
            outcomes.append(exc)
    return outcomes


def _propagations(scn: Scenario, jobs: list) -> list:
    """_outcomes of the jobs, shared by n = min(len(jobs), usable CPUs) processes.

    The jobs are independent.  Job k runs in process k mod n: this one for
    k mod n = 0, else a worker forked from it (propagator._fork), whose one
    message is its share's outcomes; a share with no worker runs here.
    Where the CPUs number at least twice the jobs, every job is paired: its
    propagation, if large enough to repay it (see propagator.propagate),
    forks a partner that takes every other block of its steps.  Workers and
    partners are forked only where this process runs one OS thread;
    otherwise every job runs here, unpaired.
    """
    cpus = _usable_cpus() if _one_os_thread() else 1
    n = min(len(jobs), cpus)
    paired = 0 < 2 * len(jobs) <= cpus
    workers = {}  # share k -> (pid, read, write) of the worker forked for it
    try:
        for k in range(1, n):
            inherited = [fd for _, *ends in workers.values() for fd in ends]
            with contextlib.suppress(OSError):  # a share with no worker runs below; a child runs at once, with this k
                workers[k] = _fork(lambda read, write: _outcomes(scn, jobs[k::n], paired), inherited)
        outcomes = [None] * len(jobs)
        for k in range(n):
            if k not in workers:
                outcomes[k::n] = _outcomes(scn, jobs[k::n], paired)
        for k, (_, read, _) in workers.items():
            outcomes[k::n] = _receive(read)
    finally:
        for worker in workers.values():  # a worker still writing then fails, and ends
            _reap(*worker)
    return outcomes


def _result(outcome):
    """The result of an outcome of _propagations; the exception its job raised is raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _plan(scn: Scenario) -> list[tuple]:
    """The propagation jobs (t_ff, driven, frames wanted) that the scenario's outputs read.

    fidelity reads the driven and the undriven run of each t_ff, snapshots the
    driven run's frames; the two share each driven run.
    """
    fid, frames = "fidelity" in scn.outputs, "snapshots" in scn.outputs
    jobs = []
    for t_ff in scn.t_ff_list:
        if fid or frames:
            jobs.append((t_ff, True, frames))
        if fid:
            jobs.append((t_ff, False, False))
    return jobs


def _residuals(scn: Scenario, traj: ControlTrajectory) -> tuple[float, float]:
    """TDSE residual of the analytic state mid-ramp, driven and undriven.

    Probed at 0.3 T: both ramps have nonzero wall acceleration there (the
    polynomial one vanishes at exactly T/2, the trigonometric at 0, T/2, T).
    The dynamical phase starts at 0.3 T, so psi(t +- dt) differ by one short
    phase integral; from t = 0, the rounding of the two long integrals,
    divided by 2 dt, would show in the tenth digit.
    """
    T = traj.t_ff
    t_mid = 0.3 * T
    dt = min(1e-5, 0.1 * T)
    model, grid = _system(scn, traj, t_mid)
    n = model.n_min

    def psi(s):
        return ff.psi_ff_values(model, n, s, traj, grid.points, _phase_origin=t_mid)

    driven = tdse_residual(psi, ff.trap_coefficient(model, traj), grid, t_mid, dt)
    undriven = tdse_residual(psi, ff.trap_coefficient(model, traj, driven=False), grid, t_mid, dt)
    return driven, undriven


def _cost_row(scn: Scenario, t_ff: float) -> list[float]:
    rep = cost_mod.cost_ff_closed(_MODELS[scn.system], scn.trajectory(t_ff), scn.ensemble())
    return [t_ff, rep.quadrature_value, rep.closed_form_value, rep.published_value, rep.published_ratio]


def _ie_rows(scn: Scenario, _runs) -> list[list[float]]:
    """cost_mn of the whole sweep from one pooled trace, each against cost_ie at its t_ff."""
    t_ffs = scn.t_ff_list
    trajs = [scn.trajectory(t_ff) for t_ff in t_ffs]
    mns = cost_mod._costs_ff_numeric(_MODELS["harmonic"], trajs, scn.ensemble(), n_points=scn.grid_points)
    l0, l_final = scn.control_endpoints()
    ramps = [ControlTrajectory(QUINTIC, l0, t_ff, vbar=vbar_for_target(QUINTIC, l0, l_final, t_ff)) for t_ff in t_ffs]
    return [[t_ff, mn, ie_mod.cost_ie(ramp, scn.beta)] for t_ff, mn, ramp in zip(t_ffs, mns, ramps)]


def _fidelity_rows(scn: Scenario, runs) -> list[list[float]]:
    rows = []
    for t_ff in scn.t_ff_list:
        fid, norm_err, _ = _result(runs[t_ff, True])
        fid0, _, _ = _result(runs[t_ff, False])
        rows.append([t_ff, fid, fid0, norm_err])
    return rows


def _residual_row(scn: Scenario, t_ff: float) -> list[float]:
    traj = scn.trajectory(t_ff)
    driven, undriven = _residuals(scn, traj)
    return [t_ff, driven, undriven]


def _snapshot_files(scn: Scenario, runs) -> dict[str, list[list[float]]]:
    """snapshots_{i:02d}.csv of the i-th t_ff: rows (t, x, Re psi, Im psi) of the driven run's frames."""
    return {
        f"snapshots_{i:02d}.csv": [
            [t, x, v.real, v.imag]
            for t, grid, values in _result(runs[t_ff, True])[2]
            for x, v in zip(grid.points.tolist(), values.tolist())
        ]
        for i, t_ff in enumerate(scn.t_ff_list)
    }


def _per_t_ff(row):
    """The sweep function of a row function (scenario, t_ff): one row per t_ff."""
    return lambda scn, _runs: [row(scn, t_ff) for t_ff in scn.t_ff_list]


def _table(name: str, sweep):
    """The files function of a sweep function (scenario, runs) -> one row per t_ff.

    It makes one file, {name}.csv, with the rows sorted by t_ff.
    """
    return lambda *sweep_args: {f"{name}.csv": sorted(sweep(*sweep_args), key=lambda r: r[0])}


# output -> (CSV columns, files function (scenario, runs) -> {file name: rows}); runs maps
# (t_ff, driven) to the _propagations outcome of each job of run's _plan
_OUTPUTS = {
    "cost_curve": (
        "t_ff,cost_quadrature,cost_closed_form,cost_published,published_ratio",
        _table("cost_curve", _per_t_ff(_cost_row)),
    ),
    "fidelity": ("t_ff,fidelity,fidelity_no_drive,norm_error", _table("fidelity", _fidelity_rows)),
    "residual": ("t_ff,residual,residual_no_drive", _table("residual", _per_t_ff(_residual_row))),
    "ie_compare": ("t_ff,cost_mn,cost_ie", _table("ie_compare", _ie_rows)),
    "snapshots": ("t,x,re_psi,im_psi", _snapshot_files),
}


def run(scenario: Scenario, out_dir) -> list[Path]:
    """Compute every requested output for every t_ff; write its CSV files and return their paths.

    Every row of every file is computed before the first CSV is written, so
    an output that fails leaves none behind.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not scenario.t_ff_list:
        return []
    jobs = _plan(scenario)
    runs = {job[:2]: outcome for job, outcome in zip(jobs, _propagations(scenario, jobs))}
    files = [
        (out_dir / name, columns, rows)
        for columns, make in (_OUTPUTS[output] for output in scenario.outputs)
        for name, rows in make(scenario, runs).items()
    ]
    for path, columns, rows in files:
        with open(path, "w", newline="") as fh:
            fh.write(scenario.comment_header())
            fh.write(columns + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    return [path for path, _, _ in files]


def verify(scenario: Scenario, stream=None) -> bool:
    """Run the fidelity / norm / residual acceptance checks; print a table (ValueError if no t_ff)."""
    if not scenario.t_ff_list:
        raise ValueError("nothing to verify: t_ff_list is empty")
    stream = sys.stdout if stream is None else stream
    ok_all = True
    rows = []
    fid_threshold = _FIDELITY_THRESHOLD[scenario.system]
    # a ramp the scenario cannot build raises here, not as a job's FAIL row
    trajs = [scenario.trajectory(t_ff) for t_ff in scenario.t_ff_list]
    outcomes = _propagations(scenario, [(t_ff, True, False) for t_ff in scenario.t_ff_list])
    for t_ff, traj, outcome in zip(scenario.t_ff_list, trajs, outcomes):
        try:
            fid, norm_err, _ = _result(outcome)
            driven, undriven = _residuals(scenario, traj)
        except (PropagationError, ValueError) as exc:
            rows.append((t_ff, "propagation", "FAIL", str(exc)))
            ok_all = False
            continue
        checks = [
            ("fidelity", fid >= fid_threshold, f"{fid:.8f} >= {fid_threshold}"),
            ("norm_drift", norm_err < _NORM_THRESHOLD, f"{norm_err:.2e} < {_NORM_THRESHOLD:g}"),
            ("tdse_residual", driven < _RESIDUAL_THRESHOLD, f"{driven:.2e} < {_RESIDUAL_THRESHOLD:g}"),
        ]
        if scenario.ramp != ADIABATIC_LINEAR:
            checks.append(
                (
                    "negative_control",
                    undriven >= _CONTROL_FACTOR * driven,
                    f"{undriven:.2e} >= {_CONTROL_FACTOR:g} x {driven:.2e}",
                )
            )
        for name, passed, detail in checks:
            rows.append((t_ff, name, "PASS" if passed else "FAIL", detail))
            ok_all = ok_all and passed
    width = max(len(r[1]) for r in rows)
    for t_ff, name, status, detail in rows:
        stream.write(f"t_ff={t_ff:<8g} {name:<{width}} {status}  {detail}\n")
    stream.write("verification " + ("PASSED" if ok_all else "FAILED") + "\n")
    return ok_all


_FIG1 = Scenario(
    system="harmonic",
    ramp=POLYNOMIAL,
    omega0=1.0,
    omegaF=10.0,
    beta=1.0,
    n_particles=1,
    t_ff_list=(0.5, 1.0, 2.0, 5.0),
    grid_points=1024,
    dt=1e-4,
    outputs=("cost_curve", "ie_compare"),
)
_FIG3 = Scenario(
    system="box",
    ramp=POLYNOMIAL,
    l0=1.0,
    l_final=10.0,
    beta=math.inf,
    n_particles=1,
    t_ff_list=(0.5, 1.0, 2.0, 5.0),
    grid_points=2048,
    dt=2e-5,
    outputs=("cost_curve",),
)
_PRESETS = {
    "fig1": _FIG1,
    "fig2": replace(_FIG1, ramp=TRIGONOMETRIC),
    "fig3": _FIG3,
    "fig4": replace(_FIG3, ramp=TRIGONOMETRIC),
}


def _load_scenario(config_path: str, overrides: list[str], **fixed: str) -> Scenario:
    """The config file's scenario, with the command line's key=value overrides and then the fixed entries."""
    mapping = parse_config_text(Path(config_path).read_text())
    mapping.update(parse_config_text("\n".join(overrides)))
    mapping.update(fixed)
    return Scenario.from_mapping(mapping)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ffqd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write result CSVs")
    p_run.add_argument("config")
    p_run.add_argument("overrides", nargs="*", help="key=value overrides")
    p_run.add_argument("--out", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run the acceptance checks for a scenario")
    p_verify.add_argument("config")
    p_verify.add_argument("overrides", nargs="*")

    p_preset = sub.add_parser("preset", help="run a pinned figure scenario")
    p_preset.add_argument("name", choices=sorted(_PRESETS))
    p_preset.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            scenario = _load_scenario(args.config, args.overrides)
            written = run(scenario, args.out)
            for path in written:
                print(path)
            return 0
        if args.command == "verify":
            # verify writes no outputs, so a config's outputs (the default cost_curve
            # too, which a linear ramp rejects) are not checked
            scenario = _load_scenario(args.config, args.overrides, outputs="")
            return 0 if verify(scenario) else 1
        scenario = _PRESETS[args.name]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "scenario.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in scenario.to_mapping().items())
        )
        for path in run(scenario, out_dir):
            print(path)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except (PropagationError, RuntimeError) as exc:
        print(f"error: numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
