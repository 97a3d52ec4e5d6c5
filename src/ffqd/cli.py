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
byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import cost as cost_mod
from . import fastforward as ff
from . import ie as ie_mod
from .core import Grid, norm
from .propagator import PropagationError, PropagationSpec, fidelity, propagate, tdse_residual
from .spectra import BoxModel, HarmonicModel
from .trajectory import (
    ADIABATIC_LINEAR,
    POLYNOMIAL,
    TRIGONOMETRIC,
    ControlTrajectory,
    vbar_for_target,
)

_SYSTEMS = ("harmonic", "box")
_RAMPS = (POLYNOMIAL, TRIGONOMETRIC, ADIABATIC_LINEAR)
_OUTPUTS = ("cost_curve", "fidelity", "residual", "ie_compare", "snapshots")

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
        if self.system not in _SYSTEMS:
            raise ValueError(f"system must be one of {_SYSTEMS}, got {self.system!r}")
        if self.ramp not in _RAMPS:
            raise ValueError(f"ramp must be one of {_RAMPS}, got {self.ramp!r}")
        for out in self.outputs:
            if out not in _OUTPUTS:
                raise ValueError(f"unknown output {out!r}; choose from {_OUTPUTS}")
        if "ie_compare" in self.outputs and self.system != "harmonic":
            raise ValueError("ie_compare is only defined for the harmonic system")
        # `0 < v < inf` is False for NaN, so each check also rejects non-finite input
        for name in ("l0", "l_final", "omega0", "omegaF", "dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not all(0 < t < math.inf for t in self.t_ff_list):
            raise ValueError(f"every t_ff must be positive and finite, got {self.t_ff_list!r}")
        if len(set(self.t_ff_list)) != len(self.t_ff_list):
            raise ValueError(f"t_ff_list has duplicate entries: {self.t_ff_list!r}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive (inf for zero temperature), got {self.beta!r}")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.grid_points < 8:
            raise ValueError(f"grid_points must be >= 8, got {self.grid_points}")

    # -- geometry ----------------------------------------------------------
    def control_endpoints(self) -> tuple[float, float]:
        """(l0, l_final) of the control parameter actually ramped."""
        if self.system == "harmonic":
            return 1.0 / math.sqrt(self.omega0), 1.0 / math.sqrt(self.omegaF)
        return self.l0, self.l_final

    def trajectory(self, t_ff: float) -> ControlTrajectory:
        a, b = self.control_endpoints()
        if self.ramp == ADIABATIC_LINEAR:
            return ControlTrajectory.adiabatic_linear(a, self.epsilon, t_ff)
        return ControlTrajectory(self.ramp, a, t_ff, vbar=vbar_for_target(self.ramp, a, b, t_ff))

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
    """(model, grid at time t, wall) of the scenario's trap.

    The oscillator keeps one fixed grid sized by the widest l of the ramp;
    the box grid spans [0, L(t)] and its wall moves with the ramp.
    """
    if scn.system == "harmonic":
        model = HarmonicModel()
        return model, model.default_grid(traj._l_max, scn.grid_points), None
    return BoxModel(), Grid(0.0, traj.value(t), scn.grid_points), traj


def _run_propagation(scn: Scenario, traj: ControlTrajectory, driven: bool, snapshot_path=None):
    """Propagate the tracked level and return (fidelity vs target, norm error)."""
    model, grid, wall = _system(scn, traj, 0.0)
    n = model.n_min
    T = traj.t_ff
    n_steps = max(1, int(round(T / scn.dt)))
    stride = max(1, n_steps // 8)
    out = propagate(
        ff.psi_ff(model, n, 0.0, traj, grid),
        PropagationSpec(grid, scn.dt, T, ff.trap_coefficient(model, traj, driven), wall),
        snapshot_path=snapshot_path,
        snapshot_stride=stride if snapshot_path else 0,
    )
    return fidelity(out, ff.psi_ff(model, n, T, traj, out.grid)), abs(norm(out) - 1.0)


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
    model, grid, _ = _system(scn, traj, t_mid)
    n = model.n_min

    def psi(s):
        return ff.psi_ff_values(model, n, s, traj, grid.points, _phase_origin=t_mid)

    driven = tdse_residual(psi, ff.trap_coefficient(model, traj), grid, t_mid, dt)
    undriven = tdse_residual(psi, ff.trap_coefficient(model, traj, driven=False), grid, t_mid, dt)
    return driven, undriven


def _cost_row(scn: Scenario, t_ff: float) -> list[float]:
    traj = scn.trajectory(t_ff)
    ens = scn.ensemble()
    if scn.system == "box":
        rep = cost_mod.cost_ff_box_closed(traj, ens)
    else:
        a = cost_mod.coefficient_A(ens, traj.value(0.0))
        rep = cost_mod.cost_ff_ho_closed(traj, a)
    return [t_ff, rep.quadrature_value, rep.closed_form_value, rep.published_value, rep.published_ratio]


def _ie_row(scn: Scenario, t_ff: float) -> list[float]:
    traj = scn.trajectory(t_ff)
    ens = scn.ensemble()
    mn = cost_mod.cost_ff_numeric(HarmonicModel(), traj, ens, n_points=scn.grid_points)
    sol = ie_mod.ErmakovSolution(scn.omega0, scn.omegaF, t_ff)
    return [t_ff, mn, ie_mod.cost_ie(sol, scn.beta)]


def _fidelity_row(scn: Scenario, t_ff: float) -> list[float]:
    traj = scn.trajectory(t_ff)
    fid, norm_err = _run_propagation(scn, traj, driven=True)
    fid0, _ = _run_propagation(scn, traj, driven=False)
    return [t_ff, fid, fid0, norm_err]


def _residual_row(scn: Scenario, t_ff: float) -> list[float]:
    traj = scn.trajectory(t_ff)
    driven, undriven = _residuals(scn, traj)
    return [t_ff, driven, undriven]


_OUTPUT_COLUMNS = {
    "cost_curve": "t_ff,cost_quadrature,cost_closed_form,cost_published,published_ratio",
    "ie_compare": "t_ff,cost_mn,cost_ie",
    "fidelity": "t_ff,fidelity,fidelity_no_drive,norm_error",
    "residual": "t_ff,residual,residual_no_drive",
}

_OUTPUT_FUNCS = {
    "cost_curve": _cost_row,
    "ie_compare": _ie_row,
    "fidelity": _fidelity_row,
    "residual": _residual_row,
}


def run(scenario: Scenario, out_dir) -> list[Path]:
    """Compute every requested output for every t_ff; one CSV per output.

    Every row of every table is computed before the first CSV is written, so
    an output that fails leaves none behind; snapshots stream to their files
    while their propagation runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if not scenario.t_ff_list:
        return written
    tables = {
        output: sorted((_OUTPUT_FUNCS[output](scenario, t) for t in scenario.t_ff_list), key=lambda r: r[0])
        for output in scenario.outputs
        if output != "snapshots"
    }
    for output in scenario.outputs:
        if output == "snapshots":
            for i, t_ff in enumerate(scenario.t_ff_list):
                path = out_dir / f"snapshots_{i:02d}.csv"
                traj = scenario.trajectory(t_ff)
                _run_propagation(scenario, traj, driven=True, snapshot_path=path)
                _prepend_provenance(path, scenario)
                written.append(path)
            continue
        path = out_dir / f"{output}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(scenario.comment_header())
            fh.write(_OUTPUT_COLUMNS[output] + "\n")
            for row in tables[output]:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        written.append(path)
    return written


def _prepend_provenance(path: Path, scenario: Scenario) -> None:
    body = path.read_text()
    path.write_text(scenario.comment_header() + body)


def verify(scenario: Scenario, stream=None) -> bool:
    """Run the fidelity / norm / residual acceptance checks; print a table."""
    stream = sys.stdout if stream is None else stream
    ok_all = True
    rows = []
    fid_threshold = _FIDELITY_THRESHOLD[scenario.system]
    for t_ff in scenario.t_ff_list:
        traj = scenario.trajectory(t_ff)
        try:
            fid, norm_err = _run_propagation(scenario, traj, driven=True)
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
    width = max(len(r[1]) for r in rows) if rows else 10
    for t_ff, name, status, detail in rows:
        stream.write(f"t_ff={t_ff:<8g} {name:<{width}} {status}  {detail}\n")
    stream.write("verification " + ("PASSED" if ok_all else "FAILED") + "\n")
    return ok_all


_PRESETS = {
    "fig1": Scenario(
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
    ),
    "fig2": Scenario(
        system="harmonic",
        ramp=TRIGONOMETRIC,
        omega0=1.0,
        omegaF=10.0,
        beta=1.0,
        n_particles=1,
        t_ff_list=(0.5, 1.0, 2.0, 5.0),
        grid_points=1024,
        dt=1e-4,
        outputs=("cost_curve", "ie_compare"),
    ),
    "fig3": Scenario(
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
    ),
    "fig4": Scenario(
        system="box",
        ramp=TRIGONOMETRIC,
        l0=1.0,
        l_final=10.0,
        beta=math.inf,
        n_particles=1,
        t_ff_list=(0.5, 1.0, 2.0, 5.0),
        grid_points=2048,
        dt=2e-5,
        outputs=("cost_curve",),
    ),
}


def _load_scenario(config_path: str, overrides: list[str]) -> Scenario:
    mapping = parse_config_text(Path(config_path).read_text())
    mapping.update(parse_config_text("\n".join(overrides)))
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
            scenario = _load_scenario(args.config, args.overrides)
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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except (PropagationError, RuntimeError) as exc:
        print(f"error: numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
