"""Seeded workload plans, and one execution of a workload in a fresh process.

`plan(workload, seed)` is plain Python and never imports ffqd: the runner
(run.py) and the correctness gate (checks.py) use it to know what the child
was asked to do.  Run as a script, this file executes one workload once and
writes `result.json` (timings, sizes, outputs, optional trace) into --out:

    PYTHONPATH=src python3 bench/workloads.py --workload verify_box --seed 0 --out DIR [--trace]

Every input comes from the plan; the library receives only those values.
Each seed draws ramp end points and t_ff values from ranges where every
check passes at the commit the benchmark was defined at, while the total
number of Cayley steps and of thermal-trace evaluations stays fixed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

WORKLOADS = ("verify_box", "sweep_harmonic", "cost_presets")
PRESETS = ("fig1", "fig2", "fig3", "fig4")

# cost_presets: Gauss-Legendre nodes and grid points of every cost_ff_numeric
# call; fig1 and fig2 each run cost_ff_numeric once per t_ff (4 values).
COST_NODES = 64
COST_POINTS = 1024
PRESET_TRACE_EVALS = 2 * 4 * COST_NODES


def _steps_split(rng: random.Random, means: list[int], lo: int, hi: int) -> list[int]:
    """Perturb step counts by +-d in opposite directions, keeping their sum."""
    d = rng.randint(lo, hi) * rng.choice((-1, 1))
    out = list(means)
    out[0] += d
    out[-1] -= d
    return out


def plan(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed (same seed, same inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_box":
        # L: 1 -> [9, 10]; t_ff in [0.38, 0.42] (polynomial) and [0.50, 0.54]
        # (trigonometric).  Faster ramps or wider boxes drop the fidelity of
        # the 2048-point, dt = 5e-5 run below the 0.999 box threshold.
        dt = 5e-5
        steps = _steps_split(rng, [8000, 10400], 0, 400)
        ramps = [
            {"ramp": ramp, "l_final": round(rng.uniform(9.0, 10.0), 6), "t_ff": round(n * dt, 12), "steps": n}
            for ramp, n in zip(("polynomial", "trigonometric"), steps)
        ]
        return {"grid_points": 2048, "dt": dt, "ramps": ramps, "cayley_steps": sum(steps)}
    if workload == "sweep_harmonic":
        # omega: 1 -> [9, 11]; three distinct t_ff in [0.31, 0.39].  Each t_ff
        # is propagated twice (driven and undriven) by the fidelity output.
        dt = 1e-4
        steps = _steps_split(rng, [3500, 3500, 3500], 200, 400)
        return {
            "grid_points": 512,
            "dt": dt,
            "omega0": 1.0,
            "omegaF": round(rng.uniform(9.0, 11.0), 6),
            "t_ff_list": sorted(round(n * dt, 12) for n in steps),
            "cayley_steps": 2 * sum(steps),
        }
    if workload == "cost_presets":
        ho = {
            "ramp": "trigonometric",
            "omega0": 1.0,
            "omegaF": round(rng.uniform(9.0, 11.0), 6),
            "t_ff": round(rng.uniform(0.8, 1.2), 6),
            "beta": 1.0,
            "n_particles": [1, 8, 32],
        }
        box = {
            "ramp": "polynomial",
            "l0": 1.0,
            "l_final": round(rng.uniform(9.0, 11.0), 6),
            "t_ff": round(rng.uniform(0.8, 1.2), 6),
            "n_particles": [1, 16, 50],
            "frobenius_n_particles": 16,
        }
        n_sweep = len(ho["n_particles"]) + len(box["n_particles"])
        return {
            "presets": list(PRESETS),
            "nodes": COST_NODES,
            "grid_points": COST_POINTS,
            "ho": ho,
            "box": box,
            "trace_evaluations": PRESET_TRACE_EVALS + n_sweep * COST_NODES,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# workload bodies: build(ffqd, plan, out) does the set-up and returns the
# callable that makes every output; it in turn returns a dict for result.json.

def _build_verify_box(ffqd, p: dict, out: Path):
    scenarios = [
        ffqd.cli.Scenario(
            system="box",
            ramp=r["ramp"],
            l0=1.0,
            l_final=r["l_final"],
            t_ff_list=(r["t_ff"],),
            grid_points=p["grid_points"],
            dt=p["dt"],
        )
        for r in p["ramps"]
    ]

    def go():
        passed = {}
        for scn in scenarios:
            buf = io.StringIO()
            passed[scn.ramp] = bool(ffqd.cli.verify(scn, buf))
            (out / f"verify_{scn.ramp}.txt").write_text(buf.getvalue())
        return {"verify_passed": passed}

    return go


def _build_sweep_harmonic(ffqd, p: dict, out: Path):
    scn = ffqd.cli.Scenario(
        system="harmonic",
        ramp="trigonometric",
        omega0=p["omega0"],
        omegaF=p["omegaF"],
        t_ff_list=tuple(p["t_ff_list"]),
        grid_points=p["grid_points"],
        dt=p["dt"],
        outputs=("fidelity", "residual"),
    )

    def go():
        written = ffqd.cli.run(scn, out / "sweep")
        return {"written": [str(Path(w).relative_to(out)) for w in written]}

    return go


def _traj(ffqd, kind: str, l0: float, l1: float, t_ff: float):
    return ffqd.ControlTrajectory(kind, l0, t_ff, vbar=ffqd.vbar_for_target(kind, l0, l1, t_ff))


def _build_cost_presets(ffqd, p: dict, out: Path):
    ho, box = p["ho"], p["box"]
    ho_traj = _traj(ffqd, ho["ramp"], 1.0 / math.sqrt(ho["omega0"]), 1.0 / math.sqrt(ho["omegaF"]), ho["t_ff"])
    box_traj = _traj(ffqd, box["ramp"], box["l0"], box["l_final"], box["t_ff"])
    harmonic, boxm = ffqd.HarmonicModel(), ffqd.BoxModel()
    ho_ens = [ffqd.ThermalEnsemble(beta=ho["beta"], n_particles=n) for n in ho["n_particles"]]
    box_ens = [ffqd.ThermalEnsemble(beta=math.inf, n_particles=n) for n in box["n_particles"]]
    frob_ens = ffqd.ThermalEnsemble(beta=math.inf, n_particles=box["frobenius_n_particles"])
    nodes, points = p["nodes"], p["grid_points"]

    def go():
        codes = {fig: ffqd.cli.main(["preset", fig, "--out", str(out / fig)]) for fig in p["presets"]}
        sweep = {}
        for ens in ho_ens:
            sweep[f"ho_N{ens.n_particles}"] = ffqd.cost_ff_numeric(harmonic, ho_traj, ens, n_nodes=nodes, n_points=points)
        for ens in box_ens:
            sweep[f"box_N{ens.n_particles}"] = ffqd.cost_ff_numeric(boxm, box_traj, ens, n_nodes=nodes, n_points=points)
        frob = ffqd.frobenius_cost(boxm, box_traj, frob_ens, box["t_ff"], n_points=points)
        sweep["box_frobenius"] = float(frob.value)
        sweep["box_frobenius_cutoff"] = int(frob.cutoff)
        return {"preset_exit_codes": codes, "sweep": sweep}

    return go


_SETUPS = {
    "verify_box": _build_verify_box,
    "sweep_harmonic": _build_sweep_harmonic,
    "cost_presets": _build_cost_presets,
}


def _csv_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*.csv"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload once")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="existing empty directory for outputs")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = ap.parse_args(argv)
    p = plan(args.workload, args.seed)
    out = Path(args.out)

    t0 = time.perf_counter()
    import ffqd
    import ffqd.cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    go = _SETUPS[args.workload](ffqd, p, out)
    t_setup = time.perf_counter()
    outputs = go()
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "peak_rss_mb": peak_rss_mb,
        "csv_bytes": _csv_bytes(out),
        "outputs": outputs,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "ffqd": getattr(ffqd, "__version__", None),
        },
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FFQD_THREADS")},
        "trace": tracer.report() if tracer else None,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
