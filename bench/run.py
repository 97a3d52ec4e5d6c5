"""ffqd benchmark runner: one workload, timed in fresh single-threaded processes.

    python3 bench/run.py --workload verify_box --seed 0 --seconds 40 --trace 0 [--out FILE]
    python3 bench/run.py --compare BASE NEW      # result files or directories of them
    python3 bench/run.py --record-references     # rewrite bench/references.json

Run from anywhere; the repository root is the parent of this directory and
the library is imported from its `src/`.  Each execution of the workload is
a new `python3 bench/workloads.py` process with OPENBLAS/OMP/MKL threads
pinned to 1 and FFQD_THREADS unset.  Executions repeat until --seconds have
passed (at least MIN_SAMPLES of them); every execution's outputs go through
the correctness gate in checks.py, outside the timed region.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}

MIN_SAMPLES = 3  # untraced executions per run (traced runs: 2 traced + 2 untraced)
DEADLINE_S = 170.0  # a run must end within 180 s
IMPORTTIME_RUNS = 3
REFERENCE_SEEDS = tuple(range(10))


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FFQD_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(cmd: list[str], deadline: float, **kw) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout, **kw)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc


def execute(workload: str, seed: int, trace: bool, deadline: float) -> tuple[dict, checks.Tally]:
    """One execution of the workload in a fresh process, then its correctness gate."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
        proc = _run(cmd + ["--trace"] * trace, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads((out / "result.json").read_text())
        return result, checks.check(workload, seed, out, result)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def import_times(deadline: float) -> dict:
    """import.{ffqd,scipy,numpy}_s from `python -X importtime -c 'import ffqd'`."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import ffqd"], deadline, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"import ffqd failed:\n{proc.stderr[-4000:]}")
    out = {"import.ffqd_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", proc.stderr):
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        top = name.split(".")[0]
        if name == "ffqd":
            out["import.ffqd_s"] = cum_us * 1e-6
        elif top in ("scipy", "numpy"):
            out[f"import.{top}_s"] += self_us * 1e-6
    return out


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced execution."""
    tr = result["trace"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for a in tr["aggregate"]:
        for key in (a["name"].split(".")[0], a["name"]):
            calls[key] = calls.get(key, 0) + a["count"]
            self_s[key] = self_s.get(key, 0.0) + a["self_s"]
            total_s[key] = total_s.get(key, 0.0) + a["total_s"]
    steps = tr["propagate_steps"]
    m = {
        "propagator.calls": calls.get("propagator", 0),
        "propagator.steps": steps,
        "propagator.self_s": self_s.get("propagator", 0.0),
        "propagator.us_per_step": 1e6 * total_s.get("propagator.propagate", 0.0) / steps if steps else 0.0,
        "scipy.solve_calls": calls.get("scipy.solve_banded", 0),
        "scipy.solve_self_s": self_s.get("scipy.solve_banded", 0.0),
        "cost.trace_calls": calls.get("cost.internal_energy_numeric", 0),
        "cost.trace_self_s": self_s.get("cost.internal_energy_numeric", 0.0),
        "cost.mu_calls": calls.get("cost.solve_mu", 0),
        "cost.mu_self_s": self_s.get("cost.solve_mu", 0.0),
        "cost.self_s": self_s.get("cost", 0.0),
        "scipy.quad_calls": calls.get("scipy.quad", 0),
        "scipy.quad_self_s": self_s.get("scipy.quad", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.csv_bytes": result["csv_bytes"],
    }
    for layer in ("trajectory", "fastforward", "spectra", "ie"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "ffqd").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, result: dict) -> dict:
    return {
        **result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        **result["threads"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    # compile bytecode and warm the file cache; users do not pay this per run
    _run([sys.executable, "-c", "import ffqd"], deadline, check=True)
    samples: dict[str, list] = {}
    imports = [import_times(deadline) for _ in range(IMPORTTIME_RUNS)] if trace else []
    attempted = failed = 0
    failures: list[str] = []
    counts = {False: 0, True: 0}
    durations: list[float] = []
    last = last_traced = None
    need = {False: 2, True: 2} if trace else {False: MIN_SAMPLES, True: 0}
    while True:
        # start no execution that would end past --seconds once the minimum is met,
        # nor one that could overrun the deadline
        now = time.monotonic()
        typical = statistics.median(durations) if durations else 0.0
        enough = all(counts[k] >= need[k] for k in need)
        if (enough and now + typical - start > seconds) or deadline - now < 1.5 * max(durations, default=0.0):
            break
        traced = trace and counts[True] < counts[False]
        result, tally = execute(workload, seed, traced, deadline)
        durations.append(time.monotonic() - now)
        counts[traced] += 1
        attempted += tally.attempted
        failed += tally.failed
        failures += [m for m in tally.messages if m not in failures]
        prefix = ("traced." if traced else "untraced.") if trace else ""
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            samples.setdefault(prefix + name, []).append(result[name])
        if traced:
            for name, v in layer_metrics(result).items():
                samples.setdefault(name, []).append(v)
            last_traced = result
        last = result
    if last is None or (trace and last_traced is None):
        raise BenchError("no execution fitted in the time limit")

    for d in imports:
        for name, v in d.items():
            samples.setdefault(name, []).append(v)
    stats = {name: summary(v) for name, v in samples.items()}
    if trace:
        overhead = stats["traced.wall_s"]["median"] - stats["untraced.wall_s"]["median"]
        samples["trace.overhead_s"] = [overhead]
        stats["trace.overhead_s"] = summary([overhead])
        wanted = SPEC["per_layer"]
    else:
        ratio = (attempted - failed) / attempted if attempted else 0.0
        samples["pass_ratio"] = [ratio]
        stats["pass_ratio"] = summary([ratio])
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "env": environment(seed, last),
        "plan": plan(workload, seed),
        "outputs": last["outputs"],
        "samples": samples,
        "summary": stats,
        "trace_report": last_traced["trace"] if last_traced else None,
        "failures": failures[:50],
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    print("size " + json.dumps(rec["plan"], sort_keys=True))
    if rec["trace_report"] and rec["trace_report"]["absent"]:
        print("absent bindings: " + ", ".join(rec["trace_report"]["absent"]))
    for msg in rec["failures"]:
        print("FAILED CHECK " + msg)
    for name, m in rec["metrics"].items():
        s = rec["summary"][name]
        print(f"{name:24s} {m['value']:.6g} {m['unit']}  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"checks: {rec['attempted'] - rec['failed']}/{rec['attempted']} passed")


# ---------------------------------------------------------------------------
# compare mode

def load_records(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    recs = [json.loads(f.read_text()) for f in files]
    return [r for r in recs if isinstance(r, dict) and "samples" in r and "workload" in r]


def compare(base: Path, new: Path) -> int:
    """Per workload and metric: run medians, quartiles, ratio new/base, verdict against the bound.

    The values compared are the per-run medians, so the spread is the
    run-to-run spread; a side with fewer than two runs is unresolved.
    """
    a_recs, b_recs = load_records(base), load_records(new)
    bounds = {m["name"]: m for m in SPEC.get("end_to_end", [])}
    print(f"base = {base} ({len(a_recs)} runs), new = {new} ({len(b_recs)} runs); values are run medians")
    print(f"{'workload':15s} {'metric':24s} {'base median [q1, q3] runs':34s} {'new median [q1, q3] runs':34s} {'new/base':>9s}  verdict")
    for wl in WORKLOADS:
        a_wl = [r for r in a_recs if r["workload"] == wl]
        b_wl = [r for r in b_recs if r["workload"] == wl]
        names = sorted({k for r in a_wl for k in r["metrics"]} & {k for r in b_wl for k in r["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_wl if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_wl if name in r["metrics"]]
            sa, sb = summary(a), summary(b)
            ratio = f"{sb['median'] / sa['median']:9.4f}" if sa["median"] else f"{'n/a':>9s}"
            print(f"{wl:15s} {name:24s} {_fmt_summary(sa):34s} {_fmt_summary(sb):34s} {ratio}  " + verdict(a, b, sa, sb, bounds.get(name)))
    return 0


def _fmt_summary(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"


def verdict(a: list, b: list, sa: dict, sb: dict, spec: dict | None) -> str:
    if spec is None:
        return "no bound"
    if min(len(a), len(b)) < 2:
        return "unresolved (fewer than 2 runs on a side)"
    bound, lower = spec["bound"], spec["better"] == "lower"
    sign = 1.0 if lower else -1.0
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (sa, sb))
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    change = f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
    if spread > bound and not all_better:
        return f"unresolved ({change}; spread {spread:.3f} > bound {bound})"
    return f"{'outside' if worse > bound else 'inside'} bound {bound} ({change})"


# ---------------------------------------------------------------------------

def record_references(seeds) -> int:
    """Rerun cost_presets per seed and store its numbers as the references."""
    deadline = time.monotonic() + 60.0 * len(seeds)
    refs = {"git_sha": git_sha(), "source_sha256": source_digest(), "presets": None, "sweep": {}}
    for seed in seeds:
        WORK.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="references-", dir=WORK))
        try:
            cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", "cost_presets", "--seed", str(seed), "--out", str(out)]
            _run(cmd, deadline, check=True, stdout=subprocess.DEVNULL)
            result = json.loads((out / "result.json").read_text())
            if refs["presets"] is None:
                refs["presets"] = checks.preset_tables(out, plan("cost_presets", seed)["presets"])
            refs["sweep"][str(seed)] = result["outputs"]["sweep"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {checks.REFERENCES} for seeds {list(seeds)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record (samples, environment, sizes) here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "ffqd" / "__init__.py").is_file() or not SPEC:
        print(f"error: no ffqd sources under {SRC} or no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.record_references:
        return record_references(REFERENCE_SEEDS)
    if not args.workload:
        ap.error("--workload is required")
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
