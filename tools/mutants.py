"""Sample mutants of chosen functions and run the test suite against each: a repeatable mutation score.

Usage:
    python tools/mutants.py [--root DIR] [--out mutants.json] [TARGET ...]

A TARGET is FILE:FUNCTION[,FUNCTION...], FILE relative to the repository root
(--root, by default the one holding this script).  A FUNCTION is a qualified
name, Class.method or outer.inner, or a bare name that names one function of
FILE alone (a bare name that two classes define is refused).  Without targets
the sampler takes the Cayley step (the fill of A/2 and both solves) and the
parallel layer: the forked-process protocol, the paired run and the sweep
pool (DEFAULT_TARGETS).

Every mutation site of the targets is listed in source order, and SAMPLE
of them are drawn with random.Random(SEED): both are fixed, so that scores
quoted for two versions of the code are made alike.  A site is one of:
  - a binary operator swapped: + and -, * and /, // to *, % to //;
  - a comparison flipped: < and <=, > and >=, == and !=, in and not in,
    is and is not;
  - and and or swapped, or a not dropped;
  - a constant nudged: an int by +1, a float by 0.1% (0.0, which a nudge
    leaves as it is, is no site), a bytes value to another byte, True and
    False swapped;
  - a statement that is a bare call deleted (replaced by pass).

Each mutant is written into one temporary copy of the repository, never
into the checkout, and the suite runs there with -x, with acceptance
criterion 8 deselected (it fails as written).  The unmutated copy runs
first and must pass.  A mutant is killed when the suite fails or runs past
TIMEOUT_S.  The JSON report lists each mutant's site, mutation,
whether it was killed and the first failing test, and the score.  A
SIGTERM ends the sampler as an exception does: the running suite's
session is killed and the temporary copy removed.

Stdlib only; it runs the suite with the interpreter that runs it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TARGETS = (
    "src/ffqd/propagator.py:_fill,_cayley_step,_factored_step,_paired_run,_turns,_factors,_fork,_send,_receive,_reap",
    "src/ffqd/cli.py:_usable_cpus,_one_os_thread,_outcomes,_propagations",
)
CRITERION_8 = "tests/test_acceptance.py::test_criterion_08_thermal_trace_vs_printed_expansion"
SEED = 7
SAMPLE = 20
TIMEOUT_S = 300.0  # a suite that passes takes under a minute; a hung mutant runs into this

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
_CMPOPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def _mutated(node: ast.AST) -> list[str]:
    """The source texts that replace node in each of its mutants (none if node is no site)."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return [f"({ast.unparse(ast.BinOp(node.left, _BINOPS[type(node.op)](), node.right))})"]
    if isinstance(node, ast.Compare):
        texts = []
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _CMPOPS[type(op)]()
            texts.append(f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})")
        return texts
    if isinstance(node, ast.BoolOp):
        return [f"({ast.unparse(ast.BoolOp(ast.Or() if isinstance(node.op, ast.And) else ast.And(), node.values))})"]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [f"({ast.unparse(node.operand)})"]
    if isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, bool):
            return [repr(not v)]
        if isinstance(v, int):
            return [repr(v + 1)]
        if isinstance(v, float):
            return [repr(v * 1.001)]
        if isinstance(v, bytes) and v:
            return [repr(bytes([v[0] ^ 0x02]) + v[1:])]
        return []
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        return ["pass"]
    return []


def _nodes(node: ast.AST):
    """node and the nodes under it in source order, skipping f-strings (whose parts carry no usable positions)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.JoinedStr):
            yield from _nodes(child)


def _functions(node: ast.AST, prefix: str = "") -> dict:
    """Every function under node by qualified name: Class.method, outer.inner, or a bare module-level name."""
    found = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                found[name] = child
            found.update(_functions(child, name + "."))
    return found


def _resolve(funcs: dict, file: str, name: str) -> str:
    """The qualified name a target's FUNCTION stands for: itself, or the one function it ends."""
    if name in funcs:
        return name
    matches = [q for q in funcs if q.rsplit(".", 1)[-1] == name]
    if len(matches) > 1:
        raise SystemExit(f"{file}: {name} is ambiguous, name one of {', '.join(matches)}")
    if not matches:
        raise SystemExit(f"{file} has no function {name}")
    return matches[0]


def sites(root: Path, targets) -> list[dict]:
    """Every mutation site of the targets, once each: file, function, line, byte span, original and mutated text."""
    found, seen = [], set()
    for target in targets:
        file, names = target.split(":")
        source = (root / file).read_bytes()
        starts = [0]  # byte offset of each line
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        tree = ast.parse(source)
        funcs = _functions(tree)
        for name in (_resolve(funcs, file, n) for n in names.split(",")):
            for node in _nodes(funcs[name]):
                for text in _mutated(node):
                    start = starts[node.lineno - 1] + node.col_offset  # col_offset counts UTF-8 bytes
                    end = starts[node.end_lineno - 1] + node.end_col_offset
                    original = source[start:end].decode()
                    # a float nudge of 0.0 changes nothing; a function and one nested in it share sites
                    if text != original and (file, start, end, text) not in seen:
                        seen.add((file, start, end, text))
                        found.append(dict(file=file, function=name, line=node.lineno, start=start, end=end,
                                          mutation=f"{original} -> {text}"))
    return found


def _suite(copy: Path) -> tuple[bool, str | None]:
    """(passed, first failing test) of the suite run in copy with -x; a run past TIMEOUT_S fails as 'timeout'.

    The suite runs in a session of its own, which is killed afterwards: a
    mutant may leave a forked process waiting on a pipe that never ends.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", CRITERION_8]
    with tempfile.TemporaryFile("w+") as log:
        proc = subprocess.Popen(command, cwd=copy, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        log.seek(0)
        lines = log.read().splitlines()
    if code is None:
        return False, "timeout"
    failed = [line.split(" ")[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return code == 0, (failed[0] if failed else None if code == 0 else f"exit {code}")


def _terminated(signum, frame):
    """The SIGTERM handler: raise SystemExit, so that the finally clauses and context managers on the stack clean up."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_TARGETS))
    parser.add_argument("--root", type=Path, default=ROOT, help="repository to mutate a copy of")
    parser.add_argument("--out", type=Path, default=Path("mutants.json"))
    args = parser.parse_args(argv)

    everything = sites(args.root, args.targets)
    chosen = sorted(random.Random(SEED).sample(range(len(everything)), min(SAMPLE, len(everything))))
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(args.root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        passed, failing = _suite(copy)
        if not passed:
            raise SystemExit(f"the unmutated suite fails ({failing}); no score")
        for index in chosen:
            site = everything[index]
            path = copy / site["file"]
            original = path.read_bytes()
            text = site["mutation"].split(" -> ", 1)[1].encode()
            path.write_bytes(original[: site["start"]] + text + original[site["end"] :])
            began = time.perf_counter()
            try:
                passed, failing = _suite(copy)
            finally:
                path.write_bytes(original)
            result = {k: site[k] for k in ("file", "function", "line", "mutation")}
            result.update(killed=not passed, killing_test=failing, seconds=round(time.perf_counter() - began, 1))
            results.append(result)
            print(json.dumps(result), flush=True)
    killed = sum(r["killed"] for r in results)
    report = dict(seed=SEED, sample=SAMPLE, targets=args.targets, sites=len(everything),
                  killed=killed, mutants=len(results), score=killed / len(results) if results else None, results=results)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{killed}/{len(results)} killed ({len(everything)} sites); report in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
