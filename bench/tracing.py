"""Per-layer spans for the traced run, patched in from the benchmark's side.

Each binding in TARGETS is replaced, at the place it is looked up, by a
wrapper that records a span: name, start, end and the enclosing span.  Hot
spans are aggregated in memory per (name, parent) as count, inclusive time
and self time (duration minus the direct children's durations); spans at
depth 0 and 1 are also kept one by one.  `report()` returns both at the end.

A span's name is `<layer>.<binding>`; the layer is the ffqd module the code
lives in, plus `scipy` for the scipy functions as bound inside ffqd modules.
`core` is not traced: its constructors and inner products count as self time
of whichever layer calls them.  A binding missing from the library is listed
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, layer).  Module attributes are patched
# where callers look them up: cli reads `ff.<name>`, `cost_mod.<name>` and
# `ie_mod.<name>` from the module objects, and its own imported names
# (`propagate`, `fidelity`, ...) from its namespace.
TARGETS = (
    ("ffqd.cli", "main", "cli"),
    ("ffqd.cli", "run", "cli"),
    ("ffqd.cli", "verify", "cli"),
    ("ffqd.cli", "propagate", "propagator"),
    ("ffqd.cli", "tdse_residual", "propagator"),
    ("ffqd.cli", "fidelity", "propagator"),
    ("ffqd.cli", "vbar_for_target", "trajectory"),
    ("ffqd.trajectory", "ControlTrajectory.__post_init__", "trajectory"),
    ("ffqd.trajectory", "ControlTrajectory.value", "trajectory"),
    ("ffqd.trajectory", "ControlTrajectory.velocity", "trajectory"),
    ("ffqd.trajectory", "ControlTrajectory.acceleration", "trajectory"),
    ("ffqd.fastforward", "psi_ff_box", "fastforward"),
    ("ffqd.fastforward", "psi_ff_ho", "fastforward"),
    ("ffqd.fastforward", "box_psi_ff_values", "fastforward"),
    ("ffqd.fastforward", "ho_psi_ff_values", "fastforward"),
    ("ffqd.fastforward", "v_ff_box", "fastforward"),
    ("ffqd.fastforward", "v_ff_ho", "fastforward"),
    ("ffqd.fastforward", "box_eigenstate", "spectra"),
    ("ffqd.fastforward", "ho_eigenstate", "spectra"),
    ("ffqd.cost", "v_ff_box", "fastforward"),
    ("ffqd.cost", "v_ff_ho", "fastforward"),
    ("ffqd.spectra", "BoxModel.energy", "spectra"),
    ("ffqd.spectra", "BoxModel.v0", "spectra"),
    ("ffqd.spectra", "BoxModel.amplitudes", "spectra"),
    ("ffqd.spectra", "BoxModel.level_numbers", "spectra"),
    ("ffqd.spectra", "BoxModel.default_grid", "spectra"),
    ("ffqd.spectra", "HarmonicModel.omega", "spectra"),
    ("ffqd.spectra", "HarmonicModel.sigma", "spectra"),
    ("ffqd.spectra", "HarmonicModel.energy", "spectra"),
    ("ffqd.spectra", "HarmonicModel.v0", "spectra"),
    ("ffqd.spectra", "HarmonicModel.amplitudes", "spectra"),
    ("ffqd.spectra", "HarmonicModel.level_numbers", "spectra"),
    ("ffqd.spectra", "HarmonicModel.default_grid", "spectra"),
    ("ffqd.cost", "internal_energy_numeric", "cost"),
    ("ffqd.cost", "solve_mu", "cost"),
    ("ffqd.cost", "cost_ff_numeric", "cost"),
    ("ffqd.cost", "frobenius_cost", "cost"),
    ("ffqd.cost", "cost_ff", "cost"),
    ("ffqd.cost", "cost_ff_box_closed", "cost"),
    ("ffqd.cost", "cost_ff_ho_closed", "cost"),
    ("ffqd.cost", "coefficient_A", "cost"),
    ("ffqd.cost", "coefficients_B", "cost"),
    ("ffqd.cost", "box_drive_prefactor", "cost"),
    ("ffqd.cost", "internal_energy_box", "cost"),
    ("ffqd.cost", "internal_energy_box_parts", "cost"),
    ("ffqd.cost", "internal_energy_ho", "cost"),
    ("ffqd.ie", "design_b", "ie"),
    ("ffqd.ie", "cost_ie", "ie"),
    ("ffqd.ie", "h_ie_expectation", "ie"),
    ("ffqd.propagator", "solve_banded", "scipy"),
    ("ffqd.trajectory", "quad", "scipy"),
    ("ffqd.fastforward", "quad", "scipy"),
    ("ffqd.cost", "quad", "scipy"),
    ("ffqd.ie", "quad", "scipy"),
)


def _spec_steps(args, kwargs):
    """Cayley steps of one propagate(psi0, spec, ...) call, or None."""
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    try:
        return max(1, int(round(spec.t_final / spec.dt)))
    except (AttributeError, TypeError, ZeroDivisionError):
        return None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, children's time]
        self.aggregate: dict[tuple, list] = {}  # (name, parent) -> [count, total_s, self_s]
        self.spans: list[tuple] = []  # (name, parent, start, end) at depth 0 and 1
        self.steps = 0
        self.steps_unknown = 0
        self.absent: list[str] = []
        self.patched: list[str] = []

    def wrap(self, name: str, fn):
        stack, agg, clock = self._stack, self.aggregate, time.perf_counter
        count_steps = name == "propagator.propagate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_steps:
                steps = _spec_steps(args, kwargs)
                if steps is None:
                    self.steps_unknown += 1
                else:
                    self.steps += steps
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if len(stack) < 2:
                    self.spans.append((name, parent, frame[1], end))

        return traced

    def install(self) -> None:
        """Patch every binding in TARGETS that exists; note the ones that do not."""
        top = sys.modules["ffqd"]
        for modname, attr, layer in TARGETS:
            label = f"{modname}.{attr}"
            mod = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = owner.__dict__.get(member) if owner is not None else None
            if not callable(original):
                self.absent.append(label)
                continue
            wrapped = self.wrap(f"{layer}.{member}", original)
            setattr(owner, member, wrapped)
            # the package re-exports most public names; patch that binding too
            if not owner_name and getattr(top, member, None) is original:
                setattr(top, member, wrapped)
            self.patched.append(label)

    def report(self) -> dict:
        return {
            "aggregate": [
                {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": [{"name": n, "parent": p, "start": a, "end": b} for n, p, a, b in self.spans],
            "propagate_steps": self.steps,
            "propagate_steps_unknown": self.steps_unknown,
            "absent": self.absent,
            "patched": self.patched,
        }

