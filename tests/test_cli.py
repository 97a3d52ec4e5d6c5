import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffqd.cli import (
    Scenario,
    main,
    parse_config_text,
    run,
    scenario_from_csv_header,
    verify,
)
from ffqd.spectra import HarmonicModel

from helpers import one_thread_python, src_env


def small_box_scenario(**overrides):
    base = dict(
        system="box",
        ramp="trigonometric",
        l0=1.0,
        l_final=10.0,
        t_ff_list=(1.0,),
        beta=math.inf,
        n_particles=1,
        grid_points=1024,
        dt=1e-4,
        outputs=("fidelity", "residual"),
    )
    base.update(overrides)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(system="ring")
    with pytest.raises(ValueError):
        Scenario(ramp="sudden")
    with pytest.raises(ValueError):
        Scenario(system="box", outputs=("ie_compare",))
    with pytest.raises(ValueError):
        Scenario(t_ff_list=(0.0,))
    with pytest.raises(ValueError):
        Scenario(outputs=("plot",))


_BAD_OVERRIDES = [
    "n_particles=0",
    "n_particles=-3",
    "l0=nan",
    "l0=inf",
    "l_final=nan",
    "omega0=inf",
    "omegaF=nan",
    "t_ff_list=1.0,nan",
    "t_ff_list=inf",
    "t_ff_list=1.0,0.5,1.0",
    "dt=0",
    "dt=-1e-4",
    "dt=nan",
    "dt=inf",
    "epsilon=nan",
    "epsilon=inf",
    "beta=nan",
    "beta=0",
    "beta=-1",
    "grid_points=0",
    "grid_points=7",
    "system=harmonic outputs=ie_compare beta=1.0 grid_points=2",
    "outputs=cost_curve,cost_curve",
    "ramp=linear outputs=cost_curve",
    "system=harmonic ramp=linear outputs=ie_compare",
    # grids on which a level of the narrowest nodes has a zero trapezoid norm (omega 1 -> 100
    # at 9 points, 1 -> 400 at 8), and one the trace check rejects (omega 1 -> 10 in t_ff = 0.05)
    "system=harmonic ramp=trigonometric omegaF=100 beta=0.375 n_particles=21 grid_points=9 outputs=ie_compare",
    "system=harmonic ramp=trigonometric omegaF=400 beta=0.375 n_particles=21 grid_points=8 outputs=ie_compare",
    "system=harmonic omegaF=10 beta=1.0 n_particles=1 t_ff_list=0.05 outputs=ie_compare",
    # 50/beta, the mu bisection's bracket pad, overflows: the bisection never ended
    "system=harmonic outputs=ie_compare beta=1e-310",
]


@pytest.mark.parametrize("overrides", _BAD_OVERRIDES)
def test_invalid_scenario_exits_2_without_traceback(tmp_path, capsys, overrides):
    cfg = tmp_path / "box.cfg"
    cfg.write_text("system=box\nramp=polynomial\nt_ff_list=1.0\noutputs=cost_curve\n")
    assert main(["run", str(cfg), *overrides.split(), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["run", str(d)],
        lambda d: ["run", str(d / "box.cfg"), "--out", str(d / "file")],
        lambda d: ["preset", "fig3", "--out", str(d / "file")],
    ],
    ids=["config_is_a_directory", "run_out_is_a_file", "preset_out_is_a_file"],
)
def test_a_bad_path_exits_2_without_traceback(tmp_path, capsys, argv):
    # IsADirectoryError and FileExistsError used to escape main as tracebacks
    (tmp_path / "box.cfg").write_text("system=box\nramp=polynomial\nt_ff_list=1.0\noutputs=cost_curve\n")
    (tmp_path / "file").write_text("")
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    assert "Traceback" not in err


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _small_run_configs(draw):
    """A random `ffqd run` config of either trap: at most 64 points and 200 steps."""
    system = draw(st.sampled_from(["box", "harmonic"]))
    outputs = ["cost_curve", "fidelity", "residual"] + ["ie_compare"] * (system == "harmonic")
    t_ff = draw(_log_uniform(0.05, 5.0))
    return {
        "system": system,
        "ramp": draw(st.sampled_from(["polynomial", "trigonometric", "linear"])),
        "l0": draw(_log_uniform(0.2, 5.0)),
        "l_final": draw(_log_uniform(0.2, 5.0)),
        "omega0": draw(_log_uniform(0.2, 20.0)),
        "omegaF": draw(_log_uniform(0.2, 20.0)),
        "t_ff_list": t_ff,
        "beta": draw(st.one_of(st.just(math.inf), _log_uniform(0.1, 10.0))),
        "n_particles": draw(st.integers(1, 12)),
        "grid_points": draw(st.integers(8, 64)),
        "dt": t_ff / draw(st.integers(1, 200)),
        "epsilon": draw(st.floats(-0.5, 0.5)),
        "outputs": ",".join(draw(st.lists(st.sampled_from(outputs), min_size=1, unique=True))),
    }


# what only stepping can find: exit 1 names one of these, anything the input decides exits 2
_IN_LOOP_FAILURES = ("norm drifted to", "zgtsv failed")


@settings(max_examples=30, deadline=None)
@given(_small_run_configs())
def test_random_run_succeeds_or_names_its_failure(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "s.cfg", Path(tmp) / "out"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["run", str(cfg), "--out", str(out)])
        assert not caught, [str(w.message) for w in caught]
        msg = err.getvalue()
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == sorted(f"{o}.csv" for o in config["outputs"].split(","))
            return
        assert not list(out.glob("*.csv"))
        if code == 2:
            assert msg.startswith("error: invalid scenario: ")
        else:
            assert code == 1 and msg.startswith("error: numerical check failed: "), msg
            assert any(name in msg for name in _IN_LOOP_FAILURES), msg


def test_scenario_boundary_values_accepted():
    assert Scenario(beta=math.inf).beta == math.inf
    assert Scenario(epsilon=-0.01).epsilon == -0.01
    assert Scenario(n_particles=1, dt=1e-9).n_particles == 1


def test_config_parsing_and_overrides(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("# comment\nsystem=box\nramp=polynomial\nt_ff_list=0.5,1.0\nbeta=inf\n")
    mapping = parse_config_text(cfg.read_text())
    mapping.update(parse_config_text("dt=1e-3"))
    scn = Scenario.from_mapping(mapping)
    assert scn.system == "box" and scn.dt == 1e-3
    assert scn.t_ff_list == (0.5, 1.0)
    assert scn.beta == math.inf


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        Scenario.from_mapping({"systen": "box"})


def test_comment_header_round_trip():
    for scn in (
        small_box_scenario(),
        Scenario(system="harmonic", beta=1.0, t_ff_list=(0.5, 2.0), outputs=("ie_compare",)),
    ):
        lines = scn.comment_header()
        mapping = {}
        for line in lines.splitlines():
            key, val = line[1:].strip().split("=", 1)
            mapping[key] = val
        assert Scenario.from_mapping(mapping) == scn


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_OUTPUT_NAMES = ("cost_curve", "fidelity", "residual", "ie_compare", "snapshots")


@st.composite
def _scenarios(draw):
    system = draw(st.sampled_from(("harmonic", "box")))
    ramp = draw(st.sampled_from(("polynomial", "trigonometric", "linear")))
    outputs = [o for o in _OUTPUT_NAMES if system == "harmonic" or o != "ie_compare"]
    if ramp == "linear":
        outputs = [o for o in outputs if o not in ("cost_curve", "ie_compare")]
    return Scenario(
        system=system,
        ramp=ramp,
        l0=draw(_positive),
        l_final=draw(_positive),
        omega0=draw(_positive),
        omegaF=draw(_positive),
        t_ff_list=tuple(draw(st.lists(_positive, max_size=5, unique=True))),
        beta=draw(st.one_of(_positive, st.just(math.inf))),
        n_particles=draw(st.integers(1, 10**6)),
        grid_points=draw(st.integers(8, 10**6)),
        dt=draw(_positive),
        epsilon=draw(st.floats(allow_nan=False, allow_infinity=False)),
        outputs=tuple(draw(st.lists(st.sampled_from(outputs), unique=True))),
    )


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_csv_header_round_trips_any_scenario(scn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        path.write_text(scn.comment_header() + "t_ff,value\n")
        assert scenario_from_csv_header(path) == scn


def test_csv_header_round_trips_numpy_scalars(tmp_path):
    # repr wrote l0=np.float64(2.0), which the header parse could not read back
    scn = Scenario(
        l0=np.float64(2.0), beta=np.float64(np.inf), n_particles=np.int64(3), t_ff_list=(np.float64(0.5),)
    )
    path = tmp_path / "out.csv"
    path.write_text(scn.comment_header() + "t_ff,value\n")
    assert "np." not in path.read_text()
    assert scenario_from_csv_header(path) == scn


def test_harmonic_control_endpoints():
    scn = Scenario(system="harmonic", omega0=1.0, omegaF=10.0)
    a, b = scn.control_endpoints()
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(10.0**-0.5)


def test_empty_sweep_writes_nothing(tmp_path):
    scn = small_box_scenario(t_ff_list=())
    written = run(scn, tmp_path)
    assert written == []
    assert list(tmp_path.iterdir()) == []


def test_run_fidelity_and_residual_outputs(tmp_path):
    scn = small_box_scenario()
    written = run(scn, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["fidelity.csv", "residual.csv"]
    fid_lines = (tmp_path / "fidelity.csv").read_text().splitlines()
    header = [line for line in fid_lines if not line.startswith("#")][0]
    assert header == "t_ff,fidelity,fidelity_no_drive,norm_error"
    row = [float(tok) for tok in fid_lines[-1].split(",")]
    assert row[1] > 0.999 and row[1] > row[2]
    # provenance comments parse back to the exact scenario
    assert scenario_from_csv_header(tmp_path / "fidelity.csv") == scn


def test_verify_passes_and_fails(tmp_path, capsys):
    assert verify(small_box_scenario()) is True
    out = capsys.readouterr().out
    assert "verification PASSED" in out
    # coarse stepping trips the potential-scale precondition with a diagnostic
    assert verify(small_box_scenario(dt=1e-2)) is False
    out = capsys.readouterr().out
    assert "FAIL" in out and "too coarse" in out


def test_verify_linear_ramp_skips_negative_control(capsys):
    scn = Scenario(
        system="harmonic",
        ramp="linear",
        epsilon=-0.05,
        t_ff_list=(1.0,),
        grid_points=512,
        dt=2e-4,
        outputs=("fidelity",),
    )
    assert verify(scn) is True
    out = capsys.readouterr().out
    assert "negative_control" not in out


def test_verify_with_an_empty_sweep_is_an_invalid_scenario(tmp_path, capsys):
    # no t_ff means no check runs, which used to print "verification PASSED"
    with pytest.raises(ValueError, match="nothing to verify: t_ff_list is empty"):
        verify(small_box_scenario(t_ff_list=()))
    cfg = tmp_path / "box.cfg"
    cfg.write_text("system=box\nramp=polynomial\nt_ff_list=1.0\n")
    assert main(["verify", str(cfg), "t_ff_list="]) == 2
    captured = capsys.readouterr()
    assert "invalid scenario" in captured.err
    assert "Traceback" not in captured.err
    assert "verification" not in captured.out


def test_verify_does_not_check_the_outputs_it_never_writes(tmp_path, capsys):
    # outputs defaults to cost_curve, which a linear ramp rejects: a linear-ramp
    # config without an outputs= line used to make verify exit 2
    cfg = tmp_path / "linear.cfg"
    cfg.write_text("system=harmonic\nramp=linear\nepsilon=-0.05\nt_ff_list=1.0\ngrid_points=512\ndt=2e-4\n")
    assert main(["verify", str(cfg)]) == 0
    assert "verification PASSED" in capsys.readouterr().out
    # run of the same config writes cost_curve, and still exits 2 before any work
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario: cost_curve needs a polynomial or trigonometric ramp" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_run_and_exit_codes(tmp_path):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(
        "system=box\nramp=trigonometric\nl0=1\nl_final=10\nt_ff_list=1.0\n"
        "beta=inf\nn_particles=1\ngrid_points=384\ndt=2e-4\noutputs=residual\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "residual.csv").exists()
    # invalid override -> exit 2
    assert main(["run", str(cfg), "system=ring", "--out", str(tmp_path / "out2")]) == 2


def test_run_writes_no_csv_when_a_later_output_fails(tmp_path):
    # dt = 0.1 makes the fidelity propagation fail its dt * max|V| precondition
    # after the cost curve has been computed: an input fault, so exit 2
    cfg = tmp_path / "ho.cfg"
    cfg.write_text("system=harmonic\nt_ff_list=1.0\ngrid_points=128\ndt=0.1\noutputs=cost_curve,fidelity\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "cost_curve.csv").exists()


def test_failing_snapshots_leave_no_csv(tmp_path, capsys):
    # dt = 0.01 fails the snapshot propagation's dt * max|V| precondition; its
    # frames used to stream to a file after cost_curve.csv had been written
    text = "system=box\nt_ff_list=0.1\ndt=0.01\ngrid_points=64\noutputs=cost_curve,snapshots\n"
    cfg = tmp_path / "box.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError, match="time step too coarse"):
        run(Scenario.from_mapping(parse_config_text(text)), tmp_path / "api")
    assert list((tmp_path / "api").iterdir()) == []
    assert main(["run", str(cfg), "--out", str(tmp_path / "cli")]) == 2
    assert "time step too coarse" in capsys.readouterr().err
    assert list((tmp_path / "cli").iterdir()) == []


@pytest.mark.parametrize("system", ["harmonic", "box"])
def test_driven_residual_matches_quad_phase_oracle(system):
    # the same analytic state with its dynamical phase from scipy's quad over
    # [t_mid, s]; a global phase does not change the residual
    from scipy.integrate import quad

    from ffqd import cli
    from ffqd import fastforward as ff
    from ffqd.core import Grid
    from ffqd.propagator import tdse_residual
    from ffqd.spectra import BoxModel

    scn = small_box_scenario(system=system, ramp="polynomial", grid_points=512)
    traj = scn.trajectory(1.0)
    driven, _ = cli._residuals(scn, traj)
    t_mid, dt = 0.3, 1e-5
    if system == "harmonic":
        model, level, pref = HarmonicModel(), 0, 0.5
        grid = model.default_grid(traj.value(t_mid), 512)
    else:
        model, level, pref = BoxModel(), 1, 0.5 * math.pi**2
        grid = Grid(0.0, traj.value(t_mid), 512)

    def psi(s):
        phase = pref * quad(lambda u: traj.value(u) ** -2, t_mid, s, epsabs=0.0, epsrel=1e-13)[0]
        return ff.psi_ff_values(model, level, s, traj, grid.points, _phase_origin=s) * np.exp(-1j * phase)

    oracle = tdse_residual(psi, ff.trap_coefficient(model, traj), grid, t_mid, dt)
    assert driven == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("system=box\nt_ff_list=\noutputs=cost_curve\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ffqd", "run", str(cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0


def test_import_and_cost_preset_load_no_scipy(tmp_path):
    # propagation loads the top-level scipy package and its LAPACK extension
    # and the numeric phase check imports scipy.integrate, both on first use;
    # the cost layer behind the presets needs none of scipy
    code = (
        "import sys\n"
        "import ffqd, ffqd.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "after_import = loaded()\n"
        f"assert ffqd.cli.main(['preset', 'fig3', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(after_import, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"


_VERIFY_AND_PROPAGATE = """
import hashlib, io, json, sys
if SCIPY_FIRST:
    import scipy.linalg.lapack
import ffqd, ffqd.cli
from ffqd.core import Grid
from ffqd.fastforward import psi_ff, trap_coefficient
from ffqd.propagator import propagate
from ffqd.spectra import BoxModel

scn = ffqd.cli.Scenario(system="box", ramp="trigonometric", l_final=3.0, grid_points=256, dt=5e-4)
text = io.StringIO()
assert ffqd.cli.verify(scn, text)
scipy_names = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
traj = scn.trajectory(1.0)
psi0 = psi_ff(BoxModel(), 1, 0.0, traj, Grid(0.0, traj.value(0.0), 256))
coefficient = trap_coefficient(BoxModel(), traj)
digest = lambda: hashlib.sha256(propagate(psi0, traj, coefficient, 1e-3, 1.0).values.tobytes()).hexdigest()
states = [digest()]
import scipy.linalg.lapack
from ffqd.propagator import _zgtsv
states.append(digest())
print(json.dumps([text.getvalue(), scipy_names, states, _zgtsv() is scipy.linalg.lapack.zgtsv]))
"""


def test_propagation_skips_the_scipy_linalg_init():
    # verify imports the top-level scipy package and loads its LAPACK extension
    # but imports not scipy.linalg (nor registers the extension under its name),
    # and the states are bit-identical whether scipy.linalg was imported before
    # or after that extension was loaded
    bare = "import json, sys, scipy\nprint(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", bare], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    scipy_alone = json.loads(proc.stdout.splitlines()[-1])
    runs = []
    for scipy_first in (False, True):
        code = f"SCIPY_FIRST = {scipy_first}\n" + _VERIFY_AND_PROPAGATE
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    (text, names, states, same_routine), (text_scipy_first, _, states_scipy_first, _) = runs
    assert "scipy.linalg" not in names
    assert names == scipy_alone
    assert same_routine
    assert text == text_scipy_first
    assert len(set(states + states_scipy_first)) == 1


_PROPAGATE_THEN_IMPORT_LINALG = """
import ffqd.cli
assert ffqd.cli.verify(ffqd.cli.Scenario(system="box", ramp="trigonometric", l_final=3.0, grid_points=256, dt=5e-4))
import scipy.linalg
from ffqd.propagator import _zgtsv
print(scipy.linalg._flapack.zgtsv is _zgtsv() is scipy.linalg.lapack.zgtsv)
"""


def test_scipy_linalg_binds_its_lapack_extension_after_a_propagation():
    # the extension loaded for the propagation used to stay in sys.modules, where the
    # later import of scipy.linalg found it and left scipy.linalg._flapack unset
    proc = subprocess.run(
        [sys.executable, "-c", _PROPAGATE_THEN_IMPORT_LINALG], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


def test_snapshots_output(tmp_path):
    scn = small_box_scenario(outputs=("snapshots",), grid_points=256, dt=5e-4)
    written = run(scn, tmp_path)
    assert [p.name for p in written] == ["snapshots_00.csv"]
    text = written[0].read_text()
    assert text.startswith("# system=box")
    assert "t,x,re_psi,im_psi" in text
    assert scenario_from_csv_header(written[0]) == scn


def test_fidelity_and_snapshots_share_the_driven_run(tmp_path, monkeypatch):
    # one driven and one undriven run per t_ff: the snapshot files used to
    # propagate the driven state again, 6 calls for these 2 t_ff.  Calls made in
    # worker processes are not counted here, so the count runs on one CPU; on
    # two, the plan that the pool maps holds the same four propagations
    import ffqd.cli

    calls = []
    real = ffqd.cli.propagate
    monkeypatch.setattr(ffqd.cli, "propagate", lambda *args, **kwargs: calls.append(args[4]) or real(*args, **kwargs))
    monkeypatch.setattr(ffqd.cli, "_usable_cpus", lambda: 1)
    scn = small_box_scenario(outputs=("fidelity", "snapshots"), t_ff_list=(1.0, 2.0), grid_points=256, dt=5e-4)
    written = run(scn, tmp_path / "one")
    assert [p.name for p in written] == ["fidelity.csv", "snapshots_00.csv", "snapshots_01.csv"]
    assert sorted(calls) == [1.0, 1.0, 2.0, 2.0]

    planned = []
    real_map = ffqd.cli._propagations
    monkeypatch.setattr(ffqd.cli, "_propagations", lambda scn, jobs: planned.append(jobs) or real_map(scn, jobs))
    monkeypatch.setattr(ffqd.cli, "_usable_cpus", lambda: 2)
    run(scn, tmp_path / "two")
    assert planned == [[(1.0, True, True), (1.0, False, False), (2.0, True, True), (2.0, False, False)]]


def _read_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Workers are forked only from a process that runs one OS thread, which the OS
# lists only on Linux, and a test process usually runs BLAS threads too.  So
# the pooled path runs in a fresh interpreter whose BLAS starts none, with
# DeprecationWarning an error: from Python 3.12 on, fork warns in a process
# that runs several threads.
_FORKS = Path("/proc/self/task").is_dir() and hasattr(os, "sched_getaffinity")
needs_fork = pytest.mark.skipif(not _FORKS, reason="workers are forked only where the OS lists a process's threads")


def _pooled(code: str, *inputs) -> list[str]:
    """Run code in a one-thread interpreter that counts this process's propagate calls and forks.

    The code finds the pickled inputs in `inputs`, ffqd.cli as `cli`, the
    propagate calls in `calls` and the forks in `forks`; `cpus(n)` sets the
    usable CPU count and `children()` counts the child processes, 0 or 1 for more.
    """
    prelude = (
        "import os\n"
        "import ffqd.cli as cli\n"
        "calls, forks = [], []\n"
        "real = cli.propagate\n"
        "cli.propagate = lambda *args, **kwargs: calls.append(args[4]) or real(*args, **kwargs)\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "def cpus(n):\n"
        "    cli._usable_cpus = lambda: n\n"
        "def children():\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        return 0\n"
        "    return 1\n"
    )
    return one_thread_python(prelude + code, *inputs)


@needs_fork
def test_one_and_two_cpus_give_the_same_bytes(tmp_path):
    # this process and forked workers share the same single-threaded
    # propagations that one process runs alone, and a paired propagation's
    # partner solves every other block of steps bit for bit as this process would
    scn = small_box_scenario(
        outputs=("fidelity", "snapshots", "residual"), t_ff_list=(2.0, 1.0, 1.5), grid_points=256, dt=5e-4
    )
    # dt = 2e-3 is too coarse for the t_ff = 0.1 ramp alone; the FAIL row keeps its place
    checked = small_box_scenario(ramp="trigonometric", l_final=3.0, t_ff_list=(0.1, 0.5), grid_points=256, dt=2e-3)
    lone = replace(checked, t_ff_list=(0.5,))  # 250 steps, paired on 2 CPUs
    code = (
        "import io\n"
        "from ffqd import propagator\n"
        "propagator._PAIR_WORK = 0\n"  # these runs are below the size that pays a partner; the bits do not depend on it
        "scn, checked, lone, root = inputs\n"
        "for n in (1, 2, 4):\n"
        "    cpus(n)\n"
        "    calls.clear()\n"
        "    forks.clear()\n"
        "    cli.run(scn, f'{root}/cpus{n}')\n"
        "    passed = []\n"
        "    for name, verified in (('verify', checked), ('lone_verify', lone)):\n"
        "        text = io.StringIO()\n"
        "        passed.append(cli.verify(verified, text))\n"
        "        open(f'{root}/cpus{n}/{name}.txt', 'w').write(text.getvalue())\n"
        "    print(n, len(calls), len(forks), *passed)\n"
    )
    # six propagations for run, two for verify and one for the lone verify.
    # On 2 CPUs run and verify each fork a worker and run half of them here,
    # and the lone verify forks its partner.  On 4 CPUs run forks 3 workers,
    # and verify forks one, where verify's t_ff = 0.5 run is paired; this
    # process counts only its own forks
    assert _pooled(code, scn, checked, lone, str(tmp_path)) == [
        "1 9 0 False True",
        "2 5 3 False True",
        "4 4 5 False True",
    ]
    files = _read_tree(tmp_path / "cpus1")
    assert list(files) == [
        "fidelity.csv",
        "lone_verify.txt",
        "residual.csv",
        "snapshots_00.csv",
        "snapshots_01.csv",
        "snapshots_02.csv",
        "verify.txt",
    ]
    assert _read_tree(tmp_path / "cpus2") == files
    assert _read_tree(tmp_path / "cpus4") == files
    lines = files["verify.txt"].decode().splitlines()
    assert lines[0].startswith("t_ff=0.1") and "propagation      FAIL  time step too coarse" in lines[0]
    assert [line.split()[0] for line in lines[1:5]] == ["t_ff=0.5"] * 4
    assert all(" PASS " in line for line in lines[1:5])
    assert lines[5] == "verification FAILED"
    assert files["lone_verify.txt"].decode().splitlines() == [*lines[1:5], "verification PASSED"]


@needs_fork
def test_no_worker_outlives_a_pooled_run(tmp_path):
    scn = small_box_scenario(outputs=("fidelity",), l_final=3.0, t_ff_list=(0.5, 1.0), grid_points=128, dt=1e-3)
    code = (
        "from dataclasses import replace\n"
        "scn, root = inputs\n"
        "cpus(2)\n"
        "print([p.name for p in cli.run(scn, root + '/ok')], sorted(calls), len(forks), children())\n"
        "try:\n"
        "    cli.run(replace(scn, dt=1e-2), root + '/failed')\n"  # too coarse for every job
        "except ValueError as exc:\n"
        "    print(str(exc).split(':')[0], os.listdir(root + '/failed'), len(forks), children())\n"
        "main, share = os.getpid(), cli._outcomes\n"
        "cli._outcomes = lambda *args: share(*args) if os.getpid() == main else os._exit(3)\n"
        "try:\n"
        "    cli.run(scn, root + '/lost')\n"
        "except RuntimeError as exc:\n"
        "    print(exc, os.listdir(root + '/lost'), len(forks), children())\n"
        "def interrupted(*args):\n"
        "    if os.getpid() == main:\n"
        "        raise KeyboardInterrupt\n"
        "    return share(*args)\n"
        "cli._outcomes = interrupted\n"
        "try:\n"  # the worker's frames fill its pipe before this process stops reading it
        "    cli.run(replace(scn, outputs=('snapshots',), grid_points=1024), root + '/stopped')\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', os.listdir(root + '/stopped'), len(forks), children())\n"
        # a lone verify of 500 steps: paired on 2 CPUs
        "import io\n"
        "from ffqd import propagator\n"
        "cli._outcomes = share\n"
        "propagator._PAIR_WORK = 0\n"  # 126 rows x 500 steps is below the size that pays a partner
        "lone = replace(scn, t_ff_list=(0.5,))\n"
        "propagator._NORM_DRIFT_LIMIT = -1.0\n"  # every check fails: first after step 16, in the partner's block 1
        "rows = []\n"
        "for n in (1, 2):\n"
        "    cpus(n)\n"
        "    text = io.StringIO()\n"
        "    cli.verify(lone, text)\n"
        "    rows.append(text.getvalue().splitlines()[0])\n"
        "propagator._NORM_DRIFT_LIMIT = 1e-6\n"
        "partner = (16 - 1) // propagator._PAIR_BLOCK % 2 == 1\n"  # step 16 lies in an odd block
        "print(rows[0] == rows[1], rows[1].split(' at ')[1], partner, len(forks), children())\n"
        "check = propagator._check_norm\n"
        "propagator._check_norm = lambda *args: check(*args) if os.getpid() == main else os._exit(3)\n"
        "try:\n"
        "    cli.verify(lone, io.StringIO())\n"
        "except RuntimeError as exc:\n"
        "    print(exc, len(forks), children())\n"
        "propagator._check_norm = check\n"
        "step, solved = propagator._factored_step, []\n"
        "def interrupted_step(*args):\n"
        "    if os.getpid() == main:\n"
        "        solved.append(1)\n"
        "        if len(solved) == 20:\n"  # in block 4, while the partner factors block 5 or waits for it
        "            raise KeyboardInterrupt\n"
        "    return step(*args)\n"
        "propagator._factored_step = interrupted_step\n"
        "try:\n"
        "    cli.verify(lone, io.StringIO())\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', len(solved), len(forks), children())\n"
    )
    # this process ran each t_ff's driven job, the worker the undriven ones;
    # a paired run raises what the serial run raises, at the same step
    assert _pooled(code, scn, str(tmp_path)) == [
        "['fidelity.csv'] [0.5, 1.0] 1 0",
        "time step too coarse [] 2 0",
        "a process forked for the propagations ended early [] 3 0",
        "interrupted [] 4 0",
        "True step 16/500 (|drift| > -1) True 5 0",
        "a process forked for the propagations ended early 6 0",
        "interrupted 20 7 0",
    ]


@needs_fork
def test_a_failed_fork_leaves_its_work_to_this_process(tmp_path):
    # a fork only saves time: where it fails (EAGAIN here, never by exhausting
    # a real limit), the pool runs the worker's share in this process and a
    # paired run steps alone, with the bytes and exit codes of one CPU, no fd
    # left open and no child left
    scn = small_box_scenario(outputs=("fidelity",), l_final=3.0, t_ff_list=(0.5, 1.0), grid_points=128, dt=1e-3)
    cfg = tmp_path / "box.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in scn.to_mapping().items()))
    code = (
        "import contextlib, errno, io\n"
        "from ffqd import propagator\n"
        "cfg, root = inputs\n"
        "propagator._PAIR_WORK = 0\n"  # 126 rows x 500 steps is below the size that pays a partner
        "def refused():\n"
        "    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))\n"
        "fds = len(os.listdir('/proc/self/fd'))\n"
        "for n, fork in ((1, os.fork), (2, refused)):\n"
        "    cpus(n)\n"
        "    os.fork = fork\n"
        "    calls.clear()\n"
        "    text = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"  # the paths of the CSVs written
        "        codes = [cli.main(['run', cfg, '--out', f'{root}/cpus{n}'])]\n"
        "    with contextlib.redirect_stdout(text):\n"  # one t_ff: paired on 2 CPUs
        "        codes.append(cli.main(['verify', cfg, 't_ff_list=0.5']))\n"
        "    open(f'{root}/cpus{n}/verify.txt', 'w').write(text.getvalue())\n"
        "    print(n, codes, len(calls), len(forks), len(os.listdir('/proc/self/fd')) - fds, children())\n"
    )
    # four propagations for run and one for verify, all of them in this process
    assert _pooled(code, str(cfg), str(tmp_path)) == ["1 [0, 0] 5 0 0 0", "2 [0, 0] 5 0 0 0"]
    files = _read_tree(tmp_path / "cpus1")
    assert list(files) == ["fidelity.csv", "verify.txt"]
    assert files["verify.txt"].decode().endswith("verification PASSED\n")
    assert _read_tree(tmp_path / "cpus2") == files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the usable CPUs are the affinity set where there is one")
def test_the_usable_cpus_are_this_process_affinity_set():
    # a process pinned to one CPU (taskset -c 0, say) forks no worker and no partner
    code = "import os\nfrom ffqd import cli\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\nprint(cli._usable_cpus())\n"
    assert one_thread_python(code) == ["1"]


def test_a_second_thread_keeps_every_job_in_this_process(tmp_path, monkeypatch):
    # fork would copy neither that thread nor a lock it holds
    import ffqd.cli

    calls = []
    real = ffqd.cli.propagate
    monkeypatch.setattr(ffqd.cli, "propagate", lambda *args, **kwargs: calls.append(args[4]) or real(*args, **kwargs))
    monkeypatch.setattr(ffqd.cli, "_usable_cpus", lambda: 2)
    scn = small_box_scenario(outputs=("fidelity",), l_final=3.0, t_ff_list=(0.5, 1.0), grid_points=128, dt=1e-3)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        run(scn, tmp_path)
    finally:
        release.set()
        waiting.join()
    assert sorted(calls) == [0.5, 0.5, 1.0, 1.0]


@needs_fork
def test_a_lone_verify_forks_its_partner_and_a_preset_nothing():
    # a one-t_ff verify makes one propagation, paired on 2 CPUs where its rows
    # times steps reach propagator._PAIR_WORK, and a cost preset none; no pool module loads
    code = (
        "import io, tempfile\n"
        "from dataclasses import replace\n"
        "from ffqd import propagator\n"
        "cpus(2)\n"
        "scn = cli.Scenario(system='box', ramp='trigonometric', l_final=3.0, grid_points=256, dt=5e-4)\n"
        "for points in (256, 2048):\n"  # 254 and 2046 rows, 2000 steps
        "    forks.clear()\n"
        "    assert cli.verify(replace(scn, grid_points=points), io.StringIO())\n"
        "    print(points, (points - 2) * 2000 >= propagator._PAIR_WORK, calls, len(forks))\n"
        "calls.clear()\n"
        "forks.clear()\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert cli.main(['preset', 'fig3', '--out', out]) == 0\n"
        "print(calls, len(forks), [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    lines = _pooled(code)  # the preset prints the path of its CSV in between
    assert (lines[0], lines[1], lines[-1]) == ("256 False [1.0] 0", "2048 True [1.0, 1.0] 1", "[] 0 []")


def test_run_is_deterministic(tmp_path):
    scn = Scenario(
        system="box",
        ramp="polynomial",
        beta=math.inf,
        t_ff_list=(2.0, 0.5, 1.0),
        outputs=("cost_curve",),
    )
    run(scn, tmp_path / "first")
    run(scn, tmp_path / "second")
    assert (
        (tmp_path / "first" / "cost_curve.csv").read_bytes()
        == (tmp_path / "second" / "cost_curve.csv").read_bytes()
    )


def test_ie_compare_rows_ordered(tmp_path):
    scn = Scenario(
        system="harmonic",
        ramp="polynomial",
        beta=1.0,
        t_ff_list=(2.0, 0.5),
        grid_points=512,
        outputs=("ie_compare",),
    )
    run(scn, tmp_path)
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in (tmp_path / "ie_compare.csv").read_text().splitlines()
        if line and not line.startswith(("#", "t_ff"))
    ]
    assert [r[0] for r in rows] == [0.5, 2.0]  # sorted regardless of input order
    for r in rows:
        assert r[1] < r[2]  # accelerated protocol cheaper than inverse engineering
