import math
import subprocess
import sys
import tempfile
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

from helpers import src_env


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
]


@pytest.mark.parametrize("overrides", _BAD_OVERRIDES)
def test_invalid_scenario_exits_2_without_traceback(tmp_path, capsys, overrides):
    cfg = tmp_path / "box.cfg"
    cfg.write_text("system=box\nramp=polynomial\nt_ff_list=1.0\noutputs=cost_curve\n")
    assert main(["run", str(cfg), *overrides.split(), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "cost_curve.csv").exists()


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
    outputs = [o for o in _OUTPUT_NAMES if system == "harmonic" or o != "ie_compare"]
    return Scenario(
        system=system,
        ramp=draw(st.sampled_from(("polynomial", "trigonometric", "linear"))),
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
    # after the cost curve has been computed
    cfg = tmp_path / "ho.cfg"
    cfg.write_text("system=harmonic\nt_ff_list=1.0\ngrid_points=128\ndt=0.1\noutputs=cost_curve,fidelity\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "cost_curve.csv").exists()


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
        grid = model.default_grid(traj._l_max, 512)
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
    # scipy is imported on first use by propagation and the numeric phase
    # check; the cost layer behind the presets needs none of it
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


def test_snapshots_output(tmp_path):
    scn = small_box_scenario(outputs=("snapshots",), grid_points=256, dt=5e-4)
    written = run(scn, tmp_path)
    assert [p.name for p in written] == ["snapshots_00.csv"]
    text = written[0].read_text()
    assert text.startswith("# system=box")
    assert "t,x,re_psi,im_psi" in text
    assert scenario_from_csv_header(written[0]) == scn


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
