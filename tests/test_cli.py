"""Command-line behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import photonlab
from photonlab import __version__, cli, config, densities, runner, slabs
from photonlab.cli import main
from photonlab.mode_space import WaveVectorGrid
from photonlab.runner import read_array, write_array

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """\
grid.n_per_axis = 32
grid.delta_k = 0.75
packet.kind = gaussian
packet.k0 = 0, 0, 10
packet.sigma = 1.0
time.t_list = 0.0, 0.3
outputs.densities = number, energy
run.seed = 3
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG)
    return path


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **environ):
    """A fresh interpreter that imports this checkout's photonlab; ``environ`` adds variables."""
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_version(capsys):
    code, out, err = invoke(capsys, "version")
    assert code == 0
    assert out.strip() == __version__
    assert err == ""


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "photonlab", "version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == __version__


COUNT_IFFTN_PER_RUN = """\
import sys, scipy.fft
from photonlab.cli import main
calls, ifftn = [], scipy.fft.ifftn
scipy.fft.ifftn = lambda *args, **kwargs: calls.append(1) or ifftn(*args, **kwargs)
counts = []
for outdir in sys.argv[2:]:
    before = len(calls)
    assert main(["run", sys.argv[1], "--outdir", outdir]) == 0
    counts.append(len(calls) - before)
print(counts)
"""


def test_first_run_of_a_process_costs_no_extra_transform(tmp_path, config_path):
    """A cold and a warm run make one inverse FFT per time each."""
    done = run_python("-c", COUNT_IFFTN_PER_RUN, str(config_path),
                      str(tmp_path / "cold"), str(tmp_path / "warm"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[2, 2]"


SUM_IFFTN_POINTS_PER_RUN = """\
import contextlib, io, sys, scipy.fft
from photonlab.cli import main
points, ifftn = [], scipy.fft.ifftn
scipy.fft.ifftn = lambda x, *args, **kwargs: points.append(x.size) or ifftn(x, *args, **kwargs)
sums = []
for outdir in sys.argv[2:]:
    before = len(points)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", sys.argv[1], "--outdir", outdir]) == 0
    sums.append(sum(points[before:]))
print(sums)
"""


def test_a_desk_run_transforms_fifteen_components_per_time(tmp_path):
    """FFT work, not FFT calls: a cold and a warm run of the desk config (3 times,
    number, energy, momentum) each transform 6 components for the synthesis and
    9 for the three momentum operands per time, whatever the calls."""
    done = run_python("-c", SUM_IFFTN_POINTS_PER_RUN, str(ROOT / "configs" / "gaussian_desk.cfg"),
                      str(tmp_path / "cold"), str(tmp_path / "warm"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([3 * 15 * 64**3] * 2)


PRINT_REDUCTIONS = """\
import contextlib, io, sys
import numpy as np
from photonlab import observables
from photonlab.cli import main
from photonlab.config import load_scenario
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.oracle import synthesize_at_points
from photonlab.retarded_solver import gaussian_dipole_source
from photonlab.runner import build_grid, build_spectrum
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", sys.argv[1], "--outdir", sys.argv[2]]) == 0
cfg = load_scenario(sys.argv[1])
grid = build_grid(cfg)
spatial = SpatialGrid.paired(grid)
spectrum = build_spectrum(cfg, grid)
dt = 1e-3 / float(np.max(grid.omega))
print(repr(observables.continuity_residual(synthesize(spectrum, spatial, 0.0), dt)))
dipole = gaussian_dipole_source((0.0, 0.0, 1.0), 1.0, 0.4, 0.1, 25, t0=0.0, delta_t=0.05,
                                n_times=12)
print(repr(dipole.conservation_residual()))
points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 3))
print([repr(v) for v in np.ravel(synthesize_at_points(spectrum, points, 0.3)).tolist()])
"""


@pytest.mark.skipif(slabs._cpus() < 2,
                    reason="OpenBLAS caps its threads at the CPU count, so one CPU "
                           "cannot run the threaded reductions this compares against")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, config_path):
    """``run`` summary bytes, the continuity and source-conservation residuals
    and the quadrature oracle are the same with one BLAS thread and with two."""
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"blas{threads}"
        done = run_python("-c", PRINT_REDUCTIONS, str(config_path), str(outdir),
                          OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, (outdir / "summary.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_run_exports_artifacts_and_passes(capsys, tmp_path, config_path):
    outdir = tmp_path / "out"
    code, out, err = invoke(capsys, "run", str(config_path), "--outdir", str(outdir))
    assert code == 0, err
    assert "PASS fft-quadrature" in out
    assert "PASS number-norm" in out
    names = sorted(os.listdir(outdir))
    assert names == [
        "energy_t0.f64",
        "energy_t1.f64",
        "number_t0.f64",
        "number_t1.f64",
        "summary.txt",
    ]
    summary = (outdir / "summary.txt").read_text()
    assert summary.startswith("photonlab-summary v1\n")
    for name in names[:-1]:
        assert f"artifact.{name} = sha256:" in summary
    assert not any(n.startswith(".tmp-") for n in os.listdir(outdir))


def test_reruns_are_byte_identical(capsys, tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert invoke(capsys, "run", str(config_path), "--outdir", str(out1))[0] == 0
    assert invoke(capsys, "run", str(config_path), "--outdir", str(out2))[0] == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_changes_nothing_but_the_summary_seed_line(capsys, tmp_path, config_path):
    """The seed picks spot-check points; the physics and arrays must agree."""
    reseeded = tmp_path / "reseeded.cfg"
    reseeded.write_text(CONFIG.replace("run.seed = 3", "run.seed = 4"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert invoke(capsys, "run", str(config_path), "--outdir", str(out1))[0] == 0
    assert invoke(capsys, "run", str(reseeded), "--outdir", str(out2))[0] == 0
    assert (out1 / "number_t0.f64").read_bytes() == (out2 / "number_t0.f64").read_bytes()
    assert (out1 / "summary.txt").read_bytes() != (out2 / "summary.txt").read_bytes()


def test_config_errors_exit_2_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n_per_axis = 32\npacket.sigma_x = 2\n")
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:2: unknown key 'packet.sigma_x'" in err
    assert not (tmp_path / "o").exists()


def test_non_finite_config_number_exits_2_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace("sigma = 1.0", "sigma = nan"))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:5: key 'packet.sigma': expected finite" in err
    assert not (tmp_path / "o").exists()


def test_negative_seed_exits_2_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace("run.seed = 3", "run.seed = -1"))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:8: key 'run.seed': expected a non-negative integer" in err
    assert not (tmp_path / "o").exists()


def test_oversized_grid_exits_2_with_location_before_allocating(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace("n_per_axis = 32", "n_per_axis = 1024"))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:1: key 'grid.n_per_axis': at most 2097152 grid points" in err
    assert not (tmp_path / "o").exists()


def test_out_of_grid_mode_index_exits_2_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace(
        "packet.kind = gaussian", "packet.kind = single_mode\npacket.index = 99, 0, 0"))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:4: key 'packet.index': (99, 0, 0) lies outside grid.n_per_axis" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_zero_mode_index_exits_2_and_its_neighbour_runs(capsys, tmp_path):
    single = CONFIG.replace("grid.n_per_axis = 32", "grid.n_per_axis = 8").replace(
        "packet.kind = gaussian", "packet.kind = single_mode\npacket.index = {}")
    bad = tmp_path / "zero.cfg"
    bad.write_text(single.format("4, 4, 4"))
    code, _, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:4: key 'packet.index': (4, 4, 4) is the excluded zero mode" in err
    assert not (tmp_path / "o").exists()
    good = tmp_path / "next.cfg"
    good.write_text(single.format("4, 4, 5"))
    code, _, err = invoke(capsys, "run", str(good), "--outdir", str(tmp_path / "o"))
    assert code == 0, err


def test_non_utf8_config_exits_2_at_the_line_of_the_byte(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(CONFIG.replace("packet.kind", "packet.\xff", 1).encode("latin-1"))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}:3: byte 0xff is not UTF-8 text (invalid start byte)" in err
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_missing_config_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "run", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "configuration error" in err


def test_failing_tolerance_exits_1_and_names_the_check(capsys, tmp_path):
    tight = tmp_path / "tight.cfg"
    tight.write_text(CONFIG + "tolerances.spot_check = 1e-18\n")
    code, out, err = invoke(capsys, "run", str(tight), "--outdir", str(tmp_path / "o"))
    assert code == 1
    assert "FAIL fft-quadrature" in out
    assert "fft-quadrature:spot_check" in err


def test_export_slice_writes_csv(capsys, tmp_path, config_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(
        capsys, "export-slice", str(config_path), "--kind", "number", "--plane", "z=0.1"
    )
    assert code == 0
    produced = tmp_path / "number_z_0.1.csv"
    assert produced.exists()
    lines = produced.read_text().splitlines()
    assert lines[0].startswith("# photonlab-slice v1 kind=number plane_axis=2")
    assert lines[1] == "x,y,value"
    assert len(lines) == 2 + 32 * 32


def test_export_slice_rejects_bad_requests(capsys, tmp_path, config_path):
    out_csv = str(tmp_path / "x.csv")
    code, _, err = invoke(
        capsys, "export-slice", str(config_path), "--kind", "banana", "--plane", "z=0",
        "--out", out_csv,
    )
    assert code == 1 and "unknown density kind 'banana'" in err
    code, _, err = invoke(
        capsys, "export-slice", str(config_path), "--kind", "number", "--plane", "q=0",
        "--out", out_csv,
    )
    assert code == 1 and "plane must look like" in err


def test_export_slice_rejects_a_non_finite_plane(capsys, tmp_path, config_path):
    out_csv = str(tmp_path / "x.csv")
    for value in ("nan", "inf", "-inf"):
        code, _, err = invoke(
            capsys, "export-slice", str(config_path), "--kind", "number", "--plane",
            f"z={value}", "--out", out_csv,
        )
        assert code == 1 and f"plane coordinate must be finite, got '{value}'" in err
    assert not os.path.exists(out_csv)


def test_export_slice_rejects_a_plane_outside_the_box(capsys, tmp_path, config_path):
    out_csv = tmp_path / "x.csv"
    for value in ("1e9", "-1e9"):
        code, _, err = invoke(
            capsys, "export-slice", str(config_path), "--kind", "number", "--plane",
            f"z={value}", "--out", str(out_csv),
        )
        assert code == 1
        assert f"plane coordinate {value} lies outside the sampled z range [-4.3196" in err
        assert not out_csv.exists()
    # 32 planes at dx = 2 pi / 24 from -16 dx: z = 4.0 is within half a cell of the last one
    code, _, _ = invoke(
        capsys, "export-slice", str(config_path), "--kind", "number", "--plane", "z=4.0",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "plane_coordinate=3.9269908169872414 " in out_csv.read_text().splitlines()[0]


def test_four_momentum_components_are_labelled_t_x_y_z(capsys, tmp_path):
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(
        CONFIG.replace("packet.k0 = 0, 0, 10", "packet.k0 = 0, 6, 8")
        .replace("0.0, 0.3", "0.0")
        .replace("number, energy", "energy, momentum, four_momentum")
    )
    outdir = tmp_path / "out"
    assert invoke(capsys, "run", str(cfg), "--outdir", str(outdir))[0] == 0
    summary = (outdir / "summary.txt").read_text().splitlines()
    values = dict(line.split(" = ") for line in summary if line.startswith("integral."))
    values = {key: float(value) for key, value in values.items()}
    same = pytest.approx(values["integral.energy.t0"], rel=1e-12)
    assert values["integral.four_momentum.t.t0"] == same
    for axis in "xyz":
        same = pytest.approx(values[f"integral.momentum.{axis}.t0"], rel=1e-12, abs=1e-12)
        assert values[f"integral.four_momentum.{axis}.t0"] == same
    assert values["integral.momentum.y.t0"] == pytest.approx(6.0, rel=1e-3)
    assert values["integral.momentum.z.t0"] == pytest.approx(8.0, rel=1e-3)
    assert values["integral.energy.t0"] == pytest.approx(10.0, rel=2e-2)
    assert not any(key.startswith("integral.momentum.t.") for key in values)

    for kind, header in (
        ("four_momentum", "x,y,value_t,value_x,value_y,value_z"),
        ("momentum", "x,y,value_x,value_y,value_z"),
    ):
        out_csv = tmp_path / f"{kind}.csv"
        code, _, err = invoke(
            capsys, "export-slice", str(cfg), "--kind", kind, "--plane", "z=0",
            "--out", str(out_csv),
        )
        assert code == 0, err
        lines = out_csv.read_text().splitlines()
        assert lines[1] == header
        assert {len(line.split(",")) for line in lines[2:]} == {len(header.split(","))}


def test_export_slice_into_missing_directory_exits_1_naming_the_path(
    capsys, tmp_path, config_path
):
    out_csv = tmp_path / "missing" / "x.csv"
    code, _, err = invoke(
        capsys, "export-slice", str(config_path), "--kind", "number", "--plane", "z=0",
        "--out", str(out_csv),
    )
    assert code == 1
    assert f"export failed: cannot write {out_csv}" in err
    assert "Traceback" not in err


def test_run_with_a_file_as_outdir_parent_exits_1_naming_the_path(
    capsys, tmp_path, config_path
):
    blocker = tmp_path / "regular_file"
    blocker.write_text("not a directory\n")
    outdir = blocker / "out"
    code, out, err = invoke(capsys, "run", str(config_path), "--outdir", str(outdir))
    assert code == 1
    assert f"run failed: cannot write artifacts to {outdir}" in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.filterwarnings("ignore:gaussian packet is not well separated")
def test_arithmetic_errors_exit_1_with_a_message(capsys, tmp_path, config_path):
    """A finite, positive sigma of 1e200 passes the config but overflows in sigma**2."""
    config_path.write_text(CONFIG.replace("packet.sigma = 1.0", "packet.sigma = 1e200"))
    for argv, prefix in (
        (("run", "--outdir", str(tmp_path / "out")), "run failed: OverflowError: "),
        (("export-slice", "--kind", "number", "--plane", "z=0", "--out", str(tmp_path / "x.csv")),
         "export failed: OverflowError: "),
    ):
        code, out, err = invoke(capsys, argv[0], str(config_path), *argv[1:])
        assert code == 1
        assert err.startswith(prefix)
        assert "Traceback" not in err


def test_out_of_memory_exits_1_with_a_message(capsys, tmp_path, config_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    monkeypatch.setattr(cli, "export_slice", exhausted)
    for argv, message in (
        (("run", "--outdir", str(tmp_path / "out")), "run failed: out of memory\n"),
        (("export-slice", "--kind", "number", "--plane", "z=0", "--out", str(tmp_path / "x.csv")),
         "export failed: out of memory\n"),
    ):
        code, out, err = invoke(capsys, argv[0], str(config_path), *argv[1:])
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("error, reason", [(RuntimeError("pool gone"), "RuntimeError: pool gone"),
                                           (KeyError("number"), "KeyError: 'number'")])
def test_any_other_error_exits_1_with_one_line(capsys, tmp_path, config_path, monkeypatch,
                                               error, reason):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_scenario", failing)
    monkeypatch.setattr(cli, "export_slice", failing)
    for argv, verb in (
        (("run", "--outdir", str(tmp_path / "out")), "run"),
        (("export-slice", "--kind", "number", "--plane", "z=0", "--out", str(tmp_path / "x.csv")),
         "export"),
    ):
        code, out, err = invoke(capsys, argv[0], str(config_path), *argv[1:])
        assert (code, out, err) == (1, "", f"{verb} failed: {reason}\n")


@pytest.mark.filterwarnings("ignore:gaussian packet is not well separated")
def test_a_run_that_fails_before_writing_leaves_no_outdir(capsys, tmp_path, config_path):
    """The spectrum is built before the output directory is made."""
    config_path.write_text(CONFIG.replace("packet.sigma = 1.0", "packet.sigma = 1e200"))
    outdir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", str(config_path), "--outdir", str(outdir))
    assert code == 1
    assert err.startswith("run failed: OverflowError: ")
    assert not outdir.exists()


def test_selftest_runs_registry_and_controls(selftest_run):
    code, out, err = selftest_run
    assert code == 0, out + err
    header = out.splitlines()[0]
    assert header.endswith(
        f"number-density sign sigma = -1 (constant), threads = {slabs._workers()}")
    for name in (
        "fock-identities",
        "number-norm",
        "current-integral",
        "energy-momentum",
        "continuity",
        "helicity-spin",
        "transport",
        "omega-identity",
        "longitudinal-cancellation",
        "retarded-solver",
        "localization",
        "control-corrupted-convention",
        "control-nonconserved-source",
    ):
        assert f"PASS {name}:" in out
    assert "\nOK (" in out or out.rstrip().splitlines()[-1].startswith("OK ")


def test_array_file_round_trip(tmp_path):
    data = np.arange(24.0).reshape(2, 3, 4) / 7.0
    path = tmp_path / "number_t0.f64"
    digest = write_array(str(path), data, "number", 0.25)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back, meta = read_array(str(path))
    assert np.array_equal(back, data)
    assert meta["kind"] == "number" and meta["shape"] == "2,3,4"
    assert float(meta["time"]) == 0.25


def test_array_file_is_the_joined_header_and_payload(tmp_path):
    """Header and buffer written one after the other give the bytes, and the
    digest, of their joined copy; also for a component-major view."""
    stored = np.arange(2 * 3 * 4 * 3, dtype=float).reshape(3, 2, 3, 4) / 7.0
    for data in (stored, np.moveaxis(stored, 0, -1)):
        path = tmp_path / "momentum_t0.f64"
        digest = write_array(str(path), data, "momentum", 0.5)
        shape = ",".join(str(n) for n in data.shape)
        joined = (
            f"photonlab-array v1 kind=momentum shape={shape} dtype=<f8 order=C "
            "time=0.5 units=natural\n"
        ).encode("ascii") + np.ascontiguousarray(data, dtype="<f8").tobytes()
        assert path.read_bytes() == joined
        assert digest == hashlib.sha256(joined).hexdigest()


def test_write_errors_name_the_requested_path(tmp_path):
    missing = tmp_path / "missing" / "number_t0.f64"
    with pytest.raises(FileNotFoundError) as excinfo:  # from tempfile.mkstemp
        write_array(str(missing), np.ones(3), "number", 0.0)
    assert excinfo.value.filename == str(missing)
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    with pytest.raises(IsADirectoryError) as excinfo:  # from os.replace
        write_array(str(occupied), np.ones(3), "number", 0.0)
    assert excinfo.value.filename == str(occupied)
    assert os.listdir(tmp_path) == ["occupied"] and os.listdir(occupied) == []


def test_a_failing_build_leaves_the_run_after_the_queued_write(tmp_path, monkeypatch):
    """The energy build raises while the number artifact is still being written:
    the error leaves ``run_scenario`` only once that write has finished."""
    cfg = config.parse_scenario(CONFIG, "demo.cfg")
    raised = threading.Event()
    finished = []

    def slow_write(path, *args):
        raised.wait(timeout=10)
        time.sleep(0.2)
        digest = write_array(path, *args)
        finished.append(path)
        return digest

    def failing_build(snap):
        raised.set()
        raise RuntimeError("energy build failed")

    monkeypatch.setattr(runner, "write_array", slow_write)
    monkeypatch.setattr(densities, "energy_density", failing_build)
    outdir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="energy build failed"):
        runner.run_scenario(cfg, str(outdir))
    assert finished == [str(outdir / "number_t0.f64")]
    assert os.listdir(outdir) == ["number_t0.f64"]  # complete, and no temporary left
    data, meta = read_array(finished[0])
    assert data.shape == (32, 32, 32) and meta["kind"] == "number"


@pytest.mark.parametrize("taken", ["number_t1.f64", "energy_t1.f64"])
def test_an_artifact_path_taken_by_a_directory_fails_the_run_naming_it(capsys, tmp_path,
                                                                       config_path, taken):
    """A write that fails on the export thread raises the error a write on the
    calling thread did, for a middle and for the last artifact, and ``run``
    names it the same way."""
    outdir = tmp_path / "out"
    (outdir / taken).mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as excinfo:
        runner.run_scenario(config.parse_scenario(CONFIG, "demo.cfg"), str(outdir))
    assert excinfo.value.filename == str(outdir / taken)
    names = os.listdir(outdir)
    assert "summary.txt" not in names and not [n for n in names if n.startswith(".tmp-")]
    code, out, err = invoke(capsys, "run", str(config_path), "--outdir", str(outdir))
    assert (code, out) == (1, "")
    assert err == f"run failed: cannot write artifacts to {outdir}: Is a directory\n"


# sha256 of each artifact of configs/gaussian_desk.cfg, as written before the
# export moved onto its own thread
DESK_DIGESTS = {
    "energy_t0.f64": "001b0908d275a70c5d4d85d34bb60d425447f358b26ee174434770283f2cdbd6",
    "energy_t1.f64": "4d02eb3fb40fc087e271f974bae3d9517bff0d8caa864582d9bb31479114bb8d",
    "energy_t2.f64": "5c1d00d7dc37045396d510aff4995d6de31ab0e3ed77bc9f9a6d4f8c2ce89d8a",
    "momentum_t0.f64": "0e769246ea0da8603aa8102d60c2a528e5d1c65ad829d22ff4804a0e30d636a1",
    "momentum_t1.f64": "d3d2b22fe6405acefbe0e0fa971fc786c60b3030bb8eb134c32ba224796447f2",
    "momentum_t2.f64": "252d0d759870c6d5f76da0c7df93eaa091b04b87c51e8aca2c935eaef4624e09",
    "number_t0.f64": "d7815093019b892d0a49e2726ed1067f3bdc1f3441eccdfd480a3775b0e41d06",
    "number_t1.f64": "c68c61ef062a40b58439a2bb8697b2f47f2e585dfce4cb8d78637ce81271c1af",
    "number_t2.f64": "680ba18d117e1ad076ea5159608618f5ffd5fb574bfe61a766b1f7efc90ea8b4",
}


def test_the_desk_run_writes_the_recorded_artifacts(tmp_path):
    report = runner.run_scenario(config.load_scenario(str(ROOT / "configs" / "gaussian_desk.cfg")),
                                 str(tmp_path))
    assert report.ok and report.artifacts == DESK_DIGESTS
    for name, digest in DESK_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_the_desk_summary_has_one_negative_mass_per_time(tmp_path):
    report = runner.run_scenario(config.load_scenario(str(ROOT / "configs" / "gaussian_desk.cfg")),
                                 str(tmp_path))
    lines = Path(report.summary_path).read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines if line.startswith("negative_mass.")]
    assert keys == ["negative_mass.number.t0", "negative_mass.number.t1", "negative_mass.number.t2"]


def test_equal_grid_sections_build_one_grid():
    desk = str(ROOT / "configs" / "gaussian_desk.cfg")
    first, second = config.load_scenario(desk), config.load_scenario(desk)
    assert first.grid is not second.grid
    assert runner.build_grid(first) is runner.build_grid(second)


def test_a_second_desk_run_does_not_compute_the_k_vectors_again(tmp_path, monkeypatch):
    """The spectrum, the engine and the basis of a warm run share the first run's grid."""
    cfg = config.load_scenario(str(ROOT / "configs" / "gaussian_desk.cfg"))
    assert runner.run_scenario(cfg, str(tmp_path / "first")).ok
    k_vectors = WaveVectorGrid.__dict__["k_vectors"]  # the cached_property itself
    build, computed = k_vectors.func, []
    monkeypatch.setattr(k_vectors, "func", lambda grid: computed.append(grid) or build(grid))
    assert runner.run_scenario(cfg, str(tmp_path / "second")).ok
    assert computed == []


def test_truncated_or_garbled_array_files_name_the_file(tmp_path):
    path = tmp_path / "energy_t0.f64"
    write_array(str(path), np.ones((4, 5)), "energy", 0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload holds 157 bytes")):
        read_array(str(path))
    path.write_bytes(raw.replace(b"shape=4,5", b"shape=4,x"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed array header")):
        read_array(str(path))
    path.write_bytes(b"\xff\xfe\x00 binary\n" + raw)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a photonlab array file")):
        read_array(str(path))


@pytest.mark.parametrize("edit, fragment", [
    (("packet.k0 = 0, 0, 10", "packet.k0 = 0, 0, 30"),
     ":4: key 'packet.k0': (0.0, 0.0, 30.0) lies outside the grid coverage"),
    (("outputs.densities = number, energy",
      "outputs.densities = number, bb_energy\npacket.helicity_weights = 1, 1"),
     ":7: key 'outputs.densities': bb_energy (F and psi) need a pure helicity"),
    (("packet.sigma = 1.0", "packet.sigma = 1.0\npacket.helicity_weights = 0, 0"),
     ":6: key 'packet.helicity_weights': helicity_weights must not both vanish"),
    (("run.seed = 3", "run.seed = 3\ntolerances.number_norm = -1"),
     ":9: key 'tolerances.number_norm': a tolerance must be non-negative"),
], ids=["k0-outside-coverage", "mixed-helicity-wave-fields", "zero-helicity-weights",
        "negative-tolerance"])
def test_run_preconditions_exit_2_at_their_line_and_write_nothing(capsys, tmp_path, edit,
                                                                  fragment):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace(*edit))
    code, out, err = invoke(capsys, "run", str(bad), "--outdir", str(tmp_path / "o"))
    assert code == 2
    assert f"{bad}{fragment}" in err
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_selftest_names_failing_and_raising_checks_on_stderr(capsys, monkeypatch):
    from photonlab import registry

    def failing():
        return registry.Metric("m", 2.0, 1.0), registry.Metric("fine", 0.5, 1.0)

    def raising():
        raise OverflowError("occupation above n_max")

    monkeypatch.setattr(registry, "ACCEPTANCE_CHECKS", (("bad", failing),))
    monkeypatch.setattr(registry, "CONTROL_CHECKS", (("boom", raising),))
    code, out, err = invoke(capsys, "selftest")
    assert code == 1
    assert err == "failed checks: bad:m, boom:raised\n"
    assert "FAIL bad: m=2.000e+00<=1.0e+00, fine=5.000e-01<=1.0e+00" in out
    assert "FAIL boom: raised OverflowError: occupation above n_max" in out
    assert out.rstrip().splitlines()[-1].startswith("FAILED (1 checks, 1 controls")

    def passing():
        return (registry.Metric("m", 0.5, 1.0),)

    monkeypatch.setattr(registry, "ACCEPTANCE_CHECKS", (("good", passing),))
    monkeypatch.setattr(registry, "CONTROL_CHECKS", ())
    code, out, err = invoke(capsys, "selftest")
    assert (code, err) == (0, "")
    assert "PASS good: m=5.000e-01<=1.0e+00" in out


LOCALIZED = """\
grid.n_per_axis = 16
grid.delta_k = 0.75
packet.kind = localized
packet.x0 = 0.5, -0.25, 1
time.t_list = 0.0, 0.4
outputs.densities = number
"""


def _run_summary(capsys, tmp_path, text):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    code, out, err = invoke(capsys, "run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    assert "PASS fft-quadrature" in out and "PASS number-norm" in out
    return (tmp_path / "out" / "summary.txt").read_text().splitlines()


def test_run_on_a_localized_packet_echoes_its_centre(capsys, tmp_path):
    summary = _run_summary(capsys, tmp_path, LOCALIZED)
    assert "config.packet.kind = localized" in summary
    assert "config.packet.x0 = 0.5,-0.25,1" in summary
    assert not any(line.startswith("units.") for line in summary)


def test_si_run_reports_the_unit_scales(capsys, tmp_path):
    from scipy import constants

    length = 2.5e-6
    summary = _run_summary(capsys, tmp_path, LOCALIZED
                           + f"units.system = si\nunits.length_scale_m = {length}\n")
    assert "config.units.system = si" in summary
    units = {key: float(value) for key, value in
             (line.split(" = ") for line in summary if line.startswith("units."))}
    assert units == {
        "units.energy_scale_J": constants.hbar * constants.c / length,
        "units.length_scale_m": length,
        "units.time_scale_s": length / constants.c,
    }
