"""Tests of the benchmark itself: counters, repeatability and the gates.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They use tiny grids so they take seconds, not the benchmark's sizes.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from photonlab import field_synthesis, retarded_solver, runner  # noqa: E402
from photonlab.mode_space import WaveVectorGrid  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_ifftn_count_matches_spectrum_to_field_calls():
    grid = WaveVectorGrid.centered((4, 4, 4), (1.0, 1.0, 1.0))
    spatial = field_synthesis.SpatialGrid.paired(grid)
    coeffs = np.ones((4, 4, 4, 3), dtype=complex)
    calls = 5
    with Tracer() as tracer:
        tracer.op = 1
        for _ in range(calls):
            field_synthesis.spectrum_to_field(coeffs, grid, spatial)
    stats = tracer.stats[1]
    assert stats["field_synthesis.spectrum_to_field"][0] == calls
    assert stats["fft.ifftn"][0] == calls
    assert tracer.counters[1]["fft.points"] == calls * coeffs.size


def test_uninstall_restores_every_binding():
    originals = (runner.synthesize, runner._DENSITY_BUILDERS["number"], field_synthesis.build_basis)
    with Tracer():
        assert runner.synthesize is not originals[0]
        assert runner._DENSITY_BUILDERS["number"] is not originals[1]
        assert field_synthesis.build_basis is not originals[2]
    assert (runner.synthesize, runner._DENSITY_BUILDERS["number"],
            field_synthesis.build_basis) == originals


# The smallest centred grid with delta_k = 0.5 that still covers |k0| = 10.
SMALL = 44


def _traced_counts(workdir, name):
    workdir.mkdir()
    with Tracer() as tracer:
        workload = workloads.make(name, 5, str(workdir), n=SMALL)
        _, _, failures, digest = worker.run_ops(workload, tracer, seconds=0.0)
    assert failures == [] and digest is not None
    values = layers.op_metrics(tracer.stats, tracer.counters, [1])
    return {key: value for key, value in values.items() if not key.endswith(("self_s", "_per_s"))}


@pytest.mark.parametrize("name", ["time_sweep", "all_densities", "observables_report"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    first = _traced_counts(tmp_path / "a", name)
    second = _traced_counts(tmp_path / "b", name)
    assert first == second
    assert first["fft.ifftn.calls"] > 0


def test_quadrature_spans_split_by_mode_and_count_pairs():
    src = retarded_solver.gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.2, 0.1, 5, t0=0.0, delta_t=0.5, n_times=12)
    grid = field_synthesis.SpatialGrid((2, 2, 2), (0.5, 0.5, 0.5), (2.0, 2.0, 2.0))
    with Tracer() as tracer:
        tracer.op = 1
        retarded_solver.retarded_potential(src, grid, [5.0, 5.2])
        retarded_solver.retarded_potential(src, np.array([[3.0, 0.0, 0.0]]), 4.0)
    values = layers.op_metrics(tracer.stats, tracer.counters, [1])
    assert values["retarded_solver.retarded_potential.grid.calls"] == 1
    assert values["retarded_solver.retarded_potential.points.calls"] == 1
    assert values["retarded_solver.pairs"] == 8 * 125 * 2 + 1 * 125 * 1


def test_spot_check_tolerance_zero_is_a_failed_op(tmp_path):
    text = workloads.scenario_text("time_sweep", 3, n=SMALL) + "tolerances.spot_check = 0\n"
    workload = workloads.ScenarioRun(workloads.load_text(text, str(tmp_path)), str(tmp_path))
    _, _, failures, _ = worker.run_ops(workload, None, seconds=0.0)
    assert [failure["op"] for failure in failures] == [0, 1]
    assert "fft-quadrature:spot_check" in failures[0]["reason"]


def test_scenario_text_depends_only_on_seed():
    assert workloads.scenario_text("time_sweep", 4) == workloads.scenario_text("time_sweep", 4)
    assert workloads.scenario_text("time_sweep", 4) != workloads.scenario_text("time_sweep", 5)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["per_layer"] == layers.specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
