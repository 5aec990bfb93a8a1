"""The experiment scripts import, parse their arguments and run."""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_0(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(script), run_name="__main__")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {script.name} ")


def _bench_pairs():
    """The functions of scripts/bench_pairs.py, loaded without running it."""
    return runpy.run_path(str(SCRIPT_DIR / "bench_pairs.py"))


def _pair(parent, change):
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


BETTER = {"op_s_p50": "lower", "ops_per_s": "higher"}


def test_bench_pairs_counts_strict_wins_in_the_metric_direction():
    summarize = _bench_pairs()["summarize"]
    base = {"op_s_p50": 1.0, "ops_per_s": 1.0}
    runs = [
        _pair(base, {"op_s_p50": 0.9, "ops_per_s": 1.1}),  # the change is better on both
        _pair(base, dict(base)),  # a tie on both
        _pair(base, {"op_s_p50": 1.2, "ops_per_s": 0.8}),  # the parent is better on both
        _pair(base, {"op_s_p50": 0.8, "ops_per_s": 0.9}),  # faster op, lower rate
    ]
    out = summarize(runs, BETTER)
    assert out["op_s_p50"]["change_wins"] == 2
    assert out["ops_per_s"]["change_wins"] == 1
    assert {entry["pairs"] for entry in out.values()} == {4}
    assert {name: entry["better"] for name, entry in out.items()} == BETTER
    # ties count for neither side: swapped, the parent wins the other pairs but the tie
    swapped = summarize([{"parent": p["change"], "change": p["parent"]} for p in runs], BETTER)
    assert swapped["op_s_p50"]["change_wins"] == 1
    assert swapped["ops_per_s"]["change_wins"] == 2


def test_bench_pairs_skips_a_pair_with_an_error_on_either_side():
    summarize = _bench_pairs()["summarize"]
    good = _pair({"op_s_p50": 2.0, "ops_per_s": 0.5}, {"op_s_p50": 1.0, "ops_per_s": 1.0})
    runs = [
        {"parent": {"error": "exit 1"}, "change": good["change"]},
        good,
        {"parent": good["parent"], "change": {"error": "exit 1"}},
    ]
    out = summarize(runs, BETTER)
    assert out["op_s_p50"] == {
        "better": "lower",
        "parent": {"median": 2.0, "q1": 2.0, "q3": 2.0},
        "change": {"median": 1.0, "q1": 1.0, "q3": 1.0},
        "median_ratio": 0.5,
        "resolved": None,
        "change_wins": 1,
        "pairs": 1,
    }
    assert summarize(runs[::2], BETTER) == {}


def test_bench_pairs_summarizes_control_pairs_like_the_claim():
    """A/A runs: medians 1.0 and 1.25 give a ratio of 1.25 and one win in three pairs."""
    summarize = _bench_pairs()["summarize"]
    runs = [_pair({"op_s_p50": p, "ops_per_s": 1.0}, {"op_s_p50": c, "ops_per_s": 1.0})
            for p, c in ((1.0, 1.25), (0.75, 1.5), (1.25, 0.5))]
    out = summarize(runs, BETTER)["op_s_p50"]
    assert out["parent"] == {"median": 1.0, "q1": 0.875, "q3": 1.125}
    assert out["change"] == {"median": 1.25, "q1": 0.875, "q3": 1.375}
    assert out["median_ratio"] == 1.25
    assert (out["change_wins"], out["pairs"]) == (1, 3)
    assert summarize(runs, BETTER)["ops_per_s"]["change_wins"] == 0


def test_bench_pairs_resolves_a_ratio_outside_the_control_quartiles():
    """Control ratios 0.9 to 1.1 in steps of 0.05 span the range 0.9 to 1.1:
    a median ratio of 1.25, on one side in every pair, is resolved, one of 1.0
    is not; a failed control pair is skipped, and without control pairs
    nothing is resolved."""
    summarize = _bench_pairs()["summarize"]
    base = {"op_s_p50": 1.0, "ops_per_s": 2.0}
    control = [_pair(base, {"op_s_p50": r, "ops_per_s": 2.0})
               for r in (0.9, 0.95, 1.0, 1.05, 1.1)]
    control.append({"parent": base, "change": {"error": "exit 1"}})
    runs = [_pair(base, {"op_s_p50": 1.25, "ops_per_s": 2.0}) for _ in range(3)]
    out = summarize(runs, BETTER, control)
    assert (out["op_s_p50"]["median_ratio"], out["op_s_p50"]["resolved"]) == (1.25, True)
    assert (out["ops_per_s"]["median_ratio"], out["ops_per_s"]["resolved"]) == (1.0, False)
    assert {entry["resolved"] for entry in summarize(runs, BETTER).values()} == {None}


def test_bench_pairs_resolves_nothing_below_the_minimum_of_control_pairs():
    """Two completed control pairs give null, five give a bool (a ratio of 1.25
    in the one pair, outside the control range 1.0 to 1.0)."""
    namespace = _bench_pairs()
    summarize = namespace["summarize"]
    assert namespace["MIN_CONTROL_PAIRS"] == 5
    base = {"op_s_p50": 1.0, "ops_per_s": 2.0}
    runs = [_pair(base, {"op_s_p50": 1.25, "ops_per_s": 2.0})]
    control = [_pair(base, dict(base)) for _ in range(5)]
    for count, resolved in ((2, None), (5, True)):
        assert summarize(runs, BETTER, control[:count])["op_s_p50"]["resolved"] is resolved


def test_bench_pairs_does_not_resolve_drift_inside_the_control_range():
    """A median ratio of x1.102 with the change faster in 4 of 10 pairs lies outside
    the quartiles of control ratios 0.81 to 1.26, but inside their range."""
    summarize = _bench_pairs()["summarize"]
    base = {"op_s_p50": 1.0, "ops_per_s": 2.0}
    runs = [_pair(base, {"op_s_p50": c, "ops_per_s": 2.0})
            for c in (0.95, 0.95, 0.95, 0.95, 1.102, 1.102, 1.2, 1.2, 1.2, 1.2)]
    control = [_pair(base, {"op_s_p50": r, "ops_per_s": 2.0})
               for r in (0.81, 0.9, 1.0, 1.1, 1.26)]
    out = summarize(runs, BETTER, control)["op_s_p50"]
    assert (out["median_ratio"], out["change_wins"]) == (1.102, 4)
    assert out["resolved"] is False


def _replayed_summary(number, workload, metric):
    """``summarize`` of the committed ``BENCH_<number>.json`` runs and control pairs
    of ``workload``, for ``metric``; also the summary the file holds."""
    root = SCRIPT_DIR.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    better = {spec["name"]: spec["better"] for spec in bench["end_to_end"]}
    entry = json.loads((root / f"BENCH_{number}.json").read_text())["workloads"][workload]
    summary = _bench_pairs()["summarize"](entry["runs"], better, entry["control"]["runs"])
    return summary[metric], entry["summary"][metric]


def test_bench_pairs_does_not_resolve_medians_inside_the_parents_quartile_spread():
    """BENCH_32's observables_report ops_per_s: x1.089, the change faster in 9 of
    10 pairs and outside the control range, but the medians 0.1784 apart
    against the parent's quartile spread of 0.1795.  The memory claims of
    BENCH_34-36 (gaps of 13.57, 22.10 and 13.62 MB against spreads of 0.19,
    0.07 and 0.09) stay resolved."""
    out, recorded = _replayed_summary(32, "observables_report", "ops_per_s")
    assert recorded["resolved"] is True
    assert (round(out["median_ratio"], 3), out["change_wins"], out["pairs"]) == (1.089, 9, 10)
    gap = out["change"]["median"] - out["parent"]["median"]
    assert 0.178 < gap < out["parent"]["q3"] - out["parent"]["q1"] < 0.18
    assert out["resolved"] is False
    for number, workload in ((34, "observables_report"), (35, "all_densities"),
                             (36, "observables_report")):
        out, recorded = _replayed_summary(number, workload, "peak_rss_mb")
        assert out["resolved"] is recorded["resolved"] is True, number


def test_bench_pairs_spread_gives_inclusive_quartiles():
    spread = _bench_pairs()["spread"]
    assert spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert spread([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert spread([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7}


def test_bench_pairs_records_the_environment_of_each_side(tmp_path, capsys):
    """Each side's own environment, not the first run's for both."""
    main = _bench_pairs()["main"]
    root = main.__globals__["ROOT"]
    metrics = {name: 1.0 for name in ("setup_s", "first_op_s", "op_s_p50", "ops_per_s",
                                      "peak_rss_mb", "ok_ratio")}
    calls = []

    def run_once(side_root, workload, seed, seconds):
        side = "change" if side_root == root else "parent"
        calls.append((side, workload, seed))
        workers = 2 if side == "change" else 1
        return dict(metrics), {"speed_factor": 1.0,
                               "environment": {"photonlab_fft_workers": workers}}

    out = tmp_path / "bench.json"
    main.__globals__["run_once"] = run_once
    assert main(["--parent", str(tmp_path), "--pairs", "time_sweep=2",
                 "--first-seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert calls == [("parent", "time_sweep", 5), ("change", "time_sweep", 5),
                     ("change", "time_sweep", 6), ("parent", "time_sweep", 6)]
    report = json.loads(out.read_text())
    assert report["environment"] == {"parent": {"photonlab_fft_workers": 1},
                                     "change": {"photonlab_fft_workers": 2}}


def test_bench_pairs_interleaves_control_pairs_of_the_parent(tmp_path, capsys):
    """--control 2 with 3 real pairs: a parent-parent pair after each of the first two."""
    main = _bench_pairs()["main"]
    root = main.__globals__["ROOT"]
    metrics = {name: 1.0 for name in ("setup_s", "first_op_s", "op_s_p50", "ops_per_s",
                                      "peak_rss_mb", "ok_ratio")}
    calls = []

    def run_once(side_root, workload, seed, seconds):
        calls.append(("change" if side_root == root else "parent", seed))
        return dict(metrics), {"speed_factor": 1.0, "environment": {}}

    out = tmp_path / "bench.json"
    main.__globals__["run_once"] = run_once
    assert main(["--parent", str(tmp_path), "--pairs", "radiation=3", "--control", "2",
                 "--first-seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert calls == [("parent", 1), ("change", 1), ("parent", 1), ("parent", 1),
                     ("change", 2), ("parent", 2), ("parent", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    entry = json.loads(out.read_text())["workloads"]["radiation"]
    assert [pair["seed"] for pair in entry["control"]["runs"]] == [1, 2]
    assert entry["control"]["summary"]["op_s_p50"]["pairs"] == 2
    assert entry["summary"]["op_s_p50"]["pairs"] == 3
    # two control pairs are too few to resolve a ratio
    assert entry["summary"]["op_s_p50"]["resolved"] is None


def _run_script(name, args, capsys, monkeypatch):
    """stdout of scripts/<name> run as a program with ``args``."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT_DIR / name), *args])
    runpy.run_path(str(SCRIPT_DIR / name), run_name="__main__")
    return capsys.readouterr().out


def test_transport_demo_runs_and_reports_the_centroid_speed(capsys, monkeypatch):
    out = _run_script("transport_demo.py", ["--n", "40", "--samples", "2", "--t-max", "1.0"],
                      capsys, monkeypatch)
    assert "end-to-end centroid speed over [0, 1.0]: 0.98712 " in out


def test_localization_scan_runs_and_reports_three_widths(capsys, monkeypatch):
    out = _run_script("localization_scan.py", ["--n", "40", "--sigmas", "1.5"],
                      capsys, monkeypatch)
    # sigma, r99 of number, |F|^2 and |psi|^2, 1/sigma, negative mass of number; the
    # 5 sigma ball about k0 = 10 reaches k = 17.5, beyond this grid's 11.4
    assert out.splitlines()[-1].split() == ["1.50", "3.4134", "3.6745", "3.4134", "0.6667",
                                            "2.663e-12", "(clipped)"]


def test_localization_scan_flags_a_packet_that_reaches_the_zero_mode():
    """On the default 72^3 grid no 5 sigma ball about k0 = 10 x reaches the grid
    edge, but at sigma = 2.0 it reaches the excluded k = 0."""
    from photonlab.mode_space import WaveVectorGrid

    is_clipped = runpy.run_path(str(SCRIPT_DIR / "localization_scan.py"))["is_clipped"]
    kgrid = WaveVectorGrid.centered((72,) * 3, (0.6,) * 3)
    assert is_clipped(kgrid, (10.0, 0.0, 0.0), 2.0)
    assert not is_clipped(kgrid, (10.0, 0.0, 0.0), 1.5)
