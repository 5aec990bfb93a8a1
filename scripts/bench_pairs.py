#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against this repository.

For each workload, pair i runs ``perfbench/run.py --trace 0`` once in the
parent checkout and once in this repository, both with seed
``--first-seed + i``; which side runs first alternates from pair to pair.
``--seconds`` is the ``run_seconds`` of ``BENCHMARK.json``.  Each side runs
its own, unmodified ``perfbench/run.py`` on its own sources.

The output JSON holds, per workload, every run's end-to-end metrics, each
side's median and quartiles per metric (inclusive method), the number of
pairs in which the change is better (the direction comes from
``BENCHMARK.json``), and the environment record of the runs.

Example
-------
    python3 scripts/bench_pairs.py --parent ../photonlab-parent \\
        --pairs time_sweep=10 --pairs radiation=3 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="pairs to run on a workload (repeatable; default 3 on each)")
    parser.add_argument("--first-seed", type=int, default=9001,
                        help="seed of the first pair; pair i uses first-seed + i")
    parser.add_argument("--out", required=True, help="JSON file to write")
    return parser.parse_args(argv)


def revision(path):
    """``git describe --always --dirty`` of a checkout, or None outside git."""
    try:
        out = subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(side_root, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run; returns (metrics, detail) or raises."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side_root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, detail


def spread(values):
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better):
    """Per metric: each side's spread and the pairs the change wins."""
    out = {}
    complete = [pair for pair in runs
                if "metrics" in pair["parent"] and "metrics" in pair["change"]]
    if not complete:
        return out
    for name, direction in better.items():
        parent = [pair["parent"]["metrics"][name] for pair in complete]
        change = [pair["change"]["metrics"][name] for pair in complete]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        out[name] = {
            "better": direction,
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": wins,
            "pairs": len(complete),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    better = {spec["name"]: spec["better"] for spec in bench["end_to_end"]}
    names = [spec["name"] for spec in bench["workloads"]]
    pairs = {name: 3 for name in names}
    if args.pairs:
        pairs = {}
        for item in args.pairs:
            name, _, count = item.partition("=")
            if name not in names or not count.isdigit():
                raise SystemExit(f"bad --pairs {item!r}: use WORKLOAD=N, WORKLOAD one of {names}")
            pairs[name] = int(count)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "revisions": {side: revision(path) for side, path in sides.items()},
        "environment": None,
        "workloads": {},
    }
    started = time.time()
    for workload, count in pairs.items():
        runs = []
        for index in range(count):
            seed = args.first_seed + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    metrics, detail = run_once(sides[side], workload, seed, seconds)
                except RuntimeError as exc:
                    pair[side] = {"error": str(exc)}
                    print(f"{workload} seed {seed} {side}: {exc}", file=sys.stderr)
                    continue
                pair[side] = {"metrics": metrics, "speed_factor": detail["speed_factor"]}
                report["environment"] = report["environment"] or detail["environment"]
                print(f"{workload} seed {seed} {side}: op_s_p50 {metrics['op_s_p50']:.3f}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
        report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
    report["wall_s"] = round(time.time() - started, 1)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
