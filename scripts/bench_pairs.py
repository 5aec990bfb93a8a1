#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against this repository.

For each workload, pair i runs ``perfbench/run.py --trace 0`` once in the
parent checkout and once in this repository, both with seed
``--first-seed + i``; which side runs first alternates from pair to pair.
``--seconds`` is the ``run_seconds`` of ``BENCHMARK.json``.  Each side runs
its own, unmodified ``perfbench/run.py`` on its own sources.

``--control N`` adds N control pairs per workload that run the parent
checkout on both sides (its second run fills the ``change`` slot), one
after each of the first N real pairs, so drift between unchanged runs is
measured in the same round as the claim.

The output JSON holds, per workload, every run's end-to-end metrics, each
side's median and quartiles per metric (inclusive method), the ratio of the
change's median to the parent's, whether that ratio is resolved (see
:func:`summarize`; null with fewer than ``MIN_CONTROL_PAIRS`` completed
control pairs), the number of pairs in which the change is better (the
direction comes from ``BENCHMARK.json``), the same for the control pairs
under ``control``, and the environment record of each side's first
successful run (``environment.parent``, ``environment.change``).

Example
-------
    python3 scripts/bench_pairs.py --parent ../photonlab-parent \\
        --pairs time_sweep=10 --pairs radiation=3 --control 5 --out BENCH.json
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
#: completed control pairs below which no ratio is called resolved
MIN_CONTROL_PAIRS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="pairs to run on a workload (repeatable; default 3 on each)")
    parser.add_argument("--first-seed", type=int, default=9001,
                        help="seed of the first pair; pair i uses first-seed + i")
    parser.add_argument("--control", type=int, default=0, metavar="N",
                        help="parent-against-parent pairs per workload (default 0); "
                             f"a ratio is resolved only with {MIN_CONTROL_PAIRS} or more")
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


def _complete(runs):
    return [pair for pair in runs if "metrics" in pair["parent"] and "metrics" in pair["change"]]


def summarize(runs, better, control=()):
    """Per metric: each side's spread, their median ratio, the pairs the change wins
    and whether the ratio is resolved against the ``control`` pairs.

    ``resolved`` is true when all three hold: the change lies on one side of
    the parent in at least 90% of the completed pairs (ties count for
    neither side); the median ratio lies outside the full range of the
    control pairs' per-pair ratios (change over parent), not only outside
    their quartiles, which a median of few pairs crosses by drift alone; and
    the two medians differ by more than the parent's quartile spread
    (q3 - q1), so a shift no larger than the parent's own scatter is not a
    result.  It is false otherwise, and None when fewer than
    ``MIN_CONTROL_PAIRS`` control pairs completed (with a nonzero parent
    value, so a ratio).
    """
    out = {}
    complete, controls = _complete(runs), _complete(control)
    if not complete:
        return out
    for name, direction in better.items():
        parent = [pair["parent"]["metrics"][name] for pair in complete]
        change = [pair["change"]["metrics"][name] for pair in complete]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        parent, change = spread(parent), spread(change)
        ratio = change["median"] / parent["median"] if parent["median"] else None
        noise = [pair["change"]["metrics"][name] / pair["parent"]["metrics"][name]
                 for pair in controls if pair["parent"]["metrics"][name]]
        resolved = None
        if len(noise) >= MIN_CONTROL_PAIRS and ratio is not None:
            one_sided = max(wins, losses) >= 0.9 * len(complete)
            apart = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
            resolved = one_sided and apart and not min(noise) <= ratio <= max(noise)
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "median_ratio": ratio,
            "resolved": resolved,
            "change_wins": wins,
            "pairs": len(complete),
        }
    return out


def run_pair(roots, workload, seed, order, seconds, environment, tag=""):
    """Run ``roots[side]`` for each side in ``order`` with one seed; failures are recorded.

    Progress lines on stderr start with ``tag``.
    """
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        try:
            metrics, detail = run_once(roots[side], workload, seed, seconds)
        except RuntimeError as exc:
            pair[side] = {"error": str(exc)}
            print(f"{tag}{workload} seed {seed} {side}: {exc}", file=sys.stderr)
            continue
        pair[side] = {"metrics": metrics, "speed_factor": detail["speed_factor"]}
        environment[side] = environment[side] or detail["environment"]
        print(f"{tag}{workload} seed {seed} {side}: op_s_p50 {metrics['op_s_p50']:.3f}",
              file=sys.stderr, flush=True)
    return pair


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
        "environment": dict.fromkeys(sides),
        "workloads": {},
    }
    started = time.time()
    controls = {"parent": sides["parent"], "change": sides["parent"]}
    for workload, count in pairs.items():
        runs, control = [], []
        for index in range(max(count, args.control)):
            seed = args.first_seed + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            if index < count:
                runs.append(run_pair(sides, workload, seed, order, seconds, report["environment"]))
            if index < args.control:
                control.append(run_pair(controls, workload, seed, order, seconds,
                                        dict.fromkeys(sides), tag="control "))
        report["workloads"][workload] = {
            "runs": runs, "summary": summarize(runs, better, control),
            "control": {"runs": control, "summary": summarize(control, better)},
        }
    report["wall_s"] = round(time.time() - started, 1)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
