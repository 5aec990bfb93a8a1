#!/usr/bin/env python3
"""photonlab benchmark: one workload run, end-to-end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload time_sweep --seed 1 --seconds 8 --trace 0

``--trace 0`` starts two workload processes one after the other; each
sets up, runs a cold first op, then warm ops for half of ``--seconds``.  It
reports the end-to-end metrics: set-up and cold-op times are medians over
the two processes, warm-op metrics pool the warm ops of both.
All times are scaled to the reference machine speed (see
``REFERENCE_CALIBRATION_S``).

``--trace 1`` runs the workload once untraced and once with layer spans
installed from outside the package (half the seconds each), checks that
both produce byte-identical outputs, and reports the per-layer metrics, the
tracing overhead and the traced FFT counts of the shipped
``configs/gaussian_desk.cfg``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, samples, failures).  Artifacts go to a
temporary directory under ``.perfbench_tmp/`` that is removed afterwards;
traced spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("time_sweep", "all_densities", "observables_report", "radiation")

END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Fresh workload processes of an untraced run.  Each is timed from start to
# its ready line; spreading the samples over two processes in turn keeps a
# short slow spell of a shared machine from setting a metric on its own.
PROCESSES = 2
# Median time of one round of calibration_kernel() on the reference machine
# (2-vCPU Intel Xeon virtual machine, 105 MB L3, Python 3.11, NumPy 2.4).
# The speed of a shared machine drifts by up to 1.5x over minutes, which no
# median within a run removes.  So this process times the kernel before the
# first workload process and after each one, while no workload runs, and
# every reported time is scaled by REFERENCE_CALIBRATION_S / (the median of
# those rounds).  The raw seconds are kept in the details line.
REFERENCE_CALIBRATION_S = 0.06
CALIBRATION_ROUNDS = 12
RUN_BUDGET_S = 170.0
PROTOCOL = "@perfbench "


class WorkerError(RuntimeError):
    pass


def spawn(deadline, workdir, **options):
    """Run worker.py to completion; return (seconds to ready, result line)."""
    os.makedirs(workdir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    ready_s, result, pending = None, None, b""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise WorkerError(f"worker {options} overran the run budget")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    text = line.decode("utf-8", "replace")
                    if not text.startswith(PROTOCOL):
                        continue
                    message = json.loads(text[len(PROTOCOL):])
                    if message["event"] == "ready":
                        ready_s = time.perf_counter() - started
                    elif message["event"] == "result":
                        result = message
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise WorkerError(f"worker {options} exited with code {proc.returncode}")
    return ready_s, result


def high_percentile(samples):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(samples)
            return {"p": p, "value": ordered[min(n - 1, int(p / 100.0 * n))], "samples": n}
    return None


def calibration_kernel():
    """Return a function that times one round of a fixed NumPy kernel.

    One round mixes the kinds of work the workloads spend their time on: a
    3-D FFT, a BLAS product, a scattered gather from a 64 MB table and a
    complex exponential.  It does not touch photonlab, so a program change
    cannot move it; only the machine's speed does.  The data are built once,
    without a random generator.
    """
    spectrum = (np.arange(48**3 * 3) % 7 - 3.0).reshape(48, 48, 48, 3) + 0j
    left = (np.arange(4096 * 256) % 11 - 5.0).reshape(4096, 256) / 7.0
    right = (np.arange(256 * 256) % 13 - 6.0).reshape(256, 256) / 11.0
    table = np.arange(1 << 23, dtype=float)
    index = (np.arange(1 << 20, dtype=np.int64) * 2654435761) % table.size

    def round_s():
        start = time.perf_counter()
        np.fft.ifftn(spectrum, axes=(0, 1, 2))
        left @ right
        table[index].sum()
        np.exp(1j * left[:1024])
        return time.perf_counter() - start

    return round_s


def untraced(args, workdir, deadline):
    round_s = calibration_kernel()
    calibration_s = [round_s() for _ in range(CALIBRATION_ROUNDS)]
    processes = []
    for index in range(PROCESSES):
        processes.append(spawn(deadline, os.path.join(workdir, f"process{index}"),
                               workload=args.workload, seed=args.seed,
                               seconds=args.seconds / PROCESSES))
        calibration_s += [round_s() for _ in range(CALIBRATION_ROUNDS)]
    factor = REFERENCE_CALIBRATION_S / statistics.median(calibration_s)
    results = [result for _, result in processes]
    raw_setup_s = [ready for ready, _ in processes]
    raw_first_op_s = [result["first_op_s"] for result in results]
    setup_s = [seconds * factor for seconds in raw_setup_s]
    first_op_s = [seconds * factor for seconds in raw_first_op_s]
    warm = [op_s * factor for result in results for op_s in result["warm_op_s"]]
    failures = [dict(failure, process=index)
                for index, result in enumerate(results) for failure in result["failures"]]
    # Every process runs the same input, so each must reproduce the first
    # process's output bit for bit.
    failures += [{"process": index, "reason": "output differs from process 0"}
                 for index, result in enumerate(results[1:], 1)
                 if result["digest"] != results[0]["digest"]]
    attempted = len(first_op_s) + len(warm)
    failed = len(failures)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "first_op_s": statistics.median(first_op_s),
        "op_s_p50": statistics.median(warm),
        "ops_per_s": len(warm) / sum(warm),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "ok_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "environment": results[0]["environment"],
        "speed_factor": factor,
        "calibration_s": calibration_s,
        "raw_setup_s": raw_setup_s,
        "raw_first_op_s": raw_first_op_s,
        "raw_warm_op_s": [result["warm_op_s"] for result in results],
        "warm_op_count": len(warm),
        "warm_op_high_percentile": high_percentile(warm),
        "peak_rss_mb": [result["peak_rss_mb"] for result in results],
        "fail_ratio": failed / attempted,
        "failures": failures,
        "digest": results[0]["digest"],
    }
    return failed == 0, attempted, failed, metrics, END_TO_END, detail


def traced(args, workdir, deadline):
    half = args.seconds / 2.0
    common = {"workload": args.workload, "seed": args.seed, "seconds": half}
    _, plain = spawn(deadline, os.path.join(workdir, "untraced"), **common)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    _, traced_run = spawn(deadline, os.path.join(workdir, "traced"), trace=1, spans=spans, **common)
    _, desk = spawn(deadline, os.path.join(workdir, "desk"), workload="desk", seed=0,
                    mode="desk", trace=1)

    metrics = dict(traced_run["layers"])
    metrics["trace.overhead"] = (
        statistics.median(traced_run["warm_op_s"]) / statistics.median(plain["warm_op_s"]))
    metrics["desk.fft.ifftn.cold_calls"] = desk["cold_layers"]["fft.ifftn.calls"]
    metrics["desk.fft.ifftn.warm_calls"] = desk["layers"]["fft.ifftn.calls"]

    runs = {"untraced": plain, "traced": traced_run, "desk": desk}
    attempted = sum(1 + len(run["warm_op_s"]) for run in runs.values())
    failures = {name: run["failures"] for name, run in runs.items() if run["failures"]}
    failed = sum(len(items) for items in failures.values())
    identical = plain["digest"] is not None and plain["digest"] == traced_run["digest"]
    units = {spec["name"]: spec["unit"] for spec in layers.specs()}
    detail = {
        "environment": traced_run["environment"],
        "artifacts_identical_traced_vs_untraced": identical,
        "untraced_warm_op_s": plain["warm_op_s"],
        "traced_warm_op_s": traced_run["warm_op_s"],
        "cold_op_layers": traced_run["cold_layers"],
        "failures": failures,
        "spans": os.path.relpath(spans, ROOT),
    }
    return failed == 0 and identical, attempted, failed, metrics, units, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "photonlab", "__init__.py")):
        print(f"perfbench: no photonlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics, units, detail = run(args, workdir, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
