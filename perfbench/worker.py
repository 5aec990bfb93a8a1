"""One workload process: set up, run ops in a closed loop, gate every op.

Started by ``run.py``; it is not a user entry point.  It writes protocol
lines prefixed with ``@perfbench`` to standard output: ``ready`` once set-up
is done (the parent times set-up from process start to this line), then one
``result`` line.  A single client runs one op at a time with no extra
threads; ``PHOTONLAB_THREADS`` is left as the user set it.

Modes: ``full`` runs a cold first op and then warm ops until ``--seconds``
have passed (at least one); ``desk`` runs the shipped desk config once cold
and once warm.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from photonlab import config  # noqa: E402
from tracer import Tracer  # noqa: E402

DESK_CONFIG = os.path.join(ROOT, "configs", "gaussian_desk.cfg")


def emit(**fields) -> None:
    print("@perfbench " + json.dumps(fields), flush=True)


def environment() -> dict:
    """Versions, CPU, BLAS threads and the effective photonlab thread count."""
    import numpy
    import scipy
    from photonlab import field_synthesis

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as handle:
            l3_cache = handle.read().strip()
    except OSError:
        l3_cache = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    workers = getattr(field_synthesis, "_workers", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "l3_cache": l3_cache,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key, "unset") for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "PHOTONLAB_THREADS": os.environ.get("PHOTONLAB_THREADS", "unset"),
        "photonlab_fft_workers": workers() if workers else "unknown",
    }


def run_op(workload, tracer, label, reference):
    """Time one op, then gate it; returns (seconds, digest, failure or None)."""
    if tracer is not None:
        tracer.op = label
    start = time.perf_counter()
    try:
        output = workload.run()
    except Exception as exc:  # a failing op is counted, the loop goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        digest = workload.check(output)
    except Exception as exc:
        return elapsed, None, f"{type(exc).__name__}: {exc}"
    if reference is not None and digest != reference:
        return elapsed, digest, "output differs from the first op of the same input"
    return elapsed, digest, None


def run_ops(workload, tracer, seconds):
    """Cold first op, then warm ops while fewer than ``seconds`` have passed.

    At least one warm op runs.
    """
    first_s, reference, failure = run_op(workload, tracer, 0, None)
    failures = [] if failure is None else [{"op": 0, "reason": failure}]
    warm_s = []
    started = time.perf_counter()
    while not warm_s or time.perf_counter() - started < seconds:
        label = len(warm_s) + 1
        elapsed, digest, failure = run_op(workload, tracer, label, reference)
        reference = reference if reference is not None else digest
        warm_s.append(elapsed)
        if failure is not None:
            failures.append({"op": label, "reason": failure})
    return first_s, warm_s, failures, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("full", "desk"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args(argv)

    tracer = Tracer().install() if args.trace else None
    if args.mode == "desk":
        workload = workloads.ScenarioRun(config.load_scenario(DESK_CONFIG), args.workdir)
    else:
        workload = workloads.make(args.workload, args.seed, args.workdir)
    emit(event="ready")
    first_s, warm_s, failures, digest = run_ops(workload, tracer, args.seconds)
    result = {
        "event": "result",
        "first_op_s": first_s,
        "warm_op_s": warm_s,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        warm = list(range(1, len(warm_s) + 1))
        result["layers"] = layers.op_metrics(tracer.stats, tracer.counters, warm)
        result["cold_layers"] = layers.op_metrics(tracer.stats, tracer.counters, [0])
        if args.spans:
            tracer.dump(args.spans)
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
