"""The package's threads: a CPU count, one pool of per-element slab passes
and one export thread.

Every FFT of :mod:`photonlab.field_synthesis` runs on :func:`_workers`
threads: the CPUs the process may run on, or ``PHOTONLAB_THREADS`` clamped
to [1, that count].  pocketfft splits its 1-D lines over them, so a
transform does not depend on the count.

The per-mode and per-point passes (the time phase and the two FFT phases
of a transform, the amplitude, the cross products (:func:`_cross_into`, one
group of x-planes at a time), the density bilinears of
:mod:`photonlab.densities` and the oracle's own amplitude) run through
:func:`_in_slabs`: one call per contiguous slab of the leading
spatial axis x, the first on the calling thread and the others on one
process-wide pool.  No pass reduces across x, and each element sees the same
operations in the same order, so every output is bitwise identical for any
thread count.  The retarded quadrature of :mod:`photonlab.retarded_solver`
runs slabs of whole chunks of evaluation points on the same pool.

A slab owns its outputs: a callback writes only its own part of arrays that
its caller allocated (``out=`` and in-place ufuncs), so no two slabs touch
one element.  The C library keeps memory freed on a pool thread in that
thread's heap, so a callback bounds what it allocates itself:

* each per-mode or per-point pass above allocates nothing beyond small
  temporaries (slab-local arrays there raise the peak resident set by
  megabytes).  A pass whose operands are formed per mode (a phase from its
  per-axis factors, the mode factor, the time phase gathered from its
  level table, a contraction's, cross product's or squared norm's
  scratch, the evolved amplitude behind B+ and the helicity operand) forms
  them per-plane: over the runs of :func:`_plane_groups`, whole x-planes of
  about :data:`_GROUP_MODES` modes each, through :func:`_in_plane_groups`;
* a quadrature chunk holds the arrays of one cell block at a time, each
  allocated in its block: 64 bytes per (point, cell) pair (88 while a later
  group of times builds its operator) for at most the quadrature's
  ``max(_BLOCK_PAIRS, 32 * nz)`` pairs, ``nz`` the source cells per z-row.

:func:`_writer` is one more thread, there whatever ``PHOTONLAB_THREADS``
says: ``photonlab run`` hands it each finished density to write, hash and
rename into place (:func:`photonlab.runner.write_array`) while the next one
is built.  It computes nothing, so no output depends on it, and one write
is queued at a time.  This module imports nothing else of the package.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache

import numpy as np


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers():
    """Threads for the FFTs and the slab passes: :func:`_cpus`, or ``PHOTONLAB_THREADS``.

    The setting is clamped to [1, _cpus()]; a value that is not an integer
    counts as 1.
    """
    setting = os.environ.get("PHOTONLAB_THREADS")
    if setting is None:
        return _cpus()
    try:
        return min(max(1, int(setting)), _cpus())
    except ValueError:
        return 1


def _slab_bounds(n: int, parts: int):
    """At most ``parts`` contiguous, non-empty slices that cover range(n) once."""
    parts = max(1, min(parts, n))
    edges = [n * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


@cache
def _pool():
    """The process-wide pool of the slab passes, created on first use."""
    return ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="photonlab-slab")


@cache
def _writer():
    """The process-wide export thread, created on first use."""
    return ThreadPoolExecutor(1, thread_name_prefix="photonlab-export")


def _forget_threads():
    _pool.cache_clear()
    _writer.cache_clear()


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads; it starts its own
    os.register_at_fork(after_in_child=_forget_threads)


def _in_slabs(fn, n: int):
    """Call ``fn(x)`` for the slices x of :func:`_slab_bounds` (n, :func:`_workers`).

    The first slice runs on the calling thread, the others on :func:`_pool`;
    returns when all are done and re-raises the first error.  ``fn`` must
    only write into arrays the caller allocated (see module docs).
    """
    first, *rest = _slab_bounds(n, _workers())
    futures = [_pool().submit(fn, x) for x in rest]
    try:
        fn(first)
    finally:
        wait(futures)
    for future in futures:
        future.result()


#: modes per group of x-planes whose temporaries a slab pass forms at once
_GROUP_MODES = 2**13


def _plane_groups(x: slice, plane: int):
    """The x-slab ``x`` in runs of whole x-planes of ``plane`` modes each, about
    :data:`_GROUP_MODES` modes per run (one plane at least)."""
    step = max(1, _GROUP_MODES // plane)
    return [slice(lo, min(lo + step, x.stop)) for lo in range(x.start, x.stop, step)]


def _in_plane_groups(fn, shape):
    """Call ``fn(g)`` for each run g of :func:`_plane_groups` of the x-slabs of an
    (nx, ny, nz, ...) ``shape``; the slabs run as in :func:`_in_slabs`."""
    plane = shape[1] * shape[2]

    def slab(x):
        for g in _plane_groups(x, plane):
            fn(g)

    _in_slabs(slab, shape[0])


def _cross_into(a, b, out, term):
    """out = a x b of (..., 3) arrays from componentwise products; ``term`` is
    scratch of one component's shape.

    The same products and differences as ``np.cross`` (so bit-identical
    results), without its copies of both operands.  Callers pass one group of
    x-planes of each operand (see :func:`_in_plane_groups`).
    """
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        np.multiply(a[..., k], b[..., j], out=term)
        np.subtract(out[..., i], term, out=out[..., i])
    return out
