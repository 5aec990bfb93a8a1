"""The package's threads: a CPU count, one pool of per-element slab passes
and one export thread.

Every FFT of :mod:`photonlab.field_synthesis` runs on :func:`_workers`
threads: the CPUs the process may run on, or ``PHOTONLAB_THREADS`` clamped
to [1, that count].  pocketfft splits its 1-D lines over them, so a
transform does not depend on the count.

The per-mode and per-point passes (the time phase and the two FFT phase
factors of a transform, the amplitude, the cross products, the density
bilinears of :mod:`photonlab.densities` and the oracle's own amplitude) run
through :func:`_in_slabs`: one call per contiguous slab of the leading
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
  megabytes);
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


def _multiply(a, b, out):
    """out = a * b in x-slabs; all three are (..., nx, ny, nz), component axes leading."""
    _in_slabs(lambda x: np.multiply(a[..., x, :, :], b[..., x, :, :], out=out[..., x, :, :]),
              out.shape[-3])
    return out


def _cross(a, b, out=None):
    """a x b of two (nx, ny, nz, 3) arrays from componentwise products, in x-slabs.

    The same products and differences as ``np.cross`` (so bit-identical
    results), without its copies of both operands.  The result is C-ordered
    unless ``out`` (for example a component-major ``vector_array``) is given.
    """
    if out is None:
        out = np.empty(a.shape, np.result_type(a, b))
    term = np.empty(out.shape[:-1], out.dtype)

    def fill(x):
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.multiply(a[x, ..., j], b[x, ..., k], out=out[x, ..., i])
            np.multiply(a[x, ..., k], b[x, ..., j], out=term[x])
            np.subtract(out[x, ..., i], term[x], out=out[x, ..., i])

    _in_slabs(fill, out.shape[0])
    return out
