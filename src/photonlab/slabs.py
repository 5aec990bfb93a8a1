"""The package's threads: a CPU count and one pool of per-element slab passes.

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
one element.  It allocates nothing of its own beyond small temporaries: the
C library keeps memory freed on a pool thread in that thread's heap.  This
module imports nothing else of the package.
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


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads; it starts its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


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
