"""Shared fixtures.

The expensive desk-scale objects (64^3 packet, its t=0 snapshot, the
conserved dipole source) are cached inside :mod:`photonlab.registry`, so every
test module that needs them shares one copy per pytest process.  The whole
acceptance registry runs once per session too, through ``photonlab
selftest`` (:func:`selftest_run`).
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from photonlab import cli, registry
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import WaveVectorGrid, gaussian_spectrum


@pytest.fixture(scope="session")
def desk_grid():
    return registry.desk_grid()


@pytest.fixture(scope="session")
def desk_spatial():
    return registry.desk_spatial()


@pytest.fixture(scope="session")
def desk_packet():
    return registry.desk_packet()


@pytest.fixture(scope="session")
def desk_snapshot():
    return registry.desk_snapshot()


@pytest.fixture(scope="session")
def small_grid():
    """12^3 grid small enough for direct-quadrature oracles."""
    return WaveVectorGrid.centered((12, 12, 12), (0.9, 0.9, 0.9))


@pytest.fixture(scope="session")
def small_spatial(small_grid):
    return SpatialGrid.paired(small_grid)


@pytest.fixture(scope="session")
def small_packet(small_grid):
    return gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, (1.0, 0.0))


@pytest.fixture(scope="session")
def small_snapshot(small_spatial, small_packet):
    return synthesize(small_packet, small_spatial, 0.0)


@pytest.fixture(scope="session")
def planar_grid():
    """24 x-planes of 48 x 48 modes: three planes per group of x-planes, so a
    per-group pass runs several groups per slab."""
    return WaveVectorGrid.centered((24, 48, 48), (0.9, 0.6, 0.6))


@pytest.fixture(scope="session")
def planar_spatial(planar_grid):
    return SpatialGrid.paired(planar_grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def selftest_run():
    """Exit code, stdout and stderr of one ``photonlab selftest`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["selftest"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def traced():
    """Call ``fn()`` under tracemalloc; returns its result, the bytes it left
    allocated and its peak, both counted from the call's start."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    return run
