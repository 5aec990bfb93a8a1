"""Shared fixtures.

The expensive desk-scale objects (64^3 packet, its t=0 snapshot, the
conserved dipole source) are cached inside :mod:`photonlab.runner`, so every
test module that needs them shares one copy per pytest process.  The whole
acceptance registry runs once per session too, through ``photonlab
selftest`` (:func:`selftest_run`).
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from photonlab import cli, runner
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import WaveVectorGrid, gaussian_spectrum


@pytest.fixture(scope="session")
def desk_grid():
    return runner.desk_grid()


@pytest.fixture(scope="session")
def desk_spatial():
    return runner.desk_spatial()


@pytest.fixture(scope="session")
def desk_packet():
    return runner.desk_packet()


@pytest.fixture(scope="session")
def desk_snapshot():
    return runner.desk_snapshot()


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
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def selftest_run():
    """Exit code, stdout and stderr of one ``photonlab selftest`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["selftest"])
    return code, out.getvalue(), err.getvalue()
