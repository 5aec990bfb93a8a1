"""Seeded benchmark workloads: inputs, one operation, and its correctness gate.

Every workload is built from a seed.  The seed moves the packet direction,
width and evaluation times, or the probe geometry; it never changes the
amount of work (grid sizes, number of times, number of probes, source size).
Seed ranges are chosen so that every packet stays inside the grid coverage
and the guard band, and every gauge stencil inside the source window, so no
operation fails at a correct commit.

The package is driven only through its public functions.  Scenario-based
workloads are written as config text in the repository's format and loaded
through ``config.load_scenario``, as a user's ``photonlab run`` would.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from photonlab import config, observables, retarded_solver, runner
from photonlab.config import DEFAULT_TOLERANCES
from photonlab.field_synthesis import SpatialGrid
from photonlab.mode_space import spectral_summary

ALL_DENSITIES = (
    "number", "current", "energy", "momentum",
    "four_momentum", "angular_momentum", "bb_energy", "lp_number",
)

# Defaults of scripts/dipole_radiation.py: the source spans t0 = -1.2 up to
# the largest probe radius plus the emission phase plus 2, in 0.04 steps.
_PROBE_RADII = (8.0, 17.0)
_T_PHASE = math.pi / 2
_N_TIMES = int(math.ceil((_PROBE_RADII[1] + _T_PHASE + 2.0 + 1.2) / 0.04)) + 1


class OpFailure(Exception):
    """An operation returned, but its output failed a correctness gate."""


def _packet_lines(rng, n, off_axis):
    """Gaussian packet with |k0| = 10 on a centred n^3 grid with delta_k = 0.5.

    |k0| + 5 sigma stays below the grid edge (15.5) and above 5 sigma from
    the excluded zero mode; sigma >= 0.8 keeps the 90% containment radius
    far inside the guard band (a quarter of the 12.6-long box).
    """
    if off_axis:
        cos_polar = rng.uniform(-0.85, 0.85)  # at least ~32 degrees off the pole
    else:
        cos_polar = rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    sin_polar = math.sqrt(1.0 - cos_polar * cos_polar)
    k0 = 10.0 * np.array([sin_polar * math.cos(azimuth), sin_polar * math.sin(azimuth), cos_polar])
    sigma = rng.uniform(0.8, 1.2)
    weights = "1, 0" if rng.integers(2) else "0, 1"
    return [
        f"grid.n_per_axis = {n}",
        "grid.delta_k = 0.5",
        "packet.kind = gaussian",
        "packet.k0 = " + ", ".join(repr(float(v)) for v in k0),
        f"packet.sigma = {sigma!r}",
        f"packet.helicity_weights = {weights}",
    ]


def scenario_text(name: str, seed: int, n: int = 64) -> str:
    """Config text of a scenario workload, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "time_sweep":
        lines = _packet_lines(rng, n, off_axis=False)
        t0 = rng.uniform(0.0, 1.0)
        step = rng.uniform(0.3, 0.5)
        lines += [f"time.t0 = {t0!r}", f"time.t1 = {t0 + 7 * step!r}", "time.steps = 7",
                  "outputs.densities = number"]
    elif name in ("all_densities", "observables_report"):
        lines = _packet_lines(rng, n, off_axis=True)
        kinds = ALL_DENSITIES if name == "all_densities" else ("number",)
        lines += [f"time.t_list = {rng.uniform(0.0, 1.0)!r}",
                  "outputs.densities = " + ", ".join(kinds)]
    else:
        raise ValueError(f"{name} is not a scenario workload")
    lines += ["outputs.summary = true", f"run.seed = {seed}"]
    return "\n".join(lines) + "\n"


def load_text(text: str, workdir: str):
    """Write config text to ``workdir`` and load it as a user's file would be."""
    path = os.path.join(workdir, "scenario.cfg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return config.load_scenario(path)


class ScenarioRun:
    """``runner.run_scenario`` on a loaded config (time_sweep, all_densities).

    Gate: every check of the report passes.  The summary bytes are the op's
    digest, so repeats of one input must reproduce ``summary.txt`` exactly.
    """

    def __init__(self, cfg, workdir):
        self.cfg = cfg
        self.outdir = os.path.join(workdir, "artifacts")

    def run(self):
        return runner.run_scenario(self.cfg, self.outdir)

    def check(self, report) -> str:
        if not report.ok:
            raise OpFailure("failed checks: " + ", ".join(report.failed_names()))
        with open(report.summary_path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


class ObservablesReport:
    """``observables.expectations`` on a 64^3 pure-helicity packet.

    Gate: the number, energy and momentum integrals match the k-space mode
    sums of ``spectral_summary`` within the package tolerances, and the
    continuity residual is within its tolerance.
    """

    def __init__(self, cfg):
        grid = runner.build_grid(cfg)
        self.spatial = SpatialGrid.paired(grid)
        self.spectrum = runner.build_spectrum(cfg, grid)
        self.t = cfg.time.t_list[0]
        self.oracle = spectral_summary(self.spectrum)

    def run(self):
        return observables.expectations(self.spectrum, self.spatial, self.t)

    def check(self, report) -> str:
        oracle = self.oracle
        number_err = abs(report.number - oracle.number)
        energy_err = abs(report.energy - oracle.energy) / abs(oracle.energy)
        momentum_err = float(
            np.linalg.norm(np.subtract(report.momentum, oracle.momentum))
            / np.linalg.norm(oracle.momentum)
        )
        errors = (
            ("number", number_err, "number_norm"),
            ("energy", energy_err, "energy_match"),
            ("momentum", momentum_err, "momentum_match"),
            ("continuity", report.continuity_residual_rel, "continuity"),
        )
        bad = [f"{label}={value:.3e}" for label, value, tol in errors
               if not value <= DEFAULT_TOLERANCES[tol]]
        if bad:
            raise OpFailure("out of tolerance: " + ", ".join(bad))
        values = report.as_mapping()
        return _digest(f"{key}={float(values[key]).hex()}".encode() for key in sorted(values))


class Radiation:
    """The retarded-quadrature traffic of ``scripts/dipole_radiation.py``.

    Set-up builds the script's default dipole source (37^3 cells, 546
    slices).  One op evaluates the coarse Lorenz-gauge stencil (5^3 grid
    points x 5 times) and the single-time axis probes (6 directions at 4
    radii).  The seed jitters the stencil centre and mid time within the
    window the source covers, radii in [8, 17] and the probe orientation.

    Gate: gauge residual within tolerance, probe potentials finite.  The
    digest covers the residual and every probe value, bitwise.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.src = retarded_solver.gaussian_dipole_source(
            (0.0, 0.0, 1.0), 1.0, 0.352, delta_x=0.08, n_per_axis=37,
            t0=-1.2, delta_t=0.04, n_times=_N_TIMES,
        )
        # |z| <= 2.95 and t_mid >= 5.8 keep the earliest retarded time of the
        # stencil inside the source window, which starts at t0 = -1.2.
        h = 0.5
        centre = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                  rng.choice((-1.0, 1.0)) * rng.uniform(2.85, 2.95))
        self.stencil = SpatialGrid((5, 5, 5), (h, h, h), tuple(c - 2.0 * h for c in centre))
        self.stencil_times = rng.uniform(5.8, 5.95) + 0.2 * (np.arange(5) - 2)
        self.radii = np.sort(rng.uniform(*_PROBE_RADII, size=4))
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        self.directions = np.concatenate([np.eye(3), -np.eye(3)]) @ rotation.T

    def run(self):
        residual = retarded_solver.gauge_residual(
            retarded_solver.retarded_potential(self.src, self.stencil, self.stencil_times)
        )
        probes = [
            retarded_solver.retarded_potential(self.src, radius * self.directions, _T_PHASE + radius)
            for radius in self.radii
        ]
        return residual, probes

    def check(self, output) -> str:
        residual, probes = output
        if not residual <= DEFAULT_TOLERANCES["gauge"]:
            raise OpFailure(f"gauge residual {residual:.3e} > {DEFAULT_TOLERANCES['gauge']:.1e}")
        arrays = [a for pf in probes for a in (pf.phi_over_c, pf.A)]
        if not all(np.isfinite(a).all() for a in arrays):
            raise OpFailure("non-finite probe potential")
        return _digest([float(residual).hex().encode()] + [a.tobytes() for a in arrays])


def _digest(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def make(name: str, seed: int, workdir: str, **size):
    """Set up workload ``name`` for ``seed``; files go under ``workdir``.

    ``size`` shrinks the scenario grid (``n``) for tests only.
    """
    if name == "radiation":
        return Radiation(seed)
    cfg = load_text(scenario_text(name, seed, **size), workdir)
    if name == "observables_report":
        return ObservablesReport(cfg)
    return ScenarioRun(cfg, workdir)
