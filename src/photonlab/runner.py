"""Scenario orchestration and artifact export.

``photonlab run`` and ``export-slice`` go through here; the acceptance
checks and ``photonlab selftest`` live in :mod:`photonlab.registry`, and
the quadrature of the ``fft-quadrature`` spot check in :mod:`photonlab.oracle`.

Exported artifacts are deterministic: identical configuration (including the
seed) produces byte-identical summaries.  Summaries are sorted key=value
text; arrays are raw little-endian float64 with a one-line ASCII header; 2-D
slices are CSV.  All files are written atomically and listed in the summary
with their SHA-256 hash.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import Future, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__, densities, observables, slabs
from .config import GridSection, ScenarioConfig
from .diskio import atomic_write_bytes, atomic_write_text
from .field_synthesis import FieldSnapshot, _forget, synthesize
from .mode_space import (PhotonSpectrum, SpatialGrid, WaveVectorGrid, gaussian_spectrum,
                         localized_spectrum, normalize, single_mode_spectrum)
from .oracle import vector_potential_at_points
from .registry import CheckResult, Metric

# ---------------------------------------------------------------------------
# Artifact formats

_ARRAY_MAGIC = "photonlab-array v1"
_SUMMARY_MAGIC = "photonlab-summary v1"


def write_array(path: str, data: np.ndarray, kind: str, t: float) -> str:
    """One ASCII header line, then raw little-endian float64 bytes (C order).

    Returns the SHA-256 hex digest of the bytes written.  The header and the
    array's own buffer are written and hashed one after the other, never
    joined into a copy of the payload.
    """
    arr = np.ascontiguousarray(np.asarray(data, dtype="<f8"))
    shape = ",".join(str(n) for n in arr.shape)
    header = (
        f"{_ARRAY_MAGIC} kind={kind} shape={shape} dtype=<f8 order=C "
        f"time={t:.17g} units=natural\n"
    ).encode("ascii")
    atomic_write_bytes(path, (header, arr.data))
    digest = hashlib.sha256(header)
    digest.update(arr.data)
    return digest.hexdigest()


def read_array(path: str) -> tuple[np.ndarray, dict[str, str]]:
    """Read an array file written by :func:`write_array`; errors name the file."""
    with open(path, "rb") as handle:
        header = handle.readline().decode("ascii", errors="replace").rstrip("\n")
        payload = handle.read()
    fields = header.split(" ")
    if " ".join(fields[:2]) != _ARRAY_MAGIC:
        raise ValueError(f"{path}: not a photonlab array file")
    try:
        meta = dict(item.split("=", 1) for item in fields[2:])
        shape = tuple(int(n) for n in meta["shape"].split(","))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed array header: {exc}") from exc
    expected = 8 * math.prod(shape)
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, shape {shape} needs {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return data, meta


def write_slice_csv(
    path: str,
    plane_axis: int,
    plane_coordinate: float,
    axes: tuple[np.ndarray, np.ndarray],
    labels: tuple[str, str],
    data: np.ndarray,
    kind: str,
    t: float,
) -> None:
    """CSV export of a 2-D slice; vector data gets one column per component."""
    lines = [
        f"# {_ARRAY_MAGIC.replace('array', 'slice')} kind={kind} "
        f"plane_axis={plane_axis} plane_coordinate={plane_coordinate:.17g} time={t:.17g}"
    ]
    if data.ndim == 2:
        columns = [labels[0], labels[1], "value"]
    else:
        columns = [labels[0], labels[1]]
        columns += [f"value_{c}" for c in densities.DENSITY_TABLE[kind].labels]
    lines.append(",".join(columns))
    first, second = axes
    for i, u in enumerate(first):
        for j, v in enumerate(second):
            cell = data[i, j]
            if data.ndim == 2:
                tail = f"{cell:.17g}"
            else:
                tail = ",".join(f"{w:.17g}" for w in cell)
            lines.append(f"{u:.17g},{v:.17g},{tail}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Scenario execution


def build_grid(cfg: ScenarioConfig) -> WaveVectorGrid:
    """The wave-vector grid of ``cfg``: one object per grid section, so a repeated
    run reuses its k vectors, omega and mask (see :func:`_grid`)."""
    return _grid(cfg.grid)


@lru_cache(maxsize=2)
def _grid(section: GridSection) -> WaveVectorGrid:
    """The grid of a section value; the two most recently used are kept, like engines."""
    return section.wave_vector_grid()


def build_spectrum(cfg: ScenarioConfig, grid: WaveVectorGrid):
    packet = cfg.packet
    if packet.kind == "gaussian":
        state = gaussian_spectrum(grid, packet.k0, packet.sigma, packet.helicity_weights)
    elif packet.kind == "single_mode":
        helicity = +1 if abs(packet.helicity_weights[0]) >= abs(packet.helicity_weights[1]) else -1
        state = single_mode_spectrum(grid, packet.index, helicity)
    elif packet.kind == "localized":
        state = normalize(localized_spectrum(grid, packet.x0))
    else:
        raise ValueError(f"unknown packet kind: {packet.kind}")
    return state


# Read only by perfbench's tracer test (a rebound dict value must be restored);
# every kind is built through densities.DENSITY_TABLE.
_DENSITY_BUILDERS = {"number": densities.number_density}


def _spot_oracle(cfg: ScenarioConfig, spectrum: PhotonSpectrum, spatial: SpatialGrid, t: float):
    """The seeded spot points (grid indices) and the quadrature A+ there.

    Runs before the first snapshot exists, so the oracle's full-grid
    amplitude and the snapshot's fields are never held at once.
    """
    rng = np.random.default_rng(cfg.run.seed)
    indices = np.stack([rng.integers(0, n, size=4) for n in spatial.n_per_axis], axis=1)
    points = np.stack([spatial.axes[a][indices[:, a]] for a in range(3)], axis=1)
    return indices, vector_potential_at_points(spectrum, points, t)


def _spot_check(cfg: ScenarioConfig, oracle, snap: FieldSnapshot) -> Metric:
    """FFT-vs-quadrature comparison of ``snap`` at the points of :func:`_spot_oracle`."""
    indices, direct = oracle
    a_plus = snap.A_plus
    via_fft = a_plus[tuple(indices.T)]
    # the max of per-group maxima: no full-grid |A+|
    nx, ny, nz = a_plus.shape[:3]
    groups = slabs._plane_groups(slice(0, nx), ny * nz)
    scale = max(max(float(np.max(np.abs(a_plus[g]))) for g in groups), 1e-300)
    err = float(np.max(np.abs(direct - via_fft))) / scale
    return Metric("spot_check", err, cfg.tolerance("spot_check"))


@dataclass
class RunReport:
    results: list[CheckResult]
    artifacts: dict[str, str]
    summary_path: str | None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failed_names(self) -> list[str]:
        return [name for result in self.results for name in result.failed_names()]


# The exact SI defining constants, as the floats scipy.constants gives them.
_HBAR = 6.62607015e-34 / (2 * math.pi)  # J s
_C = 299792458.0  # m / s


def _si_scale_lines(cfg: ScenarioConfig) -> list[str]:
    if cfg.units.system != "si":
        return []
    length = cfg.units.length_scale_m
    return [
        f"units.energy_scale_J = {_HBAR * _C / length:.17g}",
        f"units.length_scale_m = {length:.17g}",
        f"units.time_scale_s = {length / _C:.17g}",
    ]


def _export_time(cfg: ScenarioConfig, snap: FieldSnapshot, t_index: int, oracle, outdir: str,
                 writes: dict[str, Future], summary_values: dict[str, str]) -> list[CheckResult]:
    """Queue the densities of one snapshot for writing; at the first time, return its checks.

    The kinds are built in the order of ``densities.DENSITY_TABLE``, whatever
    the order requested, and each intermediate the snapshot keeps (``reads``)
    is dropped once no later requested kind reads it.  Each density is handed
    to the export thread once the previous write has finished (and its error,
    if any, raised), so one write is queued at a time.
    """
    results = []
    if t_index == 0:
        results.append(CheckResult("fft-quadrature", (_spot_check(cfg, oracle, snap),)))
    table = densities.DENSITY_TABLE
    kinds = [kind for kind in table if kind in cfg.outputs.densities]
    for index, kind in enumerate(kinds):
        entry = table[kind]
        field = entry.build(snap)
        later = {key for other in kinds[index + 1:] for key in table[other].reads}
        _forget(snap, *(key for key in entry.reads if key not in later))
        filename = f"{kind}_t{t_index}.f64"
        if writes:
            next(reversed(writes.values())).result()
        writes[filename] = slabs._writer().submit(
            write_array, os.path.join(outdir, filename), field.data, kind, snap.t)
        integral = field.integral()
        if np.ndim(integral) == 0:
            summary_values[f"integral.{kind}.t{t_index}"] = f"{float(integral):.17g}"
        else:
            for label, value in zip(entry.labels, integral, strict=True):
                summary_values[f"integral.{kind}.{label}.t{t_index}"] = f"{float(value):.17g}"
        if kind == "number":
            number = integral
            summary_values[f"negative_mass.number.t{t_index}"] = (
                f"{observables.negative_mass(field):.17g}")
        del field  # the export thread holds the data only until its write finishes
    if t_index == 0 and "number" in cfg.outputs.densities:
        results.append(CheckResult(
            "number-norm",
            (Metric("norm_drift", abs(number - 1.0), cfg.tolerance("number_norm")),),
        ))
    return results


def run_scenario(cfg: ScenarioConfig, outdir: str) -> RunReport:
    """Execute one configured scenario and export its artifacts.

    Writes one array file per requested density and time, plus a summary of
    integrals, check outcomes and artifact hashes.  The mapping from
    configuration to summary bytes is pure: rerunning the same configuration
    overwrites the files with identical content.

    The spot-check oracle's quadrature runs first, before any snapshot
    exists; the snapshots are then made one at a time, each freed before
    the next is synthesized, so a run holds one full-grid field set at once.

    Density k is written, hashed and renamed on the export thread of
    :mod:`photonlab.slabs` while density k + 1 is built.  Whether it returns
    or raises, no write is left running: a failed write raises its
    ``OSError``, naming the requested path, here.  The files are not
    pre-allocated, so a crash cannot leave a zero-filled artifact under its
    final name (see :mod:`photonlab.diskio`).
    """
    grid = build_grid(cfg)
    spatial = SpatialGrid.paired(grid)
    spectrum = build_spectrum(cfg, grid)
    os.makedirs(outdir, exist_ok=True)

    writes: dict[str, Future] = {}
    summary_values: dict[str, str] = {}
    oracle = _spot_oracle(cfg, spectrum, spatial, cfg.time.t_list[0])
    results: list[CheckResult] = []
    try:
        for t_index, t in enumerate(cfg.time.t_list):
            # one snapshot at a time: the previous one is freed with the helper's frame
            results += _export_time(cfg, synthesize(spectrum, spatial, t), t_index, oracle,
                                    outdir, writes, summary_values)
        artifacts = {filename: write.result() for filename, write in writes.items()}
    finally:
        wait(writes.values())

    summary_path = None
    if cfg.outputs.summary:
        lines = [_SUMMARY_MAGIC, f"package.version = {__version__}"]
        lines.extend(_config_echo(cfg))
        lines.extend(_si_scale_lines(cfg))
        lines.extend(
            f"{key} = {value}" for key, value in sorted(summary_values.items())
        )
        for result in results:
            for metric in result.metrics:
                lines.append(
                    f"check.{result.name}.{metric.label} = "
                    f"{metric.value:.17g} (threshold {metric.threshold:.17g}) "
                    f"{'pass' if metric.ok else 'FAIL'}"
                )
        for filename in sorted(artifacts):
            lines.append(f"artifact.{filename} = sha256:{artifacts[filename]}")
        summary_path = os.path.join(outdir, "summary.txt")
        atomic_write_text(summary_path, "\n".join(lines) + "\n")

    return RunReport(results, artifacts, summary_path)


def _config_echo(cfg: ScenarioConfig) -> list[str]:
    grid, packet = cfg.grid, cfg.packet
    lines = [
        f"config.grid.delta_k = {','.join(f'{v:.17g}' for v in grid.delta_k)}",
        f"config.grid.k_min = "
        + ("auto" if grid.k_min is None else ",".join(f"{v:.17g}" for v in grid.k_min)),
        f"config.grid.n_per_axis = {','.join(str(v) for v in grid.n_per_axis)}",
        f"config.packet.helicity_weights = "
        + ",".join(f"{v:.17g}" for v in packet.helicity_weights),
        f"config.packet.k0 = {','.join(f'{v:.17g}' for v in packet.k0)}",
        f"config.packet.kind = {packet.kind}",
        f"config.packet.sigma = {packet.sigma:.17g}",
        f"config.run.seed = {cfg.run.seed}",
        f"config.time.t_list = {','.join(f'{v:.17g}' for v in cfg.time.t_list)}",
        f"config.units.system = {cfg.units.system}",
    ]
    if packet.index is not None:
        lines.append(f"config.packet.index = {','.join(str(v) for v in packet.index)}")
    if packet.kind == "localized":
        lines.append(f"config.packet.x0 = {','.join(f'{v:.17g}' for v in packet.x0)}")
    for name in sorted(cfg.tolerances):
        lines.append(f"config.tolerances.{name} = {cfg.tolerances[name]:.17g}")
    return sorted(lines)


def export_slice(cfg: ScenarioConfig, kind: str, plane: str, out_path: str) -> str:
    """Export one 2-D plane of a density as CSV; returns the output path.

    ``plane`` looks like ``z=0.25``: the axis letter and the coordinate of
    the plane, snapped to the nearest grid plane.  A coordinate more than
    half a cell outside the sampled axis is rejected.
    """
    if kind not in densities.DENSITY_TABLE:
        raise ValueError(
            f"unknown density kind '{kind}' "
            f"(choose from {', '.join(sorted(densities.DENSITY_KINDS))})"
        )
    axis_name, _, coordinate_text = plane.partition("=")
    axis_name = axis_name.strip().lower()
    if axis_name not in ("x", "y", "z") or not coordinate_text.strip():
        raise ValueError(f"plane must look like 'z=0.0', got '{plane}'")
    try:
        coordinate = float(coordinate_text)
    except ValueError as exc:
        raise ValueError(f"plane coordinate is not a number: '{coordinate_text}'") from exc
    if not math.isfinite(coordinate):
        raise ValueError(f"plane coordinate must be finite, got '{coordinate_text.strip()}'")
    axis = "xyz".index(axis_name)

    grid = build_grid(cfg)
    spatial = SpatialGrid.paired(grid)
    positions = spatial.axes[axis]
    half_cell = spatial.delta_x[axis] / 2
    low, high = positions[0] - half_cell, positions[-1] + half_cell
    if not low <= coordinate <= high:
        raise ValueError(
            f"plane coordinate {coordinate_text.strip()} lies outside the sampled "
            f"{axis_name} range [{low:.6g}, {high:.6g}]"
        )
    spectrum = build_spectrum(cfg, grid)
    t = cfg.time.t_list[0]
    snap = synthesize(spectrum, spatial, t)
    field = densities.DENSITY_TABLE[kind].build(snap)

    plane_index = int(np.argmin(np.abs(positions - coordinate)))
    data = np.take(field.data, plane_index, axis=axis)
    other = [a for a in range(3) if a != axis]
    write_slice_csv(
        out_path,
        axis,
        float(positions[plane_index]),
        (spatial.axes[other[0]], spatial.axes[other[1]]),
        ("xyz"[other[0]], "xyz"[other[1]]),
        data,
        kind,
        t,
    )
    return out_path
