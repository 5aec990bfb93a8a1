"""Synthesis of positive-frequency fields from helicity spectra.

The discrete mode sum implemented here is

    A+(x, t) = sum_lambda sum_k  i * g * omega^{-1/2}
               * c_lambda(k) e_lambda(k) exp(i (k.x - omega t))

with the per-mode weight g = dkx dky dkz / (2 pi)^3, i.e. exactly the cell
weight used for k-space norms.  Relative to the symmetric-Fourier measure
d3k/(2 pi)^{3/2} with a 1/sqrt(2) amplitude prefactor this folds in one
conversion factor sqrt(2)/(2 pi)^{3/2}; the payoff is that discrete Parseval
holds on any FFT-paired grid pair:

    sum_x cellvol * (number density)  ==  sum_k w |c|^2

to machine precision, which is the convention every density in this package
relies on.  The factor is covered by a direct-quadrature unit test.

E+ = -dA+/dt (so iw * A+ per mode) and B+ = curl A+ (ik x A+ per mode); all
derivatives are spectral multipliers, never finite differences.

Every FFT goes through one :class:`SpectralEngine` per (WaveVectorGrid,
SpatialGrid) pair (:func:`spectral_engine`, the two most recently used pairs
are kept).  It holds, read-only, what depends on the grids alone: the
helicity basis, the mode factor i / sqrt(omega) with the excluded zero mode
set to zero, and the two phase factors that turn the grid-order mode sum
into an inverse DFT.  The time-independent amplitude g * i omega^{-1/2}
(c+ e+ + c- e-) is formed once per spectrum; each time then costs one
exp(-i omega t) multiplier and one inverse FFT of the six components of A+
and E+.  B+ is transformed on first access only, so number-only runs never
pay for it.  The direct quadrature (``method="direct"``,
:func:`synthesize_at_points`) builds its own basis and never reads the
engine: it is the oracle the FFT path is checked against.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as _sfft

from .mode_space import PhotonSpectrum, TWO_PI, WaveVectorGrid, _triple, build_basis

_DIRECT_OP_LIMIT = 2**27


def _workers():
    try:
        return max(1, int(os.environ.get("PHOTONLAB_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SpatialGrid:
    """Regular periodic spatial grid; points at origin + n * delta_x."""

    n_per_axis: tuple[int, int, int]
    delta_x: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        n = tuple(int(v) for v in self.n_per_axis)
        if any(v < 1 for v in n):
            raise ValueError("n_per_axis must be >= 1")
        object.__setattr__(self, "n_per_axis", n)
        dx = _triple(self.delta_x, "delta_x")
        if any(v <= 0 for v in dx):
            raise ValueError("delta_x components must be positive")
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "origin", _triple(self.origin, "origin"))

    @classmethod
    def paired(cls, kgrid: WaveVectorGrid, origin=None):
        """The FFT partner of ``kgrid``: delta_x = 2 pi / (n delta_k).

        Default origin centers the box so that x = 0 is a grid point and
        wavepackets start mid-box.
        """
        n = kgrid.n_per_axis
        dx = tuple(TWO_PI / (ni * di) for ni, di in zip(n, kgrid.delta_k))
        if origin is None:
            origin = tuple(-(ni // 2) * di for ni, di in zip(n, dx))
        return cls(n, dx, origin)

    @cached_property
    def axes(self):
        return tuple(
            self.origin[a] + self.delta_x[a] * np.arange(self.n_per_axis[a])
            for a in range(3)
        )

    @cached_property
    def coordinates(self):
        """(nx, ny, nz, 3) array of sample positions."""
        x, y, z = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([x, y, z], axis=-1)
        pts.flags.writeable = False
        return pts

    @property
    def cell_volume(self):
        return self.delta_x[0] * self.delta_x[1] * self.delta_x[2]

    @property
    def box_lengths(self):
        return tuple(n * d for n, d in zip(self.n_per_axis, self.delta_x))

    @property
    def n_samples(self):
        return self.n_per_axis[0] * self.n_per_axis[1] * self.n_per_axis[2]

    def is_paired_with(self, kgrid: WaveVectorGrid):
        if self.n_per_axis != kgrid.n_per_axis:
            return False
        want = tuple(TWO_PI / (n * d) for n, d in zip(kgrid.n_per_axis, kgrid.delta_k))
        return np.allclose(self.delta_x, want, rtol=1e-12, atol=0)


def mode_weight(kgrid: WaveVectorGrid) -> float:
    """Per-mode synthesis weight g (see module docstring)."""
    return kgrid.cell_weight


def _require_paired(kgrid, sgrid):
    if not sgrid.is_paired_with(kgrid):
        raise ValueError("unpaired grids in FFT mode (delta_x != 2 pi / (n delta_k))")


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _separable_phase(angles):
    """exp(i (a0[i] + a1[j] + a2[l])) on the 3-D grid from three 1-D angle arrays."""
    x, y, z = (np.exp(1j * a) for a in angles)
    return x[:, None, None] * y[None, :, None] * z[None, None, :]


def _per_mode(arr, ndim):
    """View a (nx, ny, nz) array with unit axes for ``ndim - 3`` component axes."""
    return arr.reshape(arr.shape + (1,) * (ndim - 3))


class SpectralEngine:
    """FFT machinery of one FFT-paired (WaveVectorGrid, SpatialGrid) pair.

    With k = k_min + j dk and x = origin + n dx, the grid-order mode sum
    sum_k c(k) exp(i k.x) is the inverse DFT of c(k) exp(i k.origin), times
    exp(i k_min.(x - origin)); ``phase_k`` and ``phase_x`` are those two
    factors.  Build it through :func:`spectral_engine`.  All arrays are
    read-only.
    """

    def __init__(self, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
        _require_paired(kgrid, sgrid)
        self.kgrid = kgrid
        self.sgrid = sgrid
        basis = build_basis(kgrid)
        self.e_plus = basis.e_plus
        self.e_minus = basis.e_minus
        mask = kgrid.exclusion_mask
        safe = np.where(mask, 1.0, kgrid.omega)
        self.mode_factor = _read_only(np.where(mask, 0.0, 1j / np.sqrt(safe)))
        self.phase_k = _read_only(_separable_phase(
            [k * o for k, o in zip(kgrid.axes, sgrid.origin)]
        ))
        self.phase_x = _read_only(_separable_phase(
            [(x - o) * k for x, o, k in zip(sgrid.axes, sgrid.origin, kgrid.k_min)]
        ))
        # (weak reference to the last spectrum, its amplitude)
        self._last_amplitude = None

    def to_field(self, coeffs, overwrite=False):
        """sum_k coeffs(k) exp(i k.x) on the spatial grid with one inverse FFT.

        ``coeffs`` is indexed in grid order; trailing component axes are
        transformed together.  ``overwrite`` lets a complex128 work array of
        the caller's be transformed in place.
        """
        phase_k = _per_mode(self.phase_k, coeffs.ndim)
        if overwrite:
            coeffs *= phase_k
        else:
            coeffs = coeffs * phase_k
        return self._transform(coeffs)

    def _transform(self, work):
        """In-place inverse FFT of coefficients that already carry ``phase_k``."""
        field = _sfft.ifftn(work, axes=(0, 1, 2), norm="forward",
                            overwrite_x=True, workers=_workers())
        field *= _per_mode(self.phase_x, field.ndim)
        return field

    def to_spectrum(self, field):
        """Inverse of :meth:`to_field` (exact for on-grid band-limited fields)."""
        work = field * _per_mode(np.conj(self.phase_x), field.ndim)
        coeffs = _sfft.fftn(work, axes=(0, 1, 2), norm="forward",
                            overwrite_x=True, workers=_workers())
        coeffs *= _per_mode(np.conj(self.phase_k), coeffs.ndim)
        return coeffs

    def amplitude(self, s: PhotonSpectrum):
        """Time-independent grid-order amplitude g i omega^{-1/2} (c+ e+ + c- e-).

        The amplitude of the last spectrum asked for is kept, so a spectrum
        synthesized at several times pays for it once.
        """
        last = self._last_amplitude
        if last is not None and last[0]() is s:
            return last[1]
        amp = _read_only(self._weighted_amplitude(s, mode_weight(self.kgrid)))
        self._last_amplitude = (weakref.ref(s, self._forget), amp)
        return amp

    def _forget(self, ref):
        """Drop the kept amplitude together with its spectrum."""
        if self._last_amplitude is not None and self._last_amplitude[0] is ref:
            self._last_amplitude = None

    def _weighted_amplitude(self, s: PhotonSpectrum, weight: float):
        amp = s.c[0][..., None] * self.e_plus
        amp += s.c[1][..., None] * self.e_minus
        amp *= (weight * self.mode_factor)[..., None]
        return amp

    def snapshot(self, amplitude, t: float) -> FieldSnapshot:
        """A+ and E+ at time t from one inverse FFT of their six components."""
        omega = self.kgrid.omega
        # exp(-i omega t) and phase_k as one per-mode multiplier
        factor = np.exp(-1j * omega * t)
        factor *= self.phase_k
        work = np.empty(omega.shape + (6,), dtype=np.complex128)
        np.multiply(amplitude, factor[..., None], out=work[..., :3])
        factor *= 1j * omega
        np.multiply(amplitude, factor[..., None], out=work[..., 3:])
        fields = self._transform(work)
        return FieldSnapshot(
            t=t, A_plus=fields[..., :3], E_plus=fields[..., 3:],
            amplitude=amplitude, kgrid=self.kgrid, sgrid=self.sgrid,
        )


@lru_cache(maxsize=2)
def spectral_engine(kgrid: WaveVectorGrid, sgrid: SpatialGrid) -> SpectralEngine:
    """The engine of a paired grid pair; the two most recently used are kept."""
    return SpectralEngine(kgrid, sgrid)


def spectrum_to_field(coeffs, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
    """Evaluate sum_k coeffs(k) exp(i k.x) on the paired spatial grid.

    ``coeffs`` is indexed in grid order (ascending k per axis); trailing
    component axes are transformed independently.
    """
    return spectral_engine(kgrid, sgrid).to_field(np.asarray(coeffs))


def field_to_spectrum(field, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
    """Inverse of spectrum_to_field (exact for on-grid band-limited fields)."""
    return spectral_engine(kgrid, sgrid).to_spectrum(np.asarray(field))


@dataclass(frozen=True)
class FieldSnapshot:
    """Positive-frequency A, E, B on a spatial grid at one instant.

    ``amplitude`` is the time-independent vector mode amplitude of A+, so
    that spectral operators can be applied later without a forward FFT.
    ``time_phase`` (exp(-i omega t) per mode) and ``B_plus`` are formed on
    first access, ``a_coeffs`` (the amplitude times the time phase) on each.
    """

    t: float
    A_plus: np.ndarray
    E_plus: np.ndarray
    amplitude: np.ndarray
    kgrid: WaveVectorGrid
    sgrid: SpatialGrid

    @cached_property
    def time_phase(self):
        return np.exp(-1j * self.kgrid.omega * self.t)

    @property
    def a_coeffs(self):
        return self.amplitude * self.time_phase[..., None]

    @cached_property
    def B_plus(self):
        b_coeffs = np.cross(self.kgrid.k_vectors, self.a_coeffs)
        b_coeffs *= 1j
        return spectral_engine(self.kgrid, self.sgrid).to_field(b_coeffs, overwrite=True)


def _direct_amplitude(s: PhotonSpectrum, t: float):
    """Grid-order vector amplitude of A+ including the exp(-i omega t) phase.

    Built from its own basis, never from the engine: this feeds the oracle.
    """
    grid = s.grid
    basis = build_basis(grid)
    g = mode_weight(grid)
    omega = grid.omega
    safe = np.where(grid.exclusion_mask, 1.0, omega)
    amp = 1j * g / np.sqrt(safe) * np.exp(-1j * omega * float(t))
    amp = np.where(grid.exclusion_mask, 0.0, amp)
    coeffs = (
        amp[..., None] * s.c[0][..., None] * basis.e_plus
        + amp[..., None] * s.c[1][..., None] * basis.e_minus
    )
    return coeffs


def synthesize(s: PhotonSpectrum, sgrid: SpatialGrid, t: float, method="fft") -> FieldSnapshot:
    """Synthesize A+, E+ and (lazily) B+ at time t on ``sgrid``.

    method="fft" needs FFT-paired grids; method="direct" evaluates the naive
    quadrature sum (only sensible on small grids, used as an oracle).
    """
    if method == "fft":
        engine = spectral_engine(s.grid, sgrid)
        return engine.snapshot(engine.amplitude(s), float(t))
    if method != "direct":
        raise ValueError(f"unknown synthesis method {method!r}")
    kgrid = s.grid
    if kgrid.n_samples * sgrid.n_samples > _DIRECT_OP_LIMIT:
        raise ValueError("direct synthesis requested on too large a grid pair")
    amplitude = _direct_amplitude(s, 0.0)
    coeffs = amplitude * np.exp(-1j * kgrid.omega * float(t))[..., None]
    pts = sgrid.coordinates.reshape(-1, 3)
    A, E, B = (f.reshape(sgrid.n_per_axis + (3,)) for f in _direct_fields(coeffs, kgrid, pts))
    snap = FieldSnapshot(
        t=float(t), A_plus=A, E_plus=E, amplitude=amplitude, kgrid=kgrid, sgrid=sgrid,
    )
    vars(snap)["B_plus"] = B  # the quadrature value, not the lazy FFT
    return snap


def _synthesize_with_weight(s: PhotonSpectrum, sgrid: SpatialGrid, t: float, weight: float):
    """FFT synthesis with the mode weight g replaced by ``weight``.

    Lets the corrupted-convention negative control feed a wrong measure
    through the real synthesis path without a mutable module setting.
    """
    engine = spectral_engine(s.grid, sgrid)
    return engine.snapshot(engine._weighted_amplitude(s, weight), float(t))


def _direct_eval(coeffs, kgrid, points):
    """sum_k coeffs(k) exp(i k.x) at each point; any number of trailing components."""
    k_flat = kgrid.k_vectors.reshape(-1, 3)
    c_flat = coeffs.reshape(k_flat.shape[0], -1)
    out = np.empty((points.shape[0], c_flat.shape[1]), dtype=np.complex128)
    for i, x in enumerate(points):
        phase = np.exp(1j * (k_flat @ x))
        out[i] = phase @ c_flat
    return out


def _direct_fields(coeffs, kgrid, points):
    """(A+, E+, B+) at the points from one quadrature over nine components."""
    stacked = np.concatenate(
        [coeffs, 1j * kgrid.omega[..., None] * coeffs, 1j * np.cross(kgrid.k_vectors, coeffs)],
        axis=-1,
    )
    out = _direct_eval(stacked, kgrid, points)
    return out[:, :3], out[:, 3:6], out[:, 6:]


def synthesize_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle: (A+, E+, B+) at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_fields(_direct_amplitude(s, t), s.grid, points)


def vector_potential_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle for A+ alone at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_eval(_direct_amplitude(s, t), s.grid, points)


def real_fields(f: FieldSnapshot):
    """Real fields A = A+ + A-, E, B (A- is the conjugate of A+)."""
    return (
        2.0 * np.real(f.A_plus),
        2.0 * np.real(f.E_plus),
        2.0 * np.real(f.B_plus),
    )


def translation_check_1d(s: PhotonSpectrum, dt: float) -> float:
    """Translation residual max |A+(z, dt) - A+(z - c dt, 0)| / max |A+|.

    Valid for spectra supported on k parallel to +z only; there the shift
    identity is exact because omega = c k_z on the support.  The spatial
    shift is applied spectrally (phase exp(-i k_z c dt)).
    """
    grid = s.grid
    kz = grid.k_vectors[..., 2]
    on_axis = (np.abs(grid.k_vectors[..., 0]) < 1e-12) & (
        np.abs(grid.k_vectors[..., 1]) < 1e-12
    )
    forward = on_axis & (kz > 0)
    p2 = np.abs(s.c) ** 2
    total = float(np.sum(p2))
    off = float(np.sum(p2[~np.broadcast_to(forward[None, ...], p2.shape)]))
    if total == 0.0 or off > 1e-20 * total:
        raise ValueError("non-collinear spectrum (support off the +z axis)")
    sgrid = SpatialGrid.paired(grid)
    evolved = synthesize(s, sgrid, float(dt)).A_plus
    engine = spectral_engine(grid, sgrid)
    shifted = engine.to_field(engine.amplitude(s) * np.exp(-1j * kz * float(dt))[..., None])
    scale = float(np.max(np.abs(evolved))) or 1.0
    return float(np.max(np.abs(evolved - shifted))) / scale
