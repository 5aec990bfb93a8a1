"""Synthesis of positive-frequency fields from helicity spectra.

The discrete mode sum implemented here is

    A+(x, t) = sum_lambda sum_k  i * g * omega^{-1/2}
               * c_lambda(k) e_lambda(k) exp(i (k.x - omega t))

with the per-mode weight g = dkx dky dkz / (2 pi)^3, i.e. exactly the cell
weight ``WaveVectorGrid.cell_weight`` used for k-space norms.  Relative to the
symmetric-Fourier measure d3k/(2 pi)^{3/2} with a 1/sqrt(2) amplitude
prefactor this folds in one conversion factor sqrt(2)/(2 pi)^{3/2}; the
payoff is that discrete Parseval holds on any FFT-paired grid pair:

    sum_x cellvol * (number density)  ==  sum_k w |c|^2

to machine precision, which is the convention every density in this package
relies on.  The factor is covered by a direct-quadrature unit test.

Every spectral multiplier of A+ is applied here, never by finite
differences: E+ = -dA+/dt (i omega A+ per mode), B+ = curl A+ (i k x A+),
Omega^{1/2} A+ (sqrt(omega) A+), the helicity operand (i khat x A)+, the
momentum operands (k_j A)+, the spectral divergence of
:meth:`SpectralEngine.divergence` and the frequency powers of
:func:`apply_frequency_operator`.  :mod:`photonlab.densities` and
:mod:`photonlab.observables` take these fields from a snapshot and work in
real space.  A snapshot synthesizes A+ and E+ together; B+ and
Omega^{1/2} A+ are transformed on first access and kept, the helicity and
momentum operands on each call and not kept.  All eight output kinds of one
snapshot thus cost four inverse FFTs: the synthesis, B+, the 9-component
momentum transform and Omega^{1/2} A+.

Every FFT goes through one :class:`SpectralEngine` per (WaveVectorGrid,
SpatialGrid) pair; :func:`spectral_engine` is the one place that finds and
keeps engines.  A :class:`FieldSnapshot` holds its spectrum and its engine:
densities and observables read the helicity, the grids and the fields at
other times from the snapshot alone.  Work arrays are component-major (see
:mod:`photonlab.mode_space`), and the FFTs and per-mode passes follow the
slab rule of :mod:`photonlab.slabs`.  The FFT path is checked against the
direct quadrature of :mod:`photonlab.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as _sfft

from .mode_space import (
    PhotonSpectrum,
    SpatialGrid,
    WaveVectorGrid,
    _read_only,
    build_basis,
    leading,
    trailing,
    vector_array,
)
# kept here only because perfbench/tracer.py traces the oracle under this module's name
from .oracle import synthesize_at_points  # noqa: F401
from .slabs import _cross, _in_slabs, _multiply, _workers


def _memo(owner, key: str, build):
    """``build()`` once per ``owner``, kept in its instance dict and freed with it.

    The package's one cache of derived values: a spectrum keeps its amplitude
    here, a snapshot the intermediates of :mod:`photonlab.densities`.
    """
    kept = vars(owner)
    if key not in kept:
        kept[key] = build()
    return kept[key]


def _separable_phase(angles):
    """exp(i (a0[i] + a1[j] + a2[l])) on the 3-D grid from three 1-D angle arrays."""
    x, y, z = (np.exp(1j * a) for a in angles)
    return x[:, None, None] * y[None, :, None] * z[None, None, :]


class SpectralEngine:
    """FFT machinery of one FFT-paired (WaveVectorGrid, SpatialGrid) pair.

    With k = k_min + j dk and x = origin + n dx, the grid-order mode sum
    sum_k c(k) exp(i k.x) is the inverse DFT of c(k) exp(i k.origin), times
    exp(i k_min.(x - origin)); ``phase_k`` and ``phase_x`` are those two
    factors.  :meth:`time_phase` evaluates exp(-i omega t) once per distinct
    frequency.  Build it through :func:`spectral_engine`.  It is shared by
    the whole process, so it keeps nothing of any one spectrum, and all its
    arrays are read-only.
    """

    def __init__(self, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
        if not sgrid.is_paired_with(kgrid):
            raise ValueError("unpaired grids in FFT mode (delta_x != 2 pi / (n delta_k))")
        self.kgrid = kgrid
        self.sgrid = sgrid
        mask = kgrid.exclusion_mask
        safe = np.where(mask, 1.0, kgrid.omega)
        self.mode_factor = _read_only(np.where(mask, 0.0, 1.0 / np.sqrt(safe)))
        self.phase_k = _read_only(_separable_phase(
            [k * o for k, o in zip(kgrid.axes, sgrid.origin)]
        ))
        self.phase_x = _read_only(_separable_phase(
            [(x - o) * k for x, o, k in zip(sgrid.axes, sgrid.origin, kgrid.k_min)]
        ))
        levels, index = np.unique(kgrid.omega, return_inverse=True)
        self._levels = _read_only(levels)
        self._level_index = _read_only(index.reshape(kgrid.n_per_axis))

    def time_phase(self, t: float):
        """exp(-i omega t) per mode, one exponential per distinct omega.

        Each element is the same expression on the same float as
        ``np.exp(-1j * omega * t)``, so the two are bitwise equal.
        """
        return np.exp(-1j * self._levels * t)[self._level_index]

    def to_field(self, coeffs):
        """sum_k coeffs(k) exp(i k.x) on the spatial grid with one inverse FFT.

        ``coeffs`` is indexed in grid order, complex128, with its trailing
        component axes stored component-major (a :func:`trailing` view of a
        C-contiguous array).  It is the work array: it is transformed in
        place, and the field comes back as the same view of that buffer.
        """
        work = leading(coeffs)
        return trailing(self._transform(_multiply(work, self.phase_k, work)), coeffs.ndim - 3)

    def _transform(self, work):
        """In-place inverse FFT of component-first coefficients that carry ``phase_k``."""
        field = _sfft.ifftn(work, axes=(-3, -2, -1), norm="forward",
                            overwrite_x=True, workers=_workers())
        return _multiply(field, self.phase_x, field)

    def to_spectrum(self, field):
        """Inverse of :meth:`to_field` (exact for on-grid band-limited fields)."""
        lead = leading(field)
        work = np.multiply(lead, np.conj(self.phase_x), out=np.empty(lead.shape, np.complex128))
        coeffs = _sfft.fftn(work, axes=(-3, -2, -1), norm="forward",
                            overwrite_x=True, workers=_workers())
        coeffs *= np.conj(self.phase_k)
        return trailing(coeffs, field.ndim - 3)

    def divergence(self, vec):
        """Spectral divergence of a real vector field on the engine's grid pair.

        ``i ((k_x J^_x + k_y J^_y) + k_z J^_z)`` is accumulated in place in the
        x component of the forward transform, which is then transformed back in
        place, so no ``(n, n, n, 3)`` product is formed.  That operand order
        keeps the result bitwise equal to ``1j * np.sum(k_vectors * J^, axis=-1)``,
        the tests' reference.
        """
        coeffs = leading(self.to_spectrum(vec))
        np.multiply(leading(self.kgrid.k_vectors), coeffs, out=coeffs)
        div_coeffs = coeffs[0]
        div_coeffs += coeffs[1]
        div_coeffs += coeffs[2]
        np.multiply(1j, div_coeffs, out=div_coeffs)
        return np.real(self.to_field(div_coeffs))

    def amplitude(self, s: PhotonSpectrum):
        """Time-independent grid-order amplitude i g omega^{-1/2} (c+ e+ + c- e-).

        Kept read-only with ``s`` (:func:`_memo`), so a spectrum synthesized
        at several times pays for it once.
        """
        return _memo(s, "_amplitude",
                     lambda: _read_only(self._weighted_amplitude(s, self.kgrid.cell_weight)))

    def _weighted_amplitude(self, s: PhotonSpectrum, weight: float):
        """:meth:`amplitude` with the mode weight g replaced by ``weight``, not kept.

        The corrupted-convention control passes a wrong weight here, so a
        wrong measure runs the real synthesis path without a module setting.
        """
        e_plus = leading(build_basis(self.kgrid))
        c_plus, c_minus = s.c
        amp = np.empty(e_plus.shape, np.complex128)
        term = np.empty_like(amp)

        def fill(x):
            # c+ e+ + c- conj(e+), then times i weight * mode_factor (formed in term[0])
            np.multiply(c_plus[x], e_plus[:, x], out=amp[:, x])
            np.conjugate(e_plus[:, x], out=term[:, x])
            np.multiply(c_minus[x], term[:, x], out=term[:, x])
            np.add(amp[:, x], term[:, x], out=amp[:, x])
            np.multiply(1j * weight, self.mode_factor[x], out=term[0, x])
            np.multiply(amp[:, x], term[0, x], out=amp[:, x])

        _in_slabs(fill, amp.shape[1])
        return trailing(amp, 1)

    def snapshot(self, s: PhotonSpectrum, amplitude, t: float) -> FieldSnapshot:
        """A+ and E+ of ``s`` at time t from one inverse FFT of their six components."""
        fields = trailing(self._transform(self._coefficients(leading(amplitude), t)), 1)
        return FieldSnapshot(
            t=t, A_plus=fields[..., :3], E_plus=fields[..., 3:],
            amplitude=amplitude, spectrum=s, engine=self,
        )

    def _coefficients(self, amp, t: float):
        """(6, nx, ny, nz) mode amplitudes of A+ and E+ at time t, times ``phase_k``.

        Its per-mode buffers are freed on return, before the transform.
        """
        omega = self.kgrid.omega
        factor = self.time_phase(t)
        work = np.empty((6,) + omega.shape, dtype=np.complex128)

        def fill(x):
            # exp(-i omega t) and phase_k as one per-mode multiplier
            f = factor[x]
            f *= self.phase_k[x]
            np.multiply(amp[:, x], f, out=work[:3, x])
            # i omega in the first E+ slot, which the last product overwrites
            i_omega = np.multiply(1j, omega[x], out=work[3, x])
            f *= i_omega
            np.multiply(amp[:, x], f, out=work[3:, x])

        _in_slabs(fill, omega.shape[0])
        return work


@lru_cache(maxsize=2)
def spectral_engine(kgrid: WaveVectorGrid, sgrid: SpatialGrid) -> SpectralEngine:
    """The engine of a paired grid pair; the two most recently used are kept."""
    return SpectralEngine(kgrid, sgrid)


def spectrum_to_field(coeffs, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
    """Evaluate sum_k coeffs(k) exp(i k.x) on the paired spatial grid.

    ``coeffs`` is indexed in grid order (ascending k per axis); trailing
    component axes are transformed independently.  ``coeffs`` is left as it
    is: one component-major complex copy is transformed.
    """
    coeffs = np.asarray(coeffs)
    work = np.array(leading(coeffs), dtype=np.complex128, order="C")
    return spectral_engine(kgrid, sgrid).to_field(trailing(work, coeffs.ndim - 3))


def field_to_spectrum(field, kgrid: WaveVectorGrid, sgrid: SpatialGrid):
    """Inverse of spectrum_to_field (exact for on-grid band-limited fields)."""
    return spectral_engine(kgrid, sgrid).to_spectrum(np.asarray(field))


def apply_frequency_operator(field, kgrid: WaveVectorGrid, sgrid: SpatialGrid, power):
    """Apply the spectral multiplier (c |k|)^power to a field array.

    power must be 1, 1/2 or -1/2.  The field must be band-limited to the
    paired grid (true for everything synthesized here).  Content on the
    excluded omega = 0 bins is rejected for the inverse power and zeroed
    otherwise.
    """
    if power not in (1, 1.0, 0.5, -0.5):
        raise ValueError(f"unsupported power {power!r}; use 1, 0.5 or -0.5")
    field = np.asarray(field, dtype=np.complex128)
    scalar = field.ndim == 3
    work = field[..., None] if scalar else field
    coeffs = field_to_spectrum(work, kgrid, sgrid)
    mask = kgrid.exclusion_mask
    if np.count_nonzero(mask):
        content = float(np.max(np.abs(coeffs[mask])))
        scale = float(np.max(np.abs(coeffs))) or 1.0
        if power < 0 and content > 1e-12 * scale:
            raise ValueError("field has content on the omega = 0 mode; "
                             "cannot apply a negative frequency power")
        coeffs = np.where(mask[..., None], 0.0, coeffs)
    omega = np.where(mask, 1.0, kgrid.omega)
    coeffs = coeffs * (omega**float(power))[..., None]
    out = spectrum_to_field(coeffs, kgrid, sgrid)
    return out[..., 0] if scalar else out


@dataclass(frozen=True)
class FieldSnapshot:
    """Positive-frequency A, E, B of ``spectrum`` at one instant, with the
    ``engine`` that synthesized it.

    ``amplitude`` is the time-independent vector mode amplitude of A+, so
    that spectral operators can be applied later without a forward FFT;
    it is the spectrum's own, except in the corrupted-convention control.
    ``time_phase`` (exp(-i omega t) per mode), ``B_plus`` and ``psi`` are
    formed on first access, so number-only runs never transform B+;
    ``a_coeffs`` (the amplitude times the time phase) is formed on each.
    """

    t: float
    A_plus: np.ndarray
    E_plus: np.ndarray
    amplitude: np.ndarray
    spectrum: PhotonSpectrum
    engine: SpectralEngine

    @property
    def kgrid(self) -> WaveVectorGrid:
        return self.engine.kgrid

    @property
    def sgrid(self) -> SpatialGrid:
        return self.engine.sgrid

    @cached_property
    def time_phase(self):
        return self.engine.time_phase(self.t)

    @property
    def a_coeffs(self):
        amp = leading(self.amplitude)
        return trailing(_multiply(amp, self.time_phase, np.empty(amp.shape, np.complex128)), 1)

    @cached_property
    def B_plus(self):
        b_coeffs = vector_array(self.kgrid.n_per_axis, np.complex128)
        _cross(self.kgrid.k_vectors, self.a_coeffs, out=b_coeffs)
        b_coeffs *= 1j
        return self.engine.to_field(b_coeffs)

    @cached_property
    def psi(self):
        """Omega^{1/2} A+: one inverse FFT of the mode amplitudes scaled by sqrt(omega)."""
        psi_coeffs = leading(self.a_coeffs)  # a fresh array, scaled in place
        np.multiply(np.sqrt(self.kgrid.omega), psi_coeffs, out=psi_coeffs)
        return self.engine.to_field(trailing(psi_coeffs, 1))

    def helicity_operand(self):
        """(i khat x A)+, transformed on each call and not kept.

        The operator i khat x (.) has the helicity eigenvalue lambda on each
        helicity mode; masked modes carry khat = 0.
        """
        kgrid = self.kgrid
        mask = kgrid.exclusion_mask
        khat = np.where(mask, 0.0, leading(kgrid.k_vectors) / np.where(mask, 1.0, kgrid.omega))
        coeffs = _cross(trailing(khat, 1), self.a_coeffs,
                        out=vector_array(kgrid.n_per_axis, np.complex128))
        coeffs *= 1j
        return self.engine.to_field(coeffs)

    def momentum_operands(self):
        """(k_j A)+ as (nx, ny, nz, 3, 3), j on the second-last axis, from one
        9-component transform; transformed on each call and not kept."""
        k, amp = leading(self.kgrid.k_vectors), leading(self.amplitude)
        op_coeffs = np.empty((3, 3) + self.kgrid.n_per_axis, np.complex128)
        _multiply(k[:, None], amp[None, :], op_coeffs)
        _multiply(op_coeffs, self.time_phase, op_coeffs)
        return self.engine.to_field(trailing(op_coeffs, 2))


def synthesize(s: PhotonSpectrum, sgrid: SpatialGrid, t: float) -> FieldSnapshot:
    """Synthesize A+, E+ and (lazily) B+ at time t on the FFT-paired ``sgrid``."""
    engine = spectral_engine(s.grid, sgrid)
    return engine.snapshot(s, engine.amplitude(s), float(t))
