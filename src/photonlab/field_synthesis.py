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

E+ = -dA+/dt (so iw * A+ per mode) and B+ = curl A+ (ik x A+ per mode); all
derivatives are spectral multipliers, never finite differences.

Every FFT goes through one :class:`SpectralEngine` per (WaveVectorGrid,
SpatialGrid) pair (:func:`spectral_engine`, the two most recently used pairs
are kept).  It holds, read-only, what depends on the grids alone: the real
mode factor 1 / sqrt(omega) with the excluded zero mode set to zero, the two
phase factors that turn the grid-order mode sum into an inverse DFT, and the
distinct frequencies of the grid with each mode's index into them.  The
helicity basis is not the engine's: :func:`~photonlab.mode_space.build_basis`
builds and keeps e+ once per k-grid, and e- is its conjugate.  The
time-independent amplitude i g omega^{-1/2} (c+ e+ + c- conj(e+)) is formed
once per spectrum and kept with the spectrum, so the shared engine holds
nothing of any one spectrum.  Each time then costs one exp(-i omega t) per
distinct frequency, gathered to the modes, and one inverse FFT of the six
components of A+ and E+.  B+ is transformed on first access only, so
number-only runs never pay for it.  A :class:`FieldSnapshot` holds the
spectrum it was synthesized from: densities and observables read the
helicity, the k-grid and the fields at other times from the snapshot alone.

Per-mode vector arrays and synthesized fields are stored component-major
(see :mod:`photonlab.mode_space`): every inverse and forward FFT runs over
the three trailing, spatial axes of a C-contiguous array whose component
axes lead, and callers see ``(..., 3)`` views of it.
:meth:`SpectralEngine.to_field` transforms such a work array of its caller's
in place; :func:`spectrum_to_field` copies an input in any layout once into
this one.  The FFTs and the per-mode passes run on the threads of
:mod:`photonlab.slabs`, under its rule, so every output is bitwise identical
for any thread count.

The direct quadrature (:func:`synthesize_at_points`,
:func:`vector_potential_at_points`) has its own amplitude formula, evaluates
its own exp(-i omega t) per mode and never reads the engine: it is the
oracle the FFT path is checked against.  It shares only the basis of
:func:`~photonlab.mode_space.build_basis` and the slab helper with the FFT
path.  exp(i k.x) is the product of the three per-axis factors
exp(i k_a x_a), computed per point and never through the engine's phase
helper or an FFT, so the oracle checks the engine's origin and k_min phases
independently.  The mode sum contracts z, then y, then x, each one numpy
``einsum`` loop (no ``optimize``, so never BLAS): its value does not depend
on the BLAS thread count.
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
    build_basis,
    leading,
    trailing,
    vector_array,
)
from .slabs import _cross, _in_slabs, _multiply, _workers


def _read_only(arr):
    arr.flags.writeable = False
    return arr


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

    def amplitude(self, s: PhotonSpectrum):
        """Time-independent grid-order amplitude i g omega^{-1/2} (c+ e+ + c- e-).

        Kept read-only with ``s`` (:func:`_memo`), so a spectrum synthesized
        at several times pays for it once.
        """
        return _memo(s, "_amplitude",
                     lambda: _read_only(self._weighted_amplitude(s, self.kgrid.cell_weight)))

    def _weighted_amplitude(self, s: PhotonSpectrum, weight: float):
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
            amplitude=amplitude, spectrum=s, sgrid=self.sgrid,
        )

    def _coefficients(self, amp, t: float):
        """(6, nx, ny, nz) mode amplitudes of A+ and E+ at time t, times ``phase_k``.

        Its per-mode buffers are freed on return, before the transform.
        """
        omega = self.kgrid.omega
        factor = self.time_phase(t)
        # i_omega after work: the other way round, a 64^3 run peaked ~2 MB higher
        work = np.empty((6,) + omega.shape, dtype=np.complex128)
        i_omega = np.empty_like(factor)

        def fill(x):
            # exp(-i omega t) and phase_k as one per-mode multiplier
            f = factor[x]
            f *= self.phase_k[x]
            np.multiply(amp[:, x], f, out=work[:3, x])
            np.multiply(1j, omega[x], out=i_omega[x])
            f *= i_omega[x]
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


@dataclass(frozen=True)
class FieldSnapshot:
    """Positive-frequency A, E, B of ``spectrum`` (on ``kgrid``) at one instant.

    ``amplitude`` is the time-independent vector mode amplitude of A+, so
    that spectral operators can be applied later without a forward FFT;
    it is the spectrum's own, except in the corrupted-convention control.
    ``time_phase`` (exp(-i omega t) per mode, from the engine's table of
    distinct frequencies) and ``B_plus`` are formed on first access,
    ``a_coeffs`` (the amplitude times the time phase) on each.
    :mod:`photonlab.densities` keeps its per-snapshot intermediates in the
    same instance dict through :func:`_memo`, so they are freed with the
    snapshot.
    """

    t: float
    A_plus: np.ndarray
    E_plus: np.ndarray
    amplitude: np.ndarray
    spectrum: PhotonSpectrum
    sgrid: SpatialGrid

    @property
    def kgrid(self) -> WaveVectorGrid:
        return self.spectrum.grid

    @cached_property
    def time_phase(self):
        return spectral_engine(self.kgrid, self.sgrid).time_phase(self.t)

    @property
    def a_coeffs(self):
        amp = leading(self.amplitude)
        return trailing(_multiply(amp, self.time_phase, np.empty(amp.shape, np.complex128)), 1)

    @cached_property
    def B_plus(self):
        b_coeffs = vector_array(self.kgrid.n_per_axis, np.complex128)
        _cross(self.kgrid.k_vectors, self.a_coeffs, out=b_coeffs)
        b_coeffs *= 1j
        return spectral_engine(self.kgrid, self.sgrid).to_field(b_coeffs)


def _direct_amplitude(s: PhotonSpectrum, t: float):
    """Grid-order vector amplitude of A+ including the exp(-i omega t) phase.

    Its own formula and time phase on the basis of :func:`build_basis`, never
    the engine: this feeds the oracle.  Per mode, a = i g omega^{-1/2}
    exp(-i omega t) (0 on the excluded modes) and a+- = a c+-; then, per
    component, coeffs = a+ e+ + a- conj(e+).  Evaluated in x-slabs into
    arrays allocated here (see :mod:`photonlab.slabs`), with the operands of
    every product in the order of the one-expression form
    ``(a c+) e+ + (a c-) conj(e+)``: a SIMD complex multiply need not give
    the same bits with its operands swapped.  Returns a ``(..., 3)`` view of
    component-major storage (:func:`vector_array`).
    """
    grid = s.grid
    e_plus = build_basis(grid)
    weight = 1j * grid.cell_weight
    omega, mask = grid.omega, grid.exclusion_mask
    c_plus, c_minus = s.c
    t = float(t)
    root = np.empty(omega.shape)
    a_plus = np.empty(omega.shape, np.complex128)
    a_minus = np.empty_like(a_plus)
    term = np.empty_like(a_plus)
    # component-major, so each component is one contiguous block for the contraction
    coeffs = vector_array(omega.shape, np.complex128)

    def fill(x):
        a, root_x, term_x = a_plus[x], root[x], term[x]
        # a = i g / sqrt(omega) * exp(-i omega t), 0 on the excluded modes
        np.copyto(root_x, omega[x])
        np.copyto(root_x, 1.0, where=mask[x])
        np.sqrt(root_x, out=root_x)
        np.divide(weight, root_x, out=a)
        np.multiply(-1j, omega[x], out=term_x)
        np.multiply(term_x, t, out=term_x)
        np.exp(term_x, out=term_x)
        np.multiply(a, term_x, out=a)
        np.copyto(a, 0.0, where=mask[x])
        # a- = a c-, then a+ = a c+ in place of a
        np.multiply(a, c_minus[x], out=a_minus[x])
        np.multiply(a, c_plus[x], out=a)
        for i in range(3):
            out = coeffs[x, ..., i]
            np.multiply(a, e_plus[x, ..., i], out=out)
            np.conjugate(e_plus[x, ..., i], out=term_x)
            np.multiply(a_minus[x], term_x, out=term_x)
            np.add(out, term_x, out=out)

    _in_slabs(fill, omega.shape[0])
    return coeffs


def synthesize(s: PhotonSpectrum, sgrid: SpatialGrid, t: float) -> FieldSnapshot:
    """Synthesize A+, E+ and (lazily) B+ at time t on the FFT-paired ``sgrid``."""
    engine = spectral_engine(s.grid, sgrid)
    return engine.snapshot(s, engine.amplitude(s), float(t))


def _synthesize_with_weight(s: PhotonSpectrum, sgrid: SpatialGrid, t: float, weight: float):
    """FFT synthesis with the mode weight g replaced by ``weight``.

    Lets the corrupted-convention negative control feed a wrong measure
    through the real synthesis path without a mutable module setting.
    """
    engine = spectral_engine(s.grid, sgrid)
    return engine.snapshot(s, engine._weighted_amplitude(s, weight), float(t))


def _direct_eval(coeffs, kgrid, points):
    """sum_k coeffs(k) exp(i k.x) at each point; any number of trailing components.

    exp(i k.x) = exp(i k_x x) exp(i k_y y) exp(i k_z z) over ``kgrid.axes``
    (3 n exponentials per point instead of n^3), so the sum contracts the z
    axis, then y, then x.  Each step is an einsum without ``optimize``, which
    never calls BLAS; it reads ``coeffs`` in place, fastest when the
    components are stored component-major, and makes no full-grid array.
    """
    amp = leading(coeffs)
    out = np.empty((points.shape[0],) + amp.shape[:-3], dtype=np.complex128)
    for i, x in enumerate(points):
        ex, ey, ez = (np.exp(1j * (k * xa)) for k, xa in zip(kgrid.axes, x))
        over_z = np.einsum("...xyz,z->...xy", amp, ez)
        over_y = np.einsum("...xy,y->...x", over_z, ey)
        out[i] = np.einsum("...x,x->...", over_y, ex)
    return out


def _direct_fields(coeffs, kgrid, points):
    """(A+, E+, B+) at the points from one quadrature over nine components."""
    stacked = np.concatenate(
        [leading(coeffs), leading(1j * kgrid.omega[..., None] * coeffs),
         leading(1j * np.cross(kgrid.k_vectors, coeffs))],
    )
    out = _direct_eval(trailing(stacked, 1), kgrid, points)
    return out[:, :3], out[:, 3:6], out[:, 6:]


def synthesize_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle: (A+, E+, B+) at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_fields(_direct_amplitude(s, t), s.grid, points)


def vector_potential_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle for A+ alone at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_eval(_direct_amplitude(s, t), s.grid, points)


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
    shift = np.exp(-1j * kz * float(dt))
    shifted = engine.to_field(trailing(leading(engine.amplitude(s)) * shift, 1))
    scale = float(np.max(np.abs(evolved))) or 1.0
    return float(np.max(np.abs(evolved - shifted))) / scale
