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
are kept).  It holds, read-only, what depends on the grids alone: the mode
factor i / sqrt(omega) with the excluded zero mode set to zero, the two
phase factors that turn the grid-order mode sum into an inverse DFT, and the
distinct frequencies of the grid with each mode's index into them.  The
helicity basis is not the engine's: :func:`~photonlab.mode_space.build_basis`
builds and keeps e+ once per k-grid, and e- is its conjugate.  The
time-independent amplitude g * i omega^{-1/2} (c+ e+ + c- conj(e+)) is formed
once per spectrum and kept with the spectrum, so the shared engine holds
nothing of any one spectrum.  Each time then costs
one exp(-i omega t) per distinct frequency (1914 for the 262144 modes of the
64^3 desk grid), gathered to the modes, and one inverse FFT of the six
components of A+ and E+.  B+ is transformed on first access only, so
number-only runs never pay for it.  A :class:`FieldSnapshot` holds the
spectrum it was synthesized from: densities and observables read the
helicity, the k-grid and the fields at other times from the snapshot alone.

Per-mode vector arrays and synthesized fields are stored component-major
(see :mod:`photonlab.mode_space`): every inverse and forward FFT runs over
the three trailing, spatial axes of a C-contiguous array whose component
axes lead, and callers see ``(..., 3)`` views of it.  An input in another
layout is copied once into this one.

Every FFT runs on :func:`_workers` threads: the CPUs the process may run
on, or ``PHOTONLAB_THREADS`` clamped to [1, that count].  pocketfft splits
its 1-D lines over them, so a transform does not depend on the count.  The
per-mode and per-point passes (the time-phase multiplier of a snapshot, the
two phase factors of every transform, the amplitude, the cross products, the
density bilinears of :mod:`photonlab.densities` and the oracle's own
amplitude) run through
:func:`_in_slabs`: one call per contiguous slab of the leading spatial
axis x, the first on the calling thread and the others on one process-wide
pool.  No pass reduces across x, and each element sees the same operations
in the same order, so every output is bitwise identical for any thread
count.  A slab callback writes only into arrays that its caller allocated
(``out=`` and in-place ufuncs) and allocates nothing of its own: the C
library keeps memory freed on a pool thread in that thread's heap.  On a
2-vCPU machine, two callbacks that made one temporary each (``1j * omega``
of the slab, one einsum result) raised the peak memory of a 64^3 run by
2-3 MB.

The direct quadrature (:func:`synthesize_at_points`,
:func:`vector_potential_at_points`) has its own amplitude formula, evaluates
its own exp(-i omega t) per mode and never reads the engine: it is the
oracle the FFT path is checked against.  It shares only the basis of
:func:`~photonlab.mode_space.build_basis` and the slab helper with the FFT
path, and builds its amplitude one component at a time into arrays of its
own.  It forms
exp(i k.x) at each point as the outer product of the three per-axis factors
exp(i k_a x_a) over ``kgrid.axes``, computed in place and never through the
engine's phase helper or an FFT, so it checks the engine's origin and k_min
phases independently.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np
from scipy import fft as _sfft

from .mode_space import (
    PhotonSpectrum,
    TWO_PI,
    WaveVectorGrid,
    _triple,
    build_basis,
    leading,
    trailing,
    vector_array,
)


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

    def is_paired_with(self, kgrid: WaveVectorGrid):
        if self.n_per_axis != kgrid.n_per_axis:
            return False
        want = tuple(TWO_PI / (n * d) for n, d in zip(kgrid.n_per_axis, kgrid.delta_k))
        return np.allclose(self.delta_x, want, rtol=1e-12, atol=0)


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


def _cross(a, b, out=None):
    """a x b of two (nx, ny, nz, 3) arrays from componentwise products, in x-slabs.

    The same products and differences as ``np.cross`` (so bit-identical
    results), without its copies of both operands.  The result is C-ordered
    unless ``out`` (for example a :func:`vector_array`) is given.
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
        self.mode_factor = _read_only(np.where(mask, 0.0, 1j / np.sqrt(safe)))
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

    def to_field(self, coeffs, overwrite=False):
        """sum_k coeffs(k) exp(i k.x) on the spatial grid with one inverse FFT.

        ``coeffs`` is indexed in grid order; trailing component axes are
        transformed together, and the field comes back with the same
        trailing axes, stored component-major.  ``overwrite`` lets a
        component-major complex128 work array of the caller's be transformed
        in place; any other layout costs one contiguous copy.
        """
        work = leading(coeffs)
        if overwrite and work.dtype == np.complex128 and work.flags.c_contiguous:
            _multiply(work, self.phase_k, work)
        else:
            work = _multiply(work, self.phase_k, np.empty(work.shape, np.complex128))
        return trailing(self._transform(work), coeffs.ndim - 3)

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
        """Time-independent grid-order amplitude g i omega^{-1/2} (c+ e+ + c- e-).

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
            # c+ e+ + c- conj(e+), then times weight * mode_factor (formed in term[0])
            np.multiply(c_plus[x], e_plus[:, x], out=amp[:, x])
            np.conjugate(e_plus[:, x], out=term[:, x])
            np.multiply(c_minus[x], term[:, x], out=term[:, x])
            np.add(amp[:, x], term[:, x], out=amp[:, x])
            np.multiply(weight, self.mode_factor[x], out=term[0, x])
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
    component axes are transformed independently.
    """
    return spectral_engine(kgrid, sgrid).to_field(np.asarray(coeffs))


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
        return spectral_engine(self.kgrid, self.sgrid).to_field(b_coeffs, overwrite=True)


def _direct_amplitude(s: PhotonSpectrum, t: float):
    """Grid-order vector amplitude of A+ including the exp(-i omega t) phase.

    Its own formula and time phase on the basis of :func:`build_basis`, never
    the engine: this feeds the oracle.  Per mode, a = i g omega^{-1/2}
    exp(-i omega t) (0 on the excluded modes) and a+- = a c+-; then, per
    component, coeffs = a+ e+ + a- conj(e+).  Evaluated in x-slabs into
    arrays allocated here (see module docs), with the operands of every
    product in the order of the one-expression form
    ``(a c+) e+ + (a c-) conj(e+)``: a SIMD complex multiply need not give
    the same bits with its operands swapped.
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
    # C-ordered, so the quadrature's BLAS products sum in one fixed order
    coeffs = np.empty(omega.shape + (3,), np.complex128)

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

    exp(i k.x) is the outer product of exp(i k_a x_a) over the three axes of
    ``kgrid.axes``: 3 n complex exponentials per point instead of n^3.
    """
    c_flat = coeffs.reshape(kgrid.n_samples, -1)
    out = np.empty((points.shape[0], c_flat.shape[1]), dtype=np.complex128)
    for i, x in enumerate(points):
        ex, ey, ez = (np.exp(1j * (k * xa)) for k, xa in zip(kgrid.axes, x))
        phase = ex[:, None, None] * ey[None, :, None] * ez[None, None, :]
        out[i] = phase.reshape(-1) @ c_flat
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
