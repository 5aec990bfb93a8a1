"""Wavevector grids, their FFT-paired spatial grids, helicity bases and spectra.

The whole package works in natural units (hbar = c = epsilon_0 = 1); SI
factors enter only at export time.  Spectra live on regular cartesian
wavevector grids, and every k-space integral is a Riemann sum with the
uniform cell weight

    w = dkx * dky * dkz / (2 pi)^3

so a normalized spectrum satisfies sum_lambda sum_k w |c_lambda(k)|^2 = 1.
The zero mode (omega = 0) is excluded from every grid: its amplitude is
pinned to zero and the 1/sqrt(omega) mode factor is never evaluated there.

Scalar products are conjugate-linear in the first slot:
(s1, s2) = sum w conj(c1) c2.

Per-mode vector arrays (``k_vectors``, the helicity basis) are stored
component-major: the component axes come first in memory, so each
(nx, ny, nz) component is contiguous, and they are handed out as
``(..., 3)`` views.  :func:`vector_array` allocates that layout and
:func:`leading` turns such a view back into the component-first array, so
element-wise products and FFTs run over contiguous blocks.  Every module
that hands arrays to a transform builds them in this layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

#: storage order of the helicity axis: index 0 is lambda = +1, index 1 is -1
HELICITIES = (+1, -1)


def vector_array(spatial_shape, dtype):
    """Uninitialized ``spatial_shape + (3,)`` view of a C-ordered ``(3,) + spatial_shape`` array."""
    return trailing(np.empty((3,) + tuple(spatial_shape), dtype), 1)


def trailing(arr, n_components):
    """(c..., nx, ny, nz) -> (nx, ny, nz, c...) view."""
    lead = range(n_components)
    return np.moveaxis(arr, tuple(lead), tuple(i - n_components for i in lead))


def leading(arr):
    """(nx, ny, nz, c...) -> (c..., nx, ny, nz) view; inverse of :func:`trailing`."""
    n_components = arr.ndim - 3
    lead = range(n_components)
    return np.moveaxis(arr, tuple(i - n_components for i in lead), tuple(lead))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def broadcast_along(values, axis: int):
    """A 1-D array per grid ``axis`` reshaped to broadcast along that axis of a 3-D grid."""
    return values.reshape([-1 if b == axis else 1 for b in range(3)])


def l2_norm(x) -> float:
    """sqrt(sum |x|^2) over every element of ``x``, never through BLAS.

    The package's rule for sums: no reduction over a grid- or source-sized
    array calls BLAS, whose threads would split it (``np.linalg.norm`` ends
    in a BLAS dot product) and make the last bits follow the BLAS thread
    count.  Such sums use numpy's own reductions; only products that sum
    over a short axis (a source's rank, a 3-vector) and that BLAS partitions
    by output alone may use BLAS.  This is the one L2 norm: one einsum loop
    (no ``optimize``) over a flat real view in memory order, with no
    temporary for an ``x`` stored without gaps in any axis order.
    """
    flat = np.ravel(x, order="K")
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", flat, flat)))


def _triple(value, name):
    try:
        t = tuple(float(v) for v in value)
    except TypeError:
        raise ValueError(f"{name} must be a length-3 sequence, got {value!r}") from None
    if len(t) != 3:
        raise ValueError(f"{name} must have three components, got {value!r}")
    return t


def _validate_lattice(grid, spacing: str, offset: str):
    """Check and store a regular grid's ``n_per_axis``, spacing and offset fields."""
    n = tuple(int(v) for v in grid.n_per_axis)
    if any(v < 1 for v in n):
        raise ValueError(f"n_per_axis must be >= 1, got {grid.n_per_axis!r}")
    step = _triple(getattr(grid, spacing), spacing)
    if any(v <= 0 for v in step):
        raise ValueError(f"{spacing} components must be positive, got {step!r}")
    object.__setattr__(grid, "n_per_axis", n)
    object.__setattr__(grid, spacing, step)
    object.__setattr__(grid, offset, _triple(getattr(grid, offset), offset))


def _lattice_axes(n_per_axis, spacing, offset):
    """Per axis a, the samples offset[a] + spacing[a] * j, j = 0..n-1."""
    return tuple(offset[a] + spacing[a] * np.arange(n_per_axis[a]) for a in range(3))


@dataclass(frozen=True)
class WaveVectorGrid:
    """Regular cartesian wavevector grid.

    Samples along axis a sit at k_min[a] + j * delta_k[a], j = 0..n-1.
    ``exclusion_mask`` is True on samples where omega = |k| would vanish;
    those carry zero amplitude in every spectrum built on the grid.
    """

    n_per_axis: tuple[int, int, int]
    delta_k: tuple[float, float, float]
    k_min: tuple[float, float, float]

    def __post_init__(self):
        _validate_lattice(self, "delta_k", "k_min")

    @classmethod
    def centered(cls, n_per_axis, delta_k):
        """Grid symmetric about k = 0 (k_min = -(n//2) dk per axis).

        This is the layout the FFT synthesis path expects; it also makes the
        mirror sample -k of every interior sample another grid sample.
        """
        n = tuple(int(v) for v in n_per_axis)
        dk = _triple(delta_k, "delta_k")
        k_min = tuple(-(ni // 2) * di for ni, di in zip(n, dk))
        return cls(n, dk, k_min)

    @classmethod
    def collinear(cls, n_z, delta_kz):
        """1 x 1 x n_z grid with all samples on the z axis (unit transverse spacing)."""
        return cls.centered((1, 1, int(n_z)), (1.0, 1.0, delta_kz))

    @cached_property
    def axes(self):
        return _lattice_axes(self.n_per_axis, self.delta_k, self.k_min)

    @cached_property
    def k_vectors(self):
        """(nx, ny, nz, 3) array of sample wavevectors (component-major)."""
        return trailing(_read_only(np.stack(np.meshgrid(*self.axes, indexing="ij"))), 1)

    @cached_property
    def omega(self):
        """|k| = angular frequency of each sample (c = 1)."""
        return _read_only(np.linalg.norm(self.k_vectors, axis=-1))

    @cached_property
    def exclusion_mask(self):
        return _read_only(self._excluded(self.omega))

    def _excluded(self, omega):
        """The exclusion rule: omega = |k| is zero to within 1e-9 of the spacing."""
        return omega <= 1e-9 * min(self.delta_k)

    def excludes(self, index):
        """True when sample ``index`` is masked, without building the full grid.

        |k| is formed the way ``omega`` forms it, so the answer equals
        ``exclusion_mask[index]``.
        """
        k = [self.k_min[a] + self.delta_k[a] * int(index[a]) for a in range(3)]
        return bool(self._excluded(np.linalg.norm(np.array([k]), axis=-1))[0])

    @cached_property
    def cell_weight(self):
        """k-space integration weight dk^3 / (2 pi)^3 per sample."""
        return self.delta_k[0] * self.delta_k[1] * self.delta_k[2] / TWO_PI**3

    def same_grid(self, other):
        return (
            self.n_per_axis == other.n_per_axis
            and np.allclose(self.delta_k, other.delta_k, rtol=0, atol=1e-12)
            and np.allclose(self.k_min, other.k_min, rtol=0, atol=1e-12)
        )

    def coverage_contains(self, k0):
        """True when k0 lies inside the sampled k-range (per axis)."""
        k0 = _triple(k0, "k0")
        for a in range(3):
            lo = self.k_min[a] - 0.5 * self.delta_k[a]
            hi = self.k_min[a] + (self.n_per_axis[a] - 0.5) * self.delta_k[a]
            if not (lo <= k0[a] <= hi):
                return False
        return True


def _paired_spacing(kgrid: WaveVectorGrid):
    """delta_x = 2 pi / (n delta_k) per axis: the spacing of the FFT partner of ``kgrid``."""
    return tuple(TWO_PI / (n * d) for n, d in zip(kgrid.n_per_axis, kgrid.delta_k))


@dataclass(frozen=True)
class SpatialGrid:
    """Regular periodic spatial grid; points at origin + n * delta_x."""

    n_per_axis: tuple[int, int, int]
    delta_x: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        _validate_lattice(self, "delta_x", "origin")

    @classmethod
    def paired(cls, kgrid: WaveVectorGrid, origin=None):
        """The FFT partner of ``kgrid``: delta_x = 2 pi / (n delta_k).

        Default origin centers the box so that x = 0 is a grid point and
        wavepackets start mid-box.
        """
        n = kgrid.n_per_axis
        dx = _paired_spacing(kgrid)
        if origin is None:
            origin = tuple(-(ni // 2) * di for ni, di in zip(n, dx))
        return cls(n, dx, origin)

    @cached_property
    def axes(self):
        return _lattice_axes(self.n_per_axis, self.delta_x, self.origin)

    @cached_property
    def coordinates(self):
        """(nx, ny, nz, 3) array of sample positions."""
        x, y, z = np.meshgrid(*self.axes, indexing="ij")
        return _read_only(np.stack([x, y, z], axis=-1))

    @property
    def cell_volume(self):
        return self.delta_x[0] * self.delta_x[1] * self.delta_x[2]

    @property
    def box_lengths(self):
        return tuple(n * d for n, d in zip(self.n_per_axis, self.delta_x))

    def is_paired_with(self, kgrid: WaveVectorGrid):
        if self.n_per_axis != kgrid.n_per_axis:
            return False
        return np.allclose(self.delta_x, _paired_spacing(kgrid), rtol=1e-12, atol=0)


@lru_cache(maxsize=2)
def build_basis(grid: WaveVectorGrid) -> np.ndarray:
    """The positive-helicity vector e+ on every sample of ``grid``.

    The one owner of the helicity basis: e+ = (e_theta + i e_phi)/sqrt(2) is
    transverse to k, and every user forms e- = conj(e+) =
    (e_theta - i e_phi)/sqrt(2) itself, so the pair is never built or
    stored twice.  At the poles (k parallel to +/-z) the azimuth is fixed to
    phi = 0, which gives e_theta = (+/-1, 0, 0) and e_phi = (0, 1, 0).
    Masked samples carry the zero vector.

    Returns a read-only component-major ``(..., 3)`` view, kept for the two
    most recently used grids (by value).
    """
    kn = grid.omega
    mask = grid.exclusion_mask
    safe = np.where(mask, 1.0, kn)

    kx, ky, kz = leading(grid.k_vectors)
    k_perp = np.hypot(kx, ky)
    # phi = 0 on the z axis implements the pole convention automatically
    on_pole = k_perp <= 1e-12 * safe
    phi = np.where(on_pole, 0.0, np.arctan2(ky, kx))
    cos_t = kz / safe
    sin_t = k_perp / safe

    e_theta = np.stack([cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t])
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])

    keep = ~mask
    e_theta = np.where(keep, e_theta, 0.0)
    e_phi = np.where(keep, e_phi, 0.0)

    return trailing(_read_only((e_theta + 1j * e_phi) * (1.0 / np.sqrt(2.0))), 1)


@dataclass(frozen=True)
class PhotonSpectrum:
    """Transverse helicity amplitudes c_lambda(k) on a wavevector grid.

    ``c`` has shape (2, nx, ny, nz); c[0] is the lambda = +1 block and c[1]
    the lambda = -1 block.
    """

    grid: WaveVectorGrid
    c: np.ndarray

    def __post_init__(self):
        expected = (2,) + self.grid.n_per_axis
        c = np.asarray(self.c, dtype=np.complex128)
        if c.shape != expected:
            raise ValueError(f"amplitude array must have shape {expected}, got {c.shape}")
        if not np.isfinite(c.view(np.float64)).all():
            raise ValueError("amplitude array contains non-finite entries")
        mask = self.grid.exclusion_mask
        if np.count_nonzero(mask):
            c = np.where(mask[None, ...], 0.0 + 0.0j, c)
        object.__setattr__(self, "c", _read_only(c))

    @property
    def norm(self):
        return float(np.real(scalar_product(self, self)))

    def pure_helicity(self):
        """Return +1/-1 when exactly one helicity block is populated, else None."""
        has = [bool(np.any(self.c[i])) for i in range(2)]
        if has[0] and not has[1]:
            return +1
        if has[1] and not has[0]:
            return -1
        return None


@dataclass(frozen=True)
class SpectralSummary:
    """Mode-sum invariants of a spectrum (k-space side of Parseval)."""

    number: float
    energy: float
    momentum: tuple[float, float, float]
    helicity: float


def scalar_product(s1: PhotonSpectrum, s2: PhotonSpectrum) -> complex:
    """Mode-wise product sum_lambda sum_k w conj(c1) c2 (conjugate-linear in s1)."""
    if not s1.grid.same_grid(s2.grid):
        raise ValueError("grid mismatch between spectra")
    return complex(s1.grid.cell_weight * np.sum(np.conj(s1.c) * s2.c))


def normalize(s: PhotonSpectrum) -> PhotonSpectrum:
    """Scale to unit k-space norm; zero spectra are unnormalizable."""
    n = float(np.real(scalar_product(s, s)))
    if not np.isfinite(n) or n <= 0.0:
        raise ValueError("unnormalizable spectrum (zero or non-finite norm)")
    return PhotonSpectrum(s.grid, s.c / np.sqrt(n))


def evolve(s: PhotonSpectrum, dt: float) -> PhotonSpectrum:
    """Free propagation: multiply each amplitude by exp(-i omega dt)."""
    phase = np.exp(-1j * s.grid.omega * float(dt))
    return PhotonSpectrum(s.grid, s.c * phase[None, ...])


def _gaussian_envelope(grid, k0, sigma):
    """exp(-|k-k0|^2 / (4 sigma^2)) on every sample of ``grid``, after checking k0 and sigma.

    Warns when |k0| < 5 sigma (packet reaches into the excluded zero mode
    region), at the caller of the packet constructor.
    """
    k0 = _triple(k0, "k0")
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not grid.coverage_contains(k0):
        raise ValueError(f"k0 {k0!r} lies outside the grid coverage")
    if l2_norm(k0) < 5.0 * sigma:
        warnings.warn(
            "gaussian packet is not well separated from the zero mode "
            "(|k0| < 5 sigma); low-frequency truncation may be visible",
            stacklevel=3,
        )
    d2 = np.sum((grid.k_vectors - np.asarray(k0)) ** 2, axis=-1)
    return np.exp(-d2 / (4.0 * sigma**2))


def gaussian_spectrum(grid, k0, sigma, helicity_weights=(1.0, 0.0)) -> PhotonSpectrum:
    """Normalized gaussian packet exp(-|k-k0|^2 / (4 sigma^2)) per helicity.

    ``helicity_weights`` are the complex weights (w_plus, w_minus); their
    relative magnitude fixes the helicity mixture.  Warns when |k0| < 5 sigma
    (packet reaches into the excluded zero mode region).
    """
    w_plus, w_minus = (complex(w) for w in helicity_weights)
    if w_plus == 0 and w_minus == 0:
        raise ValueError("helicity_weights must not both vanish")
    envelope = _gaussian_envelope(grid, k0, sigma)
    c = np.stack([w_plus * envelope, w_minus * envelope], axis=0)
    return normalize(PhotonSpectrum(grid, c))


def circular_spectrum(grid, k0, sigma) -> PhotonSpectrum:
    """Normalized smooth circular packet: the envelope of :func:`gaussian_spectrum`
    times the fixed polarization (x + i y)/sqrt(2), projected on e+.

    c+ = g(k) conj(e+(k)) . (x + i y)/sqrt(2) = g(k) (1 + cos theta)/2 e^{i phi}
    and c- = 0.  The factor e^{i phi} cancels the phase vortex of e+ about
    the k_z axis, so a packet with k0 along +z has a smooth c+ e+, where the
    constant c+ of :func:`gaussian_spectrum` leaves a vortex on the pole line.
    """
    envelope = _gaussian_envelope(grid, k0, sigma)
    e_x, e_y, _ = leading(build_basis(grid))
    c_plus = envelope * (np.conj(e_x) + 1j * np.conj(e_y)) / np.sqrt(2.0)
    return normalize(PhotonSpectrum(grid, np.stack([c_plus, np.zeros_like(c_plus)])))


def single_mode_spectrum(grid, index, helicity=+1) -> PhotonSpectrum:
    """Normalized spectrum populating exactly one unmasked grid sample."""
    idx = tuple(int(i) for i in index)
    if grid.exclusion_mask[idx]:
        raise ValueError(f"sample {idx!r} is masked (omega = 0)")
    c = np.zeros((2,) + grid.n_per_axis, dtype=np.complex128)
    c[(HELICITIES.index(helicity),) + idx] = 1.0
    return normalize(PhotonSpectrum(grid, c))


def localized_spectrum(grid, x0) -> PhotonSpectrum:
    """Localized-basis amplitudes c_lambda(k) = exp(-i k . x0) on both helicities.

    The continuum version is not normalizable; on a finite grid it is still
    a valid band-limited state (left unnormalized).
    """
    x0 = _triple(x0, "x0")
    # BLAS sums k . x0 over rows of a C-ordered copy, independent of the storage order
    k_rows = np.ascontiguousarray(grid.k_vectors)
    phase = np.exp(-1j * np.tensordot(k_rows, np.asarray(x0), axes=([-1], [0])))
    c = np.stack([phase, phase], axis=0)
    return PhotonSpectrum(grid, c)


def spectral_summary(s: PhotonSpectrum) -> SpectralSummary:
    """Number, energy, momentum and helicity as plain k-space mode sums."""
    w = s.grid.cell_weight
    p2 = np.abs(s.c) ** 2
    number = float(w * np.sum(p2))
    p2_total = p2[0] + p2[1]
    energy = float(w * np.sum(s.grid.omega * p2_total))
    momentum = tuple(
        float(w * np.sum(s.grid.k_vectors[..., a] * p2_total)) for a in range(3)
    )
    helicity = float(w * (np.sum(p2[0]) - np.sum(p2[1])))
    return SpectralSummary(number=number, energy=energy, momentum=momentum, helicity=helicity)
