"""Photon number, current, four-momentum and angular-momentum densities.

All densities are bilinears of the positive-frequency fields,

    rho  = sigma * (1/2) [ -i A+ . E-  + c.c. ]  =  sigma * Im(A+ . conj(E+))
    J    = sigma * (1/2) [ -i A+ x cB- + c.c. ]
    H    = sigma * (1/2) [  i E+ . (omega A)- + c.c. ]  =  -sigma |E+|^2
    P_j  = sigma * (1/2) [  i E+ . (k_j A)-   + c.c. ]

with the spectral operators (omega A), (k_j A) applied mode-wise.  Because
E+ = i omega A+ mode by mode, (omega A)+ = -i E+ and the energy density is
the plain |E+|^2 (times -sigma): no transform at all.  The three momentum
components are one batched inverse FFT of the k_j A+ amplitudes, taken from
the snapshot's mode amplitudes through the grid pair's spectral engine
(:mod:`photonlab.field_synthesis`).  ``sigma`` is the constant
:data:`SIGMA`, fixed by the convention E+ = i omega A+ (see there).

The comparison wave fields are, per helicity lambda,

    F   = (1/2) (E + i lambda c B)        (|F|^2 is the energy density)
    psi = (1/2) (Omega^{1/2} A - i Omega^{-1/2} E)   (|psi|^2 integrates to 1)

where Omega is the spectral multiplier c|k|.  Both carry a 1/sqrt(2) on top
of the sqrt(epsilon_0/2)-style prefactors so that they share the photon-number
normalization of rho: a monochromatic mode then satisfies |F|^2 = omega rho
pointwise, and F = i Omega^{1/2} psi holds spectrally either way.  F is built
from the real fields E = 2 Re E+ and B = 2 Re B+ (B+ is transformed on first
access): (1/2)(E + i lambda B) is exactly Re E+ + i lambda Re B+, written
into one complex array with no full-grid temporary.  In psi the
negative-frequency parts cancel, (1/2) Omega^{1/2} (A- - A-) = 0, and the
positive ones add, so psi = Omega^{1/2} A+: one inverse FFT of the fresh
mode amplitudes scaled in place by sqrt(omega), with no forward transform.  The
half-power identity F = i Omega^{1/2} psi is then checked against F from the
real fields, and stays a test of the two constructions, not a tautology.

Everything several output kinds need is computed once per
:class:`~photonlab.field_synthesis.FieldSnapshot` and kept read-only in its
instance dict by ``field_synthesis._memo`` (the way ``B_plus`` is cached),
so it is freed with the snapshot: the energy density H (energy and
four-momentum), the real momentum density P (momentum, four-momentum and
orbital angular momentum; the 9-component transform behind it is not kept)
and the wave fields F and psi of the snapshot's own helicity.  All eight
output kinds of one snapshot thus cost four inverse FFTs: the synthesis,
B+, the momentum transform and psi.  ``energy_density`` and
``momentum_density`` return the kept H and P, so copy their data before
modifying it.

The contractions (:func:`_contract_pair`, behind the number, energy,
momentum and helicity densities), the cross products and the per-mode
products run in x-slabs under the rule of :mod:`photonlab.slabs`.

The coefficient arrays handed to the transforms (the (3, 3) momentum block,
the helicity and psi amplitudes) are built component-major, the layout the
engine transforms in place (see :mod:`photonlab.field_synthesis`).  Every
``DensityField.data`` stays C-ordered (nx, ny, nz[, c]), because
``integral`` sums in memory order: the same layout gives the same sums.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import field_synthesis as fs
from .mode_space import SpatialGrid, WaveVectorGrid, leading, trailing, vector_array
from .slabs import _cross, _in_slabs, _multiply

# E+ = i omega A+ gives Im(A+ . conj(E+)) = -omega |A+|^2, so sigma = -1 makes rho >= 0
SIGMA = -1

@dataclass(frozen=True)
class DensityField:
    """A real density (scalar or vector components on the trailing axis)."""

    kind: str
    data: np.ndarray
    t: float
    grid: SpatialGrid

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")

    def integral(self):
        """Cell-volume weighted sum over the box (per trailing component)."""
        spatial = tuple(range(3))
        return self.grid.cell_volume * np.sum(self.data, axis=spatial)


def _contract_pair(subscripts, first, second, combine, shape):
    """combine(einsum(subscripts, *first), einsum(subscripts, *second)), C-ordered ``shape``.

    Evaluated in x-slabs into two arrays allocated here (see
    :mod:`photonlab.slabs`).
    """
    out = np.empty(shape)
    scratch = np.empty(shape)

    def contract(x):
        np.einsum(subscripts, *(op[x] for op in first), out=out[x])
        np.einsum(subscripts, *(op[x] for op in second), out=scratch[x])
        combine(out[x], scratch[x], out=out[x])

    _in_slabs(contract, shape[0])
    return out


def _im_dot(a, b, subscripts="...c,...c->..."):
    """Im(conj(a) . b) contracted per ``subscripts``, in real arithmetic.

    The result has the shape of ``b`` without its last axis.
    """
    return _contract_pair(subscripts, (a.real, b.imag), (a.imag, b.real), np.subtract,
                          b.shape[:-1])


def number_density(f: fs.FieldSnapshot) -> DensityField:
    """rho = sigma/2 (-i A+ . E- + c.c.) = sigma Im(A+ . conj(E+)).

    Integrates to the k-space norm.
    """
    rho = _im_dot(f.E_plus, f.A_plus)
    rho *= SIGMA
    return DensityField("number", rho, f.t, f.sgrid)


def photon_current(f: fs.FieldSnapshot) -> DensityField:
    """J = sigma/2 (-i A+ x cB- + c.c.) = sigma Im(A+ x conj(cB+)) (c = 1 here)."""
    a_plus, b_plus = f.A_plus, f.B_plus
    cur = _cross(a_plus.imag, b_plus.real)
    cur -= _cross(a_plus.real, b_plus.imag)
    cur *= SIGMA
    return DensityField("current", cur, f.t, f.sgrid)


def _operator_density(f: fs.FieldSnapshot, op_coeffs):
    """sigma/2 ( i E+ . conj(op A+) + c.c. ) = sigma Im(conj(E+) . op A+).

    ``op_coeffs`` holds the mode amplitudes of op A+: (nx, ny, nz, 3) for one
    operator, or (nx, ny, nz, m, 3) for m operators transformed together,
    stored component-major; it is used as the work array.
    """
    op_a = fs.spectral_engine(f.kgrid, f.sgrid).to_field(op_coeffs)
    subscripts = "...c,...c->..." if op_a.ndim == 4 else "...c,...jc->...j"
    out = _im_dot(f.E_plus, op_a, subscripts)
    out *= SIGMA
    return out


def _energy(f: fs.FieldSnapshot):
    """H = -sigma |E+|^2, the omega-multiplier form, kept per snapshot (see module docs)."""

    def build():
        e_plus = f.E_plus
        out = _contract_pair("...c,...c->...", (e_plus.real, e_plus.real),
                             (e_plus.imag, e_plus.imag), np.add, e_plus.shape[:-1])
        out *= -SIGMA
        return fs._read_only(out)

    return fs._memo(f, "_energy", build)


def _momentum(f: fs.FieldSnapshot):
    """(P_x, P_y, P_z) on the trailing axis from one 9-component transform.

    Computed once per snapshot and kept read-only (see module docs).
    """

    def build():
        k, amp = leading(f.kgrid.k_vectors), leading(f.amplitude)
        op_coeffs = np.empty((3, 3) + f.kgrid.n_per_axis, np.complex128)
        _multiply(k[:, None], amp[None, :], op_coeffs)
        _multiply(op_coeffs, f.time_phase, op_coeffs)
        return fs._read_only(_operator_density(f, trailing(op_coeffs, 2)))

    return fs._memo(f, "_momentum", build)


def four_momentum_density(f: fs.FieldSnapshot) -> DensityField:
    """(H, P): energy as -sigma |E+|^2, momentum from the k multipliers."""
    data = np.concatenate([_energy(f)[..., None], _momentum(f)], axis=-1)
    return DensityField("four_momentum", data, f.t, f.sgrid)


def energy_density(f: fs.FieldSnapshot) -> DensityField:
    return DensityField("energy", _energy(f), f.t, f.sgrid)


def momentum_density(f: fs.FieldSnapshot) -> DensityField:
    return DensityField("momentum", _momentum(f), f.t, f.sgrid)


def helicity_density(f: fs.FieldSnapshot) -> np.ndarray:
    """Density of the helicity observable (normalized-curl spectral operator).

    The operator i khat x (.) has the helicity eigenvalue lambda on each
    helicity mode, so the integral reproduces the k-space helicity sum.
    """
    kgrid = f.kgrid
    mask = kgrid.exclusion_mask
    khat = np.where(mask, 0.0, leading(kgrid.k_vectors) / np.where(mask, 1.0, kgrid.omega))
    coeffs = _cross(trailing(khat, 1), f.a_coeffs,
                       out=vector_array(kgrid.n_per_axis, np.complex128))
    coeffs *= 1j
    return _operator_density(f, coeffs)


def spin_angular_momentum_density(f: fs.FieldSnapshot) -> DensityField:
    """Spin part Re(E+ x A-); sign fixed so a pure-lambda state integrates
    to lambda * khat (checked against the k-space oracle)."""
    e_plus, a_plus = f.E_plus, f.A_plus
    data = _cross(e_plus.real, a_plus.real)
    data += _cross(e_plus.imag, a_plus.imag)
    return DensityField("angular_momentum", data, f.t, f.sgrid)


def orbital_angular_momentum_density(f: fs.FieldSnapshot, origin) -> DensityField:
    """Orbital part r x P with P the momentum density (so that shifting the
    reference origin by d changes the integral by -d x total momentum)."""
    p = _momentum(f)
    # r per axis as a broadcastable 1-D array, so no (nx, ny, nz, 3) position array
    r = [
        (f.sgrid.axes[a] - float(origin[a])).reshape([-1 if b == a else 1 for b in range(3)])
        for a in range(3)
    ]
    data = np.empty_like(p)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        data[..., a] = r[b] * p[..., c] - r[c] * p[..., b]
    return DensityField("angular_momentum", data, f.t, f.sgrid)


def angular_momentum_density(f: fs.FieldSnapshot, origin) -> DensityField:
    """Total angular momentum density: orbital (r x P) plus spin."""
    total = (
        orbital_angular_momentum_density(f, origin).data
        + spin_angular_momentum_density(f).data
    )
    return DensityField("angular_momentum", total, f.t, f.sgrid)


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
    coeffs = fs.field_to_spectrum(work, kgrid, sgrid)
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
    out = fs.spectrum_to_field(coeffs, kgrid, sgrid)
    return out[..., 0] if scalar else out


@dataclass(frozen=True)
class PhotonWaveFields:
    """Pure-helicity comparison wave functions F and psi (see module docs)."""

    helicity: int
    F: np.ndarray
    psi: np.ndarray
    t: float
    grid: SpatialGrid


def photon_wave_fields(f: fs.FieldSnapshot) -> PhotonWaveFields:
    """F from the real fields E and B, psi = Omega^{1/2} A+ (see module docs).

    The helicity is the snapshot spectrum's.  Built once per snapshot; F and
    psi are read-only.
    """

    def build():
        lam = f.spectrum.pure_helicity()
        if lam is None:
            raise ValueError("mixed-helicity spectrum: F and psi need a pure helicity")
        # (1/2)(E + i lam B) with E = 2 Re E+, B = 2 Re B+: Re E+ + i lam Re B+ exactly
        F = np.empty(f.E_plus.shape, np.complex128)
        np.copyto(F.real, f.E_plus.real)
        np.multiply(lam, f.B_plus.real, out=F.imag)
        psi_coeffs = leading(f.a_coeffs)  # a fresh array, scaled in place
        np.multiply(np.sqrt(f.kgrid.omega), psi_coeffs, out=psi_coeffs)
        psi = fs.spectral_engine(f.kgrid, f.sgrid).to_field(trailing(psi_coeffs, 1))
        return PhotonWaveFields(helicity=lam, F=fs._read_only(F), psi=fs._read_only(psi),
                                t=f.t, grid=f.sgrid)

    return fs._memo(f, "_wave_fields", build)


def bb_energy_density(wf: PhotonWaveFields) -> DensityField:
    """|F|^2: the energy-density reading of the first wave function."""
    data = np.sum(np.abs(wf.F) ** 2, axis=-1)
    return DensityField("bb_energy", data, wf.t, wf.grid)


def lp_number_density(wf: PhotonWaveFields) -> DensityField:
    """|psi|^2: the number-density reading of the second wave function."""
    data = np.sum(np.abs(wf.psi) ** 2, axis=-1)
    return DensityField("lp_number", data, wf.t, wf.grid)


@dataclass(frozen=True)
class DensityKind:
    """How ``run`` and ``export-slice`` build an output kind and name its components."""

    build: Callable[[fs.FieldSnapshot], DensityField]
    labels: str = ""  # components of a vector kind, in summaries and CSV headers
    pure_helicity: bool = False  # F and psi exist for one helicity only


# The builders look each density function up in this module when they run,
# so a rebound module attribute (a tracer's wrapper, say) is the one called.
# The box center is the reference point of the orbital angular momentum.
DENSITY_TABLE = {
    "number": DensityKind(lambda f: number_density(f)),
    "current": DensityKind(lambda f: photon_current(f), "xyz"),
    "energy": DensityKind(lambda f: energy_density(f)),
    "momentum": DensityKind(lambda f: momentum_density(f), "xyz"),
    "four_momentum": DensityKind(lambda f: four_momentum_density(f), "txyz"),
    "angular_momentum": DensityKind(lambda f: angular_momentum_density(f, (0, 0, 0)), "xyz"),
    "bb_energy": DensityKind(lambda f: bb_energy_density(photon_wave_fields(f)), "", True),
    "lp_number": DensityKind(lambda f: lp_number_density(photon_wave_fields(f)), "", True),
}
DENSITY_KINDS = frozenset(DENSITY_TABLE)
