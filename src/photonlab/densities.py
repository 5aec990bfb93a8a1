"""Photon number, current, four-momentum and angular-momentum densities.

All densities are bilinears of the positive-frequency fields,

    rho  = sigma * (1/2) [ -i A+ . E-  + c.c. ]  =  sigma * Im(A+ . conj(E+))
    J    = sigma * (1/2) [ -i A+ x cB- + c.c. ]
    H    = sigma * (1/2) [  i E+ . (omega A)- + c.c. ]  =  -sigma |E+|^2
    P_j  = sigma * (1/2) [  i E+ . (k_j A)-   + c.c. ]

with the spectral operators (omega A), (k_j A) applied mode-wise.  Because
E+ = i omega A+ mode by mode, (omega A)+ = -i E+ and the energy density is
the plain |E+|^2 (-sigma = +1): no transform at all.  ``sigma`` is the
constant :data:`SIGMA`, fixed by the convention E+ = i omega A+ (see there).

This module works in real space: every density is a bilinear of fields that
a :class:`~photonlab.field_synthesis.FieldSnapshot` hands out (A+, E+, B+,
Omega^{1/2} A+ and the helicity and momentum operands), and every spectral
multiplier behind them is applied in :mod:`photonlab.field_synthesis`.

The comparison wave fields are, per helicity lambda,

    F   = (1/2) (E + i lambda c B)        (|F|^2 is the energy density)
    psi = (1/2) (Omega^{1/2} A - i Omega^{-1/2} E)   (|psi|^2 integrates to 1)

where Omega is the spectral multiplier c|k|.  Both carry a 1/sqrt(2) on top
of the sqrt(epsilon_0/2)-style prefactors so that they share the photon-number
normalization of rho: a monochromatic mode then satisfies |F|^2 = omega rho
pointwise, and F = i Omega^{1/2} psi holds spectrally either way.  With
E = 2 Re E+ and B = 2 Re B+, F is exactly Re E+ + i lambda Re B+.  In psi the
negative-frequency parts cancel and the positive ones add, so
psi = Omega^{1/2} A+: one inverse FFT of the mode amplitudes scaled by
sqrt(omega), with no forward transform.  The half-power identity
F = i Omega^{1/2} psi then tests the two constructions; it is not a
tautology.

What several output kinds need is computed once per snapshot and kept
read-only in its instance dict by ``field_synthesis._memo``, so it is freed
with the snapshot: the energy density H, the real momentum density P and
the wave fields, which keep psi but not F: F is formed read-only from the
snapshot's E+ and B+ on each access, and |F|^2 one group of x-planes at a
time.  P costs three inverse FFTs over the 9 n^3 points of the three
operands (k_j A)+, one 3-component transform per direction, each
contracted into P_j before the next is formed and none kept.
``energy_density`` and ``momentum_density`` return the kept H and P, so copy
their data before modifying it; ``field_synthesis._forget`` drops them, and
``photonlab run`` drops each intermediate a :class:`DensityKind` ``reads``
after its last requested reader.

The contractions, cross products and squared norms follow the slab rule of
:mod:`photonlab.slabs`: each forms its scratch for one group of x-planes,
never a second full-grid array.  Every ``DensityField.data`` stays C-ordered
(nx, ny, nz[, c]), because ``integral`` sums in memory order: the same layout
gives the same sums.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import field_synthesis as fs
# re-exported: the frequency powers are applied in field_synthesis, under this public name too
from .field_synthesis import apply_frequency_operator  # noqa: F401
from .mode_space import SpatialGrid, _read_only, broadcast_along
from .slabs import _cross_into, _in_plane_groups

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
        """Cell-volume weighted sum over the box (per trailing component).

        A vector kind is summed by ``einsum``, in the order of
        ``np.sum(data, axis=(0, 1, 2))`` (so bitwise equal to it) but without
        its strided reduction.
        """
        if self.data.ndim == 3:
            total = np.sum(self.data, axis=(0, 1, 2))
        else:
            total = np.einsum("ijkc->c", self.data)
        return self.grid.cell_volume * total


def _contract_pair(subscripts, first, second, combine, shape):
    """combine(einsum(subscripts, *first), einsum(subscripts, *second)), C-ordered ``shape``.

    Evaluated per group of x-planes into the array returned, the second
    einsum into a scratch array of that group.
    """
    out = np.empty(shape)

    def contract(g):
        np.einsum(subscripts, *(op[g] for op in first), out=out[g])
        scratch = np.einsum(subscripts, *(op[g] for op in second))
        combine(out[g], scratch, out=out[g])

    _in_plane_groups(contract, shape)
    return out


def _im_dot(a, b):
    """Im(conj(a) . b) of (nx, ny, nz, 3) fields, in real arithmetic."""
    return _contract_pair("...c,...c->...", (a.real, b.imag), (a.imag, b.real), np.subtract,
                          b.shape[:-1])


def _cross_pair(first, second, combine):
    """combine(a x b, c x d) of the real (nx, ny, nz, 3) pairs ``first`` = (a, b)
    and ``second`` = (c, d), C-ordered.

    Evaluated per group of x-planes into the array returned, the second cross
    product into a scratch array of that group.
    """
    a, b = first
    out = np.empty(a.shape)

    def fill(g):
        term = np.empty(out[g].shape[:-1])
        _cross_into(a[g], b[g], out[g], term)
        c, d = (op[g] for op in second)
        combine(out[g], _cross_into(c, d, np.empty(out[g].shape), term), out=out[g])

    _in_plane_groups(fill, a.shape)
    return out


def number_density(f: fs.FieldSnapshot) -> DensityField:
    """rho = sigma/2 (-i A+ . E- + c.c.) = sigma Im(A+ . conj(E+)).

    Integrates to the k-space norm.
    """
    rho = _im_dot(f.E_plus, f.A_plus)
    rho *= SIGMA
    return DensityField("number", rho, f.t, f.sgrid)


def cross_number_density(f: fs.FieldSnapshot, g: fs.FieldSnapshot) -> np.ndarray:
    """rho_fg = sigma/2 (-i A+_g . conj(E+_f) + i conj(A+_f) . E+_g), complex.

    The matrix element <1_f| rho(x) |1_g> of the number density between the
    one-photon states of two spectra on one grid pair, so that its integral
    is <f|g> and its diagonal is :func:`number_density`.  Plain full-grid
    arithmetic: only the acceptance registry calls it.
    """
    first = np.einsum("...c,...c->...", g.A_plus, np.conj(f.E_plus))
    second = np.einsum("...c,...c->...", np.conj(f.A_plus), g.E_plus)
    return (SIGMA / 2) * (-1j * first + 1j * second)


def photon_current(f: fs.FieldSnapshot) -> DensityField:
    """J = sigma/2 (-i A+ x cB- + c.c.) = sigma Im(A+ x conj(cB+)) (c = 1 here)."""
    a_plus, b_plus = f.A_plus, f.B_plus
    cur = _cross_pair((a_plus.imag, b_plus.real), (a_plus.real, b_plus.imag), np.subtract)
    cur *= SIGMA
    return DensityField("current", cur, f.t, f.sgrid)


def _operator_density(f: fs.FieldSnapshot, op_a):
    """sigma/2 ( i E+ . conj(op A+) + c.c. ) = sigma Im(conj(E+) . op A+), where
    ``op_a`` is the (nx, ny, nz, 3) field op A+."""
    out = _im_dot(f.E_plus, op_a)
    out *= SIGMA
    return out


def _energy(f: fs.FieldSnapshot):
    """H = -sigma |E+|^2 = |E+|^2, the omega-multiplier form, kept per snapshot."""

    def build():
        e_plus = f.E_plus
        return _read_only(_contract_pair("...c,...c->...", (e_plus.real, e_plus.real),
                                         (e_plus.imag, e_plus.imag), np.add, e_plus.shape[:-1]))

    return fs._memo(f, "_energy", build)


def _momentum(f: fs.FieldSnapshot):
    """(P_x, P_y, P_z) on the trailing axis, kept per snapshot.

    Each direction's operand (k_j A)+ is transformed and contracted into P_j
    before the next is formed, so one 3-vector operand is held at a time.
    """

    def build():
        p = np.empty(f.E_plus.shape)
        for j in range(3):
            p[..., j] = _operator_density(f, f.momentum_operand(j))
        return _read_only(p)

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
    return _operator_density(f, f.helicity_operand())


def spin_angular_momentum_density(f: fs.FieldSnapshot) -> DensityField:
    """Spin part Re(E+ x A-); sign fixed so a pure-lambda state integrates
    to lambda * khat (checked against the k-space oracle)."""
    e_plus, a_plus = f.E_plus, f.A_plus
    data = _cross_pair((e_plus.real, a_plus.real), (e_plus.imag, a_plus.imag), np.add)
    return DensityField("angular_momentum", data, f.t, f.sgrid)


def orbital_angular_momentum_density(f: fs.FieldSnapshot, origin) -> DensityField:
    """Orbital part r x P with P the momentum density (so that shifting the
    reference origin by d changes the integral by -d x total momentum)."""
    p = _momentum(f)
    # r per axis as a broadcastable 1-D array, so no (nx, ny, nz, 3) position array
    r = [broadcast_along(f.sgrid.axes[a] - float(origin[a]), a) for a in range(3)]
    data = np.empty_like(p)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        data[..., a] = r[b] * p[..., c] - r[c] * p[..., b]
    return DensityField("angular_momentum", data, f.t, f.sgrid)


def angular_momentum_density(f: fs.FieldSnapshot, origin) -> DensityField:
    """Total angular momentum density: orbital (r x P) plus spin, in the orbital array."""
    total = orbital_angular_momentum_density(f, origin).data
    total += spin_angular_momentum_density(f).data
    return DensityField("angular_momentum", total, f.t, f.sgrid)


@dataclass(frozen=True)
class PhotonWaveFields:
    """Pure-helicity comparison wave functions F and psi (see module docs).

    psi is kept; F = Re E+ + i lambda Re B+ is formed from the snapshot's
    ``E_plus`` and ``B_plus`` on each access.
    """

    helicity: int
    psi: np.ndarray
    E_plus: np.ndarray
    B_plus: np.ndarray
    t: float
    grid: SpatialGrid

    def F_planes(self, g=slice(None)):
        """F on the x-planes ``g``, in a fresh C-ordered array."""
        e_plus = self.E_plus[g]
        F = np.empty(e_plus.shape, np.complex128)
        np.copyto(F.real, e_plus.real)
        np.multiply(self.helicity, self.B_plus[g].real, out=F.imag)
        return F

    @property
    def F(self):
        """F on the whole grid, formed read-only on each access and not kept."""
        return _read_only(self.F_planes())


def photon_wave_fields(f: fs.FieldSnapshot) -> PhotonWaveFields:
    """psi = Omega^{1/2} A+ and the real fields E and B behind F, kept per snapshot.

    The helicity is the snapshot spectrum's.
    """

    def build():
        lam = f.spectrum.pure_helicity()
        if lam is None:
            raise ValueError("mixed-helicity spectrum: F and psi need a pure helicity")
        b_plus = f.B_plus  # transformed before psi
        return PhotonWaveFields(helicity=lam, psi=_read_only(f.psi), E_plus=f.E_plus,
                                B_plus=b_plus, t=f.t, grid=f.sgrid)

    return fs._memo(f, "_wave_fields", build)


def _squared_norm(planes, shape):
    """|v|^2 of a complex (nx, ny, nz, 3) field v, C-ordered ``shape`` (nx, ny, nz).

    ``planes(g)`` gives v on the x-planes g, and |v| is formed one such group
    at a time.  The components add as ``(a_x + a_y) + a_z``, the order of a
    sum over the trailing axis, without its strided reduction.
    """
    out = np.empty(shape)

    def fill(g):
        a = np.abs(planes(g))
        np.square(a, out=a)
        np.add(a[..., 0], a[..., 1], out=out[g])
        np.add(out[g], a[..., 2], out=out[g])

    _in_plane_groups(fill, shape)
    return out


def bb_energy_density(wf: PhotonWaveFields) -> DensityField:
    """|F|^2: the energy-density reading of the first wave function."""
    return DensityField("bb_energy", _squared_norm(wf.F_planes, wf.psi.shape[:-1]), wf.t, wf.grid)


def lp_number_density(wf: PhotonWaveFields) -> DensityField:
    """|psi|^2: the number-density reading of the second wave function."""
    psi = wf.psi
    return DensityField("lp_number", _squared_norm(lambda g: psi[g], psi.shape[:-1]), wf.t,
                        wf.grid)


@dataclass(frozen=True)
class DensityKind:
    """How ``run`` and ``export-slice`` build an output kind and name its components."""

    build: Callable[[fs.FieldSnapshot], DensityField]
    labels: str = ""  # components of a vector kind, in summaries and CSV headers
    pure_helicity: bool = False  # F and psi exist for one helicity only
    # the snapshot intermediates it reads (``field_synthesis._memo`` keys and kept
    # fields), which ``run`` drops after their last requested reader
    reads: tuple[str, ...] = ()


_WAVE_READS = ("_wave_fields", "B_plus", "psi")

# The builders look each density function up in this module when they run,
# so a rebound module attribute (a tracer's wrapper, say) is the one called.
# The box center is the reference point of the orbital angular momentum.
# ``run`` builds a time's kinds in this order, which holds the least at once: the
# kinds that read P, then rho and |E+|^2, then the wave fields' kinds (B+ and psi),
# and last the current, which keeps only B+ once psi has gone.
DENSITY_TABLE = {
    "momentum": DensityKind(lambda f: momentum_density(f), "xyz", reads=("_momentum",)),
    "angular_momentum": DensityKind(lambda f: angular_momentum_density(f, (0, 0, 0)), "xyz",
                                    reads=("_momentum",)),
    "four_momentum": DensityKind(lambda f: four_momentum_density(f), "txyz",
                                 reads=("_energy", "_momentum")),
    "number": DensityKind(lambda f: number_density(f)),
    "energy": DensityKind(lambda f: energy_density(f), reads=("_energy",)),
    "bb_energy": DensityKind(lambda f: bb_energy_density(photon_wave_fields(f)), "", True,
                             _WAVE_READS),
    "lp_number": DensityKind(lambda f: lp_number_density(photon_wave_fields(f)), "", True,
                             _WAVE_READS),
    "current": DensityKind(lambda f: photon_current(f), "xyz", reads=("B_plus",)),
}
DENSITY_KINDS = frozenset(DENSITY_TABLE)
