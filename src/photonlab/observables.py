"""Expectation values and diagnostics computed from the densities.

This module works in real space: it reduces densities, forms the number
density of a snapshot's spectrum at other times
(:func:`~photonlab.densities.number_density_at`, no second snapshot), and
takes the spectral divergence of the continuity residual from the
snapshot's engine (:meth:`~photonlab.field_synthesis.SpectralEngine.divergence`).

Positions on the periodic box are always taken as circular means (the box is
mapped to angles per axis) so that centroids and displacements are free of
wraparound bias; displacements use the shortest wrapped difference.  A
density whose total mass is not finite is rejected with ``ValueError``.

Containment radii (the 90% guard band of :func:`transport_speed`, the 99%
widths of :func:`localization_widths`) are the distance of the first point,
in ascending distance from the centroid, at which the cumulative mass
reaches the target (see :func:`_containment_radius`).

:func:`expectations` holds an array only while it reduces it: the
four-momentum density and the H and P kept for it go once integrated
(``field_synthesis._forget`` of what the kind ``reads``).  It forms |F|^2
before the continuity residual, so the current reuses its B+;
:func:`continuity_residual` forms J, drops B+, takes div J, frees J and only
then forms the number densities at t +/- dt.  |psi|^2 comes after and keeps
nothing, so B+ and psi are never held together.  The snapshot goes before
the transport probe, whose density is formed without one, and the widths
read the densities alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import densities as dn
from . import field_synthesis as fs
from .mode_space import PhotonSpectrum, SpatialGrid, broadcast_along, l2_norm

#: guard band: a packet's 90% containment radius must stay below this fraction of the box
GUARD_FRACTION = 0.25


@dataclass(frozen=True)
class ObservableReport:
    number: float
    energy: float
    momentum: tuple[float, float, float]
    helicity: float
    mean_position: tuple[float, float, float]
    continuity_residual_rel: float
    group_speed: float
    localization_widths: dict[str, float] = field(default_factory=dict)

    def as_mapping(self):
        """Flat, deterministically ordered key/value view for export."""
        out = {
            "number": self.number,
            "energy": self.energy,
            "momentum_x": self.momentum[0],
            "momentum_y": self.momentum[1],
            "momentum_z": self.momentum[2],
            "helicity": self.helicity,
            "mean_position_x": self.mean_position[0],
            "mean_position_y": self.mean_position[1],
            "mean_position_z": self.mean_position[2],
            "continuity_residual_rel": self.continuity_residual_rel,
            "group_speed": self.group_speed,
        }
        for kind in sorted(self.localization_widths):
            out[f"width_{kind}"] = self.localization_widths[kind]
        return out


def _total_mass(weights) -> float:
    """Sum of ``weights``; a non-finite sum raises instead of spreading NaN."""
    total = float(np.sum(weights))
    if not np.isfinite(total):
        raise ValueError(f"density has non-finite total mass ({total})")
    return total


def _circular_mean(weights, sgrid: SpatialGrid):
    """Centroid of a (possibly signed) weight field on the periodic box."""
    total = _total_mass(weights)
    if total == 0.0:
        raise ValueError("cannot locate centroid of a zero-mass field")
    pos = []
    for a in range(3):
        length = sgrid.box_lengths[a]
        theta = 2.0 * np.pi * (sgrid.axes[a] - sgrid.origin[a]) / length
        z = np.sum(weights * broadcast_along(np.exp(1j * theta), a)) / total
        ang = float(np.angle(z)) % (2.0 * np.pi)
        pos.append(sgrid.origin[a] + length * ang / (2.0 * np.pi))
    return tuple(pos)


def _wrap(d, length):
    """Shortest signed difference on a periodic axis of ``length``."""
    return (d + 0.5 * length) % length - 0.5 * length


def _circular_distances(sgrid: SpatialGrid, center):
    """Shortest wrapped distance of every grid point from ``center``."""
    d2 = np.zeros(sgrid.n_per_axis)
    for a in range(3):
        d = _wrap(sgrid.axes[a] - center[a], sgrid.box_lengths[a])
        d2 = d2 + broadcast_along(d, a) ** 2
    return np.sqrt(d2)


def continuity_residual(snap: fs.FieldSnapshot, dt: float) -> float:
    """|| d_t rho + div J ||_2 / || div J ||_2 about the time of ``snap``.

    d_t rho is a centered difference of the number densities at t +/- dt
    (exact spectral evolution of the snapshot's spectrum), div J is
    spectral, so the residual isolates the O((omega dt)^2) differencing error.

    J is formed first, and the B+ kept for it is dropped once it is (what the
    current ``reads``; a later reader transforms it again).  div J and the
    norms J is read for come next, and J goes before the two number
    densities are formed with :func:`~photonlab.densities.number_density_at`,
    so no second snapshot stands beside ``snap``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    s, sgrid, t = snap.spectrum, snap.sgrid, snap.t
    omega_max = float(np.max(s.grid.omega))
    if dt * omega_max > 0.01:
        warnings.warn("dt too large for the continuity stencil (omega_max dt > 0.01)",
                      stacklevel=2)
    cur = dn.photon_current(snap).data
    fs._forget(snap, *dn.DENSITY_TABLE["current"].reads)
    div = snap.engine.divergence(cur)
    den = l2_norm(div)
    floor = 1e-12 * l2_norm(cur) * max(omega_max, 1.0)
    del cur
    rho_p = dn.number_density_at(s, sgrid, t + dt).data
    rho_m = dn.number_density_at(s, sgrid, t - dt).data
    drho = (rho_p - rho_m) / (2.0 * dt)
    num = l2_norm(drho + div)
    if den <= floor:
        return 0.0 if num <= floor else num / max(den, np.finfo(float).tiny)
    return num / den


def transport_speed(rho0: dn.DensityField, rho1: dn.DensityField) -> float:
    """Centroid speed |x(t1) - x(t0)| / (t1 - t0) of two number densities via circular means.

    The guard band uses the 90% containment radius about the centroid: the
    slow transverse tails of on-axis helicity packets (a consequence of the
    helicity-basis phase vortex around the k_z axis) make higher quantiles
    box-limited even for well-contained cores.
    """
    if rho1.t == rho0.t:
        raise ValueError("zero interval: t1 must differ from t0")
    sgrid = rho0.grid
    centers = []
    for rho in (rho0, rho1):
        c = _circular_mean(rho.data, sgrid)
        r90 = _containment_radius(rho.data, sgrid, c, 0.90)
        if r90 > GUARD_FRACTION * min(sgrid.box_lengths):
            raise ValueError("wraparound: packet leaves the guard band "
                             f"(r90={r90:.3g} at t={rho.t:.3g})")
        centers.append(c)
    disp = _wrap(np.subtract(centers[1], centers[0]), np.array(sgrid.box_lengths))
    return float(np.linalg.norm(disp) / abs(rho1.t - rho0.t))


def _containment_radius(data, sgrid, center, fraction):
    """Smallest circular radius about ``center`` containing ``fraction`` of the mass.

    Only the points that can matter are sorted: every point falls in the
    radial shell ``floor(dist / max(delta_x))``, and the candidates are the
    points of the shells up to the first whose cumulative shell mass
    (``np.bincount``) reaches the target, plus one shell of margin, or every
    point if their own cumulative mass never reaches it.  The shell index is
    monotone in ``dist``, so the candidates are a prefix of the ascending
    order and their cumulative sum is the full sort's, bit for bit (the
    margin shell absorbs the bincount's other summation order).  As with a
    full sort, the order among equal distances is unspecified; it can move
    the answer only when the target lies within roundoff of the cumulative
    mass at the end of a group of equal distances.
    """
    dist = _circular_distances(sgrid, center).ravel()
    w = data.ravel()
    total = _total_mass(w)
    if total <= 0:
        raise ValueError("density has non-positive total mass")
    target = fraction * total
    shell = (dist / max(sgrid.delta_x)).astype(np.intp)
    reach = np.cumsum(np.bincount(shell, weights=w))
    for limit in (_first_reaching(reach, target) + 1, reach.size):
        cand = np.flatnonzero(shell <= limit)
        d = dist[cand]
        order = np.argsort(d)
        cum = np.cumsum(w[cand][order])
        idx = _first_reaching(cum, target)
        if idx < cum.size or cand.size == dist.size:
            break
    idx = min(idx, cum.size - 1)
    return float(d[order[idx]])


def _first_reaching(cum, target) -> int:
    """Index of the first element of ``cum`` that is >= ``target``, else ``cum.size``.

    For a non-decreasing ``cum`` this is ``np.searchsorted(cum, target)``;
    a signed density's cumulative mass can cross the target more than once,
    and the first crossing is the one that counts.
    """
    reached = cum >= target
    return int(np.argmax(reached)) if reached.any() else cum.size


def negative_mass(rho: dn.DensityField) -> float:
    """cell volume * sum of max(-rho, 0): the mass of a scalar density below zero.

    The number density is not positive definite, so this measures how far
    it is from a probability density; numpy's own sum, no BLAS.
    """
    return float(rho.grid.cell_volume * np.sum(np.maximum(0.0, -rho.data)))


def localization_widths(fields) -> dict[str, float]:
    """99%-containment radius about each density's centroid, keyed by kind."""
    out = {}
    for f in fields:
        data = f.data if f.data.ndim == 3 else np.linalg.norm(f.data, axis=-1)
        center = _circular_mean(data, f.grid)
        out[f.kind] = _containment_radius(data, f.grid, center, 0.99)
    return out


def is_box_limited(width: float, sgrid: SpatialGrid) -> bool:
    """True when a containment radius reaches beyond the inscribed sphere."""
    return width >= 0.5 * min(sgrid.box_lengths)


def expectations(s: PhotonSpectrum, sgrid: SpatialGrid, t: float) -> ObservableReport:
    """Assemble the standard observable report at time t.

    All expectation values are density integrals (position from the number
    density via circular mean); the k-space sums are their independent cross
    checks, not inputs.  Wave-field widths are included for pure-helicity
    states.  The report keeps integrals, not arrays (see module docs).
    """
    norm = s.norm
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"expectations need a normalized spectrum, got norm {norm!r}")
    snap = fs.synthesize(s, sgrid, t)
    rho = dn.number_density(snap)
    number = float(rho.integral())
    integrals = dn.four_momentum_density(snap).integral()
    fs._forget(snap, *dn.DENSITY_TABLE["four_momentum"].reads)  # H and P: integrals only
    energy = float(integrals[0])
    momentum = tuple(float(v) for v in integrals[1:])
    helicity = float(np.sum(dn.helicity_density(snap)) * sgrid.cell_volume)
    mean_pos = _circular_mean(rho.data, sgrid)
    pure = s.pure_helicity() is not None
    fields = [rho, dn.bb_energy_density(snap)] if pure else [rho]  # the current reuses its B+

    omega_max = float(np.max(s.grid.omega))
    dt = 1e-3 / omega_max
    cont = continuity_residual(snap, dt)
    if pure:
        fields.append(dn.lp_number_density(snap))
    del snap  # the probe and the widths need no snapshot

    probe = 3.0 * max(sgrid.delta_x)
    speed = transport_speed(rho, dn.number_density_at(s, sgrid, t + probe))
    widths = localization_widths(fields)

    return ObservableReport(
        number=number,
        energy=energy,
        momentum=momentum,
        helicity=helicity,
        mean_position=mean_pos,
        continuity_residual_rel=cont,
        group_speed=speed,
        localization_widths=widths,
    )
