"""The acceptance check registry: desk fixtures, checks, negative controls, selftest.

The same check functions back ``photonlab selftest`` and the acceptance test
suite, so the command line and pytest always agree on what passing means.
Checks are written against desk-scale fixtures (64^3 spectral grids,
collinear 1x1x4096 and 1x1x64 lines, small quadrature sources) sized so
the whole registry completes in well under two minutes on a laptop.

A check returns its metrics; its name is given once, in
:data:`ACCEPTANCE_CHECKS` or :data:`CONTROL_CHECKS`.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import __version__, densities, field_synthesis, observables, slabs
from .config import DEFAULT_TOLERANCES
from .field_synthesis import FieldSnapshot, synthesize
from .fock_algebra import (FockVector, ModeSet, apply_annihilate, apply_create,
                           commutator_expectation, inner_product, n_photon_state, vacuum)
from .mode_space import (HELICITIES, PhotonSpectrum, SpatialGrid, WaveVectorGrid, evolve,
                         gaussian_spectrum, leading, normalize, scalar_product,
                         spectral_summary, trailing)
from .retarded_solver import (SourceCurrent, gauge_residual, gaussian_dipole_source,
                              retarded_potential, uniform_ball_source)

# ---------------------------------------------------------------------------
# Check bookkeeping


@dataclass(frozen=True)
class Metric:
    """One named quantity compared against a threshold."""

    label: str
    value: float
    threshold: float
    op: str = "<="  # "<=" or ">"

    @property
    def ok(self) -> bool:
        if self.op == "<=":
            return bool(self.value <= self.threshold)
        if self.op == ">":
            return bool(self.value > self.threshold)
        raise ValueError(f"unknown comparison op: {self.op}")

    def render(self) -> str:
        return f"{self.label}={self.value:.3e}{self.op}{self.threshold:.1e}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    metrics: tuple[Metric, ...]

    @property
    def ok(self) -> bool:
        return all(metric.ok for metric in self.metrics)

    def failed_names(self) -> list[str]:
        """``check:metric`` for each failing metric."""
        return [f"{self.name}:{metric.label}" for metric in self.metrics if not metric.ok]

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        rendered = ", ".join(metric.render() for metric in self.metrics)
        return f"{status} {self.name}: {rendered}"


# ---------------------------------------------------------------------------
# Desk-scale fixtures, cached so the registry and the test-suite share work


@lru_cache(maxsize=None)
def desk_grid() -> WaveVectorGrid:
    return WaveVectorGrid.centered((64, 64, 64), (0.5, 0.5, 0.5))


@lru_cache(maxsize=None)
def desk_spatial() -> SpatialGrid:
    return SpatialGrid.paired(desk_grid())


@lru_cache(maxsize=None)
def desk_packet():
    """Collimated single-photon packet used by most field checks."""
    return gaussian_spectrum(desk_grid(), (0.0, 0.0, 10.0), 1.0, (1.0, 0.0))


@lru_cache(maxsize=None)
def desk_snapshot() -> FieldSnapshot:
    return synthesize(desk_packet(), desk_spatial(), 0.0)


@lru_cache(maxsize=None)
def transport_packet():
    """Slightly tighter collimation so the centroid speed clears 0.99c.

    A packet with sigma/|k0| = 0.1 has mean direction cosine exactly
    1 - 3 sigma^2 / (3 |k0|^2) = 0.99, i.e. it sits *on* the 1%-of-c
    boundary; sigma = 0.9 moves the expected speed to ~0.992c.
    """
    return gaussian_spectrum(desk_grid(), (0.0, 0.0, 10.0), 0.9, (1.0, 0.0))


@lru_cache(maxsize=None)
def twisted_packet(helicity: int, ell: int) -> PhotonSpectrum:
    """c_lambda = (k_x + i sgn(ell) k_y)^|ell| g(k) in one helicity, normalized.

    g is the desk packet's Gaussian (k0 = 10 z, sigma = 1).  Near the +z
    pole the basis vector of helicity lambda carries the vortex
    exp(-i lambda phi) and spin lambda, which cancel in J_z, so J_z = ell
    per photon; the twist vanishes on the pole line, where the basis is not
    smooth.
    """
    grid = desk_grid()
    k = grid.k_vectors
    c = np.zeros((2,) + grid.n_per_axis, np.complex128)
    c[HELICITIES.index(helicity)] = (k[..., 0] + 1j * np.sign(ell) * k[..., 1]) ** abs(ell)
    c *= desk_packet().c[0]
    return normalize(PhotonSpectrum(grid, c))


@lru_cache(maxsize=None)
def collinear_pair():
    grid = WaveVectorGrid.collinear(4096, 0.02)
    packet = gaussian_spectrum(grid, (0.0, 0.0, 10.0), 1.0, (1.0, 0.0))
    return grid, packet


@lru_cache(maxsize=None)
def broadband_packet(n: int, delta_k: float):
    """Off-axis broadband packet for localization diagnostics.

    The mean wave vector points along +x; packets collimated along the
    helicity-basis pole axis (+z) pick up a basis phase vortex whose slow
    transverse tails make far percentiles box-sensitive, so the
    box-independence comparison deliberately avoids that axis.
    """
    grid = WaveVectorGrid.centered((n, n, n), (delta_k,) * 3)
    spatial = SpatialGrid.paired(grid)
    packet = gaussian_spectrum(grid, (10.0, 0.0, 0.0), 1.8, (1.0, 0.0))
    return grid, spatial, packet


#: (k_z = omega, A+ amplitude) of the two modes of :func:`two_mode_line`
TWO_MODES = ((2.0, 1.0), (8.0, 0.5))


@lru_cache(maxsize=None)
def two_mode_line() -> tuple[PhotonSpectrum, SpatialGrid]:
    """Helicity +1 modes of :data:`TWO_MODES` on the 64-mode line, with its spatial grid.

    c = |A| sqrt(omega) / g, not normalized; the number density dips below zero.
    """
    grid = WaveVectorGrid.collinear(64, 0.5)
    c = np.zeros((2,) + grid.n_per_axis, np.complex128)
    for k_z, amplitude in TWO_MODES:
        index = round((k_z - grid.k_min[2]) / grid.delta_k[2])
        c[HELICITIES.index(1), 0, 0, index] = amplitude * math.sqrt(k_z) / grid.cell_weight
    return PhotonSpectrum(grid, c), SpatialGrid.paired(grid)


@lru_cache(maxsize=None)
def dipole_source() -> SourceCurrent:
    """Conserved oscillating dipole for the quadrature-solver checks."""
    return gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.352, 0.08, 37, t0=-1.2, delta_t=0.04, n_times=176
    )


# ---------------------------------------------------------------------------
# Acceptance checks (the numbered criteria of the desk-scale suite)


def check_fock_identities() -> tuple[Metric, ...]:
    modes = ModeSet(3, n_max=14)
    worst_number = 0.0
    worst_raise = 0.0
    worst_commutator = 0.0
    for n in range(11):
        state = n_photon_state(modes, 0, n)
        lowered = apply_annihilate(state, 0)
        worst_number = max(worst_number, abs(inner_product(lowered, lowered) - n))
        raised = apply_create(state, 0)
        worst_raise = max(worst_raise, abs(inner_product(raised, raised) - (n + 1)))
        worst_commutator = max(
            worst_commutator, abs(commutator_expectation(state, 0) - 1.0)
        )
    tol = DEFAULT_TOLERANCES["fock_identity"]
    return (
        Metric("number_err", worst_number, tol),
        Metric("raised_err", worst_raise, tol),
        Metric("commutator_err", worst_commutator, tol),
    )


def _offdiag_partners():
    """Four spectra g paired with the desk packet f for the off-diagonal number check.

    f translated by (0.5, 0, 0), two packets at k0 = (0, 1, 10) (the second
    with both helicities) and f evolved by 0.7: real and complex overlaps
    <f|g> between about 0.5 and 0.9 in size.
    """
    packet, grid = desk_packet(), desk_grid()
    shift = np.exp(-1j * 0.5 * grid.k_vectors[..., 0])
    return (
        PhotonSpectrum(grid, packet.c * shift),
        gaussian_spectrum(grid, (0.0, 1.0, 10.0), 1.0, (1.0, 0.0)),
        gaussian_spectrum(grid, (0.0, 1.0, 10.0), 1.0, (0.6, 0.8)),
        evolve(packet, 0.7),
    )


def check_number_norm() -> tuple[Metric, ...]:
    """The diagonal: the norm of the desk packet at 11 times.  Off the
    diagonal: the integral of the cross density against <f|g>."""
    packet = desk_packet()
    spatial = desk_spatial()
    tol = DEFAULT_TOLERANCES["number_norm"]
    worst = 0.0
    step = 0.37
    state = packet
    for index in range(11):
        if index:
            state = evolve(state, step)
        snap = desk_snapshot() if index == 0 else synthesize(state, spatial, 0.0)
        total = densities.number_density(snap).integral()
        worst = max(worst, abs(total - 1.0))
    offdiag = 0.0
    for partner in _offdiag_partners():
        rho = densities.cross_number_density(desk_snapshot(), synthesize(partner, spatial, 0.0))
        overlap = scalar_product(packet, partner)
        offdiag = max(offdiag, abs(spatial.cell_volume * np.sum(rho) - overlap) / abs(overlap))
    return (Metric("norm_drift", worst, tol), Metric("offdiag_err", offdiag, tol))


def _direction_oracle(mass):
    """k-space mode sum of ``mass`` times the unit wave vector (zero on the excluded mode)."""
    grid = desk_grid()
    omega = np.where(grid.exclusion_mask, 1.0, grid.omega)
    # C-ordered, so the einsum sums the modes in one fixed order
    unit = np.divide(grid.k_vectors, omega[..., None], order="C")
    direction = np.where(grid.exclusion_mask[..., None], 0.0, unit)
    return grid.cell_weight * np.einsum("ijk,ijkx->x", mass, direction)


def check_current_integral() -> tuple[Metric, ...]:
    snap = desk_snapshot()
    oracle = _direction_oracle(np.sum(np.abs(desk_packet().c) ** 2, axis=0))
    measured = densities.photon_current(snap).integral()
    scale = float(np.linalg.norm(oracle))
    err = float(np.linalg.norm(np.asarray(measured) - oracle)) / scale
    tol = DEFAULT_TOLERANCES["current_match"]
    return (Metric("rel_err", err, tol),)


def check_energy_momentum() -> tuple[Metric, ...]:
    snap = desk_snapshot()
    summary = spectral_summary(desk_packet())
    energy = densities.energy_density(snap).integral()
    momentum = np.asarray(densities.momentum_density(snap).integral())
    energy_err = abs(energy - summary.energy) / abs(summary.energy)
    momentum_oracle = np.asarray(summary.momentum)
    momentum_err = float(
        np.linalg.norm(momentum - momentum_oracle) / np.linalg.norm(momentum_oracle)
    )
    return (
        Metric("energy_rel_err", energy_err, DEFAULT_TOLERANCES["energy_match"]),
        Metric("momentum_rel_err", momentum_err, DEFAULT_TOLERANCES["momentum_match"]),
    )


def check_continuity() -> tuple[Metric, ...]:
    snap = desk_snapshot()
    omega0 = 10.0
    residual = observables.continuity_residual(snap, 1e-3 / omega0)
    factors = (2e-2, 4e-2, 8e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coarse = [observables.continuity_residual(snap, f / omega0) for f in factors]
    slope = float(np.polyfit(np.log(factors), np.log(coarse), 1)[0])
    return (
        Metric("residual", residual, DEFAULT_TOLERANCES["continuity"]),
        Metric("slope_dev", abs(slope - 2.0), 0.2),
    )


def check_helicity_spin() -> tuple[Metric, ...]:
    """The desk packet and its helicity -1 mirror; each metric is the worse of the two."""
    spatial = desk_spatial()
    # the helicity blocks swapped: the desk packet with helicity_weights = (0, 1)
    mirror = PhotonSpectrum(desk_grid(), desk_packet().c[::-1])
    helicity_err = spin_err = 0.0
    for snap in (desk_snapshot(), synthesize(mirror, spatial, 0.0)):
        helicity_total = float(np.sum(densities.helicity_density(snap)) * spatial.cell_volume)
        helicity_err = max(helicity_err,
                           abs(helicity_total - spectral_summary(snap.spectrum).helicity))
        mass = np.abs(snap.spectrum.c) ** 2
        spin_oracle = _direction_oracle(mass[0] - mass[1])
        spin_total = np.asarray(densities.spin_angular_momentum_density(snap).integral())
        spin_err = max(spin_err, float(np.max(np.abs(spin_total - spin_oracle))))
    return (
        Metric("helicity_err", helicity_err, DEFAULT_TOLERANCES["helicity"]),
        Metric("spin_err", spin_err, DEFAULT_TOLERANCES["spin_match"]),
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
    engine = field_synthesis.spectral_engine(grid, sgrid)
    shift = np.exp(-1j * kz * float(dt))
    shifted = engine.to_field(trailing(leading(engine.amplitude(s)) * shift, 1))
    scale = float(np.max(np.abs(evolved))) or 1.0
    return float(np.max(np.abs(evolved - shifted))) / scale


def check_transport() -> tuple[Metric, ...]:
    packet, spatial = transport_packet(), desk_spatial()
    rho = [densities.number_density_at(packet, spatial, t) for t in (0.0, 2.0)]
    speed = observables.transport_speed(*rho)
    _, packet_line = collinear_pair()
    residual = translation_check_1d(packet_line, 5.0)
    return (
        Metric("speed_dev", abs(speed - 1.0), DEFAULT_TOLERANCES["transport_speed"]),
        Metric("translation_residual", residual, DEFAULT_TOLERANCES["translation"]),
    )


def check_omega_identity() -> tuple[Metric, ...]:
    snap = desk_snapshot()
    grid, spatial = desk_grid(), desk_spatial()
    F, psi = densities.photon_wave_fields(snap)
    half_power = densities.apply_frequency_operator(psi, grid, spatial, 0.5)
    predicted = 1j * half_power
    scale = float(np.max(np.abs(F)))
    err = float(np.max(np.abs(F - predicted))) / scale
    return (Metric("rel_err", err, DEFAULT_TOLERANCES["omega_identity"]),)


def _fock_sum(u: FockVector, v: FockVector, scale: float) -> FockVector:
    """u + scale v."""
    amplitudes = dict(u.amplitudes)
    for occ, amp in v.amplitudes.items():
        amplitudes[occ] = amplitudes.get(occ, 0.0) + scale * amp
    return FockVector(u.modes, amplitudes)


def _gauge_pair(r: float):
    """N_L + N_S, <psi|psi> and (a_L + a_S) psi of psi = (a_L^dag - r a_S^dag) a_T^dag |0>.

    The modes (T, L, S) have metric signs (+1, +1, -1); N_m = metric_sign[m] <a_m psi|a_m psi>.
    """
    modes = ModeSet(3, metric_sign=(1, 1, -1))
    one = apply_create(vacuum(modes), 0)
    psi = _fock_sum(apply_create(one, 1), apply_create(one, 2), -r)
    lowered = [apply_annihilate(psi, m) for m in (1, 2)]
    numbers = sum(modes.metric_sign[m] * inner_product(v, v) for m, v in zip((1, 2), lowered))
    return numbers, inner_product(psi, psi), _fock_sum(*lowered, 1.0)


def check_cancellation() -> tuple[Metric, ...]:
    """The matched pair (r = 1) cancels in all three of :func:`_gauge_pair`; r = 1.1 must not."""
    numbers, norm, annihilated = _gauge_pair(1.0)
    matched = max(abs(numbers), abs(norm), math.sqrt(annihilated.plain_norm_sq()))
    mismatched = abs(_gauge_pair(1.1)[0])
    return (
        Metric("matched_residual", matched, DEFAULT_TOLERANCES["cancellation"]),
        Metric("mismatch_detected", mismatched, 0.0, op=">"),
    )


def _coulomb_error(ball: SourceCurrent, charge: float, radius: float) -> float:
    directions = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0] / np.sqrt(3.0),
            [-1.0, 1.0, 0.0] / np.sqrt(2.0),
        ]
    )
    field = retarded_potential(ball, radius * directions, 0.0)
    exact = charge / (4.0 * math.pi * radius)
    return float(np.max(np.abs(field.phi_over_c[0] / exact - 1.0)))


def _dipole_gauge_residual(src: SourceCurrent, h: float, ht: float) -> float:
    """Lorenz-gauge residual on a 5^3 stencil of spacing ``h`` about (0, 0, 3),
    at five times ``ht`` apart about t = 5.8."""
    center = (0.0, 0.0, 3.0)
    origin = tuple(c - 2.0 * h for c in center)
    grid = SpatialGrid((5, 5, 5), (h, h, h), origin)
    times = 5.8 + ht * (np.arange(5) - 2)
    return gauge_residual(retarded_potential(src, grid, times))


def _with_edit(src: SourceCurrent, column: np.ndarray) -> SourceCurrent:
    """``src`` plus one rank: the coefficient ``column`` times a constant row."""
    row = np.broadcast_to((1e3, 7e2, 7e2, 7e2), src.profiles[:1].shape)
    return replace(src, time_coefficients=np.hstack([src.time_coefficients, column[:, None]]),
                   profiles=np.concatenate([src.profiles, row]))


def _causality_probe() -> tuple[float, bool]:
    src = gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.4, 0.2, 9, t0=0.0, delta_t=0.5, n_times=8
    )
    last = np.zeros(src.n_times)
    last[-1] = 1.0
    edited = _with_edit(src, last)
    point = np.array([[3.0, 0.0, 0.0]])
    baseline = retarded_potential(src, point, 4.5)
    perturbed = retarded_potential(edited, point, 4.5)
    outside_cone = float(
        max(
            np.abs(baseline.phi_over_c - perturbed.phi_over_c).max(),
            np.abs(baseline.A - perturbed.A).max(),
        )
    )
    later_a = retarded_potential(src, point, 5.4)
    later_b = retarded_potential(edited, point, 5.4)
    visible = not np.array_equal(later_a.phi_over_c, later_b.phi_over_c)
    return outside_cone, visible


def check_retarded_solver() -> tuple[Metric, ...]:
    charge, radius = 2.5, 1.0
    ball = uniform_ball_source(charge, radius, 2.2 * radius / 15, 15)
    coulomb_err = _coulomb_error(ball, charge, 3.0 * radius)

    src = dipole_source()
    conservation = src.conservation_residual()
    coarse = _dipole_gauge_residual(src, 0.5, 0.2)
    fine = _dipole_gauge_residual(src, 0.25, 0.1)
    improvement = coarse / fine if fine > 0 else math.inf

    outside_cone, visible = _causality_probe()
    return (
        Metric("coulomb_rel_err", coulomb_err, DEFAULT_TOLERANCES["coulomb"]),
        Metric("source_conservation", conservation, 1e-3),
        Metric("gauge_residual", coarse, DEFAULT_TOLERANCES["gauge"]),
        Metric("refinement_gain", improvement, 2.0, op=">"),
        Metric("causality_leak", outside_cone, 0.0),
        Metric("edit_visible_in_cone", 1.0 if visible else 0.0, 0.0, op=">"),
    )


def check_angular_momentum() -> tuple[Metric, ...]:
    """Twisted packets carry J_z = ell N about the origin, and moving the
    reference point by d changes J by -d x P (orbital plus spin)."""
    spatial = desk_spatial()
    shift = np.array((0.5, -0.3, 0.0))
    jz_err = origin_err = 0.0
    for helicity, ell in ((1, 1), (1, 2), (-1, -1), (-1, -2)):
        snap = synthesize(twisted_packet(helicity, ell), spatial, 0.0)
        number = densities.number_density(snap).integral()
        about_origin = densities.angular_momentum_density(snap, (0.0, 0.0, 0.0)).integral()
        about_shift = densities.angular_momentum_density(snap, shift).integral()
        momentum = densities.momentum_density(snap).integral()
        jz_err = max(jz_err, abs(about_origin[2] - ell * number))
        moved = about_shift - about_origin + np.cross(shift, momentum)
        origin_err = max(origin_err, float(np.max(np.abs(moved))))
    return (Metric("jz_err", jz_err, 1e-4), Metric("origin_err", origin_err, 1e-9))


def check_localization() -> tuple[Metric, ...]:
    kinds = ("number", "bb_energy", "lp_number")
    widths = []
    for n, delta_k in ((64, 0.5), (80, 0.4)):
        grid, spatial, packet = broadband_packet(n, delta_k)
        snap = synthesize(packet, spatial, 0.0)
        fields = [densities.DENSITY_TABLE[kind].build(snap) for kind in kinds]
        widths.append(observables.localization_widths(fields))
    metrics = []
    for kind in kinds:
        a, b = widths[0][kind], widths[1][kind]
        finite = math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0
        spread = abs(a - b) / a if finite else math.inf
        metrics.append(Metric(f"{kind}_box_spread", spread, 0.10))
    return tuple(metrics)


def check_negative_density() -> tuple[Metric, ...]:
    """Two parallel modes give a number density below zero, as its closed form says.

    On :func:`two_mode_line`, with omega_1 = 2, omega_2 = 8, a = 1, b = 0.5
    and d the phase difference of the two modes,
    rho = omega_1 a^2 + omega_2 b^2 + a b (omega_1 + omega_2) cos d runs from
    (a - b)(omega_1 a - omega_2 b) = -1 at d = pi to
    (a + b)(omega_1 a + omega_2 b) = 9 at d = 0.  At t = 0 and t = 4 dz the
    lattice samples d in steps of pi/8, so both extremes are lattice values.
    The metrics are the relative errors of the lattice extremes; the
    negativity itself is measured, never gated.
    """
    spectrum, spatial = two_mode_line()
    (omega_1, a), (omega_2, b) = TWO_MODES
    lowest = (a - b) * (omega_1 * a - omega_2 * b)
    highest = (a + b) * (omega_1 * a + omega_2 * b)
    min_err = max_err = 0.0
    for t in (0.0, 4.0 * spatial.delta_x[2]):
        rho = densities.number_density_at(spectrum, spatial, t).data
        min_err = max(min_err, abs(float(rho.min()) - lowest) / abs(lowest))
        max_err = max(max_err, abs(float(rho.max()) - highest) / abs(highest))
    return (Metric("min_err", min_err, 1e-12), Metric("max_err", max_err, 1e-12))


ACCEPTANCE_CHECKS: tuple[tuple[str, object], ...] = (
    ("fock-identities", check_fock_identities),
    ("number-norm", check_number_norm),
    ("current-integral", check_current_integral),
    ("energy-momentum", check_energy_momentum),
    ("continuity", check_continuity),
    ("helicity-spin", check_helicity_spin),
    ("transport", check_transport),
    ("omega-identity", check_omega_identity),
    ("longitudinal-cancellation", check_cancellation),
    ("retarded-solver", check_retarded_solver),
    ("localization", check_localization),
    ("angular-momentum", check_angular_momentum),
    ("negative-density", check_negative_density),
)


# ---------------------------------------------------------------------------
# Negative controls (deliberate fault injection, selftest only)


def control_corrupted_convention() -> tuple[Metric, ...]:
    """Flip the mode-sum weight and require the number norm to break.

    Scales the per-mode weight by (2 pi)^{3/2}, i.e. the discrepancy between
    the discrete-sum convention used here and a symmetric-Fourier-measure
    convention; the photon-number normalization check must then fail loudly,
    proving the suite would catch a silent convention drift.
    """
    packet = desk_packet()
    weight = (2.0 * math.pi) ** 1.5 * desk_grid().cell_weight
    engine = field_synthesis.spectral_engine(desk_grid(), desk_spatial())
    snap = engine.snapshot(packet, engine._weighted_amplitude(packet, weight), 0.0)
    total = densities.number_density(snap).integral()
    drift = abs(total - 1.0)
    return (Metric("norm_drift_detected", drift, DEFAULT_TOLERANCES["number_norm"], op=">"),)


def control_nonconserved_source() -> tuple[Metric, ...]:
    """A current deficit must blow up conservation and gauge residuals."""
    src = dipole_source()
    broken = replace(src, profiles=src.profiles * (1.0, 0.5, 0.5, 0.5))
    conservation = broken.conservation_residual()
    gauge = _dipole_gauge_residual(broken, 0.5, 0.2)
    return (
        Metric("conservation_detected", conservation, 0.1, op=">"),
        Metric("gauge_detected", gauge, 0.1, op=">"),
    )


CONTROL_CHECKS: tuple[tuple[str, object], ...] = (
    ("control-corrupted-convention", control_corrupted_convention),
    ("control-nonconserved-source", control_nonconserved_source),
)


def self_test() -> list[str]:
    """Run every acceptance check plus the negative controls, one stdout line each.

    Returns each failing ``check:metric`` (``check:raised`` for a check that
    raised); an empty list means every check passed.
    """
    started = time.perf_counter()
    print(
        f"photonlab {__version__} selftest: "
        f"number-density sign sigma = {densities.SIGMA:+d} (constant), "
        f"threads = {slabs._workers()}"
    )
    failed = []
    for name, fn in ACCEPTANCE_CHECKS + CONTROL_CHECKS:
        tick = time.perf_counter()
        try:
            result = CheckResult(name, fn())
        except Exception as exc:  # surface, then keep going
            failed.append(f"{name}:raised")
            print(f"FAIL {name}: raised {type(exc).__name__}: {exc}")
            continue
        failed += result.failed_names()
        print(f"{result.line()}  [{time.perf_counter() - tick:.1f}s]")
    print(
        f"{'FAILED' if failed else 'OK'} "
        f"({len(ACCEPTANCE_CHECKS)} checks, {len(CONTROL_CHECKS)} controls, "
        f"{time.perf_counter() - started:.1f}s)"
    )
    return failed
