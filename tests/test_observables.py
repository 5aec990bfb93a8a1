"""Derived diagnostics: continuity, transport, localization, causality."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from photonlab import observables, registry
from photonlab.densities import (
    DensityField,
    bb_energy_density,
    lp_number_density,
    number_density,
    photon_current,
)
from photonlab.field_synthesis import SpatialGrid, spectral_engine, synthesize
from photonlab.mode_space import (
    PhotonSpectrum,
    WaveVectorGrid,
    circular_spectrum,
    gaussian_spectrum,
    single_mode_spectrum,
    spectral_summary,
)
from photonlab.observables import (
    continuity_residual,
    expectations,
    is_box_limited,
    localization_widths,
    transport_speed,
)


def lightcone_leak(rho0, rho1, radius: float) -> float:
    """Number-density mass of ``rho1`` outside the light cone of ``rho0``.

    ``rho0`` must hold at least 99.9% of its mass inside ``radius`` about its
    centroid; the leak is the mass beyond radius + c |t1 - t0| (distances
    wrapped on the periodic box).
    """
    sgrid = rho0.grid
    center = observables._circular_mean(rho0.data, sgrid)
    dist = observables._circular_distances(sgrid, center)
    total = float(np.sum(rho0.data)) * sgrid.cell_volume
    inside = float(np.sum(rho0.data[dist <= radius])) * sgrid.cell_volume
    if inside < 0.999 * total:
        raise ValueError("initial state is not concentrated in the given radius "
                         f"(contains {inside / total:.4f} of the mass)")
    outside = dist > radius + abs(rho1.t - rho0.t)
    return float(np.sum(rho1.data[outside])) * sgrid.cell_volume


def full_sort_radius(data, sgrid, center, fraction):
    """The containment radius from a full argsort of every distance (reference)."""
    dist = observables._circular_distances(sgrid, center).ravel()
    w = data.ravel()
    total = float(np.sum(w))
    order = np.argsort(dist)
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, fraction * total))
    idx = min(idx, dist.size - 1)
    return float(dist[order][idx])


def summed_product_divergence(vec, kgrid, sgrid):
    """The spectral divergence through the summed (n, n, n, 3) product (reference)."""
    engine = spectral_engine(kgrid, sgrid)
    coeffs = engine.to_spectrum(vec)
    div_coeffs = 1j * np.sum(kgrid.k_vectors * coeffs, axis=-1)
    return np.real(engine.to_field(div_coeffs))


# ---------------------------------------------------------------------------
# Continuity: residual size and second-order stencil convergence
#
# The packet's spectral tails must be well inside the grid coverage: a
# clipped tail leaves a small step-independent residual floor that masks the
# stencil convergence.


@pytest.fixture(scope="module")
def contained_pair():
    grid = WaveVectorGrid.centered((16, 16, 16), (0.9, 0.9, 0.9))
    spatial = SpatialGrid.paired(grid)
    packet = gaussian_spectrum(grid, (0.0, 0.0, 3.2), 0.55, (1.0, 0.0))
    return spatial, packet


def test_continuity_residual_is_small_at_fine_steps(contained_pair):
    spatial, packet = contained_pair
    omega_max = float(np.max(packet.grid.omega))
    residual = continuity_residual(synthesize(packet, spatial, 0.0), 1e-3 / omega_max)
    assert residual < 1e-7


def test_continuity_residual_scales_quadratically(contained_pair):
    spatial, packet = contained_pair
    omega_max = float(np.max(packet.grid.omega))
    factors = np.array([2e-2, 4e-2, 8e-2])
    snap = synthesize(packet, spatial, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        residuals = [continuity_residual(snap, f / omega_max) for f in factors]
    slope = np.polyfit(np.log(factors), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_clipped_spectral_tail_leaves_a_residual_floor(small_snapshot, small_packet):
    """The 12^3 packet is clipped at the coverage edge; the residual stops
    improving below a floor instead of following the dt^2 stencil error."""
    omega_max = float(np.max(small_packet.grid.omega))
    fine = continuity_residual(small_snapshot, 1e-4 / omega_max)
    finer = continuity_residual(small_snapshot, 1e-5 / omega_max)
    assert fine == pytest.approx(finer, rel=1e-3)
    assert fine > 1e-6


def test_continuity_rejects_nonpositive_step(small_snapshot):
    with pytest.raises(ValueError, match="dt"):
        continuity_residual(small_snapshot, 0.0)


def test_continuity_warns_on_coarse_step(small_snapshot):
    with pytest.warns(UserWarning, match="continuity stencil") as caught:
        continuity_residual(small_snapshot, 0.1)
    assert caught[0].filename == __file__  # the warning points at the caller


# ---------------------------------------------------------------------------
# Centroid transport


def _rho(packet, spatial, t):
    return number_density(synthesize(packet, spatial, t))


def test_collimated_packet_moves_near_light_speed(desk_spatial, desk_packet):
    speed = transport_speed(_rho(desk_packet, desk_spatial, 0.0), _rho(desk_packet, desk_spatial, 2.0))
    assert 0.97 < speed < 1.0


def test_transport_guard_detects_oversized_packets(small_spatial, small_packet):
    """The broad 12^3 packet overflows the quarter-box guard band."""
    with pytest.raises(ValueError, match="wraparound"):
        transport_speed(_rho(small_packet, small_spatial, 0.0), _rho(small_packet, small_spatial, 1.0))


def test_transport_rejects_zero_interval(desk_snapshot):
    rho = number_density(desk_snapshot)
    with pytest.raises(ValueError, match="interval"):
        transport_speed(rho, rho)


# ---------------------------------------------------------------------------
# Localization widths and box-size sensitivity


def test_widths_are_finite_and_positive(desk_spatial, desk_snapshot):
    widths = localization_widths((number_density(desk_snapshot),))
    width = widths["number"]
    assert np.isfinite(width) and width > 0.0
    assert not is_box_limited(width, desk_spatial)


def test_negative_mass_of_a_non_negative_density_is_zero(desk_snapshot):
    assert observables.negative_mass(lp_number_density(desk_snapshot)) == 0.0


def test_negative_mass_of_the_two_mode_line_is_its_mass_below_zero():
    """The negative-density check's line dips to rho = -1, so mass lies below zero."""
    spectrum, spatial = registry.two_mode_line()
    rho = number_density(synthesize(spectrum, spatial, 0.0))
    below = -spatial.cell_volume * float(np.sum(rho.data[rho.data < 0.0]))
    assert below > 0.0
    assert observables.negative_mass(rho) == pytest.approx(below, rel=1e-14)


def test_uniform_density_is_box_limited():
    grid = WaveVectorGrid.centered((6, 6, 6), (1.3, 1.3, 1.3))
    spatial = SpatialGrid.paired(grid)
    state = single_mode_spectrum(grid, (4, 2, 5), +1)
    rho = number_density(synthesize(state, spatial, 0.0))
    widths = localization_widths((rho,))
    assert is_box_limited(widths["number"], spatial)


# ---------------------------------------------------------------------------
# The smooth circular packet against the desk packet's pole-line vortex


def _centroid_in_cells(spectrum, sgrid):
    """Circular-mean centroid of the t = 0 number density, in cells from the origin."""
    rho = number_density(synthesize(spectrum, sgrid, 0.0))
    return np.array(observables._circular_mean(rho.data, sgrid)) / np.array(sgrid.delta_x)


def _without_the_pole_line(spectrum):
    """``spectrum`` with the modes on the line k_x = k_y = 0 zeroed, and their number."""
    grid = spectrum.grid
    on_line = (grid.k_vectors[..., 0] == 0.0) & (grid.k_vectors[..., 1] == 0.0)
    number = grid.cell_weight * float(np.sum(np.abs(spectrum.c[:, on_line]) ** 2))
    return PhotonSpectrum(grid, np.where(on_line, 0.0, spectrum.c)), number


def test_the_circular_packet_is_centred_on_the_origin(desk_grid, desk_spatial):
    circular = circular_spectrum(desk_grid, (0.0, 0.0, 10.0), 1.0)
    assert np.max(np.abs(_centroid_in_cells(circular, desk_spatial))) < 0.01


def test_the_pole_line_moves_the_desk_packet_and_not_the_circular_one(desk_grid, desk_spatial,
                                                                       desk_packet):
    """Zeroing the pole line (4% of the number) leaves the smooth packet's centroid
    in place, and removes the desk packet's vortex offset of almost a cell."""
    shifts = {}
    circular = circular_spectrum(desk_grid, (0.0, 0.0, 10.0), 1.0)
    for name, spectrum in (("circular", circular), ("desk", desk_packet)):
        zeroed, number = _without_the_pole_line(spectrum)
        assert 0.035 < number < 0.045, name
        before, after = (_centroid_in_cells(s, desk_spatial) for s in (spectrum, zeroed))
        shifts[name] = float(np.linalg.norm(after - before))
    assert shifts["circular"] < 0.01
    assert shifts["desk"] > 0.5


FRACTIONS = (0.5, 0.9, 0.99, 1.0)


def _assert_radius_is_the_full_sorts(data, sgrid, center=None):
    if center is None:
        center = observables._circular_mean(data, sgrid)
    for fraction in FRACTIONS:
        radius = observables._containment_radius(data, sgrid, center, fraction)
        assert radius == full_sort_radius(data, sgrid, center, fraction), fraction


def test_radius_of_the_desk_densities_is_the_full_sorts(desk_spatial, desk_snapshot):
    for field in (number_density(desk_snapshot), bb_energy_density(desk_snapshot),
                  lp_number_density(desk_snapshot)):
        _assert_radius_is_the_full_sorts(field.data, desk_spatial)


def test_radius_of_a_mixed_helicity_density_is_the_full_sorts(desk_grid, desk_spatial):
    packet = gaussian_spectrum(desk_grid, (0.0, 0.0, 10.0), 1.0, (0.6, 0.8))
    _assert_radius_is_the_full_sorts(_rho(packet, desk_spatial, 0.0).data, desk_spatial)


def test_radius_with_a_negative_tail_beyond_the_crossing_is_the_full_sorts(desk_spatial,
                                                                          desk_snapshot):
    rho = number_density(desk_snapshot).data.copy()
    rho[:4, :4, :4] = -1e-9  # the corner farthest from the mid-box packet
    _assert_radius_is_the_full_sorts(rho, desk_spatial)


@pytest.fixture(scope="module")
def box16():
    return SpatialGrid.paired(WaveVectorGrid.centered((16, 16, 16), (1.0, 1.0, 1.0)))


def _mid(sgrid):
    return tuple(sgrid.axes[a][8] for a in range(3))


def test_radius_of_uniform_and_spike_densities_is_the_full_sorts(box16):
    _assert_radius_is_the_full_sorts(np.ones(box16.n_per_axis), box16)
    spike = np.zeros(box16.n_per_axis)
    spike[3, 11, 6] = 2.5
    _assert_radius_is_the_full_sorts(spike, box16)
    _assert_radius_is_the_full_sorts(spike, box16, _mid(box16))


def test_radius_reached_only_in_the_last_shell_is_the_full_sorts(box16):
    """All the mass sits on the box corner farthest from the centre, so every
    point is a candidate."""
    far = np.zeros(box16.n_per_axis)
    far[0, 0, 0] = 1.0
    _assert_radius_is_the_full_sorts(far, box16, _mid(box16))
    dist = observables._circular_distances(box16, _mid(box16))
    assert observables._containment_radius(far, box16, _mid(box16), 0.5) == dist.max()


def test_radius_widens_to_every_point_when_the_shell_sums_round_up(box16):
    """Two 2^-53 masses next to a unit mass: the pairwise total and the shell
    sums hold them, the sequential sum in distance order rounds them away.
    So the shells say the target is reached at shell 1, the candidates'
    cumulative mass never reaches it, and only every point as candidates
    gives the full sort's answer, the clamped farthest distance."""
    center = _mid(box16)
    tiny = np.zeros(box16.n_per_axis)
    tiny[8, 8, 8] = 1.0
    tiny[7, 8, 8] = tiny[7, 8, 9] = 2.0 ** -53
    dist = observables._circular_distances(box16, center).ravel()
    w = tiny.ravel()
    shells = np.cumsum(np.bincount((dist / max(box16.delta_x)).astype(np.intp), weights=w))
    total = float(np.sum(w))
    assert np.cumsum(w[np.argsort(dist)]).max() < total <= shells[1]
    assert observables._containment_radius(tiny, box16, center, 1.0) == dist.max()
    _assert_radius_is_the_full_sorts(tiny, box16, center)


def test_radius_of_a_signed_density_is_its_first_crossing(box16):
    """Unit mass at the centre, -0.5 over its 6 nearest neighbours and +0.5
    over the 12 next ones: the centre alone holds the whole mass, so every
    fraction is reached there.  The cumulative mass dips to 0.5 and climbs
    back to 1, and a binary search on it lands beyond the centre."""
    center = _mid(box16)
    data = np.zeros(box16.n_per_axis)
    data[8, 8, 8] = 1.0
    for offset in np.ndindex(3, 3, 3):
        step = np.subtract(offset, 1)
        ring = int(np.sum(np.abs(step)))
        if ring in (1, 2):
            data[tuple(8 + step)] += -0.5 / 6 if ring == 1 else 0.5 / 12
    dist = observables._circular_distances(box16, center)
    for fraction in (0.5, 0.9, 0.99):
        assert observables._containment_radius(data, box16, center, fraction) == dist[8, 8, 8]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mass_is_rejected(box16, bad):
    """One bad voxel must not give a NaN centroid beside a finite r90 that
    lets the guard band pass."""
    data = np.ones(box16.n_per_axis)
    data[5, 5, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        observables._circular_mean(data, box16)
    with pytest.raises(ValueError, match="non-finite"):
        observables._containment_radius(data, box16, _mid(box16), 0.9)
    rho0, rho1 = (DensityField("number", data, t, box16) for t in (0.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        transport_speed(rho0, rho1)


def test_divergence_is_the_summed_products(small_grid, small_spatial):
    packet = gaussian_spectrum(small_grid, (1.5, -1.0, 2.5), 0.6, (0.6, 0.8))
    current = photon_current(synthesize(packet, small_spatial, 0.3)).data
    engine = spectral_engine(small_grid, small_spatial)
    assert np.array_equal(engine.divergence(current),
                          summed_product_divergence(current, small_grid, small_spatial))


def test_the_divergence_frees_its_work_array(monkeypatch, traced, planar_grid, planar_spatial):
    """div J comes back as a C-ordered real copy: the (3, nx, ny, nz) complex work
    array goes on return.  A real view of it held that whole array, six times the
    bytes of the divergence."""
    monkeypatch.setenv("PHOTONLAB_THREADS", "1")
    packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, (1.0, 0.0))
    current = photon_current(synthesize(packet, planar_spatial, 0.3)).data
    engine = spectral_engine(planar_grid, planar_spatial)
    div, held, _ = traced(lambda: engine.divergence(current))
    assert div.flags.c_contiguous and div.dtype == np.float64
    assert held / div.nbytes <= 1.5


# ---------------------------------------------------------------------------
# Causality of the free packet


def test_no_mass_escapes_the_light_cone():
    """Mass beyond radius + c t never exceeds the initial mass beyond radius.

    The number density carries slow algebraic tails (the price of the
    nonlocal frequency weighting), so the absolute tail mass is ~1e-4; the
    causality statement is that the expanding cone never loses to it.
    """
    from photonlab.registry import broadband_packet

    _, spatial, packet = broadband_packet(64, 0.5)
    rho0 = _rho(packet, spatial, 0.0)
    initially_outside = lightcone_leak(rho0, rho0, 2.0)
    assert initially_outside < 5e-4
    for t in (0.5, 1.0, 2.0):
        leak = lightcone_leak(rho0, _rho(packet, spatial, t), 2.0)
        assert leak <= initially_outside * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Assembled report


@pytest.fixture(scope="module")
def report_pair():
    grid = WaveVectorGrid.centered((20, 20, 20), (0.75, 0.75, 0.75))
    packet = gaussian_spectrum(grid, (4.0, 0.0, 0.0), 0.8, (1.0, 0.0))
    return SpatialGrid.paired(grid), packet


def test_expectations_report(report_pair):
    spatial, packet = report_pair
    report = expectations(packet, spatial, 0.0)
    summary = spectral_summary(packet)
    assert report.number == pytest.approx(1.0, abs=1e-10)
    assert report.energy == pytest.approx(summary.energy, rel=1e-10)
    assert np.allclose(report.momentum, summary.momentum, atol=1e-10)
    assert report.helicity == pytest.approx(summary.helicity, abs=1e-10)
    assert report.continuity_residual_rel < 1e-4
    assert 0.9 < report.group_speed < 1.0
    mapping = report.as_mapping()
    assert mapping["number"] == report.number
    for key in ("energy", "momentum_x", "helicity", "group_speed"):
        assert key in mapping
    assert list(mapping) == list(report.as_mapping())  # deterministic order


def test_expectations_call_each_public_diagnostic_once(monkeypatch, report_pair):
    """The report goes through the public functions, so a wrapper on them sees each call."""
    calls = {}
    for name in ("continuity_residual", "transport_speed"):
        original = getattr(observables, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(observables, name, counted)
    expectations(report_pair[1], report_pair[0], 0.0)
    assert calls == {"continuity_residual": 1, "transport_speed": 1}


def test_expectations_require_normalized_input(small_grid, small_spatial):
    from photonlab.mode_space import PhotonSpectrum

    raw = PhotonSpectrum(small_grid, np.ones((2,) + small_grid.n_per_axis, complex))
    with pytest.raises(ValueError, match="normalized"):
        expectations(raw, small_spatial, 0.0)


def test_a_warm_report_peaks_below_six_and_a_half_vector_fields(monkeypatch, traced):
    """One warm 32^3 report on one thread, in complex 3-vector fields (n^3 48 B).

    The report keeps integrals, not arrays: the four-momentum density and the
    snapshot's H and P go once integrated, F is never kept, and |F|^2 and
    |psi|^2 are formed per group of x-planes.  Its highest stage is the
    number density at t - dt of the continuity residual, 4.35 fields; keeping
    those arrays read 7.3, and full snapshots at t +/- dt and at the
    transport probe 5.5.
    """
    monkeypatch.setenv("PHOTONLAB_THREADS", "1")
    grid = WaveVectorGrid.centered((32, 32, 32), (0.75, 0.75, 0.75))
    spatial = SpatialGrid.paired(grid)
    packet = gaussian_spectrum(grid, (0.0, 6.0, 8.0), 1.0, (1.0, 0.0))
    cold = expectations(packet, spatial, 0.2)
    warm, _, peak = traced(lambda: expectations(packet, spatial, 0.2))
    assert warm == cold
    assert peak / (32**3 * 48) <= 6.5


def test_a_warm_48_cubed_report_peaks_below_four_point_six_vector_fields(monkeypatch, traced):
    """One warm 48^3 report on one thread, in complex 3-vector fields (n^3 48 B).

    No second snapshot stands beside the report's own: B+ goes once the
    current is formed, the current once div J is, psi is transformed only
    after the continuity residual, and the number densities at t +/- dt and
    at the transport probe come from three 2-component transforms each.  Its
    highest stage is the density at t - dt, 4.09 fields; with |psi|^2 formed
    before the residual it read 4.26, and with a full snapshot for each of
    those densities and B+ beside psi 5.35.  48^3, because on a 32^3 grid one
    group of x-planes is a quarter of the grid.
    """
    monkeypatch.setenv("PHOTONLAB_THREADS", "1")
    grid = WaveVectorGrid.centered((48, 48, 48), (0.75, 0.75, 0.75))
    spatial = SpatialGrid.paired(grid)
    packet = gaussian_spectrum(grid, (0.0, 6.0, 8.0), 1.0, (1.0, 0.0))
    cold = expectations(packet, spatial, 0.2)
    warm, _, peak = traced(lambda: expectations(packet, spatial, 0.2))
    assert warm == cold
    assert peak / (48**3 * 48) <= 4.6
