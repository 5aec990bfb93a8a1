"""Quadratic observable densities and the two comparison wave functions."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from photonlab import densities
from photonlab.densities import (
    DENSITY_KINDS,
    angular_momentum_density,
    apply_frequency_operator,
    DensityField,
    bb_energy_density,
    cross_number_density,
    energy_density,
    four_momentum_density,
    helicity_density,
    lp_number_density,
    momentum_density,
    number_density,
    orbital_angular_momentum_density,
    photon_current,
    photon_wave_fields,
    spin_angular_momentum_density,
)
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import (
    PhotonSpectrum,
    WaveVectorGrid,
    gaussian_spectrum,
    scalar_product,
    single_mode_spectrum,
    spectral_summary,
)


def test_density_kind_registry():
    assert DENSITY_KINDS == frozenset(
        {
            "number",
            "current",
            "energy",
            "momentum",
            "four_momentum",
            "angular_momentum",
            "bb_energy",
            "lp_number",
        }
    )
    table = densities.DENSITY_TABLE
    assert {kind for kind in table if table[kind].pure_helicity} == {"bb_energy", "lp_number"}
    assert {kind: table[kind].labels for kind in table if table[kind].labels} == {
        "current": "xyz", "momentum": "xyz", "four_momentum": "txyz", "angular_momentum": "xyz"}


def test_sign_convention_makes_a_single_mode_density_positive():
    """E+ = i omega A+ gives Im(A+ . conj(E+)) = -omega |A+|^2 < 0 pointwise."""
    grid = WaveVectorGrid.centered((4, 4, 4), (1.0, 1.0, 1.0))
    snap = synthesize(single_mode_spectrum(grid, (2, 2, 3), +1), SpatialGrid.paired(grid), 0.0)
    raw = np.imag(np.sum(snap.A_plus * np.conj(snap.E_plus), axis=-1))
    assert densities.SIGMA == -1
    assert np.all(densities.SIGMA * raw > 0)


# ---------------------------------------------------------------------------
# Single propagating mode: the simplest exactly solvable case


def test_single_mode_density_is_uniform_one_over_box():
    grid = WaveVectorGrid.centered((6, 6, 6), (1.3, 1.3, 1.3))
    spatial = SpatialGrid.paired(grid)
    state = single_mode_spectrum(grid, (4, 2, 5), +1)
    snap = synthesize(state, spatial, 0.0)
    rho = number_density(snap)
    box_volume = float(np.prod(spatial.box_lengths))
    assert np.max(np.abs(rho.data - 1.0 / box_volume)) < 1e-12 / box_volume
    assert rho.integral() == pytest.approx(1.0, abs=1e-12)


def test_single_mode_matches_wave_function_reading_pointwise():
    grid = WaveVectorGrid.centered((6, 6, 6), (1.3, 1.3, 1.3))
    spatial = SpatialGrid.paired(grid)
    state = single_mode_spectrum(grid, (4, 2, 5), +1)
    snap = synthesize(state, spatial, 0.0)
    rho = number_density(snap).data
    omega = grid.omega[4, 2, 5]
    energy_reading = bb_energy_density(snap).data / omega
    assert np.max(np.abs(energy_reading - rho)) < 1e-12 * np.max(rho)
    number_reading = lp_number_density(snap).data
    assert np.max(np.abs(number_reading - rho)) < 1e-12 * np.max(rho)


# ---------------------------------------------------------------------------
# Integrals against k-space mode sums


def test_density_integrals_match_spectral_sums(small_packet, small_snapshot):
    summary = spectral_summary(small_packet)
    assert number_density(small_snapshot).integral() == pytest.approx(
        summary.number, abs=1e-10
    )
    assert energy_density(small_snapshot).integral() == pytest.approx(
        summary.energy, rel=1e-10
    )
    momentum = np.asarray(momentum_density(small_snapshot).integral())
    assert np.allclose(momentum, summary.momentum, atol=1e-10)
    four = np.asarray(four_momentum_density(small_snapshot).integral())
    assert four[0] == pytest.approx(summary.energy, rel=1e-10)
    assert np.allclose(four[1:], summary.momentum, atol=1e-10)


def test_vector_integrals_equal_the_plain_sum_bitwise(small_spatial):
    """The einsum of ``integral`` adds in the order of np.sum over the spatial axes."""
    rng = np.random.default_rng(24)
    for shape, kind in (((12, 12, 12, 3), "current"), ((64, 64, 64, 4), "four_momentum"),
                        ((7, 9, 5, 4), "four_momentum"), ((1, 1, 4096, 3), "momentum")):
        data = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        want = small_spatial.cell_volume * np.sum(data, axis=(0, 1, 2))
        assert np.array_equal(DensityField(kind, data, 0.0, small_spatial).integral(), want)


def test_bb_energy_equals_the_summed_squares_bitwise(small_grid, small_spatial):
    packet = gaussian_spectrum(small_grid, (1.0, -0.5, 3.0), 0.55, (0.0, 1.0))
    snap = synthesize(packet, small_spatial, 0.4)
    want = np.sum(np.abs(photon_wave_fields(snap)[0]) ** 2, axis=-1)
    assert np.array_equal(bb_energy_density(snap).data, want)


def test_the_cross_density_diagonal_is_the_number_density(small_grid, small_spatial):
    """rho_ff = rho to roundoff; with A_f left unconjugated it is not."""
    rng = np.random.default_rng(13)
    c = rng.standard_normal((2,) + small_grid.n_per_axis) * (1 + 1j)
    for packet in (gaussian_spectrum(small_grid, (1.0, -0.5, 3.0), 0.55, (0.6, 0.8)),
                   PhotonSpectrum(small_grid, c)):
        snap = synthesize(packet, small_spatial, 0.3)
        rho = number_density(snap).data
        cross = cross_number_density(snap, snap)
        assert np.max(np.abs(cross - rho)) <= 1e-14 * np.max(np.abs(rho))


def test_the_cross_density_integrates_to_the_overlap(small_grid, small_spatial):
    f = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, (1.0, 0.0))
    g = gaussian_spectrum(small_grid, (0.0, 0.6, 3.2), 0.55, (0.6, 0.8))
    overlap = scalar_product(f, g)
    for t in (0.0, 0.9):
        rho = cross_number_density(synthesize(f, small_spatial, t),
                                   synthesize(g, small_spatial, t))
        assert abs(small_spatial.cell_volume * np.sum(rho) - overlap) <= 1e-13 * abs(overlap)


def test_current_integral_is_group_velocity_average(small_packet, small_snapshot):
    grid = small_packet.grid
    mass = np.sum(np.abs(small_packet.c) ** 2, axis=0)
    omega = np.where(grid.exclusion_mask, 1.0, grid.omega)
    direction = np.where(
        grid.exclusion_mask[..., None], 0.0, grid.k_vectors / omega[..., None]
    )
    oracle = grid.cell_weight * np.einsum("ijk,ijkx->x", mass, direction)
    measured = np.asarray(photon_current(small_snapshot).integral())
    assert np.allclose(measured, oracle, atol=1e-10)


def test_helicity_integral_tracks_the_weights(small_grid, small_spatial):
    for weights, expected in (((1.0, 0.0), 1.0), ((0.0, 1.0), -1.0), ((1.0, 1.0), 0.0)):
        packet = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, weights)
        snap = synthesize(packet, small_spatial, 0.0)
        total = float(np.sum(helicity_density(snap)) * small_spatial.cell_volume)
        assert total == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Invariances


def test_densities_ignore_a_global_phase(small_grid, small_spatial, small_packet):
    rotated = PhotonSpectrum(small_grid, np.exp(0.7j) * small_packet.c)
    a = number_density(synthesize(small_packet, small_spatial, 0.0)).data
    b = number_density(synthesize(rotated, small_spatial, 0.0)).data
    assert np.max(np.abs(a - b)) < 1e-14 * np.max(a)


def test_integrals_are_constants_of_motion(small_spatial, small_packet):
    reference = None
    for t in (0.0, 0.9, 2.3):
        snap = synthesize(small_packet, small_spatial, t)
        values = np.concatenate(
            [
                [number_density(snap).integral(), energy_density(snap).integral()],
                np.asarray(momentum_density(snap).integral()),
            ]
        )
        if reference is None:
            reference = values
        else:
            assert np.max(np.abs(values - reference)) < 1e-10


# ---------------------------------------------------------------------------
# Angular momentum: spin, orbital and the origin-shift rule


def test_total_is_spin_plus_orbital(small_snapshot):
    origin = (0.4, -0.2, 0.1)
    total = angular_momentum_density(small_snapshot, origin).data
    parts = (
        spin_angular_momentum_density(small_snapshot).data
        + orbital_angular_momentum_density(small_snapshot, origin).data
    )
    assert np.array_equal(total, parts)


def test_orbital_origin_shift_rule(small_snapshot):
    shift = np.array([0.3, 0.5, -0.7])
    at_zero = np.asarray(orbital_angular_momentum_density(small_snapshot, (0, 0, 0)).integral())
    at_shift = np.asarray(orbital_angular_momentum_density(small_snapshot, shift).integral())
    momentum = np.asarray(momentum_density(small_snapshot).integral())
    predicted = at_zero - np.cross(shift, momentum)
    assert np.allclose(at_shift, predicted, atol=1e-12)


def test_spin_integral_points_along_mean_wave_vector(small_packet, small_snapshot):
    grid = small_packet.grid
    mass = np.abs(small_packet.c) ** 2
    omega = np.where(grid.exclusion_mask, 1.0, grid.omega)
    direction = np.where(
        grid.exclusion_mask[..., None], 0.0, grid.k_vectors / omega[..., None]
    )
    oracle = grid.cell_weight * np.einsum("ijk,ijkx->x", mass[0] - mass[1], direction)
    measured = np.asarray(spin_angular_momentum_density(small_snapshot).integral())
    assert np.allclose(measured, oracle, atol=1e-10)


# ---------------------------------------------------------------------------
# Comparison wave functions


def test_wave_function_closed_forms_for_pure_helicity(small_grid, small_spatial):
    for helicity, weights in ((+1, (1.0, 0.0)), (-1, (0.0, 1.0))):
        packet = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, weights)
        snap = synthesize(packet, small_spatial, 0.3)
        F, psi = photon_wave_fields(snap)
        assert densities._pure_helicity(snap) == helicity  # the helicity F is formed with
        scale = np.max(np.abs(snap.E_plus))
        assert np.max(np.abs(F - snap.E_plus)) < 1e-11 * scale
        psi_oracle = -1j * apply_frequency_operator(
            snap.E_plus, small_grid, small_spatial, -0.5
        )
        assert np.max(np.abs(psi - psi_oracle)) < 1e-11 * np.max(np.abs(psi_oracle))


def test_wave_function_norms(small_packet, small_snapshot):
    summary = spectral_summary(small_packet)
    assert bb_energy_density(small_snapshot).integral() == pytest.approx(summary.energy,
                                                                          rel=1e-10)
    assert lp_number_density(small_snapshot).integral() == pytest.approx(1.0, abs=1e-10)


def test_wave_fields_require_pure_helicity(small_grid, small_spatial):
    mixed = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, (1.0, 1.0))
    snap = synthesize(mixed, small_spatial, 0.0)
    with pytest.raises(ValueError, match="helicity"):
        photon_wave_fields(snap)


def test_frequency_operator_identity(small_grid, small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.0)
    F, psi = photon_wave_fields(snap)
    predicted = 1j * apply_frequency_operator(psi, small_grid, small_spatial, 0.5)
    assert np.max(np.abs(F - predicted)) < 1e-11 * np.max(np.abs(F))


def test_frequency_operator_powers_compose(small_grid, small_spatial, small_snapshot):
    field = small_snapshot.A_plus
    twice_half = apply_frequency_operator(
        apply_frequency_operator(field, small_grid, small_spatial, 0.5),
        small_grid,
        small_spatial,
        0.5,
    )
    once = apply_frequency_operator(field, small_grid, small_spatial, 1)
    assert np.max(np.abs(twice_half - once)) < 1e-11 * np.max(np.abs(once))


def test_frequency_operator_rejects_other_powers(small_grid, small_spatial, small_snapshot):
    with pytest.raises(ValueError, match="power"):
        apply_frequency_operator(small_snapshot.A_plus, small_grid, small_spatial, 2.0)


# ---------------------------------------------------------------------------
# Per-group forms against their full-grid forms

@pytest.fixture
def planar_snapshot(planar_grid, planar_spatial):
    """The snapshot of a packet of helicity ``weights`` on the planar grid pair."""

    def make(weights):
        packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, weights)
        return synthesize(packet, planar_spatial, 0.3)

    return make


def _full_grid_squared_norm(v):
    a = np.abs(v)
    np.square(a, out=a)
    data = a[..., 0] + a[..., 1]
    data += a[..., 2]
    return data


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0)], ids=["plus", "minus"])
def test_wave_densities_and_F_equal_their_full_grid_forms_bitwise(monkeypatch, threads,
                                                                   weights, planar_snapshot):
    """F of photon_wave_fields, |F|^2 and |psi|^2, formed per group of x-planes,
    against one full-grid F (Re E+ copied, lambda Re B+ multiplied) and
    full-grid |v|^2."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    snap = planar_snapshot(weights)
    F, psi = photon_wave_fields(snap)
    want = np.empty(snap.E_plus.shape, np.complex128)
    np.copyto(want.real, snap.E_plus.real)
    np.multiply(densities._pure_helicity(snap), snap.B_plus().real, out=want.imag)
    assert np.array_equal(F, want)
    assert not F.flags.writeable
    assert np.array_equal(bb_energy_density(snap).data, _full_grid_squared_norm(want))
    assert np.array_equal(lp_number_density(snap).data, _full_grid_squared_norm(psi))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0)], ids=["plus", "minus"])
def test_wave_densities_hold_psi_and_b_plus_one_at_a_time(monkeypatch, threads, weights,
                                                          planar_snapshot):
    """|F|^2 and |psi|^2, each on a fresh snapshot: bitwise their forms on a
    snapshot that has formed both fields, with only B+ kept by |F|^2 and
    nothing by |psi|^2."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    both = planar_snapshot(weights)
    photon_wave_fields(both)  # B+ kept, psi formed
    fields = {field.name for field in dataclasses.fields(both)}
    for build, kept in ((bb_energy_density, {"_b_plus"}), (lp_number_density, set())):
        snap = planar_snapshot(weights)
        got, want = build(snap), build(both)
        assert (got.kind, got.t, got.grid) == (want.kind, want.t, want.grid)
        assert got.data.tobytes() == want.data.tobytes()
        assert set(vars(snap)) - fields == kept


def test_wave_densities_need_a_pure_helicity(planar_snapshot):
    for build in (bb_energy_density, lp_number_density):
        with pytest.raises(ValueError, match="mixed-helicity"):
            build(planar_snapshot((0.6, 0.8)))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_current_and_spin_equal_their_np_cross_forms_bitwise(monkeypatch, threads,
                                                             planar_snapshot):
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    snap = planar_snapshot((0.6, 0.8))
    a_plus, b_plus, e_plus = snap.A_plus, snap.B_plus(), snap.E_plus
    current = np.cross(a_plus.imag, b_plus.real) - np.cross(a_plus.real, b_plus.imag)
    current *= densities.SIGMA
    spin = np.cross(e_plus.real, a_plus.real) + np.cross(e_plus.imag, a_plus.imag)
    total = orbital_angular_momentum_density(snap, (0.5, 0, 0)).data + spin
    assert np.array_equal(photon_current(snap).data, current)
    assert np.array_equal(spin_angular_momentum_density(snap).data, spin)
    assert np.array_equal(angular_momentum_density(snap, (0.5, 0, 0)).data, total)


@pytest.mark.parametrize("build", [photon_current, spin_angular_momentum_density],
                         ids=["current", "spin"])
def test_a_cross_product_density_holds_no_second_full_grid_array(monkeypatch, traced, build,
                                                                planar_snapshot):
    """On one thread the scratch of a density's two cross products is one
    group's; full-grid cross products added 1.33 real 3-vector fields."""
    monkeypatch.setenv("PHOTONLAB_THREADS", "1")
    snap = planar_snapshot((1.0, 0.0))
    assert densities._b_plus(snap).size  # transformed and kept before the trace
    field = snap.kgrid.omega.size * 24
    density, held, peak = traced(lambda: build(snap))
    assert held >= density.data.nbytes
    assert (peak - held) / field <= 0.5
