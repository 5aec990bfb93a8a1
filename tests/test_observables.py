"""Derived diagnostics: continuity, transport, localization, causality."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from photonlab import observables
from photonlab.densities import number_density
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import (
    WaveVectorGrid,
    gaussian_spectrum,
    single_mode_spectrum,
    spectral_summary,
)
from photonlab.observables import (
    continuity_residual,
    expectations,
    is_box_limited,
    lightcone_leak,
    localization_widths,
    transport_speed,
)


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


def test_uniform_density_is_box_limited():
    grid = WaveVectorGrid.centered((6, 6, 6), (1.3, 1.3, 1.3))
    spatial = SpatialGrid.paired(grid)
    state = single_mode_spectrum(grid, (4, 2, 5), +1)
    rho = number_density(synthesize(state, spatial, 0.0))
    widths = localization_widths((rho,))
    assert is_box_limited(widths["number"], spatial)


# ---------------------------------------------------------------------------
# Causality of the free packet


def test_no_mass_escapes_the_light_cone():
    """Mass beyond radius + c t never exceeds the initial mass beyond radius.

    The number density carries slow algebraic tails (the price of the
    nonlocal frequency weighting), so the absolute tail mass is ~1e-4; the
    causality statement is that the expanding cone never loses to it.
    """
    from photonlab.runner import broadband_packet

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
