"""The per-grid-pair spectral engine: FFT synthesis against direct quadrature,
Parseval, the transform-free density forms, caching and FFT counts."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import densities, field_synthesis, runner
from photonlab.field_synthesis import (
    SpatialGrid,
    spectral_engine,
    spectrum_to_field,
    synthesize,
    synthesize_at_points,
)
from photonlab.mode_space import PhotonSpectrum, WaveVectorGrid, normalize, spectral_summary


def _random_spectrum(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (2,) + grid.n_per_axis
    return normalize(PhotonSpectrum(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)))


@st.composite
def grid_pairs(draw):
    """Small odd/even grids, centred or not, with a default or custom origin."""
    n = tuple(draw(st.integers(2, 7)) for _ in range(3))
    dk = tuple(draw(st.floats(0.3, 1.5)) for _ in range(3))
    if draw(st.booleans()):
        kgrid = WaveVectorGrid.centered(n, dk)
    else:
        kgrid = WaveVectorGrid(n, dk, tuple(draw(st.floats(-4.0, 2.0)) for _ in range(3)))
    origin = None
    if draw(st.booleans()):
        origin = tuple(draw(st.floats(-5.0, 5.0)) for _ in range(3))
    return kgrid, SpatialGrid.paired(kgrid, origin)


def _close(a, b, tol=1e-11):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) <= tol * scale


@settings(max_examples=40, deadline=None)
@given(grid_pairs(), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_fft_fields_match_direct_quadrature(pair, seed, t1, t2):
    kgrid, sgrid = pair
    s = _random_spectrum(kgrid, seed)
    points = sgrid.coordinates.reshape(-1, 3)
    for t in (t1, t2):  # the second time reuses the spectrum's amplitude
        snap = synthesize(s, sgrid, t)
        A, E, B = synthesize_at_points(s, points, t)
        assert "B_plus" not in vars(snap)
        for fast, slow in ((snap.A_plus, A), (snap.E_plus, E), (snap.B_plus, B)):
            assert _close(fast.reshape(-1, 3), slow)


@settings(max_examples=40, deadline=None)
@given(grid_pairs(), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_parseval_and_transform_free_densities(pair, seed, t):
    kgrid, sgrid = pair
    s = _random_spectrum(kgrid, seed)
    snap = synthesize(s, sgrid, t)
    summary = spectral_summary(s)
    assert densities.number_density(snap).integral() == pytest.approx(1.0, abs=1e-12)
    energy = densities.energy_density(snap)
    assert energy.integral() == pytest.approx(summary.energy, rel=1e-12)

    def operator_form(symbol):
        op_a = spectrum_to_field(snap.a_coeffs * symbol[..., None], kgrid, sgrid)
        z = 1j * np.sum(snap.E_plus * np.conj(op_a), axis=-1)
        return densities.density_sign() * np.real(0.5 * (z + np.conj(z)))

    assert _close(energy.data, operator_form(kgrid.omega), 1e-12)
    momentum = densities.momentum_density(snap).data
    for axis in range(3):
        reference = operator_form(kgrid.k_vectors[..., axis])
        assert np.max(np.abs(momentum[..., axis] - reference)) <= 1e-12 * np.max(np.abs(energy.data))
    four = densities.four_momentum_density(snap).data
    assert np.array_equal(four[..., 0], energy.data)
    assert np.array_equal(four[..., 1:], momentum)


@pytest.mark.parametrize(
    "packet",
    [
        runner.desk_packet,
        runner.transport_packet,
        lambda: runner.broadband_packet(64, 0.5)[2],
    ],
    ids=["desk", "transport", "broadband"],
)
def test_psi_matches_the_real_field_round_trip(packet):
    s = packet()
    sgrid = SpatialGrid.paired(s.grid)
    snap = synthesize(s, sgrid, 0.3)
    wave = densities.photon_wave_fields(snap, s)
    A, E, _ = field_synthesis.real_fields(snap)
    half_a = densities.apply_frequency_operator(A, s.grid, sgrid, 0.5)
    inv_half_e = densities.apply_frequency_operator(E, s.grid, sgrid, -0.5)
    old_psi = 0.5 * (half_a - 1j * inv_half_e)
    assert _close(wave.psi, old_psi, 1e-12)


def test_interleaved_grid_pairs_use_their_own_engine():
    first = WaveVectorGrid.centered((6, 5, 4), (0.7, 0.8, 0.9))
    second = WaveVectorGrid((5, 4, 6), (0.6, 0.9, 0.5), (0.3, -1.1, 0.7))
    pairs = [
        (first, SpatialGrid.paired(first)),
        (first, SpatialGrid.paired(first, (1.0, -2.0, 0.5))),  # same k-grid, new origin
        (second, SpatialGrid.paired(second)),
    ]
    spectra = [_random_spectrum(k, seed) for seed, (k, _) in enumerate(pairs)]
    # more pairs than the cache keeps, visited twice in turn
    for index in (0, 1, 2, 0, 2, 1, 0):
        (_, sgrid), s = pairs[index], spectra[index]
        snap = synthesize(s, sgrid, 0.4)
        A, _, B = synthesize_at_points(s, sgrid.coordinates.reshape(-1, 3), 0.4)
        assert _close(snap.A_plus.reshape(-1, 3), A)
        assert _close(snap.B_plus.reshape(-1, 3), B)
    assert spectral_engine(*pairs[0]) is spectral_engine(first, SpatialGrid.paired(first))


def test_engine_arrays_are_read_only(small_grid, small_spatial, small_packet):
    engine = spectral_engine(small_grid, small_spatial)
    amplitude = engine.amplitude(small_packet)
    for arr in (engine.e_plus, engine.e_minus, engine.mode_factor,
                engine.phase_k, engine.phase_x, amplitude):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    assert engine.amplitude(small_packet) is amplitude


def test_unpaired_grids_build_no_engine(small_grid):
    with pytest.raises(ValueError, match="unpaired"):
        spectral_engine(small_grid, SpatialGrid((12, 12, 12), (0.5,) * 3, (0.0,) * 3))


@pytest.fixture()
def fft_calls(monkeypatch):
    """Count scipy.fft transforms, patched where the engine looks them up."""
    calls = {"ifftn": [], "fftn": []}
    for name in calls:
        original = getattr(scipy.fft, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(x.shape)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_fft_counts_per_density(fft_calls, small_grid, small_spatial, small_packet):
    densities.density_sign()
    snap = synthesize(small_packet, small_spatial, 0.1)
    assert fft_calls["ifftn"] == [small_grid.n_per_axis + (6,)]
    densities.number_density(snap)
    densities.energy_density(snap)
    assert len(fft_calls["ifftn"]) == 1
    densities.momentum_density(snap)
    assert fft_calls["ifftn"][-1] == small_grid.n_per_axis + (3, 3)
    densities.photon_wave_fields(snap, small_packet)  # B+ on first access, then psi
    densities.photon_current(snap)  # reuses B+
    assert len(fft_calls["ifftn"]) == 4
    assert fft_calls["fftn"] == []
