"""The per-grid-pair spectral engine: FFT synthesis against direct quadrature,
Parseval, the transform-free density forms, caching and FFT counts."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import config, densities, field_synthesis, observables, runner
from photonlab.field_synthesis import (
    SpatialGrid,
    spectral_engine,
    spectrum_to_field,
    synthesize,
    synthesize_at_points,
)
from photonlab.mode_space import (
    PhotonSpectrum,
    WaveVectorGrid,
    gaussian_spectrum,
    normalize,
    spectral_summary,
)


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
    # the separable-phase oracle against the plain exp(i k.x) mode sum
    coeffs = field_synthesis._direct_amplitude(s, t1)
    k_flat = kgrid.k_vectors.reshape(-1, 3)
    c_flat = coeffs.reshape(k_flat.shape[0], -1)
    full_phase = np.array([np.exp(1j * (k_flat @ x)) @ c_flat for x in points])
    assert _close(field_synthesis._direct_eval(coeffs, kgrid, points), full_phase, 1e-13)


@settings(max_examples=40, deadline=None)
@given(grid_pairs(), st.floats(-50.0, 50.0))
def test_time_phase_equals_the_plain_exponential(pair, t):
    """One exponential per distinct omega, bitwise equal to one per mode."""
    kgrid, sgrid = pair
    engine = spectral_engine(kgrid, sgrid)
    assert np.array_equal(engine.time_phase(t), np.exp(-1j * kgrid.omega * t))


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
        return densities.SIGMA * np.real(0.5 * (z + np.conj(z)))

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
    """Count scipy.fft transforms, patched where the engine looks them up.

    Every input must be C-contiguous and transformed over its three trailing
    (spatial) axes, i.e. with its component axes leading.
    """
    calls = {"ifftn": [], "fftn": []}
    for name in calls:
        original = getattr(scipy.fft, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            assert x.flags.c_contiguous, (_name, x.shape, x.strides)
            assert tuple(a % x.ndim for a in kwargs["axes"]) == tuple(range(x.ndim - 3, x.ndim))
            calls[_name].append(x.shape)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_fft_counts_per_density(fft_calls, small_grid, small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.1)
    assert fft_calls["ifftn"] == [(6,) + small_grid.n_per_axis]
    densities.number_density(snap)
    densities.energy_density(snap)
    assert len(fft_calls["ifftn"]) == 1
    densities.momentum_density(snap)
    assert fft_calls["ifftn"][-1] == (3, 3) + small_grid.n_per_axis
    densities.photon_wave_fields(snap, small_packet)  # B+ on first access, then psi
    densities.photon_current(snap)  # reuses B+
    assert len(fft_calls["ifftn"]) == 4
    assert fft_calls["fftn"] == []


ALL_KINDS = ("number", "current", "energy", "momentum",
             "four_momentum", "angular_momentum", "bb_energy", "lp_number")


def test_all_kinds_share_four_transforms(fft_calls, small_grid, small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    for kind in ALL_KINDS:
        runner._density_field(kind, snap, small_packet)
    n = small_grid.n_per_axis
    # synthesis, B+, the momentum transform, psi
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n, (3, 3) + n, (3,) + n]
    assert fft_calls["fftn"] == []


def test_shared_kinds_equal_each_kind_computed_alone(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    shared = {kind: runner._density_field(kind, snap, small_packet) for kind in ALL_KINDS}
    for kind in ALL_KINDS:
        alone = runner._density_field(kind, synthesize(small_packet, small_spatial, 0.2),
                                      small_packet)
        assert np.array_equal(shared[kind].data, alone.data), kind


def test_wave_fields_are_kept_per_helicity(small_grid, small_spatial, small_packet):
    minus = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, (0.0, 1.0))
    snap = synthesize(small_packet, small_spatial, 0.2)
    for s in (small_packet, minus, small_packet):
        kept = densities.photon_wave_fields(snap, s)
        alone = densities.photon_wave_fields(synthesize(small_packet, small_spatial, 0.2), s)
        assert kept.helicity == s.pure_helicity()
        assert np.array_equal(kept.F, alone.F)
        assert np.array_equal(kept.psi, alone.psi)
    assert densities.photon_wave_fields(snap, small_packet) is kept


def test_kept_momentum_and_wave_fields_are_read_only(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    momentum = densities.momentum_density(snap).data
    assert densities.momentum_density(snap).data is momentum
    wave = densities.photon_wave_fields(snap, small_packet)
    for arr in (momentum, wave.F, wave.psi):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_zero_spot_check_tolerance_fails_the_quadrature_check(tmp_path):
    text = ("grid.n_per_axis = 12\ngrid.delta_k = 0.9\npacket.k0 = 0, 0, 3.2\n"
            "packet.sigma = 0.55\ntolerances.spot_check = 0\n")
    report = runner.run_scenario(config.parse_scenario(text, "zero.cfg"), str(tmp_path))
    assert report.failed_names() == ["fft-quadrature:spot_check"]


def test_every_layout_reaches_the_transforms_component_major(fft_calls, small_grid,
                                                             small_spatial, small_packet):
    """C-ordered and strided inputs are copied once into the transform layout."""
    snap = synthesize(small_packet, small_spatial, 0.2)
    n = small_grid.n_per_axis
    c_ordered = np.ascontiguousarray(snap.a_coeffs)
    assert np.array_equal(spectrum_to_field(c_ordered, small_grid, small_spatial),
                          spectrum_to_field(snap.a_coeffs, small_grid, small_spatial))
    real_e = 2.0 * np.real(snap.E_plus)
    densities.apply_frequency_operator(real_e, small_grid, small_spatial, 0.5)
    densities.apply_frequency_operator(real_e[..., 1], small_grid, small_spatial, -0.5)
    current = densities.photon_current(snap).data
    observables._divergence(current, small_grid, small_spatial)
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n, (3,) + n, (3,) + n, (1,) + n, (3,) + n,
                                  n]
    assert fft_calls["fftn"] == [(3,) + n, (1,) + n, (3,) + n]


def test_kinds_are_c_ordered_and_fields_keep_their_shape(small_grid, small_spatial,
                                                         small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    shape = small_grid.n_per_axis + (3,)
    for field in (snap.A_plus, snap.E_plus, snap.B_plus):
        assert field.shape == shape
    for kind in ALL_KINDS:
        data = runner._density_field(kind, snap, small_packet).data
        assert data.flags.c_contiguous, kind
        assert data.shape[:3] == small_grid.n_per_axis, kind


def test_a_corrupted_level_index_fails_the_spot_check(tmp_path):
    """The quadrature oracle never reads the engine's level table, so it sees the fault."""
    text = ("grid.n_per_axis = 12\ngrid.delta_k = 0.9\npacket.k0 = 0, 0, 3.2\n"
            "packet.sigma = 0.55\ntime.t_list = 0.7\n")
    cfg = config.parse_scenario(text, "levels.cfg")
    grid = runner.build_grid(cfg)
    spectral_engine.cache_clear()
    try:
        assert runner.run_scenario(cfg, str(tmp_path / "fresh")).ok
        spectral_engine.cache_clear()
        engine = spectral_engine(grid, SpatialGrid.paired(grid))
        engine._level_index = np.roll(engine._level_index, 1)
        report = runner.run_scenario(cfg, str(tmp_path / "corrupted"))
    finally:
        spectral_engine.cache_clear()
    assert report.failed_names() == ["fft-quadrature:spot_check"]


def test_fields_do_not_depend_on_the_thread_count(monkeypatch):
    """README: results do not depend on PHOTONLAB_THREADS."""
    grid = WaveVectorGrid.centered((16, 16, 16), (0.8, 0.8, 0.8))
    s = _random_spectrum(grid, 11)
    sgrid = SpatialGrid.paired(grid)
    fields = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("PHOTONLAB_THREADS", threads)
        snap = synthesize(s, sgrid, 0.4)
        fields[threads] = (snap.A_plus, snap.E_plus, snap.B_plus)
    for two, one in zip(fields["2"], fields["1"]):
        assert np.array_equal(two, one)
