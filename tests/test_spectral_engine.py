"""The per-grid-pair spectral engine: FFT synthesis against direct quadrature,
Parseval, the transform-free density forms, caching and FFT counts."""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import config, densities, observables, oracle, registry, runner, slabs
from photonlab.field_synthesis import (
    FieldSnapshot,
    SpatialGrid,
    spectral_engine,
    spectrum_to_field,
    synthesize,
)
from photonlab.mode_space import (
    PhotonSpectrum,
    WaveVectorGrid,
    build_basis,
    gaussian_spectrum,
    leading,
    normalize,
    spectral_summary,
    trailing,
)
from photonlab.oracle import synthesize_at_points


# what a snapshot holds as a value; anything else in its instance dict is kept
_FIELDS = {field.name for field in dataclasses.fields(FieldSnapshot)}


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
        assert vars(snap).keys() == _FIELDS  # the synthesis keeps nothing more
        for fast, slow in ((snap.A_plus, A), (snap.E_plus, E), (snap.B_plus(), B)):
            assert _close(fast.reshape(-1, 3), slow)
    # the separable-phase oracle against the plain exp(i k.x) mode sum
    coeffs = oracle._direct_amplitude(s, t1)
    k_flat = kgrid.k_vectors.reshape(-1, 3)
    c_flat = coeffs.reshape(k_flat.shape[0], -1)
    full_phase = np.array([np.exp(1j * (k_flat @ x)) @ c_flat for x in points])
    assert _close(oracle._direct_eval(coeffs, kgrid, points), full_phase, 1e-13)


@settings(max_examples=40, deadline=None)
@given(grid_pairs(), st.floats(-50.0, 50.0))
def test_time_phase_equals_the_plain_exponential(pair, t):
    """One exponential per distinct omega, gathered per group of x-planes by the
    pass that evolves the amplitudes, bitwise equal to one per mode."""
    kgrid, sgrid = pair
    engine = spectral_engine(kgrid, sgrid)
    ones = np.ones(kgrid.n_per_axis, np.complex128)
    evolved = engine._scale(ones, engine._time_phase(t), np.empty_like(ones))
    assert np.array_equal(evolved, np.exp(-1j * kgrid.omega * t))


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
        registry.desk_packet,
        registry.transport_packet,
        lambda: registry.broadband_packet(64, 0.5)[2],
    ],
    ids=["desk", "transport", "broadband"],
)
def test_psi_matches_the_real_field_round_trip(packet):
    s = packet()
    sgrid = SpatialGrid.paired(s.grid)
    snap = synthesize(s, sgrid, 0.3)
    _, psi = densities.photon_wave_fields(snap)
    A, E = 2.0 * np.real(snap.A_plus), 2.0 * np.real(snap.E_plus)  # the real fields
    half_a = densities.apply_frequency_operator(A, s.grid, sgrid, 0.5)
    inv_half_e = densities.apply_frequency_operator(E, s.grid, sgrid, -0.5)
    old_psi = 0.5 * (half_a - 1j * inv_half_e)
    assert _close(psi, old_psi, 1e-12)


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
        assert _close(snap.B_plus().reshape(-1, 3), B)
    assert spectral_engine(*pairs[0]) is spectral_engine(first, SpatialGrid.paired(first))


def test_engine_arrays_are_read_only(small_grid, small_spatial, small_packet):
    """The per-axis phase factors, the level table and a spectrum's kept amplitude."""
    engine = spectral_engine(small_grid, small_spatial)
    amplitude = engine.amplitude(small_packet)
    arrays = (*engine.phase_k, *engine.phase_x, engine._levels, engine._level_index, amplitude)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    assert engine.amplitude(small_packet) is amplitude


def test_the_engine_holds_no_full_grid_complex_array():
    """Per-axis phase factors and a level table: at 64^3 the one full-grid array
    is the level index, uint16 for the grid's 1914 frequencies."""
    grid = registry.desk_grid()
    engine = spectral_engine(grid, registry.desk_spatial())
    arrays = [value for item in vars(engine).values()
              for value in (item if isinstance(item, tuple) else (item,))
              if isinstance(value, np.ndarray)]
    assert len(arrays) == 8  # three factors of each phase, the levels and their index
    big = [a for a in arrays if a.size >= grid.omega.size]
    assert [a.dtype for a in big] == [np.uint16] and engine._levels.size == 1914
    assert not [a for a in arrays if np.iscomplexobj(a) and a.size > max(grid.n_per_axis)]


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
    densities.momentum_density(snap)  # one 3-component transform per direction
    assert fft_calls["ifftn"][1:] == [(3,) + small_grid.n_per_axis] * 3
    densities.photon_wave_fields(snap)  # B+, kept, then psi
    densities.photon_current(snap)  # reuses B+
    assert len(fft_calls["ifftn"]) == 6
    assert fft_calls["fftn"] == []


def test_a_number_density_at_another_time_makes_three_two_component_transforms(
        fft_calls, small_grid, small_spatial, small_packet):
    densities.number_density_at(small_packet, small_spatial, 0.7)
    assert fft_calls["ifftn"] == [(2,) + small_grid.n_per_axis] * 3
    assert fft_calls["fftn"] == []


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.6, 0.8)], ids=["pure", "mixed"])
def test_an_observables_report_transforms_43_fields_in_17_inverse_calls(
        fft_calls, weights):
    """A pure-helicity report: the snapshot (6 components), the momentum operands
    (3 x 3), the helicity operand, psi and B+ (3 each), div J (1 inverse, 3
    forward) and three number densities at other times (3 x 2 each).  A mixed
    one has no psi, and transforms B+ for the current instead."""
    grid = WaveVectorGrid.centered((20, 20, 20), (0.75, 0.75, 0.75))
    packet = gaussian_spectrum(grid, (4.0, 0.0, 0.0), 0.8, weights)
    observables.expectations(packet, SpatialGrid.paired(grid), 0.1)
    components = [shape[0] if len(shape) == 4 else 1 for shape in fft_calls["ifftn"]]
    pure = weights == (1.0, 0.0)
    assert len(components) == (17 if pure else 16)
    assert sum(components) == (43 if pure else 40)
    assert components.count(2) == 9 and 6 not in components[1:]
    assert fft_calls["fftn"] == [(3,) + grid.n_per_axis]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("shape", [(48, 48, 48), (37, 40, 33)], ids=["48", "37x40x33"])
def test_a_number_density_at_another_time_is_the_snapshots_bitwise(monkeypatch, threads,
                                                                    shape):
    """Three 2-component transforms give the 6-component synthesis's components,
    and their contraction the snapshot's, bit for bit (signed zeros included)."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    grid = WaveVectorGrid.centered(shape, (0.6, 0.6, 0.6))
    spatial = SpatialGrid.paired(grid)
    for weights in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
        packet = gaussian_spectrum(grid, (1.0, -2.0, 6.0), 1.1, weights)
        for t in (0.37, -1.3):
            want = densities.number_density(synthesize(packet, spatial, t))
            got = densities.number_density_at(packet, spatial, t)
            assert (got.kind, got.t, got.grid) == (want.kind, want.t, want.grid)
            assert got.data.tobytes() == want.data.tobytes(), (weights, t)


ALL_KINDS = ("number", "current", "energy", "momentum",
             "four_momentum", "angular_momentum", "bb_energy", "lp_number")


def test_all_kinds_share_four_transforms(fft_calls, small_grid, small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    for kind in ALL_KINDS:
        densities.DENSITY_TABLE[kind].build(snap)
    n = small_grid.n_per_axis
    # synthesis, B+, the momentum transforms (k_x A, k_y A, k_z A), psi
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n, (3,) + n, (3,) + n, (3,) + n, (3,) + n]
    assert fft_calls["fftn"] == []


def test_shared_kinds_equal_each_kind_computed_alone(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    shared = {kind: densities.DENSITY_TABLE[kind].build(snap) for kind in ALL_KINDS}
    for kind in ALL_KINDS:
        alone = densities.DENSITY_TABLE[kind].build(synthesize(small_packet, small_spatial, 0.2))
        assert np.array_equal(shared[kind].data, alone.data), kind


def test_the_energy_density_is_contracted_once_per_snapshot(small_spatial, small_packet,
                                                            monkeypatch):
    """energy and four_momentum read one kept |E+|^2, so the H column is the energy data."""
    combined = []
    contract = densities._contract_pair

    def counted(subscripts, first, second, combine, shape):
        combined.append(combine)
        return contract(subscripts, first, second, combine, shape)

    monkeypatch.setattr(densities, "_contract_pair", counted)
    snap = synthesize(small_packet, small_spatial, 0.2)
    energy = densities.energy_density(snap)
    four = densities.four_momentum_density(snap)
    assert densities.energy_density(snap).data is energy.data
    assert combined.count(np.add) == 1  # |E+|^2, the one contraction that adds its halves
    assert np.array_equal(four.data[..., 0], energy.data)
    assert not energy.data.flags.writeable


def test_wave_fields_are_kept_per_helicity(small_grid, small_spatial, small_packet):
    minus = gaussian_spectrum(small_grid, (0.0, 0.0, 3.2), 0.55, (0.0, 1.0))
    for s in (small_packet, minus):
        snap = synthesize(s, small_spatial, 0.2)
        F, psi = densities.photon_wave_fields(snap)
        F_alone, psi_alone = densities.photon_wave_fields(synthesize(s, small_spatial, 0.2))
        assert densities._pure_helicity(snap) == s.pure_helicity()
        assert np.array_equal(F, F_alone)
        assert np.array_equal(psi, psi_alone)


def test_wave_fields_are_built_once_per_snapshot(fft_calls, small_grid, small_spatial,
                                                 small_packet):
    """B+ is transformed once per snapshot and kept; psi, which nothing keeps,
    once per reader: |psi|^2 and each photon_wave_fields call."""
    snap = synthesize(small_packet, small_spatial, 0.2)
    F, psi = densities.photon_wave_fields(snap)
    n = small_grid.n_per_axis
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n, (3,) + n]  # synthesis, B+, psi
    for kind in ("bb_energy", "lp_number"):
        densities.DENSITY_TABLE[kind].build(snap)
    F_again, psi_again = densities.photon_wave_fields(snap)
    assert np.array_equal(F_again, F) and np.array_equal(psi_again, psi)
    assert fft_calls["ifftn"] == [(6,) + n] + [(3,) + n] * 4  # and psi twice more


@pytest.mark.parametrize("kind, unread", [("bb_energy", "psi"), ("lp_number", "B_plus")])
def test_a_wave_density_transforms_only_the_field_it_reads(fft_calls, small_grid, small_spatial,
                                                           small_packet, kind, unread):
    """|F|^2 reads B+ and |psi|^2 reads psi: after the synthesis, one 3-component
    transform each, and the other field is never formed."""
    snap = synthesize(small_packet, small_spatial, 0.2)
    densities.DENSITY_TABLE[kind].build(snap)
    n = small_grid.n_per_axis
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n]
    assert unread not in vars(snap)
    assert vars(snap).keys() - _FIELDS == set(densities.DENSITY_TABLE[kind].reads)


def test_kept_momentum_and_wave_fields_are_read_only(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    momentum = densities.momentum_density(snap).data
    assert densities.momentum_density(snap).data is momentum
    for arr in (momentum, *densities.photon_wave_fields(snap)):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_a_snapshot_and_what_is_kept_on_it_are_read_only(small_spatial, small_packet):
    """The cached desk snapshot, which every check shares: writing into its A+,
    its E+ or the B+ kept on it raises.  Two photon_wave_fields calls on a
    fresh snapshot keep one array on it, B+."""
    desk = registry.desk_snapshot()
    densities.photon_current(desk)
    (key,) = densities.DENSITY_TABLE["current"].reads
    for arr in (desk.A_plus, desk.E_plus, vars(desk)[key]):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0.0
    snap = synthesize(small_packet, small_spatial, 0.2)
    densities.photon_wave_fields(snap)
    densities.photon_wave_fields(snap)
    assert vars(snap).keys() - _FIELDS == {key}


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
    snap.engine.divergence(current)
    assert fft_calls["ifftn"] == [(6,) + n, (3,) + n, (3,) + n, (3,) + n, (1,) + n, (3,) + n,
                                  n]
    assert fft_calls["fftn"] == [(3,) + n, (1,) + n, (3,) + n]


def test_kinds_are_c_ordered_and_fields_keep_their_shape(small_grid, small_spatial,
                                                         small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    shape = small_grid.n_per_axis + (3,)
    for field in (snap.A_plus, snap.E_plus, snap.B_plus()):
        assert field.shape == shape
    for kind in ALL_KINDS:
        data = densities.DENSITY_TABLE[kind].build(snap).data
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


def test_a_snapshot_keeps_no_time_phase(small_grid, small_spatial, small_packet):
    """B+, psi and the momentum operands gather exp(-i omega t) per group of x-planes."""
    snap = synthesize(small_packet, small_spatial, 0.2)
    densities.photon_wave_fields(snap)
    densities.momentum_density(snap)
    kept = vars(snap)
    assert kept.keys() - _FIELDS == {"_b_plus", "_momentum"}
    phases = [key for key, value in kept.items() if isinstance(value, np.ndarray)
              and np.iscomplexobj(value) and value.shape == small_grid.n_per_axis]
    assert phases == []


def test_two_runs_of_one_config_build_the_basis_once(tmp_path):
    """The engine and the spot-check oracle share one e+ per grid, kept across runs."""
    text = ("grid.n_per_axis = 12\ngrid.delta_k = 0.85\npacket.k0 = 0, 3.2, 0\n"
            "packet.sigma = 0.55\npacket.helicity_weights = 0.6, 0.8\ntime.t_list = 0.7\n")
    cfg = config.parse_scenario(text, "basis.cfg")
    build_basis.cache_clear()
    for name in ("first", "second"):
        assert runner.run_scenario(cfg, str(tmp_path / name)).ok
    assert build_basis.cache_info().misses == 1


def test_fields_do_not_depend_on_the_thread_count(monkeypatch):
    """README: results do not depend on PHOTONLAB_THREADS, also with uneven x-slabs.

    Every density kind, B+, the helicity density and the oracle's amplitude
    are compared bitwise
    between one thread and two (15 x-planes: slabs of 7 and 8); fresh
    spectra per setting, so their amplitudes are rebuilt too.
    """
    monkeypatch.setattr(slabs, "_cpus", lambda: 2)  # two slabs on any machine
    grid = WaveVectorGrid.centered((15, 16, 12), (0.8, 0.8, 0.8))
    sgrid = SpatialGrid.paired(grid)
    outputs = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("PHOTONLAB_THREADS", threads)
        assert slabs._workers() == int(threads)
        mixed = _random_spectrum(grid, 11)
        pure = PhotonSpectrum(grid, mixed.c * np.array([1.0, 0.0])[:, None, None, None])
        arrays = []
        for s in (mixed, pure):
            snap = synthesize(s, sgrid, 0.4)
            arrays += [snap.A_plus, snap.E_plus, snap.B_plus(), densities.helicity_density(snap)]
            arrays += [entry.build(snap).data for entry in densities.DENSITY_TABLE.values()
                       if s is pure or not entry.pure_helicity]
            arrays.append(oracle._direct_amplitude(s, 0.4))
        outputs[threads] = arrays
    assert len(outputs["1"]) == 8 + 2 + 6 + len(densities.DENSITY_TABLE)
    for two, one in zip(outputs["2"], outputs["1"], strict=True):
        assert np.array_equal(two, one)


def test_slab_bounds_cover_every_index_once():
    """Contiguous, ordered, non-empty slabs whose sizes differ by at most one."""
    for n in range(1, 71):
        for parts in range(1, 5):
            bounds = slabs._slab_bounds(n, parts)
            assert len(bounds) == min(n, parts)
            covered = np.concatenate([np.arange(n)[x] for x in bounds])
            assert np.array_equal(covered, np.arange(n))
            sizes = [x.stop - x.start for x in bounds]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def _slab_pass_exit_code():
    out = np.zeros(9)
    slabs._in_slabs(lambda x: out.__setitem__(x, 1.0), out.size)
    written = slabs._writer().submit(out.sum).result(timeout=30)
    os._exit(0 if out.all() and written == 9.0 else 1)


def test_a_forked_child_runs_slab_passes(monkeypatch):
    """A child forked after the pool and the export thread started has none of
    their threads and must make its own."""
    monkeypatch.setattr(slabs, "_cpus", lambda: 2)
    monkeypatch.setenv("PHOTONLAB_THREADS", "2")
    slabs._in_slabs(lambda x: None, 2)  # the parent's pool is running
    slabs._writer().submit(int).result(timeout=30)  # and its export thread
    child = multiprocessing.get_context("fork").Process(target=_slab_pass_exit_code)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
    assert child.exitcode == 0


def test_thread_setting_is_clamped_to_the_cpus(monkeypatch):
    """README: the default is the CPU count, a setting is clamped to [1, CPU count]."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    monkeypatch.delenv("PHOTONLAB_THREADS", raising=False)
    assert slabs._workers() == cpus
    for setting, want in (("100000", cpus), ("0", 1), ("-3", 1), ("two", 1), ("1.5", 1)):
        monkeypatch.setenv("PHOTONLAB_THREADS", setting)
        assert slabs._workers() == want


def test_the_shared_engine_keeps_nothing_of_a_spectrum(small_grid, small_spatial,
                                                       small_packet):
    """Each spectrum keeps its own amplitude, freed with it; the engine's state stays put."""
    engine = spectral_engine(small_grid, small_spatial)
    state = dict(vars(engine))
    other = _random_spectrum(small_grid, 5)
    for s in (other, small_packet, other, small_packet):
        synthesize(s, small_spatial, 0.3)
    assert vars(engine).keys() == state.keys()
    assert all(vars(engine)[key] is value for key, value in state.items())
    kept = engine.amplitude(other)
    assert engine.amplitude(other) is kept
    assert engine.amplitude(small_packet) is not kept
    freed = weakref.ref(kept)
    del kept, other
    gc.collect()
    assert freed() is None


def _old_direct_amplitude(s, t):
    """The spot-check oracle's amplitude as one expression, with full-grid temporaries."""
    grid = s.grid
    e_plus = build_basis(grid)
    safe = np.where(grid.exclusion_mask, 1.0, grid.omega)
    amp = 1j * grid.cell_weight / np.sqrt(safe) * np.exp(-1j * grid.omega * float(t))
    amp = np.where(grid.exclusion_mask, 0.0, amp)
    coeffs = np.multiply(amp[..., None] * s.c[0][..., None], e_plus, order="C")
    coeffs += amp[..., None] * s.c[1][..., None] * np.conj(e_plus)
    return coeffs


def test_the_oracle_amplitude_equals_its_one_expression_form(monkeypatch):
    """Bitwise, with exp(-i omega t) per mode in the reference, on a mixed and a
    seeded spectrum in two uneven slabs, and component-major for the contraction."""
    monkeypatch.setattr(slabs, "_cpus", lambda: 2)
    monkeypatch.setenv("PHOTONLAB_THREADS", "2")
    grid = WaveVectorGrid.centered((15, 16, 12), (0.8, 0.8, 0.8))
    rng = np.random.default_rng(51)
    seeded = rng.standard_normal((2, 2) + grid.n_per_axis)
    for s in (gaussian_spectrum(grid, (1.5, -1.0, 3.5), 0.6, (0.6, 0.8)),
              PhotonSpectrum(grid, seeded[0] + 1j * seeded[1])):
        for t in (0.0, 0.73, -2.4, 31.7):
            coeffs = oracle._direct_amplitude(s, t)
            assert leading(coeffs).flags.c_contiguous
            assert np.array_equal(coeffs, _old_direct_amplitude(s, t))


def test_the_oracle_contraction_makes_no_full_grid_array():
    """The separable contraction reads the amplitude in place: at 16^3 its
    peak allocation stays below one complex scalar on the grid."""
    grid = WaveVectorGrid.centered((16, 16, 16), (0.8, 0.8, 0.8))
    s = gaussian_spectrum(grid, (1.5, -1.0, 3.5), 0.6, (0.6, 0.8))
    coeffs = oracle._direct_amplitude(s, 0.3)
    points = np.random.default_rng(2).uniform(-3.0, 3.0, size=(4, 3))
    tracemalloc.start()
    try:
        oracle._direct_eval(coeffs, grid, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.omega.size * 16


def test_wave_fields_equal_their_real_field_and_multiplier_forms(small_grid, small_spatial):
    """F = (1/2)(2 Re E+ + i lam 2 Re B+) and psi = Omega^{1/2} A+, bitwise."""
    engine = spectral_engine(small_grid, small_spatial)
    for weights in ((1.0, 0.0), (0.0, 1.0)):
        s = gaussian_spectrum(small_grid, (1.0, -0.5, 3.0), 0.55, weights)
        snap = synthesize(s, small_spatial, 0.35)
        F_got, psi_got = densities.photon_wave_fields(snap)
        lam = s.pure_helicity()
        F = 0.5 * (2.0 * np.real(snap.E_plus) + 1j * lam * (2.0 * np.real(snap.B_plus())))
        psi = engine.to_field(np.sqrt(small_grid.omega)[..., None] * snap.a_coeffs)
        assert np.array_equal(F_got, F)
        assert np.array_equal(psi_got, psi)


RUN_CONFIG = """\
grid.n_per_axis = {n}
grid.delta_k = {dk}
packet.k0 = 0, 0, {k0}
packet.sigma = {sigma}
packet.helicity_weights = 1, 0
time.t_list = 0.0, 0.3, 0.6
outputs.densities = {kinds}
"""


def test_a_run_holds_one_snapshot_at_a_time(monkeypatch, tmp_path):
    """The previous snapshot is freed before the next one is synthesized."""
    text = RUN_CONFIG.format(n=12, dk=0.9, k0=3.2, sigma=0.55, kinds=", ".join(ALL_KINDS))
    cfg = config.parse_scenario(text, "snapshots.cfg")
    made = []

    def recording(*args):
        alive = [ref().t for ref in made if ref() is not None]
        assert not alive, f"snapshots at t = {alive} are still held"
        snap = synthesize(*args)
        made.append(weakref.ref(snap))
        return snap

    monkeypatch.setattr(runner, "synthesize", recording)
    assert runner.run_scenario(cfg, str(tmp_path)).ok
    assert len(made) == 3


def _run_digests(kinds, outdir):
    """Every file of a 12^3 run of ``kinds`` at three times, by name."""
    text = RUN_CONFIG.format(n=12, dk=0.9, k0=3.2, sigma=0.55, kinds=", ".join(kinds))
    assert runner.run_scenario(config.parse_scenario(text, "order.cfg"), str(outdir)).ok
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def test_the_requested_order_changes_no_artifact(tmp_path):
    """Every .f64 and summary.txt, with the kinds listed forward and reversed."""
    forward = _run_digests(ALL_KINDS, tmp_path / "forward")
    assert len(forward) == 3 * len(ALL_KINDS) + 1
    assert _run_digests(ALL_KINDS[::-1], tmp_path / "reversed") == forward




@pytest.mark.parametrize("kinds, held", [
    (ALL_KINDS, [("momentum", []), ("angular_momentum", ["_momentum"]),
                 ("four_momentum", ["_momentum"]), ("number", ["_energy"]),
                 ("energy", ["_energy"]), ("bb_energy", []), ("current", ["_b_plus"]),
                 ("lp_number", [])]),
    (("current", "lp_number", "four_momentum"),
     [("four_momentum", []), ("current", []), ("lp_number", [])]),
], ids=["all", "three"])
def test_a_run_drops_each_intermediate_after_its_last_reader(monkeypatch, tmp_path, kinds,
                                                             held):
    """What a snapshot keeps beyond its fields when each kind's build starts, at
    every time, and nothing left after the last kind of a time."""
    seen, snaps = [], []
    for kind, entry in densities.DENSITY_TABLE.items():

        def build(f, _kind=kind, _build=entry.build):
            seen.append((_kind, sorted(vars(f).keys() - _FIELDS)))
            snaps.append(f)
            return _build(f)

        monkeypatch.setitem(densities.DENSITY_TABLE, kind, dataclasses.replace(entry, build=build))
    text = RUN_CONFIG.format(n=12, dk=0.9, k0=3.2, sigma=0.55, kinds=", ".join(kinds))
    assert runner.run_scenario(config.parse_scenario(text, "drops.cfg"), str(tmp_path)).ok
    assert seen == held * 3
    assert [sorted(vars(snap).keys() - _FIELDS) for snap in snaps] == [[]] * len(seen)


def test_a_run_peaks_below_six_vector_fields(tmp_path):
    """A warm 32^3 number-only run at three times, traced by tracemalloc.

    One complex 3-vector field is n^3 * 48 B.  A run builds the spectrum and
    its amplitude, and holds one snapshot (A+ and E+) and the per-time
    buffers: 4.4-4.5 fields on two threads.  Holding the previous snapshot
    during the next synthesis reads 6.3.
    """
    assert _warm_run_peak(tmp_path, 32, ("number",)) <= 6.0


def test_a_warm_all_kinds_run_peaks_below_seven_vector_fields(tmp_path):
    """A warm 32^3 run of all eight kinds at three times, traced by tracemalloc.

    Beyond the spectrum, its amplitude and the snapshot (3.7 fields), one
    direction's momentum operand is held at a time, and each intermediate
    only until its last reader, B+ and psi never together: 5.55 fields on
    one thread and 5.72 on two.  |F|^2 with B+ and psi kept together read
    6.50, and the one 9-component momentum transform, with B+ and H kept
    from the current and the energy built before it, 8.71.
    """
    assert _warm_run_peak(tmp_path, 32, ALL_KINDS) <= 7.0


def _warm_run_peak(tmp_path, n, kinds):
    """The tracemalloc peak of a warm n^3 run of ``kinds`` at three times, in
    complex 3-vector fields (n^3 * 48 B)."""
    text = RUN_CONFIG.format(n=n, dk=0.75, k0=10, sigma=1.0, kinds=", ".join(kinds))
    cfg = config.parse_scenario(text, "memory.cfg")
    assert runner.run_scenario(cfg, str(tmp_path / "cold")).ok
    tracemalloc.start()
    try:
        assert runner.run_scenario(cfg, str(tmp_path / "warm")).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n**3 * 48)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_warm_48_cubed_all_kinds_run_peaks_below_five_point_eight_vector_fields(
        monkeypatch, tmp_path, threads):
    """48^3, because on a 32^3 grid one group of x-planes is a quarter of the
    grid.  5.51 fields on one and two threads; with B+ and psi kept together
    from |F|^2 to |psi|^2 it read 6.00-6.04."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    assert _warm_run_peak(tmp_path, 48, ALL_KINDS) <= 5.8


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["bb_energy", "lp_number"])
def test_a_warm_48_cubed_wave_density_run_peaks_below_five_point_four_vector_fields(
        monkeypatch, tmp_path, threads, kind):
    """A run of |F|^2 or |psi|^2 alone transforms only the field it reads:
    4.87-5.03 fields on one and two threads.  Transforming both B+ and psi
    for either kind read 5.87-6.03."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    assert _warm_run_peak(tmp_path, 48, (kind,)) <= 5.4


@pytest.mark.parametrize("threads", ["1", "2"])
def test_curl_operands_equal_their_np_cross_forms_bitwise(monkeypatch, threads, planar_grid,
                                                          planar_spatial):
    """B+ = (i k x A)+ and the helicity operand (i khat x A)+, formed per group of
    x-planes, against np.cross on the full-grid evolved amplitude."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, (0.6, 0.8))
    snap = synthesize(packet, planar_spatial, 0.3)
    k, omega, mask = planar_grid.k_vectors, planar_grid.omega, planar_grid.exclusion_mask
    khat = np.where(mask[..., None], 0.0, k / np.where(mask, 1.0, omega)[..., None])
    for vectors, field in ((k, snap.B_plus()), (khat, snap.helicity_operand())):
        want = spectrum_to_field(np.cross(vectors, snap.a_coeffs) * 1j, planar_grid,
                                 planar_spatial)
        assert np.array_equal(field, want)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_psi_equals_its_full_grid_form_bitwise(monkeypatch, threads, planar_grid,
                                               planar_spatial):
    """psi scales the evolved amplitude by sqrt(omega) formed per group of x-planes:
    the same bits as the full-grid multiplier."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, (1.0, 0.0))
    snap = synthesize(packet, planar_spatial, 0.3)
    psi_coeffs = leading(snap.a_coeffs)
    np.multiply(np.sqrt(planar_grid.omega), psi_coeffs, out=psi_coeffs)
    assert np.array_equal(snap.psi(), snap.engine.to_field(trailing(psi_coeffs, 1)))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_momentum_operands_equal_one_nine_component_transform_bitwise(
        monkeypatch, threads, planar_grid, planar_spatial):
    """Each direction's (k_j A)+ is the j part of one transform of all three, and P
    their "...c,...jc->...j" contraction, bit for bit."""
    monkeypatch.setenv("PHOTONLAB_THREADS", threads)
    packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, (0.6, 0.8))
    snap = synthesize(packet, planar_spatial, 0.3)
    coeffs = leading(planar_grid.k_vectors)[:, None] * leading(snap.amplitude)[None, :]
    snap.engine._scale(coeffs, snap.engine._time_phase(snap.t), coeffs)
    operands = snap.engine.to_field(trailing(coeffs, 2))
    for j in range(3):
        assert np.array_equal(snap.momentum_operand(j), operands[..., j, :])
    e_plus = snap.E_plus
    p = (np.einsum("...c,...jc->...j", e_plus.real, operands.imag)
         - np.einsum("...c,...jc->...j", e_plus.imag, operands.real))
    assert np.array_equal(densities.momentum_density(snap).data, densities.SIGMA * p)


def test_b_plus_holds_no_second_full_grid_array(monkeypatch, traced, planar_grid,
                                                planar_spatial):
    """On one thread B+ keeps its field and forms the evolved amplitude and the
    cross product's scratch per group; a full-grid a_coeffs and scratch added
    1.38 complex 3-vector fields on top."""
    monkeypatch.setenv("PHOTONLAB_THREADS", "1")
    packet = gaussian_spectrum(planar_grid, (2.0, -1.0, 6.0), 1.0, (1.0, 0.0))
    snap = synthesize(packet, planar_spatial, 0.3)
    field = planar_grid.omega.size * 48
    b_plus, held, peak = traced(snap.B_plus)
    assert held >= b_plus.nbytes
    assert (peak - held) / field <= 0.5
