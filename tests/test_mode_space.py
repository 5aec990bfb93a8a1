"""Wave-vector grids, polarization bases and spectral amplitudes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.mode_space import (
    HELICITIES,
    PhotonSpectrum,
    WaveVectorGrid,
    build_basis,
    circular_spectrum,
    evolve,
    gaussian_spectrum,
    localized_spectrum,
    normalize,
    scalar_product,
    single_mode_spectrum,
    spectral_summary,
)

GRID = WaveVectorGrid.centered((8, 8, 8), (1.1, 1.1, 1.1))


def random_spectrum(seed: int, grid: WaveVectorGrid = GRID) -> PhotonSpectrum:
    rng = np.random.default_rng(seed)
    shape = (2,) + grid.n_per_axis
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c[:, grid.exclusion_mask] = 0.0
    return PhotonSpectrum(grid, c)


# ---------------------------------------------------------------------------
# Grid geometry


def test_centered_grid_contains_origin_and_is_symmetric():
    for axis, dk in zip(GRID.axes, (1.1, 1.1, 1.1)):
        assert axis.shape == (8,)
        assert np.isclose(axis[1] - axis[0], dk)
        assert np.any(np.abs(axis) < 1e-14)
        assert np.isclose(axis.min(), -4 * dk)
    assert GRID.k_vectors.shape == (8, 8, 8, 3)


def test_omega_is_wave_number_magnitude():
    expected = np.linalg.norm(GRID.k_vectors, axis=-1)
    assert np.allclose(GRID.omega, expected)
    assert GRID.exclusion_mask.sum() == 1  # exactly the k = 0 sample
    assert GRID.omega[GRID.exclusion_mask] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(1, 6)] * 3),
    st.tuples(*[st.floats(0.2, 1.5)] * 3),
    st.tuples(*[st.integers(-6, 0)] * 3),
)
def test_single_sample_exclusion_follows_the_mask(n, dk, steps):
    """``excludes`` decides one sample by the rule ``exclusion_mask`` applies."""
    for grid in (WaveVectorGrid.centered(n, dk),
                 WaveVectorGrid(n, dk, tuple(s * d for s, d in zip(steps, dk)))):
        for index in np.ndindex(*n):
            assert grid.excludes(index) == grid.exclusion_mask[index]


def test_vector_arrays_are_component_major_views():
    for arr in (GRID.k_vectors, build_basis(GRID)):
        assert arr.shape == (8, 8, 8, 3)
        assert all(arr[..., a].flags.c_contiguous for a in range(3))
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 1.0


def test_cell_weight_is_cell_volume_over_cube_of_two_pi():
    assert np.isclose(GRID.cell_weight, 1.1**3 / (2.0 * np.pi) ** 3)


def test_collinear_grid_shape():
    line = WaveVectorGrid.collinear(64, 0.25)
    assert line.n_per_axis == (1, 1, 64)
    assert line.k_vectors[..., 0].max() == 0.0
    assert line.k_vectors[..., 1].max() == 0.0


# ---------------------------------------------------------------------------
# Polarization basis


def test_basis_is_orthonormal_transverse_and_helical():
    keep = ~GRID.exclusion_mask
    e_plus = build_basis(GRID)[keep]
    k_hat = GRID.k_vectors[keep] / GRID.omega[keep][..., None]
    # the negative-helicity vector is the conjugate of the positive one
    for helicity, e in ((+1, e_plus), (-1, np.conj(e_plus))):
        norms = np.sum(e * np.conj(e), axis=-1).real
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        transverse = np.abs(np.sum(k_hat * e, axis=-1))
        assert np.max(transverse) < 1e-12
        spun = 1j * np.cross(k_hat, e)
        assert np.max(np.abs(spun - helicity * e)) < 1e-12
    cross = np.abs(np.sum(e_plus * e_plus, axis=-1))  # e+ . conj(e-)
    assert np.max(cross) < 1e-12
    assert not np.any(build_basis(GRID)[GRID.exclusion_mask])


# ---------------------------------------------------------------------------
# Scalar product and unitarity (property tests)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_scalar_product_conjugate_symmetry(seed_a, seed_b):
    a, b = random_spectrum(seed_a), random_spectrum(seed_b)
    forward = scalar_product(a, b)
    backward = scalar_product(b, a)
    assert abs(forward - np.conj(backward)) < 1e-10 * (1 + abs(forward))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_scalar_product_linear_in_second_argument(seed_a, seed_b, re, im):
    a, b = random_spectrum(seed_a), random_spectrum(seed_b)
    alpha = complex(re, im)
    scaled = PhotonSpectrum(b.grid, alpha * b.c)
    lhs = scalar_product(a, scaled)
    rhs = alpha * scalar_product(a, b)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_gives_unit_norm(seed):
    assert abs(normalize(random_spectrum(seed)).norm - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.floats(-5, 5))
def test_evolution_is_unitary(seed_a, seed_b, t):
    a, b = random_spectrum(seed_a), random_spectrum(seed_b)
    before = scalar_product(a, b)
    after = scalar_product(evolve(a, t), evolve(b, t))
    assert abs(after - before) < 1e-10 * (1 + abs(before))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-4, 4), st.floats(-4, 4))
def test_evolution_composes(seed, t1, t2):
    s = random_spectrum(seed)
    once = evolve(s, t1 + t2)
    twice = evolve(evolve(s, t1), t2)
    assert np.max(np.abs(once.c - twice.c)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_energy_dominates_momentum(seed):
    summary = spectral_summary(random_spectrum(seed))
    assert summary.energy >= np.linalg.norm(summary.momentum) - 1e-12


# ---------------------------------------------------------------------------
# Packet constructors


def test_gaussian_spectrum_is_normalized_and_pure():
    s = gaussian_spectrum(GRID, (0.0, 0.0, 3.0), 0.6, (1.0, 0.0))
    assert abs(s.norm - 1.0) < 1e-12
    assert s.pure_helicity() == +1
    flipped = gaussian_spectrum(GRID, (0.0, 0.0, 3.0), 0.6, (0.0, 1.0))
    assert flipped.pure_helicity() == -1
    mixed = gaussian_spectrum(GRID, (0.0, 0.0, 3.0), 0.6, (1.0, 1.0))
    assert mixed.pure_helicity() is None
    assert abs(mixed.norm - 1.0) < 1e-12


def test_gaussian_spectrum_rejects_uncovered_center():
    with pytest.raises(ValueError, match="coverage"):
        gaussian_spectrum(GRID, (0.0, 0.0, 50.0), 0.6)


def test_circular_spectrum_is_the_envelope_times_the_polarization_on_e_plus():
    """c+ = g (1 + cos theta)/2 e^{i phi} up to the norm, c- = 0, and the checks
    of the gaussian packet's center and width."""
    s = circular_spectrum(GRID, (0.0, 0.0, 3.0), 0.6)
    kx, ky, kz = np.moveaxis(GRID.k_vectors, -1, 0)
    cos_theta = kz / np.where(GRID.exclusion_mask, 1.0, GRID.omega)
    envelope = gaussian_spectrum(GRID, (0.0, 0.0, 3.0), 0.6).c[0]
    expected = normalize(PhotonSpectrum(GRID, np.stack(
        [envelope * (1.0 + cos_theta) / 2 * np.exp(1j * np.arctan2(ky, kx)), 0 * envelope])))
    assert s.pure_helicity() == +1 and abs(s.norm - 1.0) < 1e-12
    assert np.allclose(s.c, expected.c, rtol=0, atol=1e-12 * np.max(np.abs(s.c)))
    with pytest.raises(ValueError, match="coverage"):
        circular_spectrum(GRID, (0.0, 0.0, 50.0), 0.6)
    with pytest.raises(ValueError, match="sigma"):
        circular_spectrum(GRID, (0.0, 0.0, 3.0), 0.0)


def test_single_mode_summary_matches_its_sample():
    index = (6, 4, 4)
    s = single_mode_spectrum(GRID, index, helicity=+1)
    assert HELICITIES == (+1, -1) and np.count_nonzero(s.c[0]) == 1 and not np.any(s.c[1])
    summary = spectral_summary(s)
    assert abs(summary.number - 1.0) < 1e-12
    assert abs(summary.energy - GRID.omega[index]) < 1e-12
    assert np.allclose(summary.momentum, GRID.k_vectors[index], atol=1e-12)
    assert abs(summary.helicity - 1.0) < 1e-12


def test_single_mode_rejects_masked_sample():
    center = (4, 4, 4)  # the k = 0 sample of the centered 8^3 grid
    assert GRID.exclusion_mask[center]
    with pytest.raises(ValueError, match="masked"):
        single_mode_spectrum(GRID, center)


def test_localized_spectrum_has_unit_amplitudes_off_the_mask():
    s = localized_spectrum(GRID, (0.3, -0.2, 0.9))
    assert np.allclose(np.abs(s.c[:, ~GRID.exclusion_mask]), 1.0)


def test_scalar_product_requires_matching_grids():
    other = WaveVectorGrid.centered((8, 8, 8), (0.7, 0.7, 0.7))
    with pytest.raises(ValueError, match="grid"):
        scalar_product(random_spectrum(0), random_spectrum(0, other))

