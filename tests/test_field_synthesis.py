"""Mode sums on real-space grids: FFT path against direct quadrature."""

from __future__ import annotations

import numpy as np
import pytest

from photonlab import field_synthesis
from photonlab.field_synthesis import (
    SpatialGrid,
    field_to_spectrum,
    spectrum_to_field,
    synthesize,
    synthesize_at_points,
    translation_check_1d,
)
from photonlab.mode_space import (
    PhotonSpectrum,
    WaveVectorGrid,
    gaussian_spectrum,
    normalize,
)


def real_fields(f):
    """Real fields A = A+ + A-, E, B (A- is the conjugate of A+)."""
    return (
        2.0 * np.real(f.A_plus),
        2.0 * np.real(f.E_plus),
        2.0 * np.real(f.B_plus),
    )


def random_spectrum(seed, grid):
    rng = np.random.default_rng(seed)
    shape = (2,) + grid.n_per_axis
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c[:, grid.exclusion_mask] = 0.0
    return normalize(PhotonSpectrum(grid, c))


# ---------------------------------------------------------------------------
# Grid pairing geometry


def test_paired_grid_geometry(small_grid, small_spatial):
    n = small_grid.n_per_axis
    for axis in range(3):
        dk = small_grid.axes[axis][1] - small_grid.axes[axis][0]
        dx = small_spatial.axes[axis][1] - small_spatial.axes[axis][0]
        assert dx == pytest.approx(2.0 * np.pi / (n[axis] * dk))
        assert small_spatial.box_lengths[axis] == pytest.approx(n[axis] * dx)
    assert small_spatial.is_paired_with(small_grid)
    assert small_spatial.cell_volume == pytest.approx(np.prod(
        [a[1] - a[0] for a in small_spatial.axes]
    ))


def test_fft_requires_paired_grids(small_grid, small_packet):
    lopsided = SpatialGrid((12, 12, 12), (0.5, 0.5, 0.5), (-3.0, -3.0, -3.0))
    assert not lopsided.is_paired_with(small_grid)
    with pytest.raises(ValueError):
        synthesize(small_packet, lopsided, 0.0)


# ---------------------------------------------------------------------------
# FFT path against direct quadrature


def test_fft_matches_direct_synthesis(small_spatial, small_packet):
    fast = synthesize(small_packet, small_spatial, 0.4)
    points = small_spatial.coordinates.reshape(-1, 3)
    slow = synthesize_at_points(small_packet, points, 0.4)
    for name, b in zip(("A_plus", "E_plus", "B_plus"), slow):
        a = getattr(fast, name)
        b = b.reshape(a.shape)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-12 * scale


def test_point_oracle_matches_grid_values(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.7)
    idx = [(0, 0, 0), (3, 7, 1), (11, 5, 9)]
    points = np.array([small_spatial.coordinates[i] for i in idx])
    A, E, B = synthesize_at_points(small_packet, points, 0.7)
    for row, i in enumerate(idx):
        assert np.max(np.abs(A[row] - snap.A_plus[i])) < 1e-12 * np.max(np.abs(A))
        assert np.max(np.abs(E[row] - snap.E_plus[i])) < 1e-12 * np.max(np.abs(E))
        assert np.max(np.abs(B[row] - snap.B_plus[i])) < 1e-12 * np.max(np.abs(B))


def test_synthesis_is_linear_in_amplitudes(small_grid, small_spatial):
    a = random_spectrum(1, small_grid)
    b = random_spectrum(2, small_grid)
    combined = PhotonSpectrum(small_grid, 0.6 * a.c + (0.2 - 1.3j) * b.c)
    lhs = synthesize(combined, small_spatial, 0.0).A_plus
    rhs = (
        0.6 * synthesize(a, small_spatial, 0.0).A_plus
        + (0.2 - 1.3j) * synthesize(b, small_spatial, 0.0).A_plus
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_quadrature_oracle_never_reads_the_spectral_engine(monkeypatch, small_grid):
    """With the engine unavailable the oracle still gives the closed-form mode sum."""
    def no_engine(*args):
        raise AssertionError("the quadrature oracle asked for the spectral engine")

    monkeypatch.setattr(field_synthesis, "spectral_engine", no_engine)
    rt2 = np.sqrt(2.0)
    # (helicity block, sample, amplitude, e_lambda): e+ on +x, e- on the +z pole
    modes = ((0, (8, 6, 6), 0.3 - 0.4j, np.array([0.0, 1j, -1.0]) / rt2),
             (1, (6, 6, 9), 1.1 + 0.0j, np.array([1.0, -1j, 0.0]) / rt2))
    c = np.zeros((2,) + small_grid.n_per_axis, dtype=complex)
    for block, index, amplitude, _ in modes:
        c[(block,) + index] = amplitude
    s = PhotonSpectrum(small_grid, c)
    points, t = np.array([[0.0, 0.0, 0.0], [0.4, -1.3, 2.2]]), 0.6
    expected = np.zeros((3, 2, 3), dtype=complex)  # (A, E, B) x point x component
    for _, index, amplitude, e in modes:
        k, omega = small_grid.k_vectors[index], small_grid.omega[index]
        phase = np.exp(1j * (points @ k - omega * t))[:, None]
        a = 1j * small_grid.cell_weight / np.sqrt(omega) * amplitude * e * phase
        expected += [a, 1j * omega * a, 1j * np.cross(k, a)]
    fields = synthesize_at_points(s, points, t)
    for got, want in zip(fields, expected):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    assert np.allclose(field_synthesis.vector_potential_at_points(s, points, t), expected[0],
                       rtol=1e-12, atol=1e-12 * np.max(np.abs(expected[0])))


# ---------------------------------------------------------------------------
# Differential structure of the synthesized fields


def test_electric_field_is_minus_time_derivative(small_spatial, small_packet):
    h = 1e-4
    plus = synthesize(small_packet, small_spatial, h).A_plus
    minus = synthesize(small_packet, small_spatial, -h).A_plus
    snap = synthesize(small_packet, small_spatial, 0.0)
    fd = -(plus - minus) / (2.0 * h)
    scale = np.max(np.abs(snap.E_plus))
    assert np.max(np.abs(fd - snap.E_plus)) < 1e-6 * scale


def test_magnetic_field_is_curl_of_vector_potential(small_packet):
    h = 1e-4
    base = np.array([[0.37, -0.81, 0.22]])
    offsets = h * np.eye(3)

    def eval_A(points):
        return synthesize_at_points(small_packet, points, 0.0)[0]

    grad = np.empty((3, 3), dtype=np.complex128)  # grad[i, j] = d A_j / d x_i
    for i in range(3):
        grad[i] = (eval_A(base + offsets[i]) - eval_A(base - offsets[i]))[0] / (2 * h)
    curl = np.array([
        grad[1, 2] - grad[2, 1],
        grad[2, 0] - grad[0, 2],
        grad[0, 1] - grad[1, 0],
    ])
    _, _, B = synthesize_at_points(small_packet, base, 0.0)
    assert np.max(np.abs(curl - B[0])) < 1e-6 * np.max(np.abs(B))


def test_vector_potential_is_transverse(small_spatial, small_packet):
    """Divergence of the synthesized potential vanishes (spectral check)."""
    snap = synthesize(small_packet, small_spatial, 0.0)
    grid = small_packet.grid
    coeffs = field_to_spectrum(snap.A_plus, grid, small_spatial)
    divergence = np.sum(grid.k_vectors * coeffs, axis=-1)
    assert np.max(np.abs(divergence)) < 1e-12 * np.max(np.abs(coeffs))


# ---------------------------------------------------------------------------
# Spectral round trip and the weight hook


def test_field_spectrum_round_trip(small_grid, small_spatial):
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=small_grid.n_per_axis + (3,)) + 1j * rng.normal(
        size=small_grid.n_per_axis + (3,)
    )
    field = spectrum_to_field(coeffs, small_grid, small_spatial)
    back = field_to_spectrum(field, small_grid, small_spatial)
    assert np.max(np.abs(back - coeffs)) < 1e-12 * np.max(np.abs(coeffs))


def test_mode_weight_hook_scales_fields(small_spatial, small_packet):
    reference = synthesize(small_packet, small_spatial, 0.0).A_plus
    weight = 2.0 * small_packet.grid.cell_weight
    doubled = field_synthesis._synthesize_with_weight(
        small_packet, small_spatial, 0.0, weight
    ).A_plus
    assert np.max(np.abs(doubled - 2.0 * reference)) < 1e-12 * np.max(np.abs(reference))
    # the corrupted weight leaves no trace in the cached synthesis path
    again = synthesize(small_packet, small_spatial, 0.0).A_plus
    assert np.array_equal(again, reference)


def test_real_fields_double_the_real_part(small_spatial, small_packet):
    snap = synthesize(small_packet, small_spatial, 0.2)
    A, E, B = real_fields(snap)
    assert np.array_equal(A, 2.0 * np.real(snap.A_plus))
    assert np.array_equal(E, 2.0 * np.real(snap.E_plus))
    assert np.array_equal(B, 2.0 * np.real(snap.B_plus))
    assert A.dtype == np.float64


# ---------------------------------------------------------------------------
# Collinear translation identity


def test_collinear_packet_translates_rigidly():
    grid = WaveVectorGrid.collinear(512, 0.05)
    packet = gaussian_spectrum(grid, (0.0, 0.0, 7.0), 0.7, (1.0, 0.0))
    assert translation_check_1d(packet, 3.0) < 1e-10


def test_translation_check_rejects_off_axis_support(small_packet):
    with pytest.raises(ValueError, match="collinear|axis"):
        translation_check_1d(small_packet, 1.0)
