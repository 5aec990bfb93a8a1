"""The direct-quadrature oracle the FFT path is checked against.

:func:`synthesize_at_points` and :func:`vector_potential_at_points`
evaluate the mode sum of :mod:`photonlab.field_synthesis` at arbitrary
points: their own amplitude formula, their own exp(-i omega t) per mode,
and exp(i k.x) as the product of three per-axis factors per point, never
the engine or an FFT, so they check the engine's origin and k_min phases
independently.  This module shares only the basis
(:mod:`photonlab.mode_space`) and the slab helper (:mod:`photonlab.slabs`)
with the FFT path, and sums without BLAS (see
:func:`~photonlab.mode_space.l2_norm`).
"""

from __future__ import annotations

import numpy as np

from .mode_space import PhotonSpectrum, build_basis, leading, trailing, vector_array
from .slabs import _in_slabs


def _direct_amplitude(s: PhotonSpectrum, t: float):
    """The oracle's grid-order vector amplitude of A+, exp(-i omega t) included.

    Per mode, a = i g omega^{-1/2} exp(-i omega t) (0 on the excluded modes)
    and a+- = a c+-; then, per component, coeffs = a+ e+ + a- conj(e+), with
    the operands of every product in the order of the one-expression form
    ``(a c+) e+ + (a c-) conj(e+)``: a SIMD complex multiply need not give
    the same bits with its operands swapped.  Stored component-major.
    """
    grid = s.grid
    e_plus = build_basis(grid)
    weight = 1j * grid.cell_weight
    omega, mask = grid.omega, grid.exclusion_mask
    c_plus, c_minus = s.c
    t = float(t)
    root = np.empty(omega.shape)
    a_plus = np.empty(omega.shape, np.complex128)
    a_minus = np.empty_like(a_plus)
    term = np.empty_like(a_plus)
    # component-major, so each component is one contiguous block for the contraction
    coeffs = vector_array(omega.shape, np.complex128)

    def fill(x):
        a, root_x, term_x = a_plus[x], root[x], term[x]
        # a = i g / sqrt(omega) * exp(-i omega t), 0 on the excluded modes
        np.copyto(root_x, omega[x])
        np.copyto(root_x, 1.0, where=mask[x])
        np.sqrt(root_x, out=root_x)
        np.divide(weight, root_x, out=a)
        np.multiply(-1j, omega[x], out=term_x)
        np.multiply(term_x, t, out=term_x)
        np.exp(term_x, out=term_x)
        np.multiply(a, term_x, out=a)
        np.copyto(a, 0.0, where=mask[x])
        # a- = a c-, then a+ = a c+ in place of a
        np.multiply(a, c_minus[x], out=a_minus[x])
        np.multiply(a, c_plus[x], out=a)
        for i in range(3):
            out = coeffs[x, ..., i]
            np.multiply(a, e_plus[x, ..., i], out=out)
            np.conjugate(e_plus[x, ..., i], out=term_x)
            np.multiply(a_minus[x], term_x, out=term_x)
            np.add(out, term_x, out=out)

    _in_slabs(fill, omega.shape[0])
    return coeffs


def _direct_eval(coeffs, grid, points):
    """sum_k coeffs(k) exp(i k.x) at each point; any number of trailing components.

    exp(i k.x) = exp(i k_x x) exp(i k_y y) exp(i k_z z) over ``grid.axes``
    (3 n exponentials per point instead of n^3), so the sum contracts the z
    axis, then y, then x, each step one einsum without ``optimize`` (never
    BLAS) that reads ``coeffs`` in place and makes no full-grid array.
    """
    amp = leading(coeffs)
    out = np.empty((points.shape[0],) + amp.shape[:-3], dtype=np.complex128)
    for i, x in enumerate(points):
        ex, ey, ez = (np.exp(1j * (k * xa)) for k, xa in zip(grid.axes, x))
        over_z = np.einsum("...xyz,z->...xy", amp, ez)
        over_y = np.einsum("...xy,y->...x", over_z, ey)
        out[i] = np.einsum("...x,x->...", over_y, ex)
    return out


def _direct_fields(coeffs, grid, points):
    """(A+, E+, B+) at the points from one quadrature over nine components."""
    stacked = np.concatenate(
        [leading(coeffs), leading(1j * grid.omega[..., None] * coeffs),
         leading(1j * np.cross(grid.k_vectors, coeffs))],
    )
    out = _direct_eval(trailing(stacked, 1), grid, points)
    return out[:, :3], out[:, 3:6], out[:, 6:]


def synthesize_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle: (A+, E+, B+) at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_fields(_direct_amplitude(s, t), s.grid, points)


def vector_potential_at_points(s: PhotonSpectrum, points, t: float):
    """Direct quadrature oracle for A+ alone at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _direct_eval(_direct_amplitude(s, t), s.grid, points)
