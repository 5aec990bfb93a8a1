"""Causal potential quadrature: statics, radiation, causality, factored sources."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from photonlab import retarded_solver, slabs
from photonlab.retarded_solver import (
    PotentialField,
    SourceCurrent,
    _shift_groups,
    fields_from_potential,
    gauge_residual,
    gaussian_dipole_source,
    retarded_potential,
    uniform_ball_source,
)
from photonlab.mode_space import SpatialGrid
from photonlab.registry import (
    _dipole_gauge_residual,
    _with_edit,
    check_retarded_solver,
    control_nonconserved_source,
    dipole_source,
)


@pytest.fixture(scope="module")
def ball():
    return uniform_ball_source(2.5, 1.0, 2.2 / 15, 15)


@pytest.fixture(scope="module")
def small_dipole():
    return gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.4, 0.2, 9, t0=0.0, delta_t=0.5, n_times=8
    )


@pytest.fixture(scope="module")
def long_dipole():
    """Same dipole with a finer and longer time window, for multi-time stencils."""
    return gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.4, 0.2, 9, t0=0.0, delta_t=0.1, n_times=100
    )


def _stencil_grid() -> SpatialGrid:
    h = 0.3
    return SpatialGrid((5, 5, 5), (h, h, h), (-2 * h, -2 * h, 3.0 - 2 * h))


def _reference_potential(src: SourceCurrent, points: np.ndarray, t_eval: float) -> np.ndarray:
    """Direct quadrature as gathered per (point, cell) pair; (points, 4) values."""
    centres = src.grid.coordinates.reshape(-1, 3)
    dist = np.linalg.norm(points[:, None, :] - centres[None, :, :], axis=-1)
    dist = np.maximum(dist, 0.5 * min(src.grid.delta_x))
    offset = np.clip((t_eval - dist - src.t0) / src.delta_t, 0.0, src.n_times - 1.0)
    index = np.minimum(offset.astype(int), src.n_times - 2)
    frac = (offset - index)[..., None]
    samples = src.table.reshape(src.n_times, -1, 4)
    cells = np.arange(centres.shape[0])
    interpolated = (1.0 - frac) * samples[index, cells] + frac * samples[index + 1, cells]
    return src.grid.cell_volume / (4.0 * math.pi) * np.einsum("pc,pck->pk", 1.0 / dist, interpolated)


def _coulomb_error(src: SourceCurrent, charge: float, radius: float) -> float:
    directions = np.array(
        [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.577350269, 0.577350269, 0.577350269]]
    )
    field = retarded_potential(src, radius * directions, 0.0)
    exact = charge / (4.0 * math.pi * radius)
    return float(np.max(np.abs(field.phi_over_c[0] / exact - 1.0)))


# ---------------------------------------------------------------------------
# Statics: the exactly solvable benchmark


def test_static_ball_reproduces_point_charge_potential(ball):
    assert _coulomb_error(ball, 2.5, 3.0) < 1e-3
    assert _coulomb_error(ball, 2.5, 5.0) < _coulomb_error(ball, 2.5, 3.0)


def test_coulomb_error_shrinks_under_refinement(ball):
    fine = uniform_ball_source(2.5, 1.0, 2.2 / 30, 30)
    coarse_err = _coulomb_error(ball, 2.5, 3.0)
    fine_err = _coulomb_error(fine, 2.5, 3.0)
    assert coarse_err / fine_err >= 2.0


def test_static_ball_charge_and_conservation(ball):
    assert ball.total_charge() == pytest.approx(2.5, abs=1e-12)
    assert ball.conservation_residual() == 0.0


def test_static_ball_fields_are_electrostatic(ball):
    center = (0.0, 0.0, 3.0)
    h = 0.3
    origin = tuple(c - 2.0 * h for c in center)
    grid = SpatialGrid((5, 5, 5), (h, h, h), origin)
    field = retarded_potential(ball, grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    e_field, b_field = fields_from_potential(field)
    assert np.max(np.abs(b_field)) == 0.0  # zero current => zero A => zero curl
    assert gauge_residual(field) == 0.0
    r = 3.0
    exact = 2.5 / (4.0 * math.pi * r * r)
    measured = e_field[0, 1, 1, 1]  # interior point closest to the centre
    assert measured[2] == pytest.approx(exact, rel=2e-2)
    assert abs(measured[0]) < 2e-2 * exact and abs(measured[1]) < 2e-2 * exact


def test_static_source_fills_every_time_row(ball):
    points = 3.0 * np.array([[1.0, 0, 0], [0, 0.6, 0.8], [0, 0, -1.0]])
    alone = retarded_potential(ball, points, 0.0)
    field = retarded_potential(ball, points, [0.0, 0.5, 7.25])
    assert np.all(alone.phi_over_c > 0.0)
    for k in range(3):
        assert np.array_equal(field.phi_over_c[k], alone.phi_over_c[0])
        assert np.array_equal(field.A[k], alone.A[0])


# ---------------------------------------------------------------------------
# Conserved dipole: sampling error, gauge defect, radiation falloff


def test_dipole_is_conserved_and_neutral():
    src = dipole_source()
    assert src.conservation_residual() < 1e-3
    for it in (0, src.n_times // 2, src.n_times - 1):
        assert abs(src.total_charge(it)) < 1e-12


def test_conservation_residual_detects_current_deficit(small_dipole):
    broken = replace(small_dipole, profiles=small_dipole.profiles * (1.0, 0.5, 0.5, 0.5))
    assert small_dipole.conservation_residual() < 2e-2
    assert broken.conservation_residual() > 0.5


def test_gauge_residual_small_and_converging():
    src = dipole_source()
    coarse = _dipole_gauge_residual(src, 0.5, 0.2)
    fine = _dipole_gauge_residual(src, 0.25, 0.1)
    assert coarse < 1e-2
    assert coarse / fine > 2.0


def test_radiated_amplitude_falls_off_as_inverse_distance():
    src = dipole_source()
    directions = np.vstack([np.eye(3), -np.eye(3)])
    radii = np.array([8.0, 11.0, 14.0, 17.0])
    amplitudes = []
    for r in radii:
        # evaluation times aligned so every radius sees the same retarded phase
        field = retarded_potential(src, r * directions, math.pi / 2.0 + r)
        amplitudes.append(float(np.mean(np.linalg.norm(field.A[0], axis=1))))
    slope = np.polyfit(np.log(radii), np.log(amplitudes), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# Structural properties of the quadrature


def test_potential_is_linear_in_the_source(small_dipole):
    src = small_dipole
    rolled = replace(src, profiles=np.roll(src.profiles, 2, axis=3))
    combined = replace(src, profiles=1.75 * src.profiles + rolled.profiles)
    point = np.array([[2.0, 1.0, 1.5]])
    t = 4.85
    a = retarded_potential(src, point, t)
    b = retarded_potential(rolled, point, t)
    c = retarded_potential(combined, point, t)
    scale = max(np.max(np.abs(c.phi_over_c)), np.max(np.abs(c.A)))
    assert np.max(np.abs(c.phi_over_c - 1.75 * a.phi_over_c - b.phi_over_c)) < 1e-14 * scale
    assert np.max(np.abs(c.A - 1.75 * a.A - b.A)) < 1e-14 * scale


def test_causality_is_discretely_exact(small_dipole):
    src = small_dipole
    last = np.zeros(src.n_times)
    last[-1] = 1.0
    edited = _with_edit(src, last)
    point = np.array([[3.0, 0.0, 0.0]])

    # Before the edited slice can causally reach the point: bitwise identical.
    early_a = retarded_potential(src, point, 4.5)
    early_b = retarded_potential(edited, point, 4.5)
    assert np.array_equal(early_a.phi_over_c, early_b.phi_over_c)
    assert np.array_equal(early_a.A, early_b.A)

    # After light from the edit arrives: the huge perturbation is visible.
    late_a = retarded_potential(src, point, 5.4)
    late_b = retarded_potential(edited, point, 5.4)
    assert not np.array_equal(late_a.phi_over_c, late_b.phi_over_c)


@pytest.mark.parametrize(
    "times, group_sizes",
    [
        (5.0 + 0.5 * np.arange(5), [5]),  # 5 delta_t apart, as the coarse gauge stencil
        (5.0 + 0.25 * np.arange(5), [3, 2]),  # 2.5 delta_t apart, as the fine one
        (np.array([5.0, 5.37, 6.01, 5.73]), [1, 1, 1, 1]),
    ],
)
def test_multi_time_evaluation_matches_single_times(long_dipole, times, group_sizes):
    src = long_dipole
    assert [len(group) for group in _shift_groups(times, src, [True] * len(times))] == group_sizes
    grid = _stencil_grid()
    together = retarded_potential(src, grid, times)
    for k, t_eval in enumerate(times):
        alone = retarded_potential(src, grid, t_eval)
        reference = _reference_potential(src, grid.coordinates.reshape(-1, 3), t_eval)
        for joint, single, direct in (
            (together.phi_over_c, alone.phi_over_c, reference[:, 0]),
            (together.A, alone.A, reference[:, 1:]),
        ):
            scale = np.max(np.abs(direct))
            assert scale > 0.0
            assert np.max(np.abs(joint[k] - single[0])) <= 1e-13 * scale
            assert np.max(np.abs(joint[k].reshape(direct.shape) - direct)) <= 1e-13 * scale


def test_a_clipped_time_forms_its_own_group(long_dipole):
    times = 5.0 + 0.5 * np.arange(5)
    groups = _shift_groups(times, long_dipole, [True, False, True, True, False])
    assert groups == [[(0, 0), (2, 10), (3, 15)], [(1, 0)], [(4, 0)]]


@pytest.mark.parametrize("block_pairs", [1, 2250])
def test_cell_blocks_add_up_to_the_whole_source(long_dipole, ball, monkeypatch, block_pairs):
    """Blocks of one z-row, or of two with a last block of one, match one block."""
    grid = _stencil_grid()
    times = 5.0 + 0.5 * np.arange(3)
    points = 3.0 * np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.6, 0.0, 0.8]])

    def evaluate():
        return [
            retarded_potential(long_dipole, grid, times),  # time-dependent, shared operator
            retarded_potential(long_dipole, points, [5.0, 5.37]),  # one operator per time
            retarded_potential(ball, points, 0.0),  # static
        ]

    monkeypatch.setattr(retarded_solver, "_BLOCK_PAIRS", 2**40)
    whole = evaluate()
    monkeypatch.setattr(retarded_solver, "_BLOCK_PAIRS", block_pairs)
    blocked = evaluate()
    for one, many in zip(whole, blocked):
        scale = max(np.max(np.abs(one.phi_over_c)), np.max(np.abs(one.A)))
        assert scale > 0.0
        assert np.max(np.abs(one.phi_over_c - many.phi_over_c)) <= 1e-13 * scale
        assert np.max(np.abs(one.A - many.A)) <= 1e-13 * scale


def test_quadrature_does_not_depend_on_the_thread_count(long_dipole, ball, monkeypatch):
    """Three workers, two and one each add their own chunks of points.

    Every case has at least three chunks, so that the workers share them; the
    last gives chunks of unequal size (40, 40, 40 and 5 points).  A short
    switch interval makes the workers' Python steps interleave.
    """
    monkeypatch.setattr(slabs, "_cpus", lambda: 3)
    grid = _stencil_grid()
    points = 3.0 * np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.6, 0.0, 0.8]])
    cases = [
        # (points per chunk, source, targets, times): 8, 4, 4 and 4 chunks
        (16, long_dipole, grid, 5.0 + 0.5 * np.arange(5)),  # one shared operator
        (1, long_dipole, points, [5.0, 5.37, 6.01]),  # one operator per time
        (1, ball, points, [0.0, 1.0]),  # static
        (40, long_dipole, grid, 5.0 + 0.25 * np.arange(5)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for eval_chunk, src, targets, times in cases:
            monkeypatch.setattr(retarded_solver, "_EVAL_CHUNK", eval_chunk)
            runs = []
            for threads in ("3", "2", "1"):
                monkeypatch.setenv("PHOTONLAB_THREADS", threads)
                runs.append(retarded_potential(src, targets, times))
            *many, one = runs
            assert np.any(one.phi_over_c != 0.0)
            for field in many:
                assert np.array_equal(field.phi_over_c, one.phi_over_c)
                assert np.array_equal(field.A, one.A)
    finally:
        sys.setswitchinterval(interval)


def test_shared_operator_reaches_both_ends_of_the_window():
    """Members of one group whose retarded offsets hit slice 0 and slice
    n_times - 1 exactly match single-time evaluation.

    The cells lie on a line through the point, at dyadic distances 2 to 4,
    and the times are whole multiples of the dyadic step, so every offset is
    exact.  The first time reads slices 4 to 12, the second 0 to 8 and the
    third 31 to 39, its nearest cell one slice past the bracket its operator
    row would have inside the window.
    """
    rng = np.random.default_rng(18)
    n_times = 40
    src = SourceCurrent(rng.normal(size=(n_times, 2)), rng.normal(size=(2, 9, 1, 1, 4)),
                        SpatialGrid((9, 1, 1), (0.25, 0.25, 0.25), (-1.0, 0.0, 0.0)),
                        t0=0.0, delta_t=0.25)
    point = np.array([[3.0, 0.0, 0.0]])
    times = np.array([5.0, 4.0, 11.75])
    assert _shift_groups(times, src, [True] * 3) == [[(0, 0), (1, -4), (2, 27)]]
    together = retarded_potential(src, point, times)
    for k, t_eval in enumerate(times):
        alone = retarded_potential(src, point, t_eval)
        direct = _reference_potential(src, point, t_eval)
        for joint, single, reference in (
            (together.phi_over_c, alone.phi_over_c, direct[:, 0]),
            (together.A, alone.A, direct[:, 1:]),
        ):
            scale = np.max(np.abs(reference))
            assert scale > 0.0
            assert np.max(np.abs(joint[k] - single[0])) <= 1e-13 * scale
            assert np.max(np.abs(joint[k] - reference)) <= 1e-13 * scale


def test_empty_point_set_gives_empty_potentials(small_dipole, ball):
    for src, times in ((small_dipole, [3.0, 3.5]), (ball, [0.0, 1.0])):
        field = retarded_potential(src, np.zeros((0, 3)), times)
        assert field.phi_over_c.shape == (2, 0)
        assert field.A.shape == (2, 0, 3)


@pytest.mark.parametrize(
    "point, times, message",
    [
        ([np.nan, 0.0, 0.0], 4.0, "evaluation points must be finite"),
        ([3.0, 0.0, 0.0], [4.0, np.nan], "evaluation times must be finite"),
        ([3.0, 0.0, 0.0], np.inf, "evaluation times must be finite"),
    ],
)
def test_non_finite_points_and_times_are_rejected(small_dipole, ball, point, times, message):
    for src in (small_dipole, ball):
        with pytest.raises(ValueError, match=message):
            retarded_potential(src, np.array([point]), times)


def test_multi_time_grid_causality_is_discretely_exact(long_dipole):
    src = long_dipole
    grid = _stencil_grid()
    times = 5.03 + 0.5 * np.arange(4)
    separation = grid.coordinates.reshape(-1, 1, 3) - src.grid.coordinates.reshape(1, -1, 3)
    nearest = max(float(np.min(np.linalg.norm(separation, axis=-1))), 0.5 * src.grid.delta_x[0])
    latest = (times[-1] - nearest - src.t0) / src.delta_t
    assert 0.1 < latest % 1.0 < 0.9  # the latest bracket is not at a rounding edge
    cut = int(latest) + 2  # first slice strictly later than every bracket
    edited = _with_edit(src, (np.arange(src.n_times) >= cut).astype(float))

    before_a = retarded_potential(src, grid, times)
    before_b = retarded_potential(edited, grid, times)
    leak = max(
        np.max(np.abs(before_a.phi_over_c - before_b.phi_over_c)),
        np.max(np.abs(before_a.A - before_b.A)),
    )
    assert leak == 0.0

    later = times + 0.5
    after_a = retarded_potential(src, grid, later)
    after_b = retarded_potential(edited, grid, later)
    assert not np.array_equal(after_a.phi_over_c, after_b.phi_over_c)


def test_window_check_covers_every_evaluation_time(small_dipole):
    points = np.array([[3.0, 0.0, 0.0], [0.0, 2.5, 1.0]])
    assert retarded_potential(small_dipole, points, [4.0, 4.5]).phi_over_c.shape == (2, 2)
    # Only the last time needs samples beyond the window's end.
    with pytest.raises(ValueError) as excinfo:
        retarded_potential(small_dipole, points, [4.0, 4.5, 5.5])
    assert str(excinfo.value) == (
        "retarded time outside source window: need [1.53515, 3.78828] inside [0, 3.5]"
    )


def test_window_violation_names_the_required_range(small_dipole):
    far_point = np.array([[30.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="retarded time outside source window"):
        retarded_potential(small_dipole, far_point, 1.0)


def test_inside_source_point_is_softened(small_dipole):
    inside = np.array([[0.0, 0.0, 0.0]])
    softened = retarded_potential(small_dipole, inside, 3.4)
    assert np.all(np.isfinite(softened.phi_over_c))
    assert np.all(np.isfinite(softened.A))


def test_point_shape_validation(small_dipole):
    with pytest.raises(ValueError, match=r"shape \(n_points, 3\)"):
        retarded_potential(small_dipole, np.zeros((2, 4)), 4.0)


# ---------------------------------------------------------------------------
# Synthetic potentials: stencil fidelity and tensor packaging


def test_plane_wave_fields_travel_at_light_speed():
    """A = x-polarized cos(k z - w t) with k = w: finite differences must
    reproduce |E| = |B| (equality of the field magnitudes at light speed)."""
    n, h, ht = 9, 0.05, 0.03
    grid = SpatialGrid((n, n, n), (h, h, h), (-(n // 2) * h,) * 3)
    times = ht * (np.arange(5) - 2)
    z = grid.coordinates[..., 2]
    phase = z[None, ...] - times[:, None, None, None]
    a_field = np.zeros((5, n, n, n, 3))
    a_field[..., 0] = 0.8 * np.cos(phase)
    field = PotentialField(np.zeros((5, n, n, n)), a_field, tuple(times), grid=grid)

    assert gauge_residual(field) == 0.0  # A_x has no x-dependence, phi = 0
    e_field, b_field = fields_from_potential(field)
    ratio = np.linalg.norm(e_field) / np.linalg.norm(b_field)
    assert abs(ratio - 1.0) < 1e-3
    assert np.max(np.abs(np.sum(e_field * b_field, axis=-1))) == 0.0
    assert np.max(np.abs(e_field[..., 1:])) == 0.0
    assert np.max(np.abs(b_field[..., 0])) == 0.0 and np.max(np.abs(b_field[..., 2])) == 0.0


def test_derivative_order_follows_the_core_margin():
    """On a cubic the fourth-order stencil is exact and the second-order one
    is off by exactly h^2, so the result shows which order the margin chose."""
    h = 0.3
    x = h * np.arange(9) - 1.0
    cubic = np.broadcast_to((x**3)[None, :, None, None], (3, 9, 4, 4))
    slope = 3.0 * x**2
    for margin, expected in ((2, slope), (3, slope), (1, slope + h**2)):
        core = (slice(1, 2), slice(margin, 9 - margin), slice(1, 3), slice(0, 4))
        got = retarded_solver._interior_derivative(cubic, 1, h, core)
        assert got.shape == (1, 9 - 2 * margin, 2, 4)
        want = np.broadcast_to(expected[None, margin:9 - margin, None, None], got.shape)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_derivative_without_margin_is_forward_in_time_or_zero():
    values = np.arange(2 * 3 * 1 * 2, dtype=float).reshape(2, 3, 1, 2) ** 2
    core = (slice(0, 2), slice(0, 3), slice(0, 1), slice(0, 2))
    forward = retarded_solver._interior_derivative(values, 0, 0.25, core)
    step = (values[1] - values[0]) / 0.25
    assert np.array_equal(forward, np.stack([step, step]))
    # one sample along the axis (and no margin along time with three slices)
    flat = retarded_solver._interior_derivative(values, 2, 0.1, core)
    assert flat.shape == values.shape and not flat.any()
    three = np.concatenate([values, values[:1]])
    core3 = (slice(0, 3),) + core[1:]
    assert not retarded_solver._interior_derivative(three, 0, 0.25, core3).any()


def _second_order_reference(pf: PotentialField):
    """Gauge defect, E and B from plain centred differences on the interior."""
    ht = pf.times[1] - pf.times[0]
    hx = pf.grid.delta_x
    inner = (slice(1, -1),) * 4

    def d(arr, axis, step):
        up, down = list(inner), list(inner)
        up[axis], down[axis] = slice(2, None), slice(None, -2)
        return (arr[tuple(up)] - arr[tuple(down)]) / (2.0 * step)

    phi, vec = pf.phi_over_c, pf.A
    div = sum(d(vec[..., a], a + 1, hx[a]) for a in range(3))
    gauge = np.linalg.norm(d(phi, 0, ht) + div) / np.linalg.norm(div)
    e_field = np.stack(
        [-d(vec[..., a], 0, ht) - d(phi, a + 1, hx[a]) for a in range(3)], axis=-1
    )
    b_field = np.stack(
        [d(vec[..., k], j + 1, hx[j]) - d(vec[..., j], k + 1, hx[k])
         for j, k in ((1, 2), (2, 0), (0, 1))],
        axis=-1,
    )
    return gauge, e_field, b_field


def test_gauge_and_fields_match_a_second_order_reference():
    rng = np.random.default_rng(404)
    grid = SpatialGrid((5, 6, 7), (0.3, 0.2, 0.45), (0.0, 1.0, 2.0))
    times = 0.7 + 0.15 * np.arange(6)
    shape = (times.size,) + grid.n_per_axis
    field = PotentialField(
        rng.standard_normal(shape), rng.standard_normal(shape + (3,)), tuple(times), grid=grid
    )
    gauge, e_ref, b_ref = _second_order_reference(field)
    e_field, b_field = fields_from_potential(field)
    assert e_field.shape == b_field.shape == (4, 3, 4, 5, 3)
    np.testing.assert_allclose(e_field, e_ref, rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(b_field, b_ref, rtol=1e-13, atol=1e-12)
    assert gauge_residual(field) == pytest.approx(gauge, rel=1e-13)


def test_potential_field_time_step_checks():
    grid = SpatialGrid((3, 3, 3), (0.1, 0.1, 0.1), (0.0, 0.0, 0.0))
    shape = (3, 3, 3, 3)
    uniform = PotentialField(
        np.zeros(shape), np.zeros(shape + (3,)), (0.0, 0.1, 0.2), grid=grid
    )
    assert uniform.time_step == pytest.approx(0.1)
    ragged = PotentialField(
        np.zeros(shape), np.zeros(shape + (3,)), (0.0, 0.1, 0.35), grid=grid
    )
    with pytest.raises(ValueError, match="uniform"):
        _ = ragged.time_step


# ---------------------------------------------------------------------------
# Factored sources


def test_source_shape_validation():
    cube = SpatialGrid((3, 3, 3), (0.1,) * 3, (0.0,) * 3)
    with pytest.raises(ValueError, match="time_coefficients must have shape"):
        SourceCurrent(np.ones(3), np.zeros((1, 3, 3, 3, 4)), cube)
    with pytest.raises(ValueError, match="profiles shape"):
        SourceCurrent(np.ones((1, 2)), np.zeros((1, 3, 3, 3, 4)), cube)
    with pytest.raises(ValueError, match="profiles shape"):
        SourceCurrent(np.ones((1, 1)), np.zeros((1, 3, 3, 3, 3)), cube)
    with pytest.raises(ValueError, match="delta_t"):
        SourceCurrent(np.ones((2, 1)), np.zeros((1, 3, 3, 3, 4)), cube)
    with pytest.raises(ValueError, match="time_coefficients contains non-finite"):
        SourceCurrent(np.full((1, 1), np.nan), np.zeros((1, 3, 3, 3, 4)), cube)
    with pytest.raises(ValueError, match="profiles contains non-finite"):
        SourceCurrent(np.ones((1, 1)), np.full((1, 3, 3, 3, 4), np.inf), cube)
    # the grid, not the profiles, fixes the lattice
    with pytest.raises(ValueError, match=r"profiles shape \(1, 3, 3, 3, 4\) does not match"):
        SourceCurrent(np.ones((1, 1)), np.zeros((1, 3, 3, 3, 4)),
                      SpatialGrid((3, 3, 4), (0.1,) * 3, (0.0,) * 3))
    src = SourceCurrent(np.ones((2, 1)), np.zeros((1, 3, 3, 3, 4)), cube, delta_t=0.5)
    with pytest.raises(ValueError, match=r"profiles shape \(1, 3, 3, 2, 4\) does not match"):
        replace(src, profiles=np.zeros((1, 3, 3, 2, 4)))
    # a non-finite slice time is named, not carried into the quadrature
    for name, value in (("t0", np.nan), ("t0", np.inf), ("delta_t", np.nan), ("delta_t", np.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(src, **{name: value})
    # an edit is copied and frozen exactly as a new source is
    profiles = np.ones((1, 3, 3, 3, 4))
    edited = replace(src, profiles=profiles)
    profiles[...] = 7.0
    assert edited.grid is cube and np.all(edited.profiles == 1.0)
    assert edited.time_coefficients is not src.time_coefficients
    for factor in (edited.time_coefficients, edited.profiles):
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 1.0


def test_source_samples_are_read_only_views_of_one_table(small_dipole):
    src = small_dipole
    table = src.table
    assert table.shape == (8, 9, 9, 9, 4)
    assert np.array_equal(src.table, table)
    assert src.table is not table  # computed on every access, never cached
    for samples in (table[..., 0], table[..., 1:], src.time_coefficients, src.profiles):
        with pytest.raises(ValueError, match="read-only"):
            samples[0, 0] = 1.0


def test_a_source_compares_and_hashes_by_identity():
    """No elementwise comparison of the factors: an equal copy is another source."""
    src = dipole_source()
    assert (src == replace(src)) is False
    assert src == src and {src, src} == {src}


def test_table_is_the_product_of_the_factors(small_dipole, ball):
    for src, rank in ((small_dipole, 2), (ball, 1)):
        assert src.time_coefficients.shape == (src.n_times, rank)
        assert src.profiles.shape == (rank,) + src.n_per_axis + (4,)
        product = src.time_coefficients @ src.profiles.reshape(rank, -1)
        assert np.array_equal(src.table.reshape(src.n_times, -1), product)
        assert not src.table.flags.writeable


def test_constructor_packs_user_arrays_once():
    coefficients = np.ones((2, 1))
    profiles = np.zeros((1, 3, 3, 3, 4))
    profiles[..., 3] = 0.5
    src = SourceCurrent(coefficients, profiles, SpatialGrid((3, 3, 3), (0.1,) * 3, (0.0,) * 3),
                        0.0, 0.25)
    coefficients[...] = 7.0  # the source holds its own copies of the factors
    profiles[...] = 7.0
    assert np.array_equal(src.table[..., 0], np.zeros((2, 3, 3, 3)))
    assert np.array_equal(src.table[..., 3], np.full((2, 3, 3, 3), 0.5))
    assert src.total_charge(1) == 0.0


def test_retarded_solver_paths_never_materialize_the_table(monkeypatch):
    """The gather, the stencils and the conservation residual act on the
    factors: with the product forbidden, the dipole radiation traffic and
    the selftest's solver check and control still run and pass."""

    def forbidden(self):
        raise AssertionError("the sampled table was materialized")

    monkeypatch.setattr(SourceCurrent, "table", property(forbidden))
    src = gaussian_dipole_source(
        (0.0, 0.0, 1.0), 1.0, 0.352, delta_x=0.16, n_per_axis=9,
        t0=-1.2, delta_t=0.08, n_times=120,
    )
    assert 0.0 < src.conservation_residual() < 0.1
    stencil = SpatialGrid((5, 5, 5), (0.5, 0.5, 0.5), (-1.0, -1.0, 1.9))
    assert 0.0 < gauge_residual(retarded_potential(src, stencil, 5.8 + 0.2 * (np.arange(5) - 2))) < 1.0
    directions = np.concatenate([np.eye(3), -np.eye(3)])
    for radius in (4.0, 6.5):
        probe = retarded_potential(src, radius * directions, math.pi / 2 + radius)
        assert np.all(np.isfinite(probe.A)) and np.any(probe.A != 0.0)
    for check in (check_retarded_solver, control_nonconserved_source):
        metrics = check()
        assert all(metric.ok for metric in metrics), metrics
