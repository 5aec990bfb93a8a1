"""Retarded Lorenz-gauge potentials from a sampled four-current.

Natural units: c = epsilon_0 = mu_0 = 1.  A prescribed charge/current
distribution is sampled at the centres of a uniform spatial grid over a
uniform time window, and the causal wave-equation solution is evaluated by
direct quadrature:

    phi_over_c(x, t) = (1/4pi) * sum_cells V_cell * rho(x', t - R) / R
    A(x, t)          = (1/4pi) * sum_cells V_cell * J(x', t - R) / R

where R = max(|x - x'|, r_reg) and the regularization radius r_reg is half
the smallest source cell spacing, so points inside the source box stay
finite.  The quadrature is the midpoint rule over source cells; the retarded
time t - R is resolved by linear interpolation between the two bracketing
source slices (second-order accurate in the source time step).  A
single-slice source is treated as static, i.e. time-independent.

The source is held in factored form (see :class:`SourceCurrent`): ``r``
time-coefficient columns and ``r`` profile rows of ``[rho, Jx, Jy, Jz]``
per cell of one :class:`SpatialGrid`, whose products sum to the samples.
The solver never forms that sum: interpolation and quadrature are both
linear, so it interpolates the coefficients at each retarded time and
contracts the result with the profile rows.

Chunks of evaluation points run on the pool of :mod:`photonlab.slabs`,
under its rule.  Each chunk is summed in one fixed order (cell block, then
rank), so the result is bitwise identical for any number of workers.

Causality is discrete and exact: each contribution reads only the two
coefficient rows bracketing its retarded time, so editing the source
strictly later than every bracket leaves the evaluated potentials bitwise
unchanged.  An edit made as an extra rank adds exact zeros there, because
its coefficients vanish on every bracketing slice and the ranks are added
one at a time.

Conventions for derived quantities:

* One centred-difference helper serves the source-conservation, gauge and
  field stencils; its order on each axis is set by the margin the evaluated
  interior leaves there (fourth order for two samples, second for one).
* Lorenz-gauge residual: d(phi_over_c)/dt + div A, normalized by the L2 norm
  of div A, both via centred differences on interior samples.
* Fields: E = -dA/dt - grad(phi), B = curl A, again centred differences.
* Sums over cells or samples follow the no-BLAS rule of
  :func:`~photonlab.mode_space.l2_norm`; the quadrature's block contraction
  and :attr:`SourceCurrent.table` sum over the rank alone and may use BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mode_space import SpatialGrid, _read_only, l2_norm
from .slabs import _in_slabs

FOUR_PI = 4.0 * math.pi

# Evaluation points per chunk, the unit of work of one pool worker; the source
# window is checked once per chunk.  The 125-point gauge stencils make 4
# chunks, two per worker on two cores, while the few-point probes are one
# chunk on the calling thread.
_EVAL_CHUNK = 32

# (point, cell) pairs per block of whole z-rows of cells.  A block's arrays
# (512 kB per float64 or index array) and its interpolation operator (1.5 MB:
# two float64 weights and one slice index per pair) stay in cache while the
# operator is built and applied at every time that reuses it.
_BLOCK_PAIRS = 2**16

# Slack, in source steps, allowed when checking retarded times against the
# source window; offsets inside it are clipped onto the window.
_WINDOW_SLACK = 1e-9

# Rounding tolerance, relative to the magnitudes of the times in source steps,
# under which two evaluation times count as a whole number of steps apart and
# share an interpolation operator.
_SHIFT_TOLERANCE = 16 * np.finfo(float).eps

_DENOMINATOR_FLOOR = 1e-30

# Space-time samples per chunk of slices in the factored conservation
# residual (2 MB per float64 array).
_CONSERVATION_CHUNK = 2**18


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


@dataclass(frozen=True, eq=False)
class SourceCurrent:
    """Four-current sampled on a uniform space-time lattice, in factored form.

    The samples are a sum of ``r`` products of a time coefficient and a
    spatial profile: slice ``i`` of ``[rho, Jx, Jy, Jz]`` is
    ``sum_q time_coefficients[i, q] * profiles[q]``, with
    ``time_coefficients`` of shape (n_times, r) and ``profiles`` of shape
    (r, nx, ny, nz, 4).  Construction, and every ``dataclasses.replace``,
    keeps read-only copies of both factors and never forms their product.
    The cell centres are the points of ``grid``, which alone checks the
    lattice; slice ``i`` is at time ``t0 + i * delta_t``.

    ``table`` (n_times, nx, ny, nz, 4) computes the product on every
    access; it costs the whole sampled table and serves tests that need the
    samples themselves.

    Construction validates shapes and finiteness only.  Charge conservation
    is a property of the sampled data, measured by
    :meth:`conservation_residual`; deliberately non-conserved sources remain
    constructible so negative controls can be run against them.
    """

    time_coefficients: np.ndarray
    profiles: np.ndarray
    grid: SpatialGrid
    t0: float = 0.0
    delta_t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("time_coefficients", "profiles"):
            object.__setattr__(self, name, _read_only_copy(getattr(self, name), name))
        coefficients, rows = self.time_coefficients, self.profiles
        if coefficients.ndim != 2 or coefficients.shape[1] < 1:
            raise ValueError(
                f"time_coefficients must have shape (n_times, r), got {coefficients.shape}"
            )
        expected = coefficients.shape[1:] + self.grid.n_per_axis + (4,)
        if rows.shape != expected:
            raise ValueError(
                f"profiles shape {rows.shape} does not match (r,) + grid.n_per_axis + (4,) "
                f"= {expected}"
            )
        for name in ("t0", "delta_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_times > 1 and self.delta_t <= 0:
            raise ValueError("delta_t must be positive for a multi-slice source")
        if self.delta_t < 0:
            raise ValueError("delta_t must be non-negative")

    @property
    def table(self) -> np.ndarray:
        rank = self.profiles.shape[0]
        table = _read_only(self.time_coefficients @ self.profiles.reshape(rank, -1))
        return table.reshape((self.n_times,) + self.profiles.shape[1:])

    @property
    def n_times(self) -> int:
        return self.time_coefficients.shape[0]

    @property
    def n_per_axis(self) -> tuple[int, int, int]:
        return self.grid.n_per_axis

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.delta_t * np.arange(self.n_times)

    def total_charge(self, time_index: int = 0) -> float:
        charges = self.profiles[..., 0].reshape(self.profiles.shape[0], -1).sum(axis=1)
        return float(np.einsum("q,q->", self.time_coefficients[time_index], charges)
                     * self.grid.cell_volume)

    def conservation_residual(self) -> float:
        """L2 residual of d(rho)/dt + div J over the interior, normalized.

        Derivatives use fourth-order centred differences where five samples
        are available per axis, falling back to second-order (three samples)
        and to a zero derivative below that.  The residual is normalized by
        ``max(||div J||_2, eps)``, so a static source scores exactly zero and
        a source with vanishing current but moving charge scores enormous.

        Both terms are linear in the factors: ``d(rho)/dt`` is the time
        derivative of the coefficients against the profiles' rho rows, and
        ``div J`` the coefficients against the profiles' divergence, formed a
        few slices at a time and never as a whole space-time array.
        """
        rank = self.profiles.shape[0]
        core = _interior_slices((self.n_times,) + self.n_per_axis)
        core_x = (slice(0, rank),) + core[1:]
        rows, steps = self.profiles, self.grid.delta_x
        div = _interior_derivative(rows[..., 1], 1, steps[0], core_x)
        for axis in (1, 2):
            div += _interior_derivative(rows[..., axis + 1], axis + 1, steps[axis], core_x)
        div = div.reshape(rank, -1)
        charge = rows[..., 0][core_x].reshape(rank, -1)
        coefficients = self.time_coefficients[core[0]]
        rates = _interior_derivative(self.time_coefficients, 0, self.delta_t,
                                     (core[0], slice(0, rank)))
        numerator = denominator = 0.0
        chunk = max(1, _CONSERVATION_CHUNK // div.shape[1])
        for lo in range(0, coefficients.shape[0], chunk):
            div_j = np.einsum("tq,qc->tc", coefficients[lo:lo + chunk], div)
            denominator = math.hypot(denominator, l2_norm(div_j))
            div_j += np.einsum("tq,qc->tc", rates[lo:lo + chunk], charge)
            numerator = math.hypot(numerator, l2_norm(div_j))
        return numerator / max(denominator, _DENOMINATOR_FLOOR)


def _read_only_copy(value, name: str) -> np.ndarray:
    return _read_only(np.array(_as_float_array(value, name)))


def _interior_slices(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Trim each axis by the stencil margin used for its derivatives."""
    margins = []
    for n in shape[:4]:
        margins.append(2 if n >= 5 else (1 if n >= 3 else 0))
    return tuple(slice(m, n - m) for m, n in zip(margins, shape[:4]))


def _interior_derivative(
    arr: np.ndarray, axis: int, step: float, core: tuple[slice, ...]
) -> np.ndarray:
    """Centred difference along ``axis``, evaluated on the ``core`` slices only.

    The order follows the margin ``core`` leaves on that axis: fourth order
    for two samples or more, second order for one.  With no margin the
    derivative is zero, except along time (axis 0) with two samples, where
    both get the one forward difference.
    """
    n = arr.shape[axis]
    margin = min(core[axis].start, n - core[axis].stop)

    def shifted(offset: int) -> np.ndarray:
        index = list(core)
        index[axis] = slice(core[axis].start + offset, core[axis].stop + offset)
        return arr[tuple(index)]

    if margin >= 2:
        # (-f[+2] + 8 f[+1] - 8 f[-1] + f[-2]) / (12 step), one temporary at a time
        out = np.negative(shifted(2))
        out += 8.0 * shifted(1)
        out -= 8.0 * shifted(-1)
        out += shifted(-2)
        out /= 12.0 * step
        return out
    if margin == 1:
        out = shifted(1) - shifted(-1)
        out /= 2.0 * step
        return out
    region = arr[core]
    if axis == 0 and n == 2:
        return np.broadcast_to((arr[1] - arr[0])[core[1:]] / step, region.shape).copy()
    return np.zeros_like(region)


@dataclass(frozen=True)
class PotentialField:
    """Potentials sampled on evaluation points (or a grid) over listed times.

    ``phi_over_c`` has a leading time axis of length ``len(times)``; ``A``
    carries a trailing component axis.  ``grid`` is the evaluation grid, or
    None when the targets were points (point mode), in the order given.
    """

    phi_over_c: np.ndarray
    A: np.ndarray
    times: tuple[float, ...]
    grid: SpatialGrid | None = None

    def __post_init__(self) -> None:
        phi = _as_float_array(self.phi_over_c, "phi_over_c")
        vec = _as_float_array(self.A, "A")
        object.__setattr__(self, "phi_over_c", phi)
        object.__setattr__(self, "A", vec)
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if vec.shape != phi.shape + (3,):
            raise ValueError(f"A shape {vec.shape} does not match phi shape {phi.shape} + (3,)")
        if phi.shape[0] != len(self.times):
            raise ValueError("leading axis must match the number of evaluation times")
        if self.grid is not None and phi.shape[1:] != self.grid.n_per_axis:
            raise ValueError("grid-mode arrays must have shape (n_times,) + grid shape")

    @property
    def time_step(self) -> float:
        if len(self.times) < 2:
            raise ValueError("insufficient stencil: need at least two time samples")
        steps = np.diff(self.times)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-30)):
            raise ValueError("evaluation times are not uniformly spaced")
        return float(steps[0])


def _squares(points: np.ndarray, grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Squared offsets from the points to the cell centres, split in two.

    The centres form a product grid, so a squared distance is ``(x + y) + z``
    of per-axis squares.  Returns ``(n_points, nx * ny)`` sums ``x + y`` over
    the z-rows of cells (row ``ix * ny + iy``) and ``(n_points, nz)`` squares
    ``z``.
    """
    sx, sy, sz = (np.subtract.outer(points[:, a], grid.axes[a]) ** 2 for a in range(3))
    return (sx[:, :, None] + sy[:, None, :]).reshape(points.shape[0], -1), sz


def _distance_range(squares: tuple[np.ndarray, np.ndarray], r_reg: float) -> tuple[float, float]:
    """Smallest and largest distance, floored at ``r_reg``, over all pairs.

    Floating-point addition is monotone, so the extreme sums come from the
    extreme terms and equal the extremes of :func:`_distances` exactly.
    """
    sxy, sz = squares
    low = sxy.min(axis=1) + sz.min(axis=1)
    high = sxy.max(axis=1) + sz.max(axis=1)
    return (float(np.maximum(np.sqrt(low.min()), r_reg)),
            float(np.maximum(np.sqrt(high.max()), r_reg)))


def _distances(squares: tuple[np.ndarray, np.ndarray], rows: slice, r_reg: float) -> np.ndarray:
    """(n_points, n_block) distances, floored at ``r_reg``, to the cells of
    the z-rows ``rows``, numbered as in the profile rows."""
    sxy, sz = squares
    dist = np.add(sxy[:, rows, None], sz[:, None, :])
    np.sqrt(dist, out=dist)
    np.maximum(dist, r_reg, out=dist)
    return dist.reshape(sxy.shape[0], -1)


def _shift_groups(
    times: np.ndarray, src: SourceCurrent, unclipped: list[bool]
) -> list[list[tuple[int, int]]]:
    """Partition evaluation times into runs a whole number of source steps apart.

    Each group lists ``(time_index, shift)`` with ``shift`` the number of
    ``delta_t`` steps from the group's first time.  A time joins a group when
    its distance to the first time is an integer number of steps up to
    rounding of the times themselves.  Only times whose retarded times all
    lie inside the source window (``unclipped[k]``) are grouped; any other
    time forms a group of its own.
    """
    steps = (times - src.t0) / src.delta_t
    scales = 1.0 + (np.abs(times) + abs(src.t0)) / src.delta_t
    groups: list[list[tuple[int, int]]] = []
    for k, step in enumerate(steps):
        for group in groups:
            first = group[0][0]
            apart = step - steps[first]
            shift = round(apart)
            tolerance = _SHIFT_TOLERANCE * (scales[k] + scales[first])
            if unclipped[k] and unclipped[first] and abs(apart - shift) <= tolerance:
                group.append((k, shift))
                break
        else:
            groups.append([(k, 0)])
    return groups


def _interpolation_operator(
    offset: np.ndarray, kernel: np.ndarray, n_times: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """One block's retarded-time interpolation, as two weights and a slice per pair.

    ``offset`` and ``kernel`` are (pairs,); ``offset`` holds the retarded
    times in source steps (overwritten).  Clipped to the window, an offset is
    ``i + frac`` with ``i`` at most ``n_times - 2``; the pair's row of
    ``weights`` (pairs, 2) is ``[kernel * (1 - frac), kernel * frac]`` and
    its ``index`` (pairs,) ``i - first``.  Returns ``(first, weights,
    index)``, with ``first`` the earliest slice the operator reads.
    """
    np.clip(offset, 0.0, n_times - 1.0, out=offset)
    index = offset.astype(np.intp)
    np.minimum(index, n_times - 2, out=index)
    frac = np.subtract(offset, index, out=offset)
    first = int(index.min())
    weights = np.empty(offset.shape + (2,))
    np.subtract(1.0, frac, out=weights[:, 0])
    weights[:, 0] *= kernel
    np.multiply(kernel, frac, out=weights[:, 1])
    index -= first
    return first, weights, index


def retarded_potential(src: SourceCurrent, eval_points, t) -> PotentialField:
    """Evaluate the causal potentials of ``src`` at points and times.

    ``eval_points`` is either an (P, 3) array of positions (point mode) or a
    :class:`SpatialGrid` (grid mode, as needed by the stencil operations).
    ``t`` is a scalar time or a 1-D sequence of times; the output arrays
    always carry a leading time axis.  Points and times must be finite.

    The retarded time of every contributing (point, cell) pair must fall
    inside the source window; otherwise a ``ValueError`` naming the required
    range is raised.  Single-slice sources are treated as static and skip
    the window check.

    Besides the output, each worker thread holds the squared offsets of its
    current chunk (8 bytes per point and z-row of cells) and the arrays of
    its current block, allocated per block: 64 bytes per (point, cell) pair,
    at most ``max(_BLOCK_PAIRS, 32 * nz)`` pairs with ``nz`` cells per z-row
    (4.2 MB for 2**16 pairs), and 24 more per pair while a later group of
    times replaces its operator.  None of it grows with the number of
    blocks, chunks, times or ranks.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("evaluation time must be a scalar or a 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("evaluation times must be finite")

    grid = eval_points if isinstance(eval_points, SpatialGrid) else None
    if grid is not None:
        points = grid.coordinates.reshape(-1, 3)
    else:
        points = np.asarray(eval_points, dtype=float)
        if points.ndim == 1 and points.size == 3:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("evaluation points must have shape (n_points, 3)")
    if not np.all(np.isfinite(points)):
        raise ValueError("evaluation points must be finite")

    r_reg = 0.5 * min(src.grid.delta_x)

    n_times, rank = src.time_coefficients.shape
    static = n_times == 1
    coefficients = src.time_coefficients.T
    # Row i + 1 of brackets[q] is (c[i], c[i + 1]) of rank q, the two slices
    # around a retarded time i + frac.  Zero coefficients padded at both ends
    # give the rows one slice past the window that a shared operator reads
    # when rounding moves a bracket there.
    padded = np.pad(coefficients, ((0, 0), (1, 1)))
    brackets = np.stack((padded[:, :-1], padded[:, 1:]), axis=-1)
    profiles = src.profiles.reshape(rank, -1, 4)
    n_z = src.n_per_axis[2]
    n_rows = profiles.shape[1] // n_z
    n_points = points.shape[0]
    weight = src.grid.cell_volume / FOUR_PI
    values = np.zeros((times.size, n_points, 4))

    chunks = [slice(lo, min(lo + _EVAL_CHUNK, n_points))
              for lo in range(0, n_points, _EVAL_CHUNK)]

    def add_block(squares, rows, groups, out):
        """Add the contribution of the cells in z-rows ``rows`` to ``out``
        (times, points, 4), rank by rank."""
        dist = _distances(squares, rows, r_reg)
        kernel = np.divide(weight, dist)
        # The retarded times in source steps while an operator is built, then
        # the weighted coefficients of one rank.
        weighted = np.empty(dist.shape)
        product = np.empty((dist.shape[0], 4))
        cells = slice(rows.start * n_z, rows.stop * n_z)
        if static:
            for q in range(rank):
                np.multiply(kernel, coefficients[q, 0], out=weighted)
                np.matmul(weighted, profiles[q, cells], out=product)
                out += product
            return
        dist, kernel, offset = dist.reshape(-1), kernel.reshape(-1), weighted.reshape(-1)
        gathered = np.empty((dist.size, 2))
        for group in groups:
            # The group's first time builds the operator; a time `shift` steps
            # later applies it to the coefficients `shift` slices on.
            np.subtract(times[group[0][0]], dist, out=offset)
            offset -= src.t0
            offset /= src.delta_t
            first, weights, index = _interpolation_operator(offset, kernel, n_times)
            for k, shift in group:
                # w0 * c[i] + w1 * c[i + 1] per pair, into `weighted`.
                for q in range(rank):
                    np.take(brackets[q, first + shift + 1:], index, axis=0, mode="clip",
                            out=gathered)
                    gathered *= weights
                    np.add(gathered[:, 0], gathered[:, 1], out=offset)
                    np.matmul(weighted, profiles[q, cells], out=product)
                    out[k] += product

    def run(slab):
        for targets in chunks[slab]:
            squares = _squares(points[targets], src.grid)
            groups = None
            if not static:
                # The retarded time falls monotonically with distance, so the
                # extreme offsets of a time come from the nearest and farthest
                # cells.
                near, far = _distance_range(squares, r_reg)
                unclipped = []
                for t_eval in times:
                    low = (t_eval - far - src.t0) / src.delta_t
                    high = (t_eval - near - src.t0) / src.delta_t
                    if low < -_WINDOW_SLACK or high > n_times - 1 + _WINDOW_SLACK:
                        t_low = src.t0 + low * src.delta_t
                        t_high = src.t0 + high * src.delta_t
                        raise ValueError(
                            "retarded time outside source window: need "
                            f"[{t_low:.6g}, {t_high:.6g}] inside "
                            f"[{src.t0:.6g}, {src.times[-1]:.6g}]"
                        )
                    unclipped.append(low >= 0.0 and high <= n_times - 1)
                groups = _shift_groups(times, src, unclipped)
            block_rows = max(1, _BLOCK_PAIRS // (n_z * (targets.stop - targets.start)))
            for row in range(0, n_rows, block_rows):
                add_block(squares, slice(row, min(row + block_rows, n_rows)), groups,
                          values[:, targets])

    _in_slabs(run, len(chunks))

    phi = np.ascontiguousarray(values[..., 0])
    vec = np.ascontiguousarray(values[..., 1:])
    if grid is not None:
        phi = phi.reshape((times.size,) + grid.n_per_axis)
        vec = vec.reshape((times.size,) + grid.n_per_axis + (3,))
    return PotentialField(phi, vec, tuple(times), grid=grid)


def _require_stencil(pf: PotentialField) -> tuple[float, tuple[float, float, float]]:
    if pf.grid is None:
        raise ValueError("insufficient stencil: potentials must be sampled in grid mode")
    if len(pf.times) < 4:
        raise ValueError(
            f"insufficient stencil: need at least 4 time slices, got {len(pf.times)}"
        )
    if min(pf.grid.n_per_axis) < 3:
        raise ValueError("insufficient stencil: need at least 3 points per spatial axis")
    return pf.time_step, pf.grid.delta_x


def _stencil_core(pf: PotentialField) -> tuple[slice, ...]:
    """All but the first and last sample on each of the four axes."""
    return tuple(slice(1, n - 1) for n in pf.phi_over_c.shape)


def gauge_residual(pf: PotentialField) -> float:
    """Normalized Lorenz-gauge defect of sampled potentials.

    Computes ``||d(phi_over_c)/dt + div A||_2 / max(||div A||_2, eps)`` with
    centred differences over interior time slices and interior grid points.
    """
    step_t, steps_x = _require_stencil(pf)
    core = _stencil_core(pf)
    div = _interior_derivative(pf.A[..., 0], 1, steps_x[0], core)
    for axis in (1, 2):
        div += _interior_derivative(pf.A[..., axis], axis + 1, steps_x[axis], core)
    numerator = l2_norm(_interior_derivative(pf.phi_over_c, 0, step_t, core) + div)
    return numerator / max(l2_norm(div), _DENOMINATOR_FLOOR)


def fields_from_potential(pf: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """E = -dA/dt - grad(phi) and B = curl A by centred differences.

    Returns arrays of shape ``(n_times - 2, nx - 2, ny - 2, nz - 2, 3)``
    aligned with ``pf.times[1:-1]`` and the interior grid points.
    """
    step_t, steps_x = _require_stencil(pf)
    core = _stencil_core(pf)

    def d_dx(arr: np.ndarray, axis: int) -> np.ndarray:
        return _interior_derivative(arr, axis + 1, steps_x[axis], core)

    grad_phi = np.stack([d_dx(pf.phi_over_c, axis) for axis in range(3)], axis=-1)
    e_field = -_interior_derivative(pf.A, 0, step_t, core) - grad_phi
    b_field = np.stack(
        [d_dx(pf.A[..., k], j) - d_dx(pf.A[..., j], k) for j, k in ((1, 2), (2, 0), (0, 1))],
        axis=-1,
    )
    return e_field, b_field


# ---------------------------------------------------------------------------
# Canonical sources


def _centred_cube(delta_x: float, n_per_axis: int) -> SpatialGrid:
    """``n_per_axis``^3 cells of side ``delta_x``, centred on the origin."""
    origin = 0.5 * (1 - n_per_axis) * delta_x
    return SpatialGrid((n_per_axis,) * 3, (delta_x,) * 3, (origin,) * 3)


def uniform_ball_source(
    total_charge: float,
    radius: float,
    delta_x: float,
    n_per_axis: int,
) -> SourceCurrent:
    """Static uniformly charged ball about the origin, sampled as one time slice.

    Cells whose centre lies inside the ball carry equal charge density,
    normalized so the total sampled charge is exactly ``total_charge``; by
    the shell property the exterior potential of the exact ball is the point
    value ``q / (4 pi r)``, so any discrepancy measures quadrature error.
    """
    if radius <= 0 or delta_x <= 0 or n_per_axis < 1:
        raise ValueError("radius, delta_x and n_per_axis must be positive")
    grid = _centred_cube(delta_x, n_per_axis)
    offsets = grid.coordinates
    inside = np.einsum("...x,...x->...", offsets, offsets) <= radius * radius
    count = int(inside.sum())
    if count == 0:
        raise ValueError("no source cell centres fall inside the ball")
    density = total_charge / (count * grid.cell_volume)
    if not math.isfinite(density):
        raise ValueError("total_charge must be finite")
    profile = np.zeros((1,) + grid.n_per_axis + (4,))
    profile[0][inside, 0] = density
    return SourceCurrent(np.ones((1, 1)), profile, grid)


def gaussian_dipole_source(
    moment: tuple[float, float, float],
    angular_frequency: float,
    width: float,
    delta_x: float,
    n_per_axis: int,
    t0: float,
    delta_t: float,
    n_times: int,
) -> SourceCurrent:
    """Oscillating dipole carried by a normalized Gaussian profile about the origin.

    With profile g(x) and polarization density P = p g(x) cos(w t), the
    sampled pair

        rho = cos(w t) (p . x) g(x) / width^2 ,   J = -w sin(w t) p g(x)

    is exactly conserved in the continuum; the discrete conservation
    residual measures pure sampling error.  The width should be at least
    four cells for that residual to sit below 1e-3.
    """
    if width <= 0 or delta_x <= 0 or angular_frequency <= 0:
        raise ValueError("width, delta_x and angular_frequency must be positive")
    if n_times < 2 or delta_t <= 0:
        raise ValueError("need a multi-slice time window with positive delta_t")
    moment_arr = np.asarray(moment, dtype=float)
    grid = _centred_cube(delta_x, n_per_axis)
    offsets = grid.coordinates
    profile = np.exp(-np.einsum("...x,...x->...", offsets, offsets) / (2.0 * width**2))
    profile /= (2.0 * math.pi) ** 1.5 * width**3
    projection = np.einsum("...x,x->...", offsets, moment_arr) / width**2

    # Every slice is cos(w t) times the rho profile plus sin(w t) times the
    # current profile: rank 2.
    profiles = np.zeros((2,) + grid.n_per_axis + (4,))
    profiles[0, ..., 0] = projection * profile
    profiles[1, ..., 1:] = -angular_frequency * profile[..., None] * moment_arr
    phase = angular_frequency * (t0 + delta_t * np.arange(n_times))
    coefficients = np.stack([np.cos(phase), np.sin(phase)], axis=1)
    return SourceCurrent(coefficients, profiles, grid, t0=t0, delta_t=delta_t)
