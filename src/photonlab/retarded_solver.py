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

The samples live in one packed table of ``[rho, Jx, Jy, Jz]`` rows, slice
after slice (see :class:`SourceCurrent`), so slice ``i`` is the block of
``n_cells`` rows starting at row ``i * n_cells``.  The evaluation points
are taken in chunks and the cells in blocks of whole z-rows, which lie next
to each other in every slice.  For each chunk and block the distances,
kernels ``V_cell / (4 pi R)``, bracketing slice indices and interpolation
fractions are computed once and assembled into a sparse CSR operator with
two nonzeros per (point, cell) pair, ``kernel * (1 - frac)`` on the earlier
slice and ``kernel * frac`` on the later one.  Its columns cover only the
slices the block's retarded times touch, all four components come out of
one product with that window of the table, and the blocks' products add up.
Evaluation times a whole number of source steps apart reuse the operator on
a window shifted by as many slices.  A block is small enough that its
operator and the table rows it reads stay in cache across those products;
against a whole chunk of cells, every point would sweep the full window on
its own and the product would wait on scattered reads from main memory.  A
static source is the dense product of the kernels with its single slice.

Causality is discrete and exact: each contribution reads only the two source
slices bracketing its retarded time, so editing the source strictly later
than every bracket leaves the evaluated potentials bitwise unchanged.

Conventions for derived quantities:

* One centred-difference helper serves the source-conservation, gauge and
  field stencils; its order on each axis is set by the margin the evaluated
  interior leaves there (fourth order for two samples, second for one).
* Lorenz-gauge residual: d(phi_over_c)/dt + div A, normalized by the L2 norm
  of div A, both via centred differences on interior samples.
* Fields: E = -dA/dt - grad(phi), B = curl A, again centred differences; the
  antisymmetrized field-strength tensor uses F[0, i] = E_i, F[1, 2] = -B_z,
  F[1, 3] = +B_y, F[2, 3] = -B_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .diskio import atomic_write_text
from .field_synthesis import SpatialGrid
from .mode_space import _triple

FOUR_PI = 4.0 * math.pi

# Evaluation points per chunk; the source window is checked once per chunk.
_EVAL_CHUNK = 256

# (point, cell) pairs per block of whole z-rows of cells.  A block's work
# arrays (512 kB per float64 array) and its interpolation operator (1.5 MB:
# two nonzeros per pair, each a float64 weight and an int32 column) stay in
# cache while the operator is built and applied at every time that reuses it.
_BLOCK_PAIRS = 2**16

# Slack, in source steps, allowed when checking retarded times against the
# source window; offsets inside it are clipped onto the window.
_WINDOW_SLACK = 1e-9

# Rounding tolerance, relative to the magnitudes of the times in source steps,
# under which two evaluation times count as a whole number of steps apart and
# share an interpolation operator.
_SHIFT_TOLERANCE = 16 * np.finfo(float).eps

_DENOMINATOR_FLOOR = 1e-30


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


@dataclass(frozen=True, init=False)
class SourceCurrent:
    """Conserved four-current sampled on a uniform space-time lattice.

    The samples live in one packed, read-only ``table`` of shape
    (n_times, nx, ny, nz, 4) holding ``[rho, Jx, Jy, Jz]`` per cell, so slice
    ``i`` is the contiguous block of rows ``i*n_cells : (i+1)*n_cells`` of
    ``table.reshape(-1, 4)``.  ``rho`` (n_times, nx, ny, nz) and ``current``
    (n_times, nx, ny, nz, 3) are read-only views of it.  The cell centres are
    ``origin + index * delta_x``; slice ``i`` is at time ``t0 + i * delta_t``.

    The constructor packs the given ``rho`` and ``current`` into a new table
    once; :meth:`from_table` adopts an already packed buffer without copying.
    Construction validates shapes and finiteness only.  Charge conservation
    is a property of the sampled data, measured by
    :meth:`conservation_residual`; deliberately non-conserved sources remain
    constructible so negative controls can be run against them.
    """

    table: np.ndarray
    delta_x: tuple[float, float, float]
    origin: tuple[float, float, float]
    t0: float = 0.0
    delta_t: float = 0.0

    def __init__(self, rho, current, delta_x, origin, t0=0.0, delta_t=0.0) -> None:
        rho = _as_float_array(rho, "rho")
        current = _as_float_array(current, "current")
        if rho.ndim != 4:
            raise ValueError(f"rho must have shape (n_times, nx, ny, nz), got {rho.shape}")
        if current.shape != rho.shape + (3,):
            raise ValueError(
                f"current shape {current.shape} does not match rho shape {rho.shape} + (3,)"
            )
        table = np.empty(rho.shape + (4,))
        table[..., 0] = rho
        table[..., 1:] = current
        self._adopt(table, delta_x, origin, t0, delta_t)

    @classmethod
    def from_table(cls, table, delta_x, origin, t0=0.0, delta_t=0.0) -> SourceCurrent:
        """Adopt a packed (n_times, nx, ny, nz, 4) ``[rho, Jx, Jy, Jz]`` table.

        A C-contiguous float64 table is used in place and made read-only, so
        the caller must not keep writing to it; anything else is packed once.
        """
        table = np.ascontiguousarray(_as_float_array(table, "table"))
        if table.ndim != 5 or table.shape[-1] != 4:
            raise ValueError(f"table must have shape (n_times, nx, ny, nz, 4), got {table.shape}")
        return cls._wrap(table, delta_x, origin, t0, delta_t)

    @classmethod
    def _wrap(cls, table, delta_x, origin, t0=0.0, delta_t=0.0) -> SourceCurrent:
        """Adopt a packed table already known to be finite, without a pass over it."""
        source = cls.__new__(cls)
        source._adopt(table, delta_x, origin, t0, delta_t)
        return source

    def _adopt(self, table, delta_x, origin, t0, delta_t) -> None:
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "delta_x", _triple(delta_x, "delta_x"))
        object.__setattr__(self, "origin", _triple(origin, "origin"))
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "delta_t", float(delta_t))
        if any(d <= 0 for d in self.delta_x):
            raise ValueError("delta_x components must be positive")
        if self.n_times > 1 and self.delta_t <= 0:
            raise ValueError("delta_t must be positive for a multi-slice source")
        if self.delta_t < 0:
            raise ValueError("delta_t must be non-negative")

    @property
    def rho(self) -> np.ndarray:
        return self.table[..., 0]

    @property
    def current(self) -> np.ndarray:
        return self.table[..., 1:]

    @property
    def n_times(self) -> int:
        return self.table.shape[0]

    @property
    def n_per_axis(self) -> tuple[int, int, int]:
        return self.table.shape[1:4]

    @cached_property
    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.n_per_axis, self.delta_x, self.origin)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.delta_t * np.arange(self.n_times)

    def total_charge(self, time_index: int = 0) -> float:
        return float(self.rho[time_index].sum() * self.cell_volume)

    def conservation_residual(self) -> float:
        """L2 residual of d(rho)/dt + div J over the interior, normalized.

        Derivatives use fourth-order centred differences where five samples
        are available per axis, falling back to second-order (three samples)
        and to a zero derivative below that.  The residual is normalized by
        ``max(||div J||_2, eps)``, so a static source scores exactly zero and
        a source with vanishing current but moving charge scores enormous.
        """
        return _continuity_defect(
            self.rho, self.current, self.delta_t, self.delta_x, _interior_slices(self.rho.shape)
        )


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


def _continuity_defect(
    scalar: np.ndarray,
    vector: np.ndarray,
    step_t: float,
    steps_x: tuple[float, float, float],
    core: tuple[slice, ...],
) -> float:
    """``||d(scalar)/dt + div(vector)||_2 / max(||div(vector)||_2, eps)`` on ``core``."""
    div = _interior_derivative(vector[..., 0], 1, steps_x[0], core)
    for axis in (1, 2):
        div += _interior_derivative(vector[..., axis], axis + 1, steps_x[axis], core)
    numerator = float(np.linalg.norm(_interior_derivative(scalar, 0, step_t, core) + div))
    return numerator / max(float(np.linalg.norm(div)), _DENOMINATOR_FLOOR)


@dataclass(frozen=True)
class PotentialField:
    """Potentials sampled on evaluation points (or a grid) over listed times.

    ``phi_over_c`` has a leading time axis of length ``len(times)``; ``A``
    carries a trailing component axis.  Exactly one of ``grid`` / ``points``
    is set, according to how the evaluation targets were supplied.
    """

    phi_over_c: np.ndarray
    A: np.ndarray
    times: tuple[float, ...]
    grid: SpatialGrid | None = None
    points: np.ndarray | None = None

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
        if (self.grid is None) == (self.points is None):
            raise ValueError("exactly one of grid/points must be given")
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
    the z-rows ``rows``, numbered as in the packed table."""
    sxy, sz = squares
    dist = sxy[:, rows, None] + sz[:, None, :]
    np.sqrt(dist, out=dist)
    np.maximum(dist, r_reg, out=dist)
    return dist.reshape(dist.shape[0], -1)


def _shift_groups(times: np.ndarray, src: SourceCurrent) -> list[list[tuple[int, int]]]:
    """Partition evaluation times into runs a whole number of source steps apart.

    Each group lists ``(time_index, shift)`` with ``shift`` the number of
    ``delta_t`` steps from the group's first time.  A time joins a group when
    its distance to the first time is an integer number of steps up to
    rounding of the times themselves.
    """
    steps = (times - src.t0) / src.delta_t
    scales = 1.0 + (np.abs(times) + abs(src.t0)) / src.delta_t
    groups: list[list[tuple[int, int]]] = []
    for k, step in enumerate(steps):
        for group in groups:
            first = group[0][0]
            apart = step - steps[first]
            shift = round(apart)
            if abs(apart - shift) <= _SHIFT_TOLERANCE * (scales[k] + scales[first]):
                group.append((k, shift))
                break
        else:
            groups.append([(k, 0)])
    return groups


def _interpolation_operator(
    kernel: np.ndarray, offset: np.ndarray, n_times: int, n_cells: int
) -> tuple[sparse.csr_array, int, int]:
    """CSR operator of one block's retarded-time interpolation.

    ``kernel`` and ``offset`` are (n_points, n_block) for a block of cells
    that lie next to each other in the packed table, whose slices hold
    ``n_cells`` rows; ``offset`` holds the retarded times in source steps
    (overwritten).  Row ``p`` has two nonzeros per cell ``c``:
    ``kernel * (1 - frac)`` on slice ``index`` and ``kernel * frac`` on slice
    ``index + 1``, where ``offset`` clipped to the window is ``index + frac``.
    Column ``(index - first) * n_cells + c`` is counted from the block's row
    in slice ``first``; returns ``(operator, first, n_slices)``, the slices
    the operator reads being ``first`` up to ``first + n_slices - 1``.
    """
    n_points, n_block = kernel.shape
    n_nonzero = 2 * kernel.size
    index_type = np.int32 if max(n_nonzero, n_times * n_cells) < 2**31 else np.int64
    np.clip(offset, 0.0, n_times - 1.0, out=offset)
    index = np.minimum(offset.astype(index_type), n_times - 2)
    frac = np.subtract(offset, index, out=offset)
    first = int(index.min())
    n_slices = int(index.max()) - first + 2

    data = np.empty((n_points, 2, n_block))
    np.subtract(1.0, frac, out=data[:, 0])
    data[:, 0] *= kernel
    np.multiply(kernel, frac, out=data[:, 1])
    columns = np.empty((n_points, 2, n_block), dtype=index_type)
    index -= first
    index *= n_cells
    np.add(index, np.arange(n_block, dtype=index_type), out=columns[:, 0])
    np.add(columns[:, 0], n_cells, out=columns[:, 1])
    row_starts = np.arange(0, n_nonzero + 1, 2 * n_block, dtype=index_type)
    operator = sparse.csr_array(
        (data.reshape(-1), columns.reshape(-1), row_starts),
        shape=(n_points, (n_slices - 1) * n_cells + n_block),
    )
    return operator, first, n_slices


def retarded_potential(src: SourceCurrent, eval_points, t) -> PotentialField:
    """Evaluate the causal potentials of ``src`` at points and times.

    ``eval_points`` is either an (P, 3) array of positions (point mode) or a
    :class:`SpatialGrid` (grid mode, as needed by the stencil operations).
    ``t`` is a scalar time or a 1-D sequence of times; the output arrays
    always carry a leading time axis.

    The retarded time of every contributing (point, cell) pair must fall
    inside the source window; otherwise a ``ValueError`` naming the required
    range is raised.  Single-slice sources are treated as static and skip
    the window check.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("evaluation time must be a scalar or a 1-D sequence")

    grid = eval_points if isinstance(eval_points, SpatialGrid) else None
    if grid is not None:
        points = grid.coordinates.reshape(-1, 3)
    else:
        points = np.asarray(eval_points, dtype=float)
        if points.ndim == 1 and points.size == 3:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("evaluation points must have shape (n_points, 3)")

    r_reg = 0.5 * min(src.delta_x)

    table = src.table.reshape(-1, 4)
    n_times = src.n_times
    n_cells = table.shape[0] // n_times
    n_points = points.shape[0]
    weight = src.cell_volume / FOUR_PI
    groups = _shift_groups(times, src) if n_times > 1 else []
    values = np.zeros((times.size, n_points, 4))
    n_z = src.n_per_axis[2]

    for lo in range(0, n_points, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, n_points)
        squares = _squares(points[lo:hi], src.grid)
        if n_times > 1:
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
        block_rows = max(1, _BLOCK_PAIRS // (n_z * (hi - lo)))
        for row in range(0, n_cells // n_z, block_rows):
            dist = _distances(squares, slice(row, row + block_rows), r_reg)
            kernel = weight / dist
            first_row = row * n_z
            if n_times == 1:
                values[:, lo:hi] += kernel @ table[first_row:first_row + kernel.shape[1]]
                continue
            for group in groups:
                # The first unclipped time of a group builds the shared
                # operator; a time `shift` steps later applies it to the
                # table window `shift` slices on, when that window lies
                # inside the table.
                shared = None
                for k, shift in group:
                    start = None
                    if shared is not None and unclipped[k]:
                        operator, base_start, n_slices, base_shift = shared
                        start = base_start + shift - base_shift
                        if start < 0 or start + n_slices > n_times:
                            start = None
                    if start is None:
                        offset = (times[k] - dist - src.t0) / src.delta_t
                        operator, start, n_slices = _interpolation_operator(
                            kernel, offset, n_times, n_cells)
                        if shared is None and unclipped[k]:
                            shared = (operator, start, n_slices, shift)
                    window = start * n_cells + first_row
                    values[k, lo:hi] += operator @ table[window:window + operator.shape[1]]

    phi = np.ascontiguousarray(values[..., 0])
    vec = np.ascontiguousarray(values[..., 1:])
    if grid is not None:
        phi = phi.reshape((times.size,) + grid.n_per_axis)
        vec = vec.reshape((times.size,) + grid.n_per_axis + (3,))
        return PotentialField(phi, vec, tuple(times), grid=grid)
    return PotentialField(phi, vec, tuple(times), points=points)


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
    return _continuity_defect(pf.phi_over_c, pf.A, step_t, steps_x, _stencil_core(pf))


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


def faraday_tensor(e_field: np.ndarray, b_field: np.ndarray) -> np.ndarray:
    """Antisymmetric field-strength tensor, shape ``(..., 4, 4)``.

    Built as ``upper - upper.T`` so ``F + F.T`` vanishes identically, not
    just to rounding.
    """
    e_arr = np.asarray(e_field, dtype=float)
    b_arr = np.asarray(b_field, dtype=float)
    if e_arr.shape != b_arr.shape or e_arr.shape[-1] != 3:
        raise ValueError("E and B must share a (..., 3) shape")
    upper = np.zeros(e_arr.shape[:-1] + (4, 4))
    upper[..., 0, 1] = e_arr[..., 0]
    upper[..., 0, 2] = e_arr[..., 1]
    upper[..., 0, 3] = e_arr[..., 2]
    upper[..., 1, 2] = -b_arr[..., 2]
    upper[..., 1, 3] = b_arr[..., 1]
    upper[..., 2, 3] = -b_arr[..., 0]
    return upper - np.swapaxes(upper, -1, -2)


# ---------------------------------------------------------------------------
# Canonical sources


def uniform_ball_source(
    total_charge: float,
    radius: float,
    delta_x: float,
    n_per_axis: int,
    *,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
    t0: float = 0.0,
) -> SourceCurrent:
    """Static uniformly charged ball, sampled as a single time slice.

    Cells whose centre lies inside the ball carry equal charge density,
    normalized so the total sampled charge is exactly ``total_charge``; by
    the shell property the exterior potential of the exact ball is the point
    value ``q / (4 pi r)``, so any discrepancy measures quadrature error.
    """
    if radius <= 0 or delta_x <= 0 or n_per_axis < 1:
        raise ValueError("radius, delta_x and n_per_axis must be positive")
    spacing = (delta_x, delta_x, delta_x)
    origin = tuple(c - 0.5 * (n_per_axis - 1) * delta_x for c in center)
    grid = SpatialGrid((n_per_axis,) * 3, spacing, origin)
    offsets = grid.coordinates - np.asarray(center)
    inside = np.einsum("...x,...x->...", offsets, offsets) <= radius * radius
    count = int(inside.sum())
    if count == 0:
        raise ValueError("no source cell centres fall inside the ball")
    density = total_charge / (count * grid.cell_volume)
    if not math.isfinite(density):
        raise ValueError("total_charge must be finite")
    table = np.zeros((1,) + grid.n_per_axis + (4,))
    table[0][inside, 0] = density
    return SourceCurrent._wrap(table, spacing, origin, t0=t0)


def gaussian_dipole_source(
    moment: tuple[float, float, float],
    angular_frequency: float,
    width: float,
    delta_x: float,
    n_per_axis: int,
    t0: float,
    delta_t: float,
    n_times: int,
    *,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> SourceCurrent:
    """Oscillating dipole carried by a normalized Gaussian profile.

    With profile g(x) and polarization density P = p g(x) cos(w t), the
    sampled pair

        rho = cos(w t) (p . (x - c)) g(x) / width^2 ,   J = -w sin(w t) p g(x)

    is exactly conserved in the continuum; the discrete conservation
    residual measures pure sampling error.  The width should be at least
    four cells for that residual to sit below 1e-3.
    """
    if width <= 0 or delta_x <= 0 or angular_frequency <= 0:
        raise ValueError("width, delta_x and angular_frequency must be positive")
    if n_times < 2 or delta_t <= 0:
        raise ValueError("need a multi-slice time window with positive delta_t")
    moment_arr = np.asarray(moment, dtype=float)
    spacing = (delta_x, delta_x, delta_x)
    origin = tuple(c - 0.5 * (n_per_axis - 1) * delta_x for c in center)
    grid = SpatialGrid((n_per_axis,) * 3, spacing, origin)
    offsets = grid.coordinates - np.asarray(center)
    profile = np.exp(-np.einsum("...x,...x->...", offsets, offsets) / (2.0 * width**2))
    profile /= (2.0 * math.pi) ** 1.5 * width**3
    projection = np.einsum("...x,x->...", offsets, moment_arr) / width**2

    # Every slice is cos(w t) times the rho profile plus sin(w t) times the
    # current profile, so one (n_times, 2) x (2, n_cells * 4) product fills
    # the packed table in a single pass.  Each entry takes one nonzero term
    # with a factor of modulus <= 1, so finite profiles give a finite table.
    profiles = np.zeros((2,) + grid.n_per_axis + (4,))
    profiles[0, ..., 0] = projection * profile
    profiles[1, ..., 1:] = -angular_frequency * profile[..., None] * moment_arr
    _as_float_array(profiles, "dipole profile")
    phase = _as_float_array(angular_frequency * (t0 + delta_t * np.arange(n_times)), "phase")
    coefficients = np.stack([np.cos(phase), np.sin(phase)], axis=1)
    table = np.empty((n_times,) + grid.n_per_axis + (4,))
    np.matmul(coefficients, profiles.reshape(2, -1), out=table.reshape(n_times, -1))
    return SourceCurrent._wrap(table, spacing, origin, t0=t0, delta_t=delta_t)


# ---------------------------------------------------------------------------
# Columnar text format

_COLUMNAR_MAGIC = "# photonlab source-current v1"
_COLUMNAR_KEYS = ("n_times", "n_per_axis", "delta_x", "origin", "t0", "delta_t")


def write_columnar_source(src: SourceCurrent, path: str) -> None:
    """Serialize a source as a sparse columnar text table.

    Header lines carry the lattice metadata; data rows list time index, cell
    index triple and the four sampled components for every cell with any
    nonzero sample.  Values use ``%.17g`` so a round trip is bit exact.
    """
    lines = [_COLUMNAR_MAGIC]
    nx, ny, nz = src.n_per_axis
    lines.append(f"# n_times = {src.n_times}")
    lines.append(f"# n_per_axis = {nx},{ny},{nz}")
    lines.append("# delta_x = " + ",".join(f"{v:.17g}" for v in src.delta_x))
    lines.append("# origin = " + ",".join(f"{v:.17g}" for v in src.origin))
    lines.append(f"# t0 = {src.t0:.17g}")
    lines.append(f"# delta_t = {src.delta_t:.17g}")
    lines.append("# columns: time_index ix iy iz rho jx jy jz")
    nonzero = np.nonzero(
        (src.rho != 0.0) | np.any(src.current != 0.0, axis=-1)
    )
    for it, ix, iy, iz in zip(*nonzero):
        jx, jy, jz = src.current[it, ix, iy, iz]
        lines.append(
            f"{it} {ix} {iy} {iz} "
            f"{src.rho[it, ix, iy, iz]:.17g} {jx:.17g} {jy:.17g} {jz:.17g}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_columnar_source(path: str) -> SourceCurrent:
    """Parse the columnar source format; errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != _COLUMNAR_MAGIC:
        raise ValueError(f"{path}: not a source-current table (missing magic line)")

    header: dict[str, str] = {}
    rows: list[tuple[int, ...]] = []
    values: list[tuple[float, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                if key in _COLUMNAR_KEYS:
                    header[key] = value.strip()
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ValueError(
                f"{path}:{lineno}: expected 8 columns "
                f"(time_index ix iy iz rho jx jy jz), got {len(fields)}"
            )
        try:
            rows.append(tuple(int(f) for f in fields[:4]))
            values.append(tuple(float(f) for f in fields[4:]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc

    missing = [key for key in _COLUMNAR_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: missing header keys: {', '.join(missing)}")
    try:
        n_times = int(header["n_times"])
        n_per_axis = tuple(int(v) for v in header["n_per_axis"].split(","))
        delta_x = tuple(float(v) for v in header["delta_x"].split(","))
        origin = tuple(float(v) for v in header["origin"].split(","))
        t0 = float(header["t0"])
        delta_t = float(header["delta_t"])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header value: {exc}") from exc
    if len(n_per_axis) != 3:
        raise ValueError(f"{path}: n_per_axis must have three components")

    table = np.zeros((n_times,) + n_per_axis + (4,))
    seen: set[tuple[int, ...]] = set()
    for lineno_offset, (index, sample) in enumerate(zip(rows, values)):
        if index in seen:
            raise ValueError(f"{path}: duplicate sample at index {index}")
        seen.add(index)
        it, ix, iy, iz = index
        if not (0 <= it < n_times and 0 <= ix < n_per_axis[0] and 0 <= iy < n_per_axis[1] and 0 <= iz < n_per_axis[2]):
            raise ValueError(f"{path}: sample index {index} outside the declared lattice")
        table[it, ix, iy, iz] = sample
    return SourceCurrent.from_table(table, delta_x, origin, t0=t0, delta_t=delta_t)
