"""Gaussian random Hermite eigenfunctions and empirical nodal statistics.

A random eigenfunction is Phi(x) = sum_{|beta|=N} a_beta phi_beta(x) with
i.i.d. standard normal coefficients, so its covariance is exactly the
eigenspace projection kernel.  This module samples fields reproducibly
(counter-based Philox keyed by the seed; an ensemble re-keys one generator
per seed), evaluates them on grids, circles and rays through shared-basis
matrix products, and measures:

  * nodal length in boxes (marching squares on the bilinear interpolant of
    one fine grid per box, whose even nodes give the coarse grid of a
    Richardson consistency estimate),
  * sign changes around the caustic circle,
  * zero densities along radial segments (one sweep crossing bulk, annuli,
    tube and forbidden region).

The circle and ray grids are symmetric under x -> -x and y -> -y, and a
degree-N field obeys Phi(sx x, sy y) = sy^N (S_e + sx sy S_o), where S_e and
S_o are its even-k and odd-k halves (phi_k has parity (-1)^k).  So the basis
is built on the first-quadrant angles only, and every other angle is read
from its base angle by index arithmetic (the reflection fold).  A circle is
a fan of unit rays, and circles and rays share one routine.  When 4 divides
the number of angles, sin theta_j is defined as cos theta_(n/4 - j): the y
table is then the x table read backwards, and one Hermite recurrence serves
both axes (the quarter turn).  The reflected signs are read by comparing
S_e with +-S_o, which forms no sum.

Resolution rules: the allowed-region wavelength is ~hbar, so box grids use
steps <= hbar/8; caustic-tube structure lives at scale hbar^(2/3), so angular
steps use <= hbar^(2/3)/16.  All estimators are deterministic in their seeds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .semiclassical import (
    ResourceLimitError,
    _check_range,
    _pair_basis,
    _phi_mantexp,
    _plain_floats,
    _row_exponents,
    eigenspace_dim,
    multi_indices,
)

#: the largest eigenspace dimension a field is drawn at
_FIELD_BUDGET = 2 * 10**6
#: basis entries (dim x points) one evaluation pass holds
_PASS_ENTRIES = 1 << 22
#: basis entries gathered at a time inside a pass, so that a block stays in cache
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class NodalEstimate:
    """A measured statistic with its uncertainty and grid resolution."""

    value: float
    std_error: float
    n_samples: int
    resolution: float


@dataclass(frozen=True)
class RandomEigenfunction:
    """A sampled field: level, coefficient vector (multi-index order), seed."""

    level: object
    coeffs: np.ndarray
    seed: int

    def coefficient(self, beta):
        """Coefficient of the multi-index beta (lexicographic storage).

        The storage position is the lexicographic rank of beta: at each
        coordinate j < d-1, the multi-indices sharing beta's prefix with a
        smaller entry at j number C(R + k, k) - C(R - beta_j + k, k), where R
        is what remains of N before j and k = d-1-j coordinates follow it.
        """
        d, n = self.level.d, self.level.N
        beta = tuple(beta)
        if len(beta) != d or any(b < 0 or b != int(b) for b in beta) or sum(beta) != n:
            raise KeyError(f"{beta} is not a degree-{n} multi-index")
        rank, rest = 0, n
        for j, b in enumerate(beta[:-1]):
            k = d - 1 - j
            b = int(b)
            rank += math.comb(rest + k, k) - math.comb(rest - b + k, k)
            rest -= b
        return float(self.coeffs[rank])

    def evaluate(self, points):
        """Field values at an array of points, shape (P, d) or (d,)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        _check_range(self.level, points)
        out = np.empty(len(points))
        for sl in _passes(self.level, len(points)):
            basis, scale = _point_basis(self.level, points[sl])
            out[sl] = np.ldexp(self.coeffs @ basis, scale)
        return out


def sample_field(level, seed):
    """Draw a random eigenfunction; deterministic and bitwise stable in seed."""
    coeffs = _draw_coeffs(level, [seed])[0]
    return RandomEigenfunction(level=level, coeffs=coeffs, seed=int(seed))


def _draw_coeffs(level, seeds):
    """Coefficient vectors, one row per seed: Generator(Philox(key=seed)).standard_normal(dim).

    One Philox is re-keyed for every seed.  Its state is set to the state a
    fresh Philox(key=seed) starts in: key [seed mod 2^64, seed >> 64], zero
    counter and an empty buffer.  That skips the entropy draw and seed
    sequence that building a bit generator costs.
    """
    dim = eigenspace_dim(level)
    if dim > _FIELD_BUDGET:
        raise ResourceLimitError(
            f"eigenspace dimension {dim} exceeds the sampling budget {_FIELD_BUDGET}")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    out = np.empty((len(seeds), dim))
    for row, seed in zip(out, seeds):
        seed = int(seed)
        if not 0 <= seed < 1 << 128:
            np.random.Philox(key=seed)   # raises Philox's own ValueError for the key
        high, low = divmod(seed, 1 << 64)
        state["state"]["key"] = np.array([low, high], dtype=np.uint64)
        bitgen.state = state
        rng.standard_normal(out=row)
    return out


@functools.lru_cache(maxsize=8)
def _index_table(d, n):
    """The degree-n multi-indices in storage order, a read-only (dim, d) array."""
    table = np.array(list(multi_indices(d, n)), dtype=np.intp).reshape(-1, d)
    table.flags.writeable = False
    return table


def _passes(level, n_points):
    """Point slices holding at most _PASS_ENTRIES basis entries each."""
    step = max(1, _PASS_ENTRIES // eigenspace_dim(level))
    return [slice(lo, lo + step) for lo in range(0, n_points, step)]


def _point_basis(level, points):
    """Normalized product basis matrix over arbitrary points, any d.

    Returns (B, scale) with B[i, p] = prod_j phi_{beta_ij}(x_pj) 2^(-scale_p)
    for the i-th multi-index beta_i; field values are ldexp(coeffs @ B, scale).
    One recurrence per axis, gathered through the index table block by block.
    The per-point scale keeps the dominant terms at order one despite Agmon decay.
    """
    idx = _index_table(level.d, level.N)
    axes = [_phi_mantexp(level.hbar, level.N, points[:, j]) for j in range(level.d)]
    out = np.empty((len(idx), len(points)))
    step = max(1, _BLOCK_ENTRIES // max(1, len(points)))
    blocks = [slice(lo, lo + step) for lo in range(0, len(idx), step)]
    for rows in blocks:
        e = out[rows]
        e[...] = _row_exponents(axes[0][1], idx[rows, 0])
        for j in range(1, level.d):
            e += _row_exponents(axes[j][1], idx[rows, j])
    scale = out.max(axis=0)
    for rows in blocks:
        m = axes[0][0][idx[rows, 0]]
        for j in range(1, level.d):
            m *= axes[j][0][idx[rows, j]]
        b = out[rows]
        b -= scale
        np.exp2(b, out=b)
        b *= m
    return out, scale.astype(np.int64)


def _tensor_basis(level, xs, ys):
    """Plain-float factor matrices Cx[k, ix] = phi_k(x), Cy[k, iy] = phi_{N-k}(y).

    Valid when the collapsed magnitudes stay inside double range; the deepest
    forbidden grids used here (|x| <= ~1.6 at N <= a few hundred) sit far above
    the underflow threshold, which is checked (semiclassical._plain_floats).
    """
    refusal = ("tensor-grid evaluation would underflow; the grid reaches too deep "
               "into the forbidden region for the plain-float fast path")
    tables = [_phi_mantexp(level.hbar, level.N, np.asarray(axis, dtype=float)) for axis in (xs, ys)]
    cx, cy = (_plain_floats(m, e, -980, refusal) for m, e in tables)
    return cx, cy[::-1]


def _grid_values(coeffs, cx, cy, out=None, scaled=None):
    """Phi on the tensor grid: (Cy^T diag(a) Cx), shape (ny, nx).

    out (ny, nx) and scaled (the shape of cx) are optional buffers to reuse.
    """
    scaled = np.multiply(coeffs[:, None], cx, out=scaled)
    return np.matmul(cy.T, scaled, out=out)


# marching squares: corners bit0 = bottom-left, bit1 = bottom-right,
# bit2 = top-right, bit3 = top-left; edges 0 bottom, 1 right, 2 top, 3 left.
# One row per summation group (case, saddle center sign, edge pair), in the
# order the group sums are accumulated; see _marching_squares_length.  The
# saddles 5 (bl, tr positive) and 10 (br, tl positive) carry two segments
# each, whose pattern depends on the sign of the bilinear center value.
_MS_GROUPS = (
    (1, None, (0, 3)), (2, None, (0, 1)), (4, None, (1, 2)), (8, None, (2, 3)),
    (3, None, (3, 1)), (6, None, (0, 2)), (12, None, (1, 3)), (9, None, (0, 2)),
    (7, None, (2, 3)), (11, None, (1, 2)), (13, None, (0, 1)), (14, None, (0, 3)),
    (5, True, (0, 1)), (5, True, (2, 3)), (5, False, (0, 3)), (5, False, (1, 2)),
    (10, True, (0, 3)), (10, True, (1, 2)), (10, False, (0, 1)), (10, False, (2, 3)),
)
_MS_EDGES = np.array([pair for _, _, pair in _MS_GROUPS]).T
# first group of each case; a saddle's center-negative pattern starts 2 later
_MS_FIRST_GROUP = np.array(
    [next((g for g, row in enumerate(_MS_GROUPS) if row[0] == c), 0) for c in range(16)],
    dtype=np.int8)


def _marching_squares_length(f, dx, dy):
    """Total zero-contour length of the bilinear interpolant of f.

    Zeros at grid nodes count as positive, which keeps the case analysis
    total.  The two ambiguous saddle cases are resolved by the sign of the
    bilinear center value (the sum of the four corners).

    A cell is crossed when its corner signs differ, i.e. when its bottom or
    top edge or its left edge changes sign: two comparisons and two ors over
    the grid.  Only the crossed cells are gathered; their case codes, edge
    crossings and one hypot per segment are computed on that subset.  The
    segment lengths are summed per group of _MS_GROUPS, each group in
    row-major cell order, and the group sums are added in table order: the
    same pairwise sums in the same order as a per-case masked pass over the
    whole grid, so the length is bit-identical to one.
    """
    pos = f >= 0
    across = pos[:, :-1] != pos[:, 1:]
    crossed = across[:-1] | across[1:] | (pos[:-1, :-1] != pos[1:, :-1])
    cells = np.flatnonzero(crossed)
    nx = f.shape[1]
    node = cells + cells // (nx - 1)   # flat index of each cell's bottom-left node
    bl, br, tr, tl = f.ravel().take(node + np.array([[0], [1], [nx + 1], [nx]]))

    code = ((bl >= 0).view(np.uint8) | ((br >= 0).view(np.uint8) << 1)
            | ((tr >= 0).view(np.uint8) << 2) | ((tl >= 0).view(np.uint8) << 3))
    group = _MS_FIRST_GROUP.take(code)
    saddle = np.flatnonzero((code == 5) | (code == 10))
    center = bl[saddle] + br[saddle] + tr[saddle] + tl[saddle]
    group[saddle[center < 0]] += 2
    seg_group = np.concatenate([group, group[saddle] + 1])
    seg_cell = np.concatenate([np.arange(len(cells)), saddle])
    order = np.argsort(seg_group, kind="stable")
    seg_group = seg_group.take(order)
    seg_cell = seg_cell.take(order)

    # points[axis, edge, cell]: the crossing of each edge in cell units,
    # edges 0 bottom (x, 0), 1 right (1, y), 2 top (x, 1), 3 left (0, y)
    points = np.empty((2, 4, len(cells)))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bl, bl - br, out=points[0, 0])
        np.divide(br, br - tr, out=points[1, 1])
        np.divide(tl, tl - tr, out=points[0, 2])
        np.divide(bl, bl - tl, out=points[1, 3])
    points[0, 1] = points[1, 2] = 1.0
    points[0, 3] = points[1, 0] = 0.0
    points = points.reshape(2, -1)
    ends = [edge.take(seg_group) * len(cells) + seg_cell for edge in _MS_EDGES]
    delta = points.take(ends[0], axis=1) - points.take(ends[1], axis=1)
    lengths = np.hypot(delta[0] * dx, delta[1] * dy)
    bounds = np.searchsorted(seg_group, np.arange(len(_MS_GROUPS) + 1))
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total += float(np.add.reduce(lengths[lo:hi]))
    return total


def _grid_axis(lo, hi, step):
    n = max(2, int(math.ceil((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


def _fine_axes(box, grid_step):
    """The box's fine axes: each n-node grid_step axis refined at its midpoints, 2n - 1 nodes."""
    return [np.linspace(lo, hi, 2 * len(_grid_axis(lo, hi, grid_step)) - 1) for lo, hi in box]


def _fine_coarse_lengths(f, xs, ys):
    """Marching-squares lengths of the fine grid f and of its even nodes at twice the step."""
    dx, dy = xs[1] - xs[0], ys[1] - ys[0]
    return (_marching_squares_length(f, dx, dy),
            _marching_squares_length(f[::2, ::2], 2.0 * dx, 2.0 * dy))


def _box_lengths(level, coeffs, box, grid_step):
    """(fine, coarse) nodal lengths in the box of the fields coeffs @ basis, a column per row:
    one _tensor_basis on the fine axes, and one _grid_values per field."""
    xs, ys = _fine_axes(box, grid_step)
    cx, cy = _tensor_basis(level, xs, ys)
    scaled, f = np.empty_like(cx), np.empty((len(ys), len(xs)))
    return np.array([_fine_coarse_lengths(_grid_values(a, cx, cy, out=f, scaled=scaled), xs, ys)
                     for a in coeffs]).T


def _check_box(box):
    if not all(hi > lo for lo, hi in box):
        raise ValueError(f"box sides must be positive, got {box}")


def _check_step(name, step):
    """Refuse a grid step that is not a positive finite number."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {step!r}")


def _check_grid_step(level, box, grid_step):
    """The box-grid rule: grid_step <= hbar/8 where the box meets the allowed region."""
    _check_box(box)
    _check_step("grid_step", grid_step)
    _check_range(level, [[max(abs(lo), abs(hi)) for lo, hi in box]])   # the far corner
    gaps = [0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)) for lo, hi in box]
    if gaps[0] ** 2 + gaps[1] ** 2 < 1.0 and grid_step > level.hbar / 8.0 * (1 + 1e-9):
        raise ValueError("grid_step must be <= hbar/8 inside the allowed region")


def nodal_length(field, box, grid_step):
    """Nodal length of the field inside an axis-aligned box (d = 2).

    Marching squares on the fine grid (_fine_axes, step <= grid_step/2) and
    on its even nodes, the grid_step grid: 2 fine - coarse is returned, with
    |fine - coarse| as the error.  `field` is a RandomEigenfunction, measured
    as the one-row ensemble, or any callable mapping an (P, 2) array of
    points to values, evaluated once on the fine grid.
    """
    if isinstance(field, RandomEigenfunction):
        if field.level.d != 2:
            raise ValueError("nodal_length is d = 2 only")
        _check_grid_step(field.level, box, grid_step)
        fine, coarse = _box_lengths(field.level, field.coeffs[None], box, grid_step)[:, 0].tolist()
    else:
        _check_box(box)
        _check_step("grid_step", grid_step)
        xs, ys = _fine_axes(box, grid_step)
        pts = np.stack(np.meshgrid(xs, ys), axis=-1)
        f = field(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        fine, coarse = _fine_coarse_lengths(f, xs, ys)
    diff = abs(fine - coarse)
    if fine > 0 and diff > 0.02 * fine:
        warnings.warn(
            f"nodal_length resolution discrepancy {diff/fine:.1%} exceeds 2%",
            RuntimeWarning, stacklevel=2)
    return NodalEstimate(value=2.0 * fine - coarse, std_error=diff,
                         n_samples=1, resolution=grid_step / 2.0)


def _ensemble_coeffs(level, seeds):
    """Coefficient vectors of the ensemble's fields, one row per seed."""
    if len(seeds) < 2:
        raise ValueError(
            f"an ensemble needs at least two seeds for a standard error, got {len(seeds)}")
    return _draw_coeffs(level, seeds)


def _mean_estimate(samples, resolution):
    """The mean of per-seed samples (at least two: _ensemble_coeffs), with its standard error."""
    return NodalEstimate(value=float(np.mean(samples)),
                         std_error=float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
                         n_samples=len(samples), resolution=resolution)


def nodal_length_ensemble(level, seeds, box, grid_step):
    """Per-seed nodal lengths over an ensemble, sharing one basis build.

    Returns (lengths, NodalEstimate-of-the-mean); lengths are the per-seed
    Richardson values of nodal_length, each field drawn once and evaluated
    once, on the fine grid (_box_lengths).
    """
    if level.d != 2:
        raise ValueError("nodal_length_ensemble is d = 2 only")
    _check_grid_step(level, box, grid_step)
    fine, coarse = _box_lengths(level, _ensemble_coeffs(level, seeds), box, grid_step)
    refined = 2.0 * fine - coarse
    return refined, _mean_estimate(refined, grid_step / 2.0)


def _reflection_fold(n, degree):
    """Fold the n angles 2 pi j / n onto their first-quadrant base angles.

    Returns (base, code): angle j is base angle base[j] under the reflection
    (x, y) -> (sx x, sy y), and code[j] picks its row of the sign table of
    _reflected_signs: code = (sx sy == -1) + 2 (sy^degree == -1).
    Pure index arithmetic: j <-> n - j sets sy = -1 and, for even n,
    j <-> n/2 - j sets sx = -1; the base angles are 0 <= j <= n/4.  Odd n
    folds through j <-> n - j only, onto 0 <= j <= n/2.
    """
    j = np.arange(n)
    flip_y = 2 * j > n
    base = np.where(flip_y, n - j, j)
    flip_x = np.zeros(n, dtype=bool)
    if n % 2 == 0:
        flip_x = 4 * base > n
        base = np.where(flip_x, n // 2 - base, base)
    return base, (flip_x != flip_y) + 2 * (flip_y & bool(degree % 2))


def _fan_passes(n, n_base, n_rows, n_ts):
    """Passes over a fan of n_base base angles with n_ts points per ray.

    Returns (blocks, t_slices): a pass is one base-angle block with one slice
    of the t axis, and holds at most _PASS_ENTRIES basis entries (n_rows per
    point).  When 4 | n a block comes with its quarter-turn mirrors
    j -> n/4 - j, so each block is sorted and symmetric under that map and may
    hold two angles; the t axis is cut so that they fit.
    """
    per_block = 1 if n % 4 else 2
    t_step = max(1, min(n_ts, _PASS_ENTRIES // (per_block * n_rows)))
    t_slices = [slice(lo, lo + t_step) for lo in range(0, n_ts, t_step)]
    per_pass = max(1, _PASS_ENTRIES // (n_rows * t_step))
    if n % 4:
        return ([np.arange(lo, min(lo + per_pass, n_base)) for lo in range(0, n_base, per_pass)],
                t_slices)
    quarter = n // 4
    step = max(1, per_pass // 2)
    half = quarter // 2 + 1
    blocks = []
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        blocks.append(np.concatenate([np.arange(lo, hi),
                                      np.arange(max(hi, quarter - hi + 1), quarter - lo + 1)]))
    return blocks, t_slices


def _fan_axes(level, n, angles, ts):
    """x and y tables of the fan points ts (cos theta_j, sin theta_j), theta_j = 2 pi j / n.

    Each table is (mantissas, block exponents) of _psi_mantexp's float64
    route, with the point axis shaped (len(angles), len(ts)).  When 4 | n,
    sin theta_j is defined as cos theta_(n/4 - j): the angles are a symmetric
    block of _fan_passes, so the y table is the x table with its angle axis
    reversed, and one recurrence serves both axes.  Otherwise one recurrence
    runs over the x and y coordinates together.
    """
    theta = 2.0 * math.pi * angles / n
    x = np.cos(theta)[:, None] * ts
    shape = (-1, len(angles), len(ts))
    if n % 4 == 0:
        m, e = _phi_mantexp(level.hbar, level.N, x.ravel())
        m, e = m.reshape(shape), e.reshape(shape)
        return m, e, m[:, ::-1], e[:, ::-1]
    y = np.sin(theta)[:, None] * ts
    m, e = _phi_mantexp(level.hbar, level.N, np.concatenate([x.ravel(), y.ravel()]))
    half = x.size
    return (m[:, :half].reshape(shape), e[:, :half].reshape(shape),
            m[:, half:].reshape(shape), e[:, half:].reshape(shape))


def _reflected_signs(s_e, s_o, out, used):
    """Write the reflected signs Phi >= 0 into out[:, c] for every used code c.

    Code c = (sx sy == -1) + 2 (sy^N == -1) of _reflection_fold stands for
    Phi = sy^N (S_e + sx sy S_o).  The signs are read by comparison, with no
    sum formed: S_e + S_o >= 0 iff s_e >= -s_o and S_e - S_o >= 0 iff
    s_e >= s_o; the negated codes 2 and 3 take <=.  For finite doubles a
    rounded sum has the sign of the exact one, so these are also the signs of
    the rounded sums.  s_o is negated in place.
    """
    for c, compare in ((1, np.greater_equal), (3, np.less_equal)):   # S_e - S_o
        if used[c]:
            compare(s_e, s_o, out=out[:, c])
    np.negative(s_o, out=s_o)
    for c, compare in ((0, np.greater_equal), (2, np.less_equal)):   # S_e + S_o
        if used[c]:
            compare(s_e, s_o, out=out[:, c])


def _fan_signs(level, coeffs_matrix, n, ts):
    """Signs Phi >= 0 of the d = 2 fields on a fan; bool, shape (n_seeds, n, len(ts)).

    Ray j of the fan carries the points t (cos theta_j, sin theta_j), t in
    ts, theta_j = 2 pi j / n; a circle is the fan with ts = [1.0].  The basis
    is built on the base angles of _reflection_fold only.  Row k of the basis
    is phi_k(x) phi_{N-k}(y), and phi_k(-x) = (-1)^k phi_k(x) bit for bit, so
    Phi(sx x, sy y) = sy^N (S_e + sx sy S_o) with S_e, S_o the even-k and
    odd-k halves of coeffs @ basis (_reflected_signs).
    """
    base, code = _reflection_fold(n, level.N)
    n_base = int(base.max()) + 1
    ts = np.asarray(ts, dtype=float)
    even = np.ascontiguousarray(coeffs_matrix[:, 0::2])
    odd = np.ascontiguousarray(coeffs_matrix[:, 1::2])
    n_seeds = coeffs_matrix.shape[0]
    used = np.bincount(code, minlength=4) > 0
    # table columns follow the pass order; position maps a base angle to its column
    table = np.empty((n_seeds, 4, n_base, len(ts)), dtype=bool)
    blocks, t_slices = _fan_passes(n, n_base, level.N + 1, len(ts))
    col = 0
    for angles in blocks:
        cols = slice(col, col + len(angles))
        for part in t_slices:
            basis, _ = _pair_basis(*_fan_axes(level, n, angles, ts[part]))
            basis = basis.reshape(level.N + 1, -1)
            shape = (n_seeds, len(angles), len(ts[part]))
            s_e = (even @ basis[0::2]).reshape(shape)
            s_o = (odd @ basis[1::2]).reshape(shape)
            _reflected_signs(s_e, s_o, table[:, :, cols, part], used)
        col += len(angles)
    position = np.empty(n_base, dtype=np.intp)
    position[np.concatenate(blocks)] = np.arange(n_base)
    return table[:, code, position[base]]


def _circle_signs(level, coeffs_matrix, n_points):
    """Signs Phi >= 0 of the fields on the uniform circle grid; bool, shape (n_seeds, n_points).

    The circle is the fan of n_points rays with ts = [1.0]; see _fan_signs.
    """
    return _fan_signs(level, coeffs_matrix, n_points, [1.0])[..., 0]


def _count_changes(signs):
    """Sign changes of bool signs around a closed grid, along the last axis."""
    changes = (signs[..., 1:] != signs[..., :-1]).sum(axis=-1, dtype=np.int32)
    return changes + (signs[..., 0] != signs[..., -1])


def _circle_points(level, angular_step):
    """Fine circle grid size; angular_step defaults to, and may not exceed, hbar^(2/3)/16.

    The size is rounded up to a multiple of 4, so that one axis table serves
    both axes (_fan_axes).
    """
    step_cap = level.hbar ** (2.0 / 3.0) / 16.0
    if angular_step is None:
        angular_step = step_cap
    else:
        _check_step("angular_step", angular_step)
        if angular_step > step_cap * (1 + 1e-9):
            raise ValueError("angular_step must be <= hbar^(2/3)/16")
    return 4 * int(math.ceil(2.0 * math.pi / angular_step / 4.0))


def _crossing_counts(level, coeffs, angular_step):
    """(fine, coarse, n_fine): sign changes of each field around the caustic
    circle on the n_fine-point grid and on its even points."""
    n_fine = _circle_points(level, angular_step)
    signs = _circle_signs(level, coeffs, n_fine)
    return _count_changes(signs), _count_changes(signs[:, ::2]), n_fine


def caustic_crossings(field, angular_step=None):
    """Number of nodal crossings of the caustic circle (d = 2).

    Counts sign changes of theta -> Phi(cos theta, sin theta) on a uniform
    grid with angular_step <= hbar^(2/3)/16, and re-counts on the doubled
    grid; the fine count is returned, with the coarse/fine difference as the
    stability error.  The count is even (the circle is closed).
    """
    level = field.level
    if level.d != 2:
        raise ValueError("caustic_crossings is d = 2 only")
    (fine,), (coarse,), n_fine = _crossing_counts(level, field.coeffs[None], angular_step)
    diff = abs(fine - coarse)
    if fine > 0 and diff > 0.02 * fine + 2:
        warnings.warn(
            f"caustic_crossings resolution instability: {coarse} vs {fine}",
            RuntimeWarning, stacklevel=2)
    return NodalEstimate(value=float(fine), std_error=float(diff),
                         n_samples=1, resolution=2.0 * math.pi / n_fine)


def caustic_crossings_ensemble(level, seeds, angular_step=None):
    """Crossing counts for an ensemble sharing one circle basis.

    Returns (counts, NodalEstimate of the ensemble mean).
    """
    if level.d != 2:
        raise ValueError("caustic_crossings_ensemble is d = 2 only")
    fine, _, n_fine = _crossing_counts(level, _ensemble_coeffs(level, seeds), angular_step)
    counts = fine.astype(float)
    return counts, _mean_estimate(counts, 2.0 * math.pi / n_fine)


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble description for profile estimators: level, seeds, ray count."""

    level: object
    seeds: tuple
    n_rays: int = 32
    t_step: float = None  # defaults to hbar/8

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.n_rays < 1:
            raise ValueError(f"a radial profile needs at least one ray, got n_rays = {self.n_rays}")
        if self.t_step is not None:
            _check_step("t_step", self.t_step)


def radial_zero_profile(spec, radii, half_width=None):
    """Zero density of Phi restricted to rays, binned around each radius.

    One radial sweep per (seed, ray) crosses allowed bulk, annuli, tube and
    forbidden region; zeros are assigned to the nearest requested radius when
    within half_width (default: half the smallest radius gap).  Returns one
    NodalEstimate per radius: density of zeros per unit radial length, with
    the seed-to-seed scatter as the error.  Radii must be positive and distinct.
    """
    level = spec.level
    if level.d != 2:
        raise ValueError("radial_zero_profile is d = 2 only")
    radii = np.asarray(sorted(radii), dtype=float)
    gaps = np.diff(radii)
    if radii.size == 0 or not radii[0] > 0.0 or np.any(gaps == 0.0):
        raise ValueError(f"radii must be positive and distinct, got {radii.tolist()}")
    if half_width is None:
        half_width = float(gaps.min()) / 2.0 if gaps.size else 0.05
    elif not half_width > 0.0:
        raise ValueError(f"half_width must be positive, got {half_width!r}")
    t_step = spec.t_step if spec.t_step is not None else level.hbar / 8.0
    t_lo = max(radii[0] - half_width, t_step)
    t_hi = radii[-1] + half_width
    ts = _grid_axis(t_lo, t_hi, t_step)
    _check_range(level, ts[-1:, None])
    mids = 0.5 * (ts[1:] + ts[:-1])
    signs = _fan_signs(level, _ensemble_coeffs(level, spec.seeds), spec.n_rays, ts)
    changes = (signs[..., 1:] != signs[..., :-1]).sum(axis=1, dtype=np.int32)
    # bin membership of each grid interval midpoint
    bins = np.abs(mids[:, None] - radii[None, :]) <= half_width
    per_seed = changes @ bins.astype(float)
    per_seed /= spec.n_rays * 2.0 * half_width
    return [_mean_estimate(col, t_step) for col in per_seed.T]
