"""Exact eigenspace projection kernels and their diagonal jets.

Two independent evaluation routes cross-validate each other:

  * pi_exact - the Hermite-basis sum  Pi(x,y) = sum_{|beta|=N} phi_beta(x)
    phi_beta(y), exponent tracked throughout so forbidden-region values of
    size exp(-c/hbar) survive; O(N) a pair at every d.  This is the global
    oracle.  At d <= 2 the per-coordinate arrays are folded by truncated
    convolution.  From d = 3 on the pair is turned into the plane of x and y,
    where the other d - 1 coordinates sum to one Laguerre series
    (_planar_sums); a pair whose planar sum cancels beyond
    _PLANAR_CONDITION_MAX takes the per-coordinate fold, O(d N^2), instead.

  * pi_mehler - trapezoid quadrature of the propagator residue integral

        Pi(x,y) = (1/2 pi i) oint (pi hbar (1-z^2))^(-d/2) z^(-N)
                  exp(-[(1-z)/(1+z) |x+y|^2 + (1+z)/(1-z) |x-y|^2] / (4 hbar)) dz / z

    over a circle |z| = r < 1 through the saddles (just inside the rim where
    they lie on it).  K nodes extract the z^N coefficient up to upward aliases
    weighted by r^(jK); K >= N+1 leaves no downward alias.  Valid for |x|,|y|
    <= 1.3, beyond which cancellation swamps double precision.

Diagonal jets (the Kac-Rice input) come from the basis derivative ladder in
radial form: the kernel is O(d)-invariant, so the jet at x is the jet at
|x| e1, four single sums against closed-form series, turned back along x/|x|.

pi_exact_batch and the radial jet sums run one extended-precision basis
recurrence (semiclassical._psi_mantexp; each column depends on its own
coordinate alone) per pass of at most _PASS_ENTRIES basis entries, over their
distinct coordinates, planar coordinates or xi = |x| / sqrt(hbar).  A jet
pass may mix levels of one d (densities.omega_exact_levels, the scaling
sweep): its table runs to the largest N + 1, which only adds rows after those
a shorter table holds, and each point reads its own rows 0..N.  pi_exact,
covariance_jet and the one-level batches are their one-entry cases.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .semiclassical import (
    DEFAULT_DIM_BUDGET,
    ResourceLimitError,
    TrackedReal,
    _PI_LD,
    _check_range,
    _pow2_down,
    _laguerre_mantexp,
    _phi_deriv_mantexp,
    _phi_mantexp,
    _plain_floats,
    _psi_mantexp,
)

#: |x| cap for the residue-integral route; beyond this the circle integrand
#: reaches exp(c(|x|^2-1)/hbar) above the result and the rule is uncertified
MEHLER_RADIUS_LIMIT = 1.3

#: extended-precision basis entries per pass: a pass of pi_exact_batch or
#: covariance_jet_batch takes max(1, _PASS_ENTRIES // (N + 1)) basis columns,
#: so its memory is bounded at every N (a jet point counts its phi and phi'
#: columns, a pair the 2d columns of the fold it may fall back to)
_PASS_ENTRIES = 2 * 10**6

#: the largest sum|terms| / |Pi| a planar sum is taken at: the planar error is
#: about the longdouble eps times it, so an accepted value is within ~1e-9 (9.2e9
#: on x86-64); a pair beyond it is re-summed by the per-coordinate fold (DECISIONS.md)
_PLANAR_CONDITION_MAX = 1e-9 / float(np.finfo(np.longdouble).eps)

#: pi_mehler's circle stays _RIM_MARGIN / (N + _RIM_MARGIN) inside the rim (N = 0
#: takes _N0_RADIUS), and its default nodes put the upward aliases below e^-_ALIAS_LOG
_RIM_MARGIN, _N0_RADIUS, _ALIAS_LOG = 5, 0.5, 40

#: the exponent of a zero term: below every other term's, which _check_range keeps
#: above -1.5 * 2^60, and far enough inside int64 that a term plus it still fits
_ZERO_EXPONENT = np.int64(-2**62)


@dataclass(frozen=True)
class CovarianceJet:
    """Pi(x,x), grad_x Pi and the mixed Hessian d_x d_y Pi on the diagonal.

    pi is strictly positive (a sum of squares), hess is a Gram matrix and the
    matrix pi*hess - grad grad^T is positive semidefinite (Cauchy-Schwarz).
    """

    point: np.ndarray
    pi: TrackedReal
    grad: list
    hess: list


def _per_pass(n, columns):
    """Entries (pairs or points) per pass when each takes `columns` basis columns."""
    return max(1, max(1, _PASS_ENTRIES // (n + 1)) // columns)


def _conv_last(ma, ea, mb, eb, n):
    """Coefficient n of the product of two tracked coefficient arrays."""
    tot, m, _ = _row_sums(ma[: n + 1] * mb[n::-1], ea[: n + 1] + eb[n::-1])
    return tot, int(m)


def _conv_full(ma, ea, mb, eb, n, dtype):
    """Coefficients 0..n of the product, each renormalized to its own exponent (exactly)."""
    tot, e = zip(*(_conv_last(ma, ea, mb, eb, j) for j in range(n + 1)))
    mm, sh = np.frexp(np.array(tot, dtype=dtype))
    return mm, np.array(e, dtype=np.int64) + sh


def _fold(arrays, n, dtype):
    """Fold per-coordinate arrays left to right; returns coefficient n."""
    (ma, ea), rest = arrays[0], arrays[1:]
    for mb, eb in rest[:-1]:
        ma, ea = _conv_full(ma, ea, mb, eb, n, dtype)
    tot, e = _conv_last(ma, ea, *rest[-1], n) if rest else (ma[n], ea[n])
    return float(tot), int(e)


def _checked_table(level, points, pairs):
    """points as a float (len, d) array of d-vectors in _check_range, once the table's
    work is inside DEFAULT_DIM_BUDGET: d (N+1) for jets and for pairs at d <= 2, and
    d (N+1)^2 for pairs at d >= 3 (the fold a pair may fall back to)."""
    d, power = level.d, 2 if pairs and level.d >= 3 else 1
    work = d * (level.N + 1) ** power
    if work > DEFAULT_DIM_BUDGET:
        raise ResourceLimitError(f"kernel work d (N+1){'^2' * (power - 1)} = {work:.3g} "
                                 f"exceeds the budget {DEFAULT_DIM_BUDGET:.3g}")
    points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    if any(p.shape != (d,) for p in points):
        raise ValueError(f"points must be {d}-vectors")
    points = np.array(points).reshape(-1, d)
    _check_range(level, points)
    return points


def pi_exact(level, x, y=None):
    """Exact projection kernel Pi(x,y) as a TrackedReal (y defaults to x).

    In extended precision: the per-coordinate fold at d <= 2, the planar sum
    (or the fold, for a pair it cannot certify) from d = 3 on; the one-pair
    case of pi_exact_batch.
    """
    return pi_exact_batch(level, [x], [x if y is None else y])[0]


def covariance_jet(level, x):
    """Pi, grad Pi and the mixed Hessian at the diagonal point x.

    grad_i = d_{x_i} Pi(x,y)|_{y=x} and hess_ij = d_{x_i} d_{y_j} Pi(x,y)|_{y=x}.
    By O(d) invariance grad = g xhat and hess = H_rr xhat xhat^T + H_tt (I -
    xhat xhat^T), xhat = x/|x| (e1 at x = 0); the one-point covariance_jet_batch.
    """
    return covariance_jet_batch(level, [x])[0]


def _zero_series(hbar, n, m):
    """Tracked D(2j), 2j <= n, and T(2j+1), 2j+1 <= n, for m coordinates held at 0.

    D = (sum phi_k(0)^2 t^k)^m = ((pi hbar)(1-t^2))^(-m/2) and T = (sum phi_k'(0)^2
    t^k) D_(m-1) = 2t hbar^(-1) (pi hbar)^(-m/2) (1-t^2)^(-(m+2)/2), so D(2j) =
    (pi hbar)^(-m/2) (m/2)_j / j!, T(2j+1) = 2 hbar^(-1) (pi hbar)^(-m/2)
    ((m+2)/2)_j / j!, and both vanish at the other parity.  The zeros of D at
    m = 0 get exponent _ZERO_EXPONENT, so they never set a sum's scale.
    """
    dtype = np.longdouble
    hb, j = dtype(hbar), np.arange(1, n // 2 + 1, dtype=dtype)
    log2_d = -(dtype(m) / 2) * np.log2(_PI_LD * hb)
    out = []
    for count, a, log2_c in ((n // 2 + 1, dtype(m) / 2, log2_d),
                             ((n + 1) // 2, dtype(m) / 2 + 1, log2_d + np.log2(2 / hb))):
        top = np.floor(log2_c)
        terms = np.cumprod(np.concatenate(([np.exp2(log2_c - top)], (a + j - 1) / j)))
        mant, exp = np.frexp(terms[:count])
        out.append((mant, np.where(mant == 0, _ZERO_EXPONENT, exp + int(top))))
    return out


def covariance_jet_batch(level, points):
    """covariance_jet over a list of diagonal points, positionally ordered: the
    one-level _radial_jet_sums turned back along each xhat, so a jet is == to a
    one-point call."""
    if len(points) == 0:
        return []
    points, xhat, (pi, g, h_rr, h_tt), (pe, ge, e_rr, e_tt) = \
        _radial_jet_sums([level] * len(points), points)
    top = np.maximum(e_rr, e_tt)
    hess = _turn_back(xhat, np.ldexp(h_rr, e_rr - top), np.ldexp(h_tt, e_tt - top))
    return [CovarianceJet(x, TrackedReal(float(p), int(p_e)),
                          [TrackedReal(float(gj), int(g_e)) for gj in g_i * u],
                          [[TrackedReal(float(h), int(t)) for h in row] for row in hh])
            for x, u, p, p_e, g_i, g_e, hh, t in zip(points, xhat, pi, pe, g, ge, hess, top)]


def _radial_jet_sums(levels, points):
    """(points, xhat, totals, tops) for the points at their levels (levels[i] for
    points[i], all of one d): the checked (m, d) points, their longdouble xhat, and
    (4, m) arrays of Pi, g, H_rr and H_tt as totals 2**tops.

    At r e1, r = |x|, the other d - 1 coordinates are 0, so with (D, T) from
    _zero_series and phi_a = phi_a(r): Pi = sum_a phi_a^2 D(N-a), g = sum_a
    phi_a phi_a' D(N-a), H_rr = sum_a phi_a'^2 D(N-a), H_tt = sum_a phi_a^2 T(N-a).
    A pass runs one ladder of psi_k and psi_k' (phi at hbar = 1) to the largest N
    of its points, over each level's distinct xi = r / sqrt(hbar).  Each level
    reads rows 0..N of its own columns, times hbar^(-1/4) and hbar^(-3/4), into
    one _row_sums a sum; rows do not depend on the table's length, so a value is
    == to a one-point call.
    """
    ld, d = np.longdouble, levels[0].d
    groups = {}
    for i, level in enumerate(levels):
        groups.setdefault(level, []).append(i)
    if any(level.d != d for level in groups):
        raise ValueError("the levels of one table must share d")
    table, which = np.empty((len(levels), d)), np.empty(len(levels), dtype=np.int64)
    series = []
    for k, (level, rows) in enumerate(groups.items()):
        table[rows] = _checked_table(level, [points[i] for i in rows], pairs=False)
        which[rows] = k
        # zero series read backwards: D meets the degrees of N's parity, T the others
        series.append([(mant[::-1], exp[::-1]) for mant, exp in
                       _zero_series(level.hbar, level.N, d - 1)])
    radii, xhat = _radial_frame(table.astype(ld))
    xi = radii / np.sqrt(np.array([level.hbar for level in levels], dtype=ld))
    totals, tops = np.zeros((4, len(levels)), ld), np.zeros((4, len(levels)), np.int64)
    per_pass = _per_pass(max(level.N for level in groups), 2)
    for start in range(0, len(levels), per_pass):
        rows = np.arange(start, min(start + per_pass, len(levels)))
        # each level's distinct xi, one block of table columns a level
        parts = []
        for k in dict.fromkeys(which[rows].tolist()):
            here = rows[which[rows] == k]
            parts.append((k, here, *np.unique(xi[here], return_inverse=True)))
        n_pass = max(levels[here[0]].N for _, here, *_ in parts)
        m, e, dm, de = (t.T for t in _phi_deriv_mantexp(
            1.0, n_pass, np.concatenate([xs for *_, xs, _ in parts])))
        end = 0
        for k, here, xs, at in parts:
            level, (dz, tz) = levels[here[0]], series[k]
            n, hb = level.N, ld(level.hbar)
            cols, end = slice(end, end + len(xs)), end + len(xs)
            phi = m[cols, :n + 1] * hb ** ld(-0.25), e[cols, :n + 1]
            dphi = dm[cols, :n + 1] * hb ** ld(-0.75), de[cols, :n + 1]
            a, b = slice(n % 2, None, 2), slice(1 - n % 2, None, 2)
            # Pi, g, H_rr, H_tt: phi phi, phi phi' and phi' phi' against D, phi phi against T
            for i, ((p, p_e), (q, q_e), deg, (z_m, z_e)) in enumerate((
                    (phi, phi, a, dz), (phi, dphi, a, dz), (dphi, dphi, a, dz),
                    (phi, phi, b, tz))):
                total, top = _row_sums(p[:, deg] * q[:, deg] * z_m,
                                       p_e[:, deg] + q_e[:, deg] + z_e)[:2]
                totals[i, here], tops[i, here] = total[at.ravel()], top[at.ravel()]
    return table, xhat, totals, tops


def _turn_back(xhat, along, across):
    """along xhat xhat^T + across (I - xhat xhat^T) for each row of xhat: (m, d, d)."""
    radial = xhat[:, :, None] * xhat[:, None, :]
    return along[:, None, None] * radial \
        + across[:, None, None] * (np.eye(xhat.shape[1], dtype=xhat.dtype) - radial)


def _radial_frame(x):
    """|x| and xhat = x/|x| (e1 at x = 0) for each row of a longdouble (m, d) array."""
    r = np.sqrt(np.sum(x * x, axis=1))
    return r, np.where(r[:, None] > 0, x / np.where(r > 0, r, 1)[:, None],
                       np.eye(x.shape[1], dtype=x.dtype)[0])


def _row_sums(mant, exp):
    """Tracked sums along the last axis of longdouble mant 2**exp: (total, top, terms),
    the sum being total 2**top and terms its summands over 2**top (an empty row sums
    to 0); each summand is rounded once, by a power of two from _pow2_down."""
    top = exp.max(axis=-1, initial=_ZERO_EXPONENT)
    # C order: each row is summed pairwise on its own, as a 1-d sum would be
    terms = np.multiply(mant, _pow2_down(top[..., None] - exp), order="C")
    return terms.sum(axis=-1), top, terms


def _distinct_columns(coords):
    """The distinct entries of a coordinate array and each entry's index among them.

    Distinct is bitwise, so -0.0 and 0.0 stay apart; returns (distinct values,
    an index array shaped like coords).
    """
    flat = coords.ravel()
    _, first, inv = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    return flat[first], inv.reshape(coords.shape)


def _saddle_radius(level, x, y):
    """The smallest |z| over the saddles of z^(-N) exp(-ss(z)/hbar), capped below the rim.

    With c = N hbar, A = (|x|^2+|y|^2)/2 and B = x.y, the saddle equation c z^4 - 2B
    z^3 + (4A - 2c) z^2 - 2B z + c = 0 is palindromic: w = z + 1/z solves c w^2 - 2B w
    + 4(A - c) = 0, so the saddles pair as z, 1/z; a real |w| <= 2 puts both on |z| = 1.
    """
    n = level.N
    if n == 0:
        return _N0_RADIUS
    c, a, b = n * level.hbar, (x @ x + y @ y) / 2, x @ y
    w = (b + np.array([1.0, -1.0]) * np.sqrt(complex(b * b - 4 * c * (a - c)))) / c
    size = np.abs((w + np.sqrt(w * w - 4)) / 2)
    return float(min(np.minimum(size, 1 / size).min(), 1 - _RIM_MARGIN / (n + _RIM_MARGIN)))


def _mehler_trapezoid(level, plus, minus, radius, k_nodes):
    """(mean, m): pi_mehler's integral on |z| = radius by the k_nodes-point trapezoid
    rule is mean e^m; plus = |x+y|^2 and minus = |x-y|^2, in longdouble."""
    ld, n, r, hb = np.longdouble, level.N, np.longdouble(radius), np.longdouble(level.hbar)
    theta = (2 * _PI_LD) * np.arange(k_nodes).astype(ld) / k_nodes
    z = r * np.exp(1j * theta.astype(np.clongdouble))
    ss = ((1 - z) / (1 + z) * plus + (1 + z) / (1 - z) * minus) / 4
    logf = -ss / hb - ld(n) * (np.log(r) + 1j * theta) \
        - (ld(level.d) / 2) * np.log(_PI_LD * hb * (1 - z * z))
    m = float(np.max(np.real(logf)))
    if m > 11000.0:  # exp() of the longdouble max exponent
        raise RuntimeError("pi_mehler integrand overflows; use pi_exact")
    return float(np.real(np.sum(np.exp(logf - ld(m)))) / k_nodes), m


def pi_mehler(level, x, y):
    """Residue-integral evaluation of Pi(x,y) on the circle |z| = r = _saddle_radius.

    x.y < 0 is reduced by parity, Pi(x,y) = (-1)^N Pi(x,-y).  r is 1 - 5/(N+5)
    where the saddles lie on the rim, and max(4(N+1), 512, ceil(40 / -ln r))
    nodes put the upward aliases below e^-40, ~8(N+5) nodes at the rim.  A
    RuntimeWarning reports an alias/cancellation estimate above 1e-8.
    """
    n = level.N
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if np.linalg.norm(x) > MEHLER_RADIUS_LIMIT or np.linalg.norm(y) > MEHLER_RADIUS_LIMIT:
        raise ValueError(
            f"pi_mehler is certified only for |x|,|y| <= {MEHLER_RADIUS_LIMIT}; "
            "use pi_exact in the deep forbidden region")
    sign, y = ((-1.0) ** n, -y) if x @ y < 0 else (1.0, y)
    radius = _saddle_radius(level, x, y)
    num_nodes = max(4 * (n + 1), 512, math.ceil(_ALIAS_LOG / -math.log(radius)))
    # |x+y|^2 and |x-y|^2 in place of x^2 + y^2 - 2 x.y: no cancellation near the rim
    plus, minus = (np.sum((x.astype(np.longdouble) + sign_y * y.astype(np.longdouble)) ** 2)
                   for sign_y in (1, -1))
    mean, m = _mehler_trapezoid(level, plus, minus, radius, num_nodes)
    result = sign * mean * math.exp(m)
    # measured alias/cancellation estimate: a rule with num_nodes + (N+1)
    # nodes keeps the no-downward-alias property but samples a different
    # upward alias set, so the difference bounds both error sources
    mean_alt, m_alt = _mehler_trapezoid(level, plus, minus, radius, num_nodes + n + 1)
    disagreement = abs(mean * math.exp(m) - mean_alt * math.exp(m_alt))
    noise_floor = 1e-13 * math.exp(max(m, m_alt))  # absolute floor of the rule
    if disagreement > 1e-8 * abs(result) and \
            max(abs(result), abs(mean_alt) * math.exp(m_alt)) > noise_floor:
        warnings.warn(
            f"pi_mehler alias/cancellation estimate {disagreement:.2e} exceeds "
            "1e-8 of the result", RuntimeWarning, stacklevel=2)
    return result


def jet_grid(level, xs, ys):
    """Diagonal jets on a d = 2 tensor grid (ys x xs), in plain floats.

    Returns a dict with arrays Pi, G1, G2, H11, H12, H22 of shape
    (len(ys), len(xs)).  The exact bulk density oscillates on scale hbar, so
    averages of Kac-Rice predictions over regions must resolve that scale;
    this GEMM path makes such grids cheap.  Each axis takes one float64 psi
    table of N + 2 rows in plain floats (semiclassical._plain_floats, refused
    once an exponent is below -500, i.e. beyond |x| ~1.6 at moderate N), the
    ladder psi_k' = sqrt(k/2) psi_(k-1) - sqrt((k+1)/2) psi_(k+1) on it, and
    the factors hbar^(-1/4) and hbar^(-3/4).
    """
    if level.d != 2:
        raise ValueError("jet_grid is d = 2 only")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    _check_range(level, [[np.abs(xs).max(), np.abs(ys).max()]])   # the far corner
    n, hb = level.N, np.float64(level.hbar)
    k = np.arange(n + 1, dtype=np.float64)
    lo, hi = np.sqrt(k / 2.0)[:, None], np.sqrt((k + 1) / 2.0)[:, None]
    factors = []
    for coords, step in ((xs, 1), (ys, -1)):
        psi = _plain_floats(*_psi_mantexp(n + 1, coords / np.sqrt(hb)), -500,
                            "jet_grid would underflow; use covariance_jet point by point")
        dpsi = np.vstack([-hi[0] * psi[1], lo[1:] * psi[:n] - hi[1:] * psi[2:]])
        phi, dphi = (psi[:-1] * hb ** -0.25)[::step], (dpsi * hb ** -0.75)[::step]
        factors.append((phi * phi, phi * dphi, dphi * dphi))
    (p1, d1, q1), (p2, d2, q2) = factors
    return {"Pi": p2.T @ p1, "G1": p2.T @ d1, "G2": d2.T @ p1,
            "H11": p2.T @ q1, "H22": q2.T @ p1, "H12": d2.T @ d1}


def _folded(level, chunk):
    """Pi by the per-coordinate fold for each pair of a (2, pairs, d) chunk.

    One extended-precision basis recurrence over the chunk's distinct
    coordinates; then the arrays A_j[k] = phi_k(x_j) phi_k(y_j) of each pair
    are folded by truncated convolution and read off at degree N.
    """
    dtype, n = np.longdouble, level.N
    # col[side, pair, j] is the basis column of that coordinate
    coords, col = _distinct_columns(chunk)
    m, e = _phi_mantexp(level.hbar, n, coords, dtype=dtype)
    return [TrackedReal(*_fold([(m[:, cx] * m[:, cy], e[:, cx] + e[:, cy])
                                for cx, cy in zip(col[0, p], col[1, p])], n, dtype))
            for p in range(chunk.shape[1])]


def _planar_sums(level, chunk):
    """Pi and sum|terms| for each pair of a (2, pairs, d) chunk, d >= 3.

    With r = |x|, xhat = x/r (e1 at x = 0), p = xhat.y and q = |y - p xhat|
    (the rejection vector, all in extended precision), O(d) invariance puts
    the pair at (r e1, p e1 + q e2), and the sum over |beta| = N factors as
    Pi = sum_{a = N mod 2} phi_a(r) phi_a(p) G(N-a).  G(n) = sum_{|beta|=n}
    phi_beta(0) phi_beta(q e1) over the other d - 1 coordinates is, by
    Mehler's formula and the Laguerre generating function, G(2j) = (pi
    hbar)^(-(d-1)/2) e^(-q^2/(2 hbar)) L_j^((d-3)/2)(q^2/hbar), G(odd) = 0.
    One Hermite recurrence runs over the distinct r and p, one Laguerre
    recurrence over the distinct q^2; each pair's sum is its own row, so a
    value is == to a one-pair call.  Returns arrays (total, top, size) with
    Pi = total 2**top and sum|terms| = size 2**top.
    """
    d, n, dtype = level.d, level.N, np.longdouble
    x, y = chunk.astype(dtype)
    r, xhat = _radial_frame(x)
    p = np.sum(xhat * y, axis=1) + dtype(0)   # + 0 turns -0 into 0: one column for p = 0
    v = y - p[:, None] * xhat
    z = np.sum(v * v, axis=1) / dtype(level.hbar)
    herm, col = np.unique(np.concatenate([r, p]), return_inverse=True)
    m, e = _phi_mantexp(level.hbar, n, herm, dtype=dtype)
    qs, qcol = np.unique(z, return_inverse=True)
    log2_scale = -(dtype(d - 1) / 2) * np.log2(_PI_LD * dtype(level.hbar))
    lm, le = _laguerre_mantexp(n // 2, dtype(d - 3) / 2, qs, log2_scale)
    # rows are pairs: phi_a(r), phi_a(p) at a = N mod 2, N mod 2 + 2, ..., N
    # against G(N - a), i.e. the Laguerre rows read backwards
    mt, et = m[n % 2::2].T, e[n % 2::2].T
    lmt, let = lm[::-1].T, le[::-1].T
    cr, cp, cq = col[:len(r)], col[len(r):], qcol.ravel()
    total, top, terms = _row_sums(mt[cr] * mt[cp] * lmt[cq], et[cr] + et[cp] + let[cq])
    return total, top, np.abs(terms).sum(axis=1)


def pi_exact_batch(level, points_x, points_y):
    """pi_exact over a list of point pairs, positionally ordered.

    Pairs run in passes (see _PASS_ENTRIES).  At d >= 3 a pass takes the
    planar sums (_planar_sums), and re-sums by the fold (_folded) each pair
    whose planar condition exceeds _PLANAR_CONDITION_MAX; at d <= 2 it
    folds.  Every step of both is per pair, so every value is bit-identical
    to a one-pair call.
    """
    if len(points_x) != len(points_y):
        raise ValueError("point lists must have equal length")
    if len(points_x) == 0:
        return []
    pairs = _checked_table(level, [*points_x, *points_y], pairs=True)
    pairs = pairs.reshape(2, len(points_x), level.d)
    values, per_pass = [], _per_pass(level.N, 2 * level.d)
    for start in range(0, pairs.shape[1], per_pass):
        chunk = pairs[:, start:start + per_pass]
        if level.d <= 2:
            values += _folded(level, chunk)
            continue
        total, top, size = _planar_sums(level, chunk)
        planar = size <= _PLANAR_CONDITION_MAX * np.abs(total)
        refold = iter(_folded(level, chunk[:, ~planar]) if not planar.all() else ())
        values += [TrackedReal(float(t), int(e)) if ok else next(refold)
                   for t, e, ok in zip(total, top, planar)]
    return values


def read_batch_csv(path):
    """Read a pairs CSV x1..xd,y1..yd[,pi_mantissa,pi_exponent].

    Returns (points_x, points_y, values).  '#' comment lines are skipped, so
    the output of `oscnodal projector` reads back exactly; coordinate-only
    files (no pi columns) give values None.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"pairs CSV {path} has no header row")
    header, rows = rows[0], rows[1:]
    d = sum(1 for name in header if name.startswith("x"))
    has_values = len(header) >= 2 * d + 2
    xs, ys, vals = [], [], []
    for row in rows:
        xs.append(np.array([float(v) for v in row[:d]]))
        ys.append(np.array([float(v) for v in row[d:2 * d]]))
        if has_values:
            vals.append(TrackedReal.from_base_e(row[2 * d], row[2 * d + 1]))
    return xs, ys, (vals if has_values else None)
