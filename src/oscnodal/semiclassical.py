"""Semiclassical parameter bookkeeping and stable scaled Hermite evaluation.

The isotropic oscillator (-hbar^2/2) Laplacian + |x|^2/2 at energy E = 1/2
quantizes the Planck parameter to hbar = 1/(2N+d).  Everything downstream
(projection kernels, nodal densities) is built from the 1D orthonormal
oscillator eigenfunctions

    psi_0(xi) = pi^(-1/4) exp(-xi^2/2),
    psi_{k+1}(xi) = sqrt(2/(k+1)) xi psi_k(xi) - sqrt(k/(k+1)) psi_{k-1}(xi),

scaled as phi_k(x) = hbar^(-1/4) psi_k(x / sqrt(hbar)).  The recurrence runs
on the functions themselves (Gaussian weight folded in from the start), which
follows the dominant solution and therefore stays relatively accurate for all
real arguments.  In the classically forbidden region the values decay like
exp(-c/hbar), far below float underflow, so every value is carried as a
(mantissa, exponent) pair in base 2, from the recurrence through the folds
to TrackedReal; see TrackedReal.

The recurrence has two routes, chosen by dtype alone (_psi_mantexp).  float64
(Monte Carlo fields, plain-float grids: thousands of columns at N <= 400)
runs _renorm_steps, the one step loop, which _laguerre_mantexp shares: rows
are written in place and the running pair is renormalized every _RENORM = 8
rows, one exponent row per block of 8 rows.  Only this module reads that
layout (_row_exponents, _plain_floats, _pair_basis).  Extended precision (the
exact kernels and jets: a few columns at N up to thousands) runs as transfers
across blocks of _BLOCK = 32 rows, so a table of N rows costs ~8 * 32 + N / 3
array operations instead of ~3.6 N, at the per-step loop's accuracy; its
mantissas come frexp-normalized, |m| < 1, with one exponent per entry.  The
derivative ladder (_phi_deriv_mantexp) is extended precision only; it and the
tracked sums of projector scale longdouble tables by exact powers of two read
from one table (_pow2_down), not by exp2 or ldexp.
_laguerre_mantexp tracks the Laguerre functions that the exact pair kernels
at d >= 3 sum against (projector._planar_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)
_LOG2E = 1.0 / _LOG2
#: ln 2 in fixed point, floor(ln 2 * 2^_LN2_BITS) to within 2^-240 relative, from
#: ln 2 = sum_k 1 / (k 2^k): exponents cross the base-2 / base-e edge in integers
_LN2_BITS = 256
_LN2_SCALED = sum((1 << _LN2_BITS) // (k << k) for k in range(1, _LN2_BITS + 1))
_PI_M14 = math.pi ** -0.25
#: pi, log2(e) and pi^(-1/4) in extended precision, for the longdouble route
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")
_LOG2E_LD = 1 / np.log(np.longdouble(2))
_PI_M14_LD = _PI_LD ** np.longdouble(-0.25)

DEFAULT_DIM_BUDGET = 10**8

#: 2^-k for k = 0 .. 16445 (to the longdouble subnormal floor on x86-64), each exact,
#: then one 0 for every larger k: 16447 entries, 263 kB (_pow2_down)
_POW2_LD = np.append(np.ldexp(np.longdouble(1), -np.arange(
    np.finfo(np.longdouble).nmant - np.finfo(np.longdouble).minexp + 1)), np.longdouble(0))

#: the largest |x| / sqrt(hbar) of a point: _psi_blocks is finite below 2^31, and
#: below 2^30 a term of a kernel or jet sum (two points' bases) has an exponent
#: above -1.5 * 2^60
_XI_LIMIT = 2**30


class ResourceLimitError(RuntimeError):
    """An operation would exceed its configured work/memory budget."""


@dataclass(frozen=True)
class TrackedReal:
    """A real number stored as mantissa * 2**exponent with integer exponent.

    Base 2 is the basis recurrence's and the folds' own, so fold results are
    taken as they are and every rescaling is exact.  Arithmetic renormalizes
    the mantissa into [0.5, 1) (up to sign) with frexp; only the mantissa
    operation rounds.  to_base_e and from_base_e convert at the projector
    CSV's mantissa * e**exponent edge, splitting exponent * ln 2 (or the
    exponent / ln 2) in integers, so that only the mantissa rounds.
    """

    mantissa: float
    exponent: int = 0

    @staticmethod
    def from_float(value):
        return TrackedReal(float(value), 0)

    @staticmethod
    def from_log(log_abs, sign=1.0):
        """Build from log|value| and a sign, split by ln 2."""
        if sign == 0.0:
            return TrackedReal(0.0, 0)
        e = math.floor(log_abs * _LOG2E)
        return TrackedReal(math.copysign(math.exp(log_abs - e * _LOG2), sign),
                           int(e)).normalized()

    @staticmethod
    def from_base_e(mantissa, exponent):
        """Read a value stored as mantissa * e**exponent (the projector CSV)."""
        mantissa = float(mantissa)
        if mantissa == 0.0:
            return TrackedReal(0.0, 0)
        twos, rest = divmod(int(exponent) << _LN2_BITS, _LN2_SCALED)
        return TrackedReal(mantissa * math.exp(rest / (1 << _LN2_BITS)), twos).normalized()

    def to_base_e(self):
        """(mantissa, exponent) with value = mantissa * e**exponent, mantissa in [1, e)."""
        if self.mantissa == 0.0:
            return 0.0, 0
        m, shift = math.frexp(abs(self.mantissa))
        whole, frac = divmod((int(self.exponent) + shift) * _LN2_SCALED, 1 << _LN2_BITS)
        rest = frac / (1 << _LN2_BITS) + math.log(m)
        e = math.floor(rest)
        return math.copysign(math.exp(rest - e), self.mantissa), whole + e

    def normalized(self):
        m, shift = math.frexp(self.mantissa)
        if m == 0.0:
            return TrackedReal(0.0, 0)
        return TrackedReal(m, self.exponent + shift)

    def to_float(self):
        """Collapse to a plain float; overflows to inf for huge exponents."""
        m, e = math.frexp(self.mantissa)
        if m != 0.0 and e + self.exponent > 1024:
            return math.copysign(math.inf, m)
        return math.ldexp(m, e + self.exponent)

    def log_abs(self):
        if self.mantissa == 0.0:
            raise ValueError("log of zero")
        # normalize first: an unnormalized mantissa's log would cancel against the exponent's
        m, shift = math.frexp(abs(self.mantissa))
        return math.log(m) + (self.exponent + shift) * _LOG2

    @property
    def sign(self):
        return math.copysign(1.0, self.mantissa) if self.mantissa != 0.0 else 0.0

    def __float__(self):
        return self.to_float()

    def __neg__(self):
        return TrackedReal(-self.mantissa, self.exponent)

    def __abs__(self):
        return TrackedReal(abs(self.mantissa), self.exponent)

    def __mul__(self, other):
        if isinstance(other, TrackedReal):
            return TrackedReal(self.mantissa * other.mantissa,
                               self.exponent + other.exponent).normalized()
        return TrackedReal(self.mantissa * float(other), self.exponent).normalized()

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TrackedReal):
            if other.mantissa == 0.0:
                raise ZeroDivisionError("TrackedReal division by zero")
            return TrackedReal(self.mantissa / other.mantissa,
                               self.exponent - other.exponent).normalized()
        return TrackedReal(self.mantissa / float(other), self.exponent).normalized()

    def __add__(self, other):
        if not isinstance(other, TrackedReal):
            other = TrackedReal.from_float(other)
        # fold results may be unnormalized; align on normalized exponents
        a, b = self.normalized(), other.normalized()
        if a.mantissa == 0.0 or b.mantissa == 0.0:
            return b if a.mantissa == 0.0 else a
        hi, lo = (a, b) if a.exponent >= b.exponent else (b, a)
        return TrackedReal(hi.mantissa + math.ldexp(lo.mantissa, lo.exponent - hi.exponent),
                           hi.exponent).normalized()

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, TrackedReal):
            other = TrackedReal.from_float(other)
        return self + (-other)


@dataclass(frozen=True)
class SemiclassicalLevel:
    """The quadruple (d, N, hbar, E) with E = 1/2 and hbar = 1/(2N+d)."""

    d: int
    N: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension d must be an integer >= 1, got {self.d}")
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError(f"degree N must be an integer >= 0, got {self.N}")

    @property
    def hbar(self):
        return 1.0 / (2 * self.N + self.d)

    @property
    def energy(self):
        return 0.5


def level_new(d, N):
    """Validated constructor for a semiclassical level."""
    return SemiclassicalLevel(int(d), int(N))


def eigenspace_dim(level):
    """Dimension binom(N+d-1, d-1) of the degree-N eigenspace."""
    dim = math.comb(level.N + level.d - 1, level.d - 1)
    if dim > 2**62:
        raise OverflowError(f"eigenspace dimension {dim} exceeds integer budget")
    return dim


def multi_indices(d, N):
    """All beta in Z_{>=0}^d with |beta| = N, in lexicographic order."""
    if d == 1:
        yield (N,)
        return
    for b0 in range(N + 1):
        for rest in multi_indices(d - 1, N - b0):
            yield (b0,) + rest


@dataclass(frozen=True)
class RescaleRule:
    """Mapping of a general-energy configuration to the E = 1/2 normalization.

    Kernels, Kac-Rice matrices and zero densities transport as
    Pi_{hbar,E}(x,y) = (2E)^(-d/2) Pi_{hbar'}(x',y'),
    Omega_{hbar,E}(x) = (2E)^(-1) Omega_{hbar'}(x'),
    F_{hbar,E}(x) = (2E)^(-1/2) F_{hbar'}(x').
    """

    x_prime: np.ndarray
    energy: float

    @property
    def hbar_factor(self):
        """hbar' = hbar_factor * hbar."""
        return 1.0 / (2.0 * self.energy)

    def kernel_factor(self, d):
        return (2.0 * self.energy) ** (-d / 2.0)

    @property
    def omega_factor(self):
        return 1.0 / (2.0 * self.energy)

    @property
    def density_factor(self):
        return (2.0 * self.energy) ** -0.5


def rescale_to_unit(x, E_general):
    """Rescale a point to the E = 1/2 normalization: x' = x / sqrt(2E)."""
    if E_general <= 0:
        raise ValueError(f"energy must be positive, got {E_general}")
    x = np.asarray(x, dtype=float)
    return RescaleRule(x_prime=x / math.sqrt(2.0 * E_general), energy=float(E_general))


#: rows per block of the extended-precision block-transfer recurrence
_BLOCK = 32
#: rows per renormalization block of the float64 per-step recurrence
_RENORM = 8


def _psi_mantexp(nmax, xi, dtype=np.float64):
    """psi_0..psi_nmax at the points xi, exponent tracked in base 2.

    Returns (m, e) with value = m * 2**e; m has shape (nmax+1, len(xi)).
    Each step is psi_{k+1} = (a_k xi) psi_k - b_k psi_{k-1} with
    a_k = sqrt(2/(k+1)) and b_k = sqrt(k/(k+1)); the route depends on the
    dtype alone, never on the batch, so every column depends on its own xi.

    float64 (Monte Carlo fields, plain-float grids: thousands of columns at
    small N) runs _renorm_steps; the per-step growth factor is at most
    ~sqrt(2)|xi| + 1, which keeps mantissas inside float range for |xi| up
    to several hundred.  Its e holds one row per block of 8 rows: row k of
    the table is m[k] * 2**e[k // 8] (_row_exponents).  Any other dtype
    (extended precision: a few columns at large N) takes _psi_blocks, with
    mantissas frexp-normalized, |m| < 1, and e of m's shape.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=dtype))
    if np.dtype(dtype) != np.float64:
        return _psi_blocks(nmax, xi, dtype)
    m = np.empty((nmax + 1, xi.size), dtype=dtype)
    e = np.empty((nmax // _RENORM + 1, xi.size), dtype=np.int64)
    e[0], m[0] = _psi_ground(xi, dtype)
    a, b = _psi_coefficients(nmax, dtype)
    a_xi = np.empty((_RENORM, xi.size), dtype=dtype)
    _renorm_steps(m, e, lambda k0, k1: np.multiply(a[k0:k1, None], xi, out=a_xi[:k1 - k0]),
                  b[:, None])
    return m, e


def _renorm_steps(m, e, slopes, back):
    """Rows 1.. of m in place by m[k+1] = c_k m[k] - back[k] m[k-1] (m[-1] = 0), from row 0.

    slopes(k0, k1) gives the rows c_k0..c_(k1-1) of one block of _RENORM
    rows.  After each full block the running pair is renormalized by frexp,
    so row k is m[k] * 2**e[k // _RENORM]: e, of (len(m) - 1) // _RENORM + 1
    rows, comes with row 0 set and gets the others.
    """
    nmax, npts = m.shape[0] - 1, m.shape[1]
    tmp = np.empty(npts, dtype=m.dtype)
    cur, prev = m[0], np.zeros(npts, dtype=m.dtype)
    for block, k0 in enumerate(range(0, nmax, _RENORM)):
        k_end = min(k0 + _RENORM, nmax)
        c = slopes(k0, k_end)
        for k in range(k0, k_end):
            new = m[k + 1]
            np.multiply(c[k - k0], cur, out=new)
            np.multiply(back[k], prev, out=tmp)
            np.subtract(new, tmp, out=new)
            prev, cur = cur, new
        if k_end % _RENORM == 0:
            _, sh = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            np.negative(sh, out=sh)
            np.ldexp(cur, sh, out=cur)
            prev = np.ldexp(prev, sh)   # a copy: row k_end - 1 keeps its own scale
            np.subtract(e[block], sh, out=e[block + 1])


def _row_exponents(e, rows):
    """The exponents e[k // 8] of the rows k (an index array) of a _renorm_steps table."""
    return e[np.asarray(rows) // _RENORM]


def _plain_floats(m, e, floor, refusal):
    """A float64 table as plain floats, m[k] 2**e[k // 8]; ResourceLimitError(refusal)
    if an exponent is below floor (the grid's products would underflow)."""
    if e.min() < floor:
        raise ResourceLimitError(refusal)
    return np.ldexp(m, _row_exponents(e, np.arange(len(m))))


def _pair_basis(mx, ex, my, ey):
    """The d = 2 basis from an x table and a y table of the float64 route.

    Row k is phi_k(x) phi_{N-k}(y) = mx[k] my[N-k] 2^(ex[k // 8] + ey[(N-k) // 8]),
    so the rows that share both exponent blocks (a run; about two per 8 rows)
    share one power of two:
    B[run] = (mx * my[::-1])[run] * exp2(ex[k // 8] + ey[(N-k) // 8] - scale),
    with scale the per-point maximum of the exponent sums.  Any trailing
    point axes are kept; the tables may be strided views.
    """
    n = len(mx) - 1
    ends = [k for k in range(1, n + 2) if k % _RENORM == 0 or (n + 1 - k) % _RENORM == 0]
    starts = np.array([0] + ends[:-1])
    sums = _row_exponents(ex, starts) + _row_exponents(ey, n - starts)
    scale = sums.max(axis=0)
    np.subtract(sums, scale, out=sums)
    out = np.multiply(mx, my[::-1])
    for lo, hi, power in zip(starts, ends, np.exp2(sums)):
        out[lo:hi] *= power
    return out, scale


def _psi_ground(xi, dtype):
    """(e, m) with psi_0(xi) = m * 2**e, e = floor(-xi^2 / (2 ln 2)).

    The constants are float64 on the float64 route and extended on the other:
    a float64 log2(e) alone puts Pi at |x| = 1.6, N = 1600 ~1e-13 off.
    """
    log2e, norm = (_LOG2E, _PI_M14) if np.dtype(dtype) == np.float64 else (_LOG2E_LD, _PI_M14_LD)
    t = -xi * xi * dtype(0.5) * dtype(log2e)
    e = np.floor(t).astype(np.int64)
    return e, dtype(norm) * np.exp2(t - e)


def _psi_coefficients(nsteps, dtype):
    """a_k = sqrt(2/(k+1)) and b_k = sqrt(k/(k+1)) for k < nsteps."""
    k1 = np.arange(1, nsteps + 1, dtype=dtype)
    return np.sqrt(dtype(2.0) / k1), np.sqrt((k1 - dtype(1.0)) / k1)


def _psi_blocks(nmax, xi, dtype):
    """The recurrence as transfers across blocks of _BLOCK rows, at per-step accuracy.

    Row j of the block that starts at k0 = 0, B, 2B, ... is
    psi_{k0+j} = P_j psi_{k0} - Q_j psi_{k0-1}, where P and Q obey the
    recurrence from (P_0, P_{-1}) = (1, 0) and (Q_0, Q_{-1}) = (0, -1)
    (Gil, Segura & Temme 2007, ch. 4).  Four passes replace the nmax
    sequential steps, ~8 B + 10 nmax / B array operations in all:

    1. P_j and Q_j of every block at once, in float64: B array steps.
    2. The block starts s_k = (psi_{k0}, psi_{k0-1}), carried one block at a
       time through the float64 transfers and renormalized by frexp.
    3. The recurrence itself, in the working dtype, in every block at once
       from those starts (block 0 from psi_0): B array steps, each writing
       its row of every block straight into m.  Block 0 is the per-step loop.
    4. The float64 starts' defects, d_k = (the last two rows of block k-1) -
       s_k, carried as c_k = d_k + T_{k-1} c_{k-1} and added to every row as
       P_j c_k0 - Q_j c_k1; then one frexp normalizes the table, |m| < 1.

    The corrections are small (at most 1.2e-10 of a row at nmax = 5000), so
    float64 carries them to far under one extended ulp, and every row keeps
    the per-step rounding.  Filling the rows as P_j s_k0 - Q_j s_k1 instead
    doubles the error near the turning point xi^2 ~ 2k, where the two terms
    nearly cancel (DECISIONS.md).  Within a block |P_j|, |Q_j| <=
    (sqrt(2)|xi| + 1)^B, finite in float64 for |xi| < 2^31.
    """
    npts, nb = xi.size, nmax // _BLOCK + 1
    a, b = (c.reshape(nb, _BLOCK).T[:, :, None] for c in _psi_coefficients(nb * _BLOCK, dtype))
    e0, m0 = _psi_ground(xi, dtype)
    start = np.zeros((nb, 2, npts))                # s_k, in float64
    start[0, 0] = m0
    shift = np.zeros((nb, npts), dtype=np.intc)    # the power of 2 taken out of s_k
    # 1. pq[j] = (P_j, Q_j) of every block
    a_xi, b8 = a.astype(np.float64) * xi.astype(np.float64), b.astype(np.float64)
    pq = np.empty((_BLOCK + 1, 2, nb, npts))
    pq[0, 0], pq[0, 1] = 1.0, 0.0
    pq[1, 0], pq[1, 1] = a_xi[0], b8[0]
    tmp = np.empty((2, nb, npts))
    for j in range(1, _BLOCK):
        np.multiply(pq[j], a_xi[j], out=pq[j + 1])
        np.multiply(pq[j - 1], b8[j], out=tmp)
        np.subtract(pq[j + 1], tmp, out=pq[j + 1])
    del a_xi
    # 2. s_{k+1} = tp[k] psi_{k0} + tq[k] psi_{k0-1}, then frexp of psi_{k0+B}
    tp = np.stack((pq[_BLOCK, 0], pq[_BLOCK - 1, 0]), axis=1)
    tq = -np.stack((pq[_BLOCK, 1], pq[_BLOCK - 1, 1]), axis=1)
    tmp, neg = np.empty((2, npts)), np.empty(npts, dtype=np.intc)
    for p, q, (cur, prev), new, sh in zip(tp, tq, start, start[1:], shift[1:]):
        np.multiply(p, cur, out=new)
        np.multiply(q, prev, out=tmp)
        np.add(new, tmp, out=new)
        np.frexp(new[0], out=(new[0], sh))
        np.negative(sh, out=neg)
        np.ldexp(new[1], neg, out=new[1])
    ecur = e0 + np.cumsum(shift, axis=0, dtype=np.int64)
    # 3. rows 1..B-1 of every block, and psi_{k0+B} for the defects
    m = np.empty((nb, _BLOCK, npts), dtype=dtype)
    m[:, 0] = start[:, 0]
    m[0, 0] = m0
    before = start[:, 1].astype(dtype)
    last = np.empty((nb, npts), dtype=dtype)
    ax = np.empty((nb, npts), dtype=dtype)
    tmp = np.empty((nb, npts), dtype=dtype)
    for j in range(_BLOCK):
        new = m[:, j + 1] if j + 1 < _BLOCK else last
        np.multiply(a[j], xi, out=ax)
        np.multiply(ax, m[:, j], out=new)
        np.multiply(b[j], m[:, j - 1] if j else before, out=tmp)
        np.subtract(new, tmp, out=new)
    # 4. c_k in units of s_k, through the transfers rescaled to match
    ends = np.stack((last[:-1], m[:-1, -1]), axis=1)
    down = -shift[1:, None]
    np.ldexp(ends, down, out=ends)
    corr = np.zeros((nb, 2, npts))
    corr[1:] = ends - start[1:]
    np.ldexp(tp[:-1], down, out=tp[:-1])
    np.ldexp(tq[:-1], down, out=tq[:-1])
    tmp = np.empty((2, npts))
    for p, q, (c0, c1), new in zip(tp, tq, corr, corr[1:]):
        np.multiply(p, c0, out=tmp)
        np.add(new, tmp, out=new)
        np.multiply(q, c1, out=tmp)
        np.add(new, tmp, out=new)
    # m -= Q_j c1 - P_j c0, which + 0.0 keeps off -0 so zero rows keep their sign
    p, q = pq[:_BLOCK, 0], pq[:_BLOCK, 1]
    np.multiply(p, corr[:, 0], out=p)
    np.multiply(q, corr[:, 1], out=q)
    np.subtract(q, p, out=q)
    np.add(q, 0.0, out=q)
    np.subtract(m, q.transpose(1, 0, 2), out=m)
    del pq, p, q
    sh = np.empty(m.shape, dtype=np.intc)
    np.frexp(m, out=(m, sh))
    e = np.add(sh, ecur[:, None], dtype=np.int64)
    shape, rows = (nb * _BLOCK, npts), nmax + 1
    return m.reshape(shape)[:rows], e.reshape(shape)[:rows]


def _pow2_down(shift):
    """2**-shift in longdouble for an integer array shift >= 0, read from _POW2_LD.

    The powers are exact down to the subnormal floor and 0 below it, so m times
    them rounds once: == m * exp2(-shift), and == ldexp(m, -shift) for |m| < 1.
    One lookup and one multiply cost ~5.5 ns an entry where exp2 costs ~62 ns
    and ldexp ~20 ns (DECISIONS.md).
    """
    return np.take(_POW2_LD, shift, mode="clip")


def _phi_mantexp(hbar, nmax, xs, dtype=np.float64):
    """Scaled eigenfunctions phi_k(x) = hbar^(-1/4) psi_k(x/sqrt(hbar))."""
    hb = dtype(hbar)
    xi = np.asarray(xs, dtype=dtype) / np.sqrt(hb)
    m, e = _psi_mantexp(nmax, xi, dtype=dtype)
    m *= hb ** dtype(-0.25)
    return m, e


def _phi_deriv_mantexp(hbar, nmax, xs):
    """phi_k and phi_k' = hbar^(-3/4) psi_k'(x/sqrt(hbar)), k <= nmax, in extended precision.

    The ladder psi_k' = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1} runs on
    a table one degree past nmax, each derivative taking the larger of its
    two neighbours' exponents (the realignment is by powers of two from
    _pow2_down, == ldexp on the normalized mantissas).  Returns (m, e, dm, de),
    all of shape (nmax+1, len(xs)); at hbar = 1 they are psi_k and psi_k'.
    """
    dtype = np.longdouble
    hb = dtype(hbar)
    m1, e1 = _psi_mantexp(nmax + 1, np.asarray(xs, dtype=dtype) / np.sqrt(hb), dtype=dtype)
    k = np.arange(nmax + 1, dtype=dtype)
    lo, hi = np.sqrt(k / dtype(2.0))[:, None], np.sqrt((k + 1) / dtype(2.0))[:, None]
    dm, de = np.empty_like(m1[:-1]), np.empty_like(e1[:-1])
    # k = 0: psi' = -sqrt(1/2) psi_1
    dm[0], de[0] = -hi[0] * m1[1], e1[1]
    # k >= 1: both neighbours realigned to the larger of their exponents, in place
    eo = np.maximum(e1[:nmax], e1[2:], out=de[1:])
    np.multiply(m1[:nmax], _pow2_down(eo - e1[:nmax]), out=dm[1:])
    dm[1:] *= lo[1:]
    above = m1[2:] * _pow2_down(eo - e1[2:])
    above *= hi[1:]
    dm[1:] -= above
    m = m1[:-1]
    m *= hb ** dtype(-0.25)
    dm *= hb ** dtype(-0.75)
    return m, e1[:-1], dm, de


def _laguerre_mantexp(jmax, alpha, z, log2_scale):
    """2**log2_scale e^(-z/2) L_j^(alpha)(z) for j <= jmax, z >= 0, tracked in base 2.

    Extended precision throughout.  The forward recurrence (j+1) L_{j+1} =
    (2j+1+alpha-z) L_j - (j+alpha) L_{j-1}, L_0 = 1, follows the polynomials,
    the recurrence's dominant solution for z > 0 (Gil, Segura & Temme 2007,
    ch. 4).  It runs in _renorm_steps, and one frexp normalizes the table at
    the end, |m| < 1, with one exponent per row; every column depends on its
    own z alone.  Returns (m, e), shapes (jmax+1, len(z)).
    """
    dtype = np.longdouble
    z = np.atleast_1d(np.asarray(z, dtype=dtype))
    t = dtype(log2_scale) - z * (dtype(0.5) * _LOG2E_LD)
    m = np.empty((jmax + 1, z.size), dtype=dtype)
    e = np.empty((jmax // _RENORM + 1, z.size), dtype=np.int64)
    e[0] = np.floor(t)
    m[0] = np.exp2(t - e[0])
    j = np.arange(jmax, dtype=dtype)[:, None]
    slope = (2 * j + (1 + dtype(alpha)) - z) / (j + 1)
    _renorm_steps(m, e, lambda k0, k1: slope[k0:k1], (j + dtype(alpha)) / (j + 1))
    m, sh = np.frexp(m)
    return m, _row_exponents(e, np.arange(jmax + 1)) + sh


def _check_range(level, points):
    """Refuse points (the rows of an array) unless finite with |x| <= _XI_LIMIT sqrt(hbar)."""
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    limit = _XI_LIMIT * math.sqrt(level.hbar)
    if np.any(np.hypot.reduce(np.abs(points), axis=-1) > limit):
        raise ValueError(f"points must have |x| <= 2^30 sqrt(hbar) = {limit:.4g} at N = {level.N}, "
                         "the range of the Hermite recurrence")


def hermite_all(level, x):
    """[phi_0(x), ..., phi_N(x)] for the 1D scaled basis, as TrackedReal.

    The Gaussian factor is folded in from step zero; values deep in the
    forbidden region come out with large negative exponents instead of
    underflowing.  |x| may not exceed 2^30 sqrt(hbar) (_XI_LIMIT).
    """
    _check_range(level, [float(x)])
    m, e = _phi_mantexp(level.hbar, level.N, [float(x)], dtype=np.longdouble)
    return [TrackedReal(float(m[k, 0]), int(e[k, 0])) for k in range(level.N + 1)]


def hermite_deriv_all(level, x):
    """[phi_0'(x), ..., phi_N'(x)] via the ladder relation."""
    _check_range(level, [float(x)])
    _, _, dm, de = _phi_deriv_mantexp(level.hbar, level.N, [float(x)])
    return [TrackedReal(float(dm[k, 0]), int(de[k, 0])) for k in range(level.N + 1)]
