"""The universal caustic scaling limit of the projection kernel.

Around a caustic point x0 (|x0| = 1) the kernels obey

    Pi(x0 + hbar^(2/3) u, x0 + hbar^(2/3) v)
        = hbar^(-2d/3+1/3) Pi0(u, v) (1 + O(hbar^(1/3))),

with the limit kernel available in two independent representations:

  * pi0_airy - the Airy-mode superposition over tangential frequencies p,

        Pi0(u,v) = 2^(2/3) (2 pi)^(1-d) int_{R^(d-1)} e^{i<delta, p>}
                   Ai(2^(1/3)(u1 + |p|^2/2)) Ai(2^(1/3)(v1 + |p|^2/2)) dp,

    where u1 = <x0, u> is the normal component and delta = u' - v' the
    tangential separation.  The integrand is radial in p, so with m = d - 1
    and nu = m/2 - 1 it reduces to one Hankel integral (Stein-Weiss,
    Introduction to Fourier Analysis on Euclidean Spaces, ch. IV),

        Pi0(u,v) = 2^(2/3) (2 pi)^(1-d) |S^(m-1)| int_0^inf rho^(m-1)
                   Lambda_nu(|delta| rho) Ai(2^(1/3)(u1 + rho^2/2))
                   Ai(2^(1/3)(v1 + rho^2/2)) drho,

        Lambda_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x),   Lambda_nu(0) = 1,

    which is cos x at d = 2, J_0(x) at d = 3 and sin(x)/x at d = 4: one
    real, one-dimensional rule in every d;

  * pi0_contour - the single-contour form obtained by resumming the modes,

        Pi0(u,v) = (2 pi)^(-d/2) (1/2 pi i) int_C T^(-d/2)
                   exp(T^3/24 - (u1+v1) T/2 - |u-v|^2/(2T)) dT.

On the diagonal both reduce to 2^(1-d) pi^(-d/2) Ai_{-d/2}(2 u1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import airy, quadrature

#: Ai(arg) < 1e-14 beyond this argument; sets the tangential frequency cutoff
_AIRY_NEGLIGIBLE_ARG = 13.6

#: width of the 12-node Gauss-Legendre panels of the radial rule
_P_WIDTH = 0.25


@dataclass(frozen=True)
class CausticFrame:
    """A caustic point with an orthonormal frame (normal first, then tangents)."""

    x0: np.ndarray
    basis: np.ndarray  # rows: basis[0] = x0, basis[1:] spans the tangent plane

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        if abs(np.linalg.norm(x0) - 1.0) > 1e-12:
            raise ValueError("caustic point must have |x0| = 1")
        if np.max(np.abs(basis @ basis.T - np.eye(len(x0)))) > 1e-12:
            raise ValueError("frame must be orthonormal")
        if np.max(np.abs(basis[0] - x0)) > 1e-12:
            raise ValueError("first frame vector must be the normal x0")

    @staticmethod
    def from_point(x0):
        x0 = np.asarray(x0, dtype=float)
        norm = np.linalg.norm(x0)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("caustic point must have |x0| = 1")
        d = x0.size
        # complete x0 to an orthonormal basis by QR of [x0 | I]
        q, _ = np.linalg.qr(np.column_stack([x0, np.eye(d)]))
        basis = q.T[:d]
        if basis[0] @ x0 < 0:
            basis = -basis
        basis[0] = x0
        return CausticFrame(x0=x0, basis=basis)

    @property
    def d(self):
        return self.x0.size

    def normal_component(self, u):
        return float(np.asarray(u, dtype=float) @ self.x0)

    def tangential_component(self, u):
        u = np.asarray(u, dtype=float)
        return u - (u @ self.x0) * self.x0


def _sphere_average(nu, x):
    """Lambda_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x), with Lambda_nu(0) = 1:
    the mean of e^{i<delta, p>} over the sphere |p| = rho at x = |delta| rho,
    for nu = m/2 - 1, m = 1, 2, ...  Each value depends on its own x alone.

    Half-integer nu = k - 1/2 takes the closed forms: cos x at k = 0, and
    (2k-1)!! j_(k-1)(x) / x^(k-1) (spherical Bessel j by upward recurrence
    from j_(-1) = cos x / x, j_0 = sin x / x) for x >= k, with the Maclaurin
    series below k.  Integer nu takes the trapezoid rule of Poisson's integral
    (DLMF 10.9.4) over one full period,

        Lambda_nu(x) = sum_j w_j cos(x cos t_j) / sum_j w_j,
        t_j = 2 pi j / M,  w_j = sin(t_j)^(2 nu),

    which converges geometrically once M exceeds x + 2 nu (Trefethen and
    Weideman, SIAM Rev. 56 (2014) 385).  M is set by the element's own x
    (_trapezoid_quarters) and the sum runs over the quarter period its
    symmetries fold onto; at x = 0 the ratio is exactly 1.
    """
    x = np.asarray(x, dtype=float)
    if nu == int(nu):
        return _trapezoid_average(int(nu), x)
    k = int(nu + 0.5)
    if k == 0:
        return np.cos(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        j_prev, j = np.cos(x) / x, np.sin(x) / x
        for ell in range(k - 1):
            j_prev, j = j, (2 * ell + 1) / x * j - j_prev
        closed = math.prod(range(1, 2 * k, 2)) * j / x ** (k - 1)
    return np.where(x < k, _maclaurin_average(nu, x), closed)


#: Maclaurin terms of Lambda_nu, enough below x = k for every half-integer nu
_MACLAURIN_TERMS = 40


def _maclaurin_average(nu, x):
    """sum_n (-x^2/4)^n / (n! (nu+1)_n), a fixed number of terms."""
    q = -x * x / 4.0
    term = np.ones_like(x)
    out = np.ones_like(x)
    for n in range(1, _MACLAURIN_TERMS):
        term = term * q / (n * (nu + n))
        out = out + term
    return out


def _trapezoid_quarters(nu, x):
    """Quarter-period node counts K (M = 4K nodes): the aliasing error of the
    trapezoid rule is ~J_(M - 2 nu)(x), below 1e-17 once M - 2 nu >=
    x + 12 x^(1/3) + 24; K is rounded up to a multiple of 4 so that a table
    falls into few groups."""
    return 4 * np.ceil((x + 2.0 * nu + 12.0 * np.cbrt(x) + 24.0) / 16.0).astype(int)


@functools.cache
def _quarter_rule(nu, quarters):
    """cos(t_j) and weights sin(t_j)^(2 nu) on t_j = (pi/2) j / quarters,
    j = 0 .. quarters, halved at both ends, and the sum of the weights."""
    t = (math.pi / 2.0) * np.arange(quarters + 1) / quarters
    w = np.sin(t) ** (2 * nu)
    w[0] /= 2.0
    w[-1] /= 2.0
    cos_t = np.cos(t)
    cos_t.flags.writeable = False
    w.flags.writeable = False
    return cos_t, w, np.sum(w[None, :], axis=1)[0]


def _trapezoid_average(nu, x):
    """Lambda_nu(x) at integer nu, one quarter rule per distinct node count."""
    quarters = _trapezoid_quarters(nu, x)
    out = np.empty(x.shape)
    # a set, not np.unique, which would import numpy.ma on its first call
    for q in sorted(set(quarters.ravel().tolist())):
        mask = quarters == q
        cos_t, w, total = _quarter_rule(nu, q)
        out[mask] = np.sum(np.cos(x[mask][:, None] * cos_t) * w, axis=1) / total
    return out


def pi0_airy_batch(frame, us, vs):
    """Pi0 over a list of point pairs (u, v) by the radial Airy-mode rule;
    returns a float array in pair order.

    Pair i integrates over n_i = ceil(p_max / 0.25) panels [0, 0.25 n_i],
    with p_max chosen so the Airy factors are below 1e-14 at the cutoff.
    Every pair's panels are a prefix of one batch grid; the Airy factor is
    evaluated once per distinct normal offset and the sphere average once per
    distinct |delta|, on the longest prefix, and each pair sums its own
    prefix, so a pair's value is the same alone or in any batch.
    """
    d = frame.d
    if d < 2:
        raise ValueError("the scaling limit needs d >= 2")
    if len(us) != len(vs):
        raise ValueError("point lists must have equal length")
    pairs = []
    for u, v in zip(us, vs):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u1 = frame.normal_component(u)
        v1 = frame.normal_component(v)
        # |delta|: the tangent rows of the frame are orthogonal to x0
        sep = float(np.linalg.norm(frame.basis[1:] @ (u - v)))
        p_max = math.sqrt(2.0 * max(1.0, _AIRY_NEGLIGIBLE_ARG * 2.0 ** (-1.0 / 3.0)
                                    - min(u1, v1)))
        pairs.append((u1, v1, sep, math.ceil(p_max / _P_WIDTH)))
    out = np.empty(len(pairs))
    if not pairs:
        return out
    m = d - 1
    rho, w = quadrature.panels(_P_WIDTH * np.arange(max(p[3] for p in pairs) + 1.0), 12)
    w = w * rho ** (m - 1)
    half_rho_sq = rho * rho / 2.0
    airy_factor = {}  # normal offset t -> Ai(2^(1/3)(t + rho^2/2))
    sphere = {}  # |delta| -> w rho^(m-1) Lambda_nu(|delta| rho)
    for u1, v1, sep, _ in pairs:
        for t in (u1, v1):
            if t not in airy_factor:
                airy_factor[t] = airy.ai(2.0 ** (1.0 / 3.0) * (t + half_rho_sq))
        if sep not in sphere:
            sphere[sep] = w * _sphere_average(m / 2.0 - 1.0, sep * rho)
    # 2^(2/3) (2 pi)^(1-d) |S^(m-1)|
    pref = 2.0 ** (2.0 / 3.0) * (2.0 * math.pi) ** (1 - d) \
        * 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    for i, (u1, v1, sep, n_panels) in enumerate(pairs):
        n = 12 * n_panels
        out[i] = pref * np.sum(sphere[sep][:n] * airy_factor[u1][:n] * airy_factor[v1][:n])
    return out


def pi0_airy(frame, u, v):
    """Pi0(u,v) by the radial Airy-mode rule: the one-pair case of
    pi0_airy_batch."""
    return float(pi0_airy_batch(frame, [u], [v])[0])


def pi0_contour(frame, u, v):
    """Pi0(u,v) by contour quadrature of the resummed representation.

    Rescaling T -> 2T maps the T^3/24 cubic onto the standard Airy phase:
    Pi0 = 2^(1-d/2) (2 pi)^(-d/2) * (1/2 pi i) int_C T^(-d/2)
          exp(T^3/3 - (u1+v1)T) exp(-|u-v|^2/(4T)) dT.
    The extra factor is bounded by 1 on Re T > 0, so the weighted-Airy path
    machinery applies unchanged.
    """
    d = frame.d
    if d < 2:
        raise ValueError("the scaling limit needs d >= 2")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = frame.normal_component(u) + frame.normal_component(v)
    c = float(np.sum((u - v) ** 2)) / 4.0
    val = airy.contour_integral(-d / 2.0, s, extra=lambda t: np.exp(-c / t))
    return 2.0 ** (1.0 - d / 2.0) * (2.0 * math.pi) ** (-d / 2.0) * val


def pi0(frame, u, v):
    """Scaling-limit kernel by the radial Airy-mode rule, in every d."""
    return pi0_airy(frame, u, v)


def pi0_diagonal(frame, u1):
    """Closed-form diagonal 2^(1-d) pi^(-d/2) Ai_{-d/2}(2 u1)."""
    d = frame.d
    return 2.0 ** (1 - d) * math.pi ** (-d / 2.0) * airy.ai_k(-d / 2.0, 2.0 * u1)


def _pi0_grid(frame, point, w1, w2, p, wp):
    """Pi0(point, w) on a tensor grid of w = (w1, w2) for d = 2, via one GEMM.

    Factorizes the p-integral: Pi0(point, w) = Re sum_m c_m A[m, i] E[m, j]
    with c_m the point-side weights, A the Airy factor on the w1 grid and E
    the tangential phases on the w2 grid.
    """
    u1 = frame.normal_component(point)
    u2 = float(frame.basis[1] @ point)
    p_sq = p * p
    c = wp * airy.ai(2.0 ** (1.0 / 3.0) * (u1 + p_sq / 2.0)) * np.exp(1j * p * u2)
    a = airy.ai(2.0 ** (1.0 / 3.0) * (w1[None, :] + p_sq[:, None] / 2.0))
    e = np.exp(-1j * p[:, None] * w2[None, :])
    pref = 2.0 ** (2.0 / 3.0) / (2.0 * math.pi)
    return pref * np.real((c[:, None] * a).T @ e)


#: compose_pi0's Gauss-Legendre nodes per panel and the upper cut of its w1 window
_NODES_PER_PANEL, _W1_UPPER = 12, 8.0


def _panel_grid(lo, hi, max_freq):
    width = max(0.1, 2.0 / (1.0 + max_freq / 6.0))
    n_panels = int(math.ceil((hi - lo) / width))
    return quadrature.panels(np.linspace(lo, hi, n_panels + 1), _NODES_PER_PANEL)


def compose_pi0(frame, u, v, window=25.0):
    """Numerically compose Pi0 with itself over a truncated window (d = 2).

    Returns (composed, direct) where composed = int Pi0(u,w) Pi0(w,v) dw over
    w1 in [-window, _W1_UPPER], w2 in [-window, window], and direct = Pi0(u,v).
    Pi0 is the energy-0 spectral density of a continuum, not an L2 projector,
    so composed does not tend to direct.  The w2 integral pairs Airy modes by
    delta(p - q), and the w1 integral of mode p is

        2^(1/3) [G(2^(1/3)(p^2/2 - window)) - G(2^(1/3)(_W1_UPPER + p^2/2))],
        G(t) = Ai'(t)^2 - t Ai(t)^2,

    which tends to sqrt(2 window)/pi.  Hence composed = (sqrt(2 window)/pi)
    direct (1 + O(1/window)), with one factor for every (u, v).  The
    positive-w1 side decays superexponentially (hence the asymmetric cut at
    _W1_UPPER = 8) while the negative side carries an oscillatory |w1|^(-1/2) envelope.
    """
    if frame.d != 2:
        raise ValueError("the composition check is implemented for d = 2")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = -window
    p_max = math.sqrt(2.0 * max(1.0, _AIRY_NEGLIGIBLE_ARG * 2.0 ** (-1.0 / 3.0) - m))
    p, wp = _panel_grid(-p_max, p_max, 2.0 * window + 2.2 * p_max)
    osc = math.sqrt(2.0 * window)  # largest Airy oscillation rate on the grid
    w1, ww1 = _panel_grid(-window, _W1_UPPER, osc + 2.0)
    w2, ww2 = _panel_grid(-window, window, p_max)
    gu = _pi0_grid(frame, u, w1, w2, p, wp)
    gv = _pi0_grid(frame, v, w1, w2, p, wp)
    composed = float(np.einsum("ij,ij,i,j->", gu, gv, ww1, ww2))
    direct = pi0_airy(frame, u, v)
    return composed, direct
