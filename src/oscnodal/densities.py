"""Kac-Rice nodal densities in every regime around the caustic.

For a centered Gaussian field with covariance kernel Pi, the expected nodal
hypersurface density at x is

    F(x) = (2 pi)^(-(d+1)/2) int_{R^d} |Omega(x)^(1/2) xi| e^(-|xi|^2/2) d xi
         = (2 pi)^(-1/2) E || Omega^(1/2) xi ||,

with Omega = d_x d_y log Pi on the diagonal.  The expectation factorizes into
the chi-distribution mean E[chi_d] = sqrt(2) Gamma((d+1)/2)/Gamma(d/2) times a
sphere average of ||Omega^(1/2) omega||, exact to rounding in every d.  One
array reduction, kac_rice_density_batch, does this for a stack of Omegas;
points, regime tables and d = 2 grids all go through it.

Regimes (E = 1/2, caustic = unit sphere, s measured by |x|^2 = 1 -+ hbar^a s),
each an Omega through that one reduction:

  allowed bulk       Omega = hbar^-2 (1-|x|^2)/d I  -> F = hbar^-1 c_d sqrt(1-|x|^2)
  allowed annulus    Omega = (s/d) hbar^(a-2) I          -> slope -(1-3a/2) rescaled
  caustic tube       Omega = hbar^(-4/3) * Omega0(u)     -> hbar-free rescaled F(u)
  forbidden annulus  Omega = hbar^(-1-a/2) (I - x x^T)/(2 sqrt(s))
  forbidden bulk     Omega = (I - xhat xhat^T)/(2 hbar |x| sqrt(|x|^2-1))
      -> F = hbar^(-1/2) C_d sqrt(E) / (sqrt(|x|) (|x|^2-1)^(1/4)) E[chi_(d-1)]/E[chi_d]

with the paper's constants c_d = Gamma((d+1)/2)/(sqrt(d pi) Gamma(d/2)) and
C_d = Gamma((d+1)/2)/(sqrt(pi) Gamma(d/2)).  C_d is what a full-rank Omega
gives; the forbidden Omegas have rank d - 1 (see DECISIONS.md), and the
forbidden-annulus constant comes out as Gamma(d/2)/(sqrt(2 pi) Gamma((d-1)/2)).
Rescaled (zoomed) densities carry the extra hbar^(2a) factor on Omega from
the coordinate dilation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import airy, projector, quadrature
from .scaled_kernel import CausticFrame
from .semiclassical import TrackedReal

#: eigenvalues in [-tol * lambda_max, 0) are roundoff and clip to zero, at points
#: and on grids alike; anything more negative is an error
PSD_CLIP_TOL = 1e-8


class Region(enum.Enum):
    ALLOWED_BULK = "allowed_bulk"
    ALLOWED_ANNULUS = "allowed_annulus"
    CAUSTIC_TUBE = "caustic_tube"
    FORBIDDEN_ANNULUS = "forbidden_annulus"
    FORBIDDEN_BULK = "forbidden_bulk"


@dataclass(frozen=True)
class KacRiceMatrix:
    """Symmetric PSD Kac-Rice matrix Omega."""

    omega: np.ndarray

    def __post_init__(self):
        _check_omegas(np.asarray(self.omega, dtype=float)[np.newaxis])


def _check_omegas(w):
    """The KacRiceMatrix rule on an (m, d, d) stack: square, finite, symmetric to 1e-10."""
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError("omega must be a square matrix")
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    scale = np.abs(w).max(axis=(1, 2), initial=0.0)
    if np.any(np.abs(w - w.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0) > 1e-10 * scale):
        raise ValueError("omega must be symmetric")


@dataclass(frozen=True)
class RegimeQuery:
    """A point description selecting which asymptotic density applies.

    The physical point is frame.x0 + hbar^alpha * u; region tags must be
    consistent: bulk <=> alpha = 0, tube <=> alpha = 2/3, annulus for
    0 < alpha < 2/3 with sign(<u, x0>) matching the side of the caustic.
    """

    frame: CausticFrame
    u: np.ndarray
    alpha: float
    region: Region

    def __post_init__(self):
        a = self.alpha
        if not 0.0 <= a <= 2.0 / 3.0:
            raise ValueError("alpha must lie in [0, 2/3]")
        if self.region is Region.CAUSTIC_TUBE and a != 2.0 / 3.0:
            raise ValueError("caustic_tube requires alpha = 2/3")
        if self.region in (Region.ALLOWED_BULK, Region.FORBIDDEN_BULK) and a != 0.0:
            raise ValueError("bulk regions require alpha = 0")
        if self.region in (Region.ALLOWED_ANNULUS, Region.FORBIDDEN_ANNULUS) \
                and not 0.0 < a < 2.0 / 3.0:
            raise ValueError("annulus regions require 0 < alpha < 2/3")


def c_d(d):
    """Allowed-bulk constant Gamma((d+1)/2) / (sqrt(d pi) Gamma(d/2))."""
    return math.gamma((d + 1) / 2.0) / (math.sqrt(d * math.pi) * math.gamma(d / 2.0))


def C_d(d):
    """Forbidden-bulk constant Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2))."""
    return math.gamma((d + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(d / 2.0))


def chi_mean(d):
    """E[chi_d] = sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    return math.sqrt(2.0) * math.gamma((d + 1) / 2.0) / math.gamma(d / 2.0)


def _psd_clip(lam, lam_max):
    """The one PSD_CLIP_TOL rule on eigenvalues lam, lam_max their matrix's largest
    (broadcast against lam; a negative one fails the rule itself)."""
    ok = lam >= -PSD_CLIP_TOL * lam_max
    if not ok.all():
        raise ValueError(
            f"omega has eigenvalue {lam[~ok].min():.3e} below the PSD clip tolerance")
    return np.where(lam > 0.0, lam, 0.0)


def _circle_average_norm(lo, hi):
    """Mean of sqrt(lo cos^2 t + hi sin^2 t) over t, elementwise for arrays 0 <= lo <= hi.

    The closed form (2/pi) sqrt(hi) E(1 - lo/hi), E the complete elliptic
    integral of the second kind (0 where hi = 0): the d = 2 sphere average of
    kac_rice_density_batch.  An angle rule loses up to ~1e-4 at the near
    rank-one matrices of the forbidden regimes.
    """
    ratio = np.divide(lo, hi, out=np.zeros_like(hi), where=hi > 0.0)
    return 2.0 / math.pi * np.sqrt(hi) * _ellipe_complement(ratio)


#: an AGM stops once c_n <= this times a_n; c_(n+1) ~ c_n^2 / (4 a) is then
#: below 2^-66 of a_n
_AGM_TOL = 1e-10


def _ellipe_complement(p):
    """E(1 - p), the complete elliptic integral of the second kind at the
    parameter m = 1 - p, elementwise for an array 0 <= p <= 1.

    With a = AGM(1, sqrt(p)) and S = sum_n 2^(n-1) c_n^2 over its c-sequence
    (c_0^2 = 1 - p), E = pi (1 - S) / (2 a) (Abramowitz-Stegun 17.6.4), used
    for p >= 1/2.  Below 1/2, 1 - S cancels, so Legendre's relation gives
    E = a' + pi S' / (2 a) instead, with a' and S' from AGM(1, sqrt(1 - p))
    (c_0^2 = p): every term is positive.  c_(n+1) = c_n^2 / (4 a_(n+1))
    avoids the difference a_n - b_n.  E(1) = 1 exactly at p = 0.  Each AGM
    runs every element to its own convergence, so a value depends on its p
    alone, whatever array holds it.
    """
    q = np.where(p == 0.0, 1.0, p)  # AGM(1, 0) never converges
    a, s = _agm_array(np.sqrt(q), 1.0 - q)
    out = math.pi * (1.0 - s) / (2.0 * a)
    low = p < 0.5
    if low.any():
        a_c, s_c = _agm_array(np.sqrt(1.0 - p[low]), p[low])
        out[low] = a_c + math.pi * s_c / (2.0 * a[low])
    out[p == 0.0] = 1.0
    return out


def _agm_array(b, c_sq):
    """AGM(1, b) and sum_n 2^(n-1) c_n^2, c_0^2 = c_sq = 1 - b^2, each element to its own end."""
    a = np.ones_like(b)
    c = np.sqrt(c_sq)
    s = c_sq / 2.0
    scale = 0.5
    live = c > _AGM_TOL * a
    while live.any():
        a_next = (a + b) / 2.0
        b = np.where(live, np.sqrt(a * b), b)
        c = np.where(live, c * c / (4.0 * a_next), c)
        a = np.where(live, a_next, a)
        scale *= 2.0
        s = np.where(live, s + scale * (c * c), s)
        live &= c > _AGM_TOL * a
    return a, s


#: nodes e^v and weights h e^(-v/2) of the trapezoid rule in v, step h = 1/2 on
#: [-84, 82], where the integrand falls below 1e-17 of its peak at both ends
_EXP_V = np.exp(np.arange(333) * 0.5 - 84.0)
_WEIGHTS = 0.5 / np.sqrt(_EXP_V)


def _sphere_average_norm(lam):
    """Mean of sqrt(sum lam_i w_i^2) over the unit sphere, per row of an (m, d)
    array of ascending eigenvalues lam >= 0 (0 for a zero row); d = 2 has the
    closed form _circle_average_norm.

    E sqrt(Q), Q = sum lam_i xi_i^2, is (2 sqrt(pi))^-1 int_0^inf (1 - prod_i
    (1 + 2 t lam_i)^(-1/2)) t^(-3/2) dt (Mathai-Provost 1992), over E[chi_d];
    with t = e^v / lam_max the integrand is analytic in a strip of half-width
    pi, so the trapezoid rule is exact to rounding for every spectrum.
    """
    lam_max = lam[:, -1]
    ratio = lam / np.where(lam_max > 0.0, lam_max, 1.0)[:, np.newaxis]
    log_prod = sum(np.log1p(2.0 * np.multiply.outer(r, _EXP_V)) for r in ratio.T)
    integral = (-np.expm1(-0.5 * log_prod) * _WEIGHTS).sum(axis=1)
    return np.sqrt(lam_max / math.pi) * 0.5 * integral / chi_mean(lam.shape[1])


def kac_rice_density_batch(omegas):
    """Expected nodal density (2 pi)^(-1/2) E||Omega^(1/2) xi|| of every matrix
    of an (m, d, d) stack, as m floats; each depends on its own matrix alone.

    The KacRiceMatrix rule checks the stack; d = 2 takes the closed-form
    eigenvalues of _density_2x2, any other d one stacked eigvalsh call.  Then
    the PSD_CLIP_TOL rule, and E||.|| = E[chi_d] times a sphere average.
    """
    w = np.asarray(omegas, dtype=float)
    _check_omegas(w)
    d = w.shape[2]
    if d == 2:
        return _density_2x2(w[:, 0, 0], w[:, 1, 1], w[:, 1, 0])
    lam = np.linalg.eigvalsh(w)
    lam = _psd_clip(lam, lam[:, -1:])
    return _sphere_average_norm(lam) * chi_mean(d) / math.sqrt(2.0 * math.pi)


def _density_2x2(o11, o22, o12):
    """kac_rice_density_batch of the 2x2 matrices with entry arrays o11, o22
    and o12 = o21 (any one shape), from the eigenvalues half_tr +- gap."""
    half_tr = 0.5 * (o11 + o22)
    gap = np.sqrt(0.25 * (o11 - o22) ** 2 + o12 ** 2)
    hi = half_tr + gap
    lo = _psd_clip(half_tr - gap, hi)  # lo <= hi, so a negative hi fails here too
    return _circle_average_norm(lo, hi) * chi_mean(2) / math.sqrt(2.0 * math.pi)


def kac_rice_density(kr, d):
    """kac_rice_density_batch of the one matrix kr.omega, as a TrackedReal."""
    if kr.omega.shape != (d, d):
        raise ValueError(f"omega must be {d}x{d}")
    return TrackedReal.from_float(kac_rice_density_batch(kr.omega[np.newaxis])[0])


def omega_exact(level, x):
    """Exact Kac-Rice matrix (Pi d2Pi - dPi dPi)/Pi^2 from the covariance jet.

    Omega is a ratio of kernels, so the huge tracked exponents cancel; the
    entries land comfortably inside float range even deep in the forbidden
    region.  x = 0 is rejected (the 1-jet map degenerates there for odd N).
    The one-point case of omega_exact_batch.
    """
    return omega_exact_batch(level, [x])[0]


def omega_exact_batch(level, points):
    """omega_exact at every point of a list, each == to a one-point call.

    Omega = lambda_r xhat xhat^T + lambda_t (I - xhat xhat^T), lambda_r = H_rr/Pi -
    (g/Pi)^2 and lambda_t = H_tt/Pi, from the extended-precision _radial_jet_sums
    (lambda_r cancels by ~1/hbar in the forbidden region); rounded once.
    """
    points = [np.atleast_1d(np.asarray(x, dtype=float)) for x in points]
    if any(np.linalg.norm(x) == 0.0 for x in points):
        raise ValueError("omega_exact requires x != 0")
    _, xhat, (pi, g, h_rr, h_tt), (pe, ge, e_rr, e_tt) = projector._radial_jet_sums(level, points)
    grad = np.ldexp(g / pi, ge - pe)
    omegas = projector._turn_back(xhat, np.ldexp(h_rr / pi, e_rr - pe) - grad * grad,
                                 np.ldexp(h_tt / pi, e_tt - pe))
    return [KacRiceMatrix(omega=w) for w in omegas.astype(float)]


def omega_caustic_scaled(frame, u):
    """Dimensionless caustic-tube Kac-Rice matrix Omega0(u), s = 2<u, x0>.

    Omega0_ij = x0_i x0_j [ Ai_{2-d/2}(s)/Ai_{-d/2}(s)
                            - (Ai_{1-d/2}(s)/Ai_{-d/2}(s))^2 ]
                + (delta_ij/2) Ai_{-1-d/2}(s)/Ai_{-d/2}(s).

    The physical matrix at x0 + hbar^(2/3) u is hbar^(-4/3) Omega0(u).
    Ai_{-d/2} > 0 for every integer d >= 2, but it underflows for s beyond
    ~105; an offset whose Ai_{-d/2}(s) is below the smallest normal float is
    refused with a ValueError, since the ratios are then not computable.
    An (m, d) array of offsets gives a list of m matrices from one
    three-weight ai_k_family table.
    """
    u = np.asarray(u, dtype=float)
    stack = [KacRiceMatrix(omega=w) for w in _caustic_omegas(frame, np.atleast_2d(u))]
    return stack[0] if u.ndim == 1 else stack


def _caustic_omegas(frame, offsets):
    """omega_caustic_scaled of an (m, d) array of offsets as an (m, d, d) stack."""
    d = frame.d
    if d < 2:
        raise ValueError("the caustic matrix needs d >= 2")
    s = 2.0 * (offsets @ frame.x0)
    base, first, lower = airy.ai_k_family((-d / 2.0, 1.0 - d / 2.0, -1.0 - d / 2.0), s)
    small = np.flatnonzero(base < np.finfo(float).tiny)
    if small.size:
        s_i, base_i = float(s[small[0]]), float(base[small[0]])
        raise ValueError(f"caustic-tube offset <u, x0> = {s_i / 2.0!r}: Ai_{{-d/2}}({s_i!r}) = "
                         f"{base_i!r} is below the smallest normal float: Omega0 is not computable")
    tangential = 0.5 * lower / base
    # Ai_(2-d/2) / Ai_(-d/2) = s + d tangential: Ai_(k+2) = s Ai_k - k Ai_(k-1), by parts
    radial = s + d * tangential - (first / base) ** 2
    return radial[:, np.newaxis, np.newaxis] * np.outer(frame.x0, frame.x0) \
        + tangential[:, np.newaxis, np.newaxis] * np.eye(d)


def density_regime(query, level):
    """Leading-order density for the query's regime, as a TrackedReal.

    Bulk regions return the unscaled density F(x) at x = x0 + u; annuli and the
    tube return the rescaled density of the zoomed field at offset u (annulus
    Omegas carry the hbar^(2 alpha) dilation factor; the tube value is
    hbar-independent).  The one-query case of density_regime_batch.
    """
    return density_regime_batch([query], level)[0]


def density_regime_batch(queries, level):
    """density_regime at every query of a list, each equal (==) to a one-query call.

    Every region gives (unit Omega, log sigma^2); the Omegas form one stack for
    kac_rice_density_batch, and tube rows that share a frame one Airy table.
    """
    d = level.d
    if any(q.frame.d != d for q in queries):
        raise ValueError("level and frame dimensions differ")
    omegas = np.empty((len(queries), d, d))
    log_sigma_sq = np.zeros(len(queries))
    tube = {}
    for i, q in enumerate(queries):
        if q.region is Region.CAUSTIC_TUBE:
            tube.setdefault(id(q.frame), []).append(i)
        else:
            omega, log_sigma_sq[i] = _regime_omega(q, level)
            omegas[i] = omega.omega
    for rows in tube.values():
        offsets = np.array([np.asarray(queries[i].u, float) for i in rows])
        omegas[rows] = _caustic_omegas(queries[rows[0]].frame, offsets)
    # the density is 1-homogeneous under Omega -> c^2 Omega
    return [TrackedReal.from_float(f) * TrackedReal.from_log(0.5 * log_s)
            for f, log_s in zip(kac_rice_density_batch(omegas).tolist(), log_sigma_sq.tolist())]


def _regime_omega(query, level):
    """(KacRiceMatrix, log sigma^2) of a query off the caustic tube."""
    frame, u, alpha, region = query.frame, np.asarray(query.u, float), query.alpha, query.region
    d = level.d
    x = frame.x0 + u
    r_sq = float(x @ x)
    u1 = frame.normal_component(u)
    if region is Region.ALLOWED_BULK:
        if not 0.0 < r_sq < 1.0:
            raise ValueError("allowed_bulk point must satisfy 0 < |x| < 1")
        return omega_allowed_annulus(level, frame, 0.0, 1.0 - r_sq)
    if region is Region.FORBIDDEN_BULK:
        if r_sq <= 1.0:
            raise ValueError("forbidden_bulk point must satisfy |x| > 1")
        # the forbidden-annulus matrix before its |x| -> 1 limit (rank d - 1)
        xhat = x / math.sqrt(r_sq)
        omega = KacRiceMatrix(np.eye(d) - np.outer(xhat, xhat))
        return omega, -math.log(2.0 * level.hbar * math.sqrt(r_sq * (r_sq - 1.0)))
    # annuli: |x|^2 = 1 -+ hbar^alpha s with s > 0 on the matching side
    if region is Region.ALLOWED_ANNULUS:
        if u1 >= 0.0:
            raise ValueError("allowed annulus requires <u, x0> < 0")
        return omega_allowed_annulus(level, frame, alpha, -2.0 * u1)
    if u1 <= 0.0:
        raise ValueError("forbidden annulus requires <u, x0> > 0")
    return omega_forbidden_annulus(level, frame, alpha, 2.0 * u1)


def omega_allowed_annulus(level, frame, alpha, s):
    """Rescaled allowed-annulus matrix (s/d) hbar^(3 alpha - 2) * identity.

    Returned as (unit-scale KacRiceMatrix, log of the scalar factor); the
    hbar^(2 alpha) dilation factor of the zoomed coordinates is included.
    """
    if s <= 0.0:
        raise ValueError("annulus offset s must be positive")
    log_sigma_sq = math.log(s / level.d) + (3.0 * alpha - 2.0) * math.log(level.hbar)
    return KacRiceMatrix(np.eye(level.d)), log_sigma_sq


def omega_forbidden_annulus(level, frame, alpha, s):
    """Rescaled forbidden-annulus matrix hbar^(3a/2 - 1)(I - x0 x0^T)/(2 sqrt(s)).

    The radial direction x0 is an exact null eigenvector of the returned
    shape matrix; the tangential block is isotropic.
    """
    if s <= 0.0:
        raise ValueError("annulus offset s must be positive")
    log_sigma_sq = (1.5 * alpha - 1.0) * math.log(level.hbar) \
        - math.log(2.0 * math.sqrt(s))
    shape = np.eye(level.d) - np.outer(frame.x0, frame.x0)
    return KacRiceMatrix(shape), log_sigma_sq


def density_grid(level, xs, ys):
    """Exact Kac-Rice density on a d = 2 tensor grid, shape (len(ys), len(xs)).

    The three entry arrays of Omega go to the d = 2 core of
    kac_rice_density_batch as they are; meant for hbar-resolving averages
    (the exact bulk density carries oscillatory corrections of relative size
    ~sqrt(hbar) on scale hbar, which coarse quadrature aliases).
    """
    jets = projector.jet_grid(level, xs, ys)
    pi = jets["Pi"]
    o11 = jets["H11"] / pi - (jets["G1"] / pi) ** 2
    o22 = jets["H22"] / pi - (jets["G2"] / pi) ** 2
    o12 = jets["H12"] / pi - (jets["G1"] / pi) * (jets["G2"] / pi)
    return _density_2x2(o11, o22, o12)


def mean_density_box(level, box, step=None):
    """Box average of the exact nodal density on an hbar-resolving grid."""
    if step is None:
        step = level.hbar / 6.0
    (x0, x1), (y0, y1) = box
    xs = np.linspace(x0, x1, max(2, int(math.ceil((x1 - x0) / step)) + 1))
    ys = np.linspace(y0, y1, max(2, int(math.ceil((y1 - y0) / step)) + 1))
    f = density_grid(level, xs, ys)
    inner = np.trapezoid(f, xs, axis=1)
    return float(np.trapezoid(inner, ys) / ((x1 - x0) * (y1 - y0)))


def caustic_intersection_density(d):
    """Density constant for nodal-set intersections with the caustic.

    F_{C,d} = Gamma(d/2)/(sqrt(2 pi) Gamma((d-1)/2)) *
              sqrt(Ai_{-1-d/2}(0) / Ai_{-d/2}(0));
    the expected (d-2)-volume of the intersection inside B subset C is
    hbar^(-2/3) F_{C,d} Vol(B).
    """
    if d < 2:
        raise ValueError("intersection density needs d >= 2")
    lower, base = airy.ai_k_family((-1.0 - d / 2.0, -d / 2.0), 0.0)
    ratio = lower / base
    return math.gamma(d / 2.0) / (math.sqrt(2.0 * math.pi) * math.gamma((d - 1) / 2.0)) \
        * math.sqrt(ratio)


def caustic_crossing_constant():
    """C0 = 2 pi F_{C,2} = sqrt(2) sqrt(Ai_{-2}(0)/Ai_{-1}(0)): the d = 2
    expected crossing count is C0 hbar^(-2/3)."""
    return 2.0 * math.pi * caustic_intersection_density(2)


def tube_mass(level, kappa, n_nodes=96):
    """Expected L2 mass of a normalized eigenfunction in the kappa hbar^(2/3) tube.

    Returns (exact, asymptotic):
      exact      = int over the metric tube of Pi(x,x) dx / dim V, reduced by
                   rotational invariance to a radial quadrature;
      asymptotic = (Gamma(d)/Gamma(d/2)) hbar^(d/3)
                   int_{-2 kappa}^{2 kappa} Ai_{-d/2}(s) ds,
                   using int_0^inf Ai(s+rho) rho^(d/2-1) drho
                       = Gamma(d/2) Ai_{-d/2}(s).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    from .semiclassical import eigenspace_dim
    d = level.d
    hbar = level.hbar
    delta = kappa * hbar ** (2.0 / 3.0)
    gx, gw = quadrature.gauss_legendre(n_nodes)
    r = 1.0 + delta * gx
    w = delta * gw
    points = np.zeros((n_nodes, d))
    points[:, 0] = r
    vals = np.array([v.to_float()
                     for v in projector.pi_exact_batch(level, points, points)])
    sphere_area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    exact = sphere_area * float(np.sum(w * vals * r ** (d - 1))) / eigenspace_dim(level)

    s_nodes, s_weights = quadrature.gauss_legendre(max(n_nodes, 64))
    s = 2.0 * kappa * s_nodes
    ws = 2.0 * kappa * s_weights
    ai_vals = airy.ai_k(-d / 2.0, s)
    asymptotic = math.gamma(d) / math.gamma(d / 2.0) * hbar ** (d / 3.0) \
        * float(np.sum(ws * ai_vals))
    return exact, asymptotic
