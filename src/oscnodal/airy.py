"""Standard and weighted Airy functions.

The weighted family is the contour integral

    Ai_k(s) = (1/2 pi i) int_C T^k exp(T^3/3 - T s) dT,

with C running from e^{-i pi/3} inf to e^{+i pi/3} inf inside the right half
plane, so T^k takes its principal branch throughout.  Ai_0 is the classical
Airy function, positive integer weights are derivatives up to sign, and
negative weights are repeated antiderivatives:

    Ai_{-kappa}(s) = (1/Gamma(kappa)) int_0^inf Ai(s + rho) rho^(kappa-1) drho.

Evaluation routes:
  * contour      - quadrature on a half-contour exploiting conjugate symmetry;
                   for s < -2 the path is rerouted through the oscillatory
                   saddles at +-i sqrt(|s|) so double precision keeps ~1e-12
                   relative accuracy down to s = -40 and beyond.  Paths sit
                   on the anchor lattice h floor(s / h); a table shares one
                   path and one exponential block per anchor.
  * gamma_integral - a fixed Gauss-Legendre rule on the antiderivative form
                   (k < 0, s >= -ASYMPTOTIC_SWITCH) that reads ai alone, so
                   it checks the contour table independently.
  * asymptotic   - large-|s| expansions (see ai_k_asymptotic); for s < 0 the
                   branch-point series plus the multi-term saddle series, with
                   the phase (2/3)|s|^(3/2) reduced mod 2 pi in double-double.
Method "auto" takes that left expansion below EXPANSION_SWITCH, the contour on
[EXPANSION_SWITCH, ASYMPTOTIC_SWITCH] and the right expansion beyond.

The classical Ai itself is a Taylor series from the nearest anchor of a
lattice of step 1/4 on [-200, 108], whose (Ai, Ai') values are mpmath's
(_airy_anchors); the tests check it against an independent Maclaurin series.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _airy_anchors, quadrature

_SQRT_PI = math.sqrt(math.pi)

#: Ai(0) = 3^(-2/3) / Gamma(2/3)
AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
#: Ai'(0) = -3^(-1/3) / Gamma(1/3)
AI_PRIME_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

#: below this the saddle-following contour replaces the vertex contour
_SADDLE_SWITCH = -2.0
#: s >= this is required before the right expansion is trusted
ASYMPTOTIC_CROSSOVER = 8.0
#: method "auto" takes the asymptotic expansion for s beyond this, and the
#: contour route refuses |s| beyond it
ASYMPTOTIC_SWITCH = 200.0
#: method "auto" takes the left expansion (_ai_k_left) below this s, "asymptotic" refuses
#: (EXPANSION_SWITCH, ASYMPTOTIC_CROSSOVER); its sums reach 1e-13 at s = -12 (DECISIONS.md)
EXPANSION_SWITCH = -16.0
#: the left expansion refuses |s| beyond this: past it the double-double phase
#: (2/3)|s|^(3/2) mod 2 pi no longer holds ~1e-16 rad
PHASE_LIMIT = 1e10
#: the saddle series keeps its terms q = 0 .. _SADDLE_TERMS - 1 (an even count)
_SADDLE_TERMS = 20

#: 2 pi and pi as sums of doubles, leading part first
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16, -5.989539619436679e-33)
_PI = (3.141592653589793, 1.2246467991473532e-16)

#: contour paths are anchored on the lattice a(s) = h floor(s / h) of this
#: spacing h, so a path serves every s in [a, a + h) (DECISIONS.md)
_ANCHOR_STEP = 0.5
#: an anchor's exponential block is built at most this many entries at a time
_BLOCK_ENTRIES = 1 << 18

#: a ray leaves its base along e^{i pi/3} in at most this many unit panels,
#: built this many at a time
_RAY_PANELS = 120
_RAY_BLOCK = 8


@functools.cache
def _ray_panels():
    """24-point Gauss-Legendre rules on the unit panels [r, r + 1] of a ray
    (built on first use)."""
    nodes, weights = quadrature.panels(np.arange(_RAY_PANELS + 1.0), 24)
    return nodes.reshape(_RAY_PANELS, 24), weights.reshape(_RAY_PANELS, 24)


#: largest Taylor term count; every anchor needs fewer (_taylor_table checks it)
_TAYLOR_TERMS = 30
#: index of the anchor a = 0 in _airy_anchors.VALUES
_ANCHOR_ZERO = round(-_airy_anchors.START / _airy_anchors.STEP)
#: last anchor; Ai underflows to 0 beyond it
_AI_TABLE_END = _airy_anchors.START + _airy_anchors.STEP * (_airy_anchors.COUNT - 1)


@functools.cache
def _taylor_table():
    """Taylor coefficients of Ai about every anchor a, shape (terms, anchors),
    and each anchor's term count.

    c_0 = Ai(a), c_1 = Ai'(a) and, from Ai'' = s Ai,
    (n+2)(n+1) c_(n+2) = a c_n + c_(n-1).  An anchor keeps the terms up to the
    last whose size at |h| = STEP / 2 exceeds 2^-64 of the sum of all sizes,
    and the rest are set to 0 (built on first use).
    """
    anchors = _airy_anchors.START + _airy_anchors.STEP * np.arange(_airy_anchors.COUNT)
    c = np.empty((_TAYLOR_TERMS, anchors.size))
    c[:2] = _airy_anchors.VALUES.T
    c[2] = anchors * c[0] / 2.0
    for n in range(1, _TAYLOR_TERMS - 2):
        c[n + 2] = (anchors * c[n] + c[n - 1]) / ((n + 2) * (n + 1))
    size = np.abs(c) * (_airy_anchors.STEP / 2.0) ** np.arange(_TAYLOR_TERMS)[:, None]
    order = np.arange(1, _TAYLOR_TERMS + 1)[:, None]
    counts = np.max(np.where(size > 2.0 ** -64 * size.sum(axis=0), order, 1), axis=0)
    if counts.max() >= _TAYLOR_TERMS:
        raise RuntimeError("an Airy anchor needs more Taylor terms than the table holds")
    c[order > counts] = 0.0
    c.flags.writeable = False
    counts.flags.writeable = False
    return c, counts


def ai(s):
    """Standard Airy function Ai(s), elementwise; a float for a scalar s.

    On [-ASYMPTOTIC_SWITCH, 108] it is the Taylor series about the nearest
    anchor a of the lattice STEP Z (STEP = 1/4, so |s - a| <= 1/8) in
    h = s - a, summed by Horner's rule.
    Beyond 108 it underflows to 0, below -ASYMPTOTIC_SWITCH it is the left
    expansion _ai_k_left(0, s), which ai_k(0, s) also reads there, and
    Ai(+-inf) = 0.  A
    batch runs Horner's rule over its largest term count, and an anchor's
    coefficients past its own count are 0, so every value is the one its
    anchor's own terms give (== alone and in any array).
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    out = np.zeros(flat.size)
    table = (flat >= -ASYMPTOTIC_SWITCH) & (flat <= _AI_TABLE_END)
    if table.any():
        out[table] = _ai_taylor(flat[table])
    far = (flat < -ASYMPTOTIC_SWITCH) & (flat > -np.inf)
    if far.any():
        out[far] = _ai_k_left(0.0, flat[far])
    out[np.isnan(flat)] = np.nan
    if s.ndim == 0:
        return float(out[0])
    return out.reshape(s.shape)


def _ai_taylor(s):
    """The Taylor branch of ai on a 1-d array inside the table."""
    c, counts = _taylor_table()
    j = np.rint(s / _airy_anchors.STEP)
    h = s - j * _airy_anchors.STEP
    idx = j.astype(np.intp) + _ANCHOR_ZERO
    terms = int(counts[idx].max())
    p = c[terms - 1, idx]
    for n in range(terms - 2, -1, -1):
        p *= h
        p += c[n, idx]
    return p


@functools.lru_cache(maxsize=16)
def _upper_path(s_ref):
    """Nodes/weights of the upper half of the Airy contour, anchored at s_ref.

    The full contour is path + conjugate mirror, so for any integrand f with
    f(conj T) = conj f(T):  (1/2 pi i) int_C f dT = Im( sum w f(T) ) / pi.

    For s_ref >= -2 the path is the classical vertex contour: start at
    t0 = max(1, sqrt(max(s_ref,0))) on the real axis and leave along
    e^{i pi/3}.  For s_ref < -2 the saddles sit at +-i sqrt(|s_ref|) and a
    vertex contour suffers exp(c|s|^{3/2}) cancellation, so the path runs up
    the vertical line Re T = a = min(1, 1/sqrt(|s|)) through the upper saddle
    and then leaves along e^{i pi/3}; the integrand magnitude on that line
    stays within ~exp(sqrt(|s|)) of the result.

    The ray stops at the first unit panel whose end lies 46 below the running
    peak of Re(T^3/3 - T s_ref).  The panels are built _RAY_BLOCK at a time
    as one array, and the stop is read off a running maximum of the panel
    peaks (the first block holds it for every s_ref in [-200, 200]).  Paths
    are cached by s_ref (the last 16), so the weights evaluated at one
    argument share one path; the arrays are read-only.
    """
    direc = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    if s_ref >= _SADDLE_SWITCH:
        nodes, weights = [], []
        base = complex(max(1.0, math.sqrt(max(s_ref, 0.0))), 0.0)
    else:
        mag = abs(s_ref)
        a = min(1.0, 1.0 / math.sqrt(mag))
        y_top = math.sqrt(mag)
        n_panels = max(4, int(math.ceil((2.0 / 3.0) * mag ** 1.5 / 2.5)))
        y, w = quadrature.panels(np.linspace(0.0, y_top, n_panels + 1), 16)
        nodes, weights = [a + 1j * y], [1j * w]
        base = complex(a, y_top)
    ray_nodes, ray_weights = _ray_panels()
    reached = (base ** 3 / 3.0 - base * s_ref).real
    for lo in range(0, _RAY_PANELS, _RAY_BLOCK):
        t = base + ray_nodes[lo:lo + _RAY_BLOCK] * direc
        ends = base + np.arange(lo + 1.0, lo + len(t) + 1.0) * direc
        ends = (ends ** 3 / 3.0 - ends * s_ref).real
        peaks = (t ** 3 / 3.0 - t * s_ref).real.max(axis=1)
        # before[r]: the running peak over the base and the panels ahead of r
        before = np.maximum.accumulate(np.concatenate(([reached], peaks[:-1])))
        stop = np.flatnonzero(ends < before - 46.0)
        n_panels = int(stop[0]) + 1 if stop.size else len(t)
        nodes.append(t[:n_panels].ravel())
        weights.append((ray_weights[lo:lo + n_panels] * direc).ravel())
        if stop.size:
            break
        reached = max(before[-1], peaks[-1])
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def contour_integral(k, s, extra=None, s_ref=None):
    """(1/2 pi i) int_C T^k exp(T^3/3 - T s) extra(T) dT for real s.

    `s` may be a scalar or an array sharing one contour: pass s_ref (defaults
    to min(s)) to anchor the path.  `k` may be a sequence of weights; they
    share the path and its exponential block, and the result gains a leading
    axis, one row per weight.  `extra` must satisfy
    extra(conj T) = conj extra(T) and stay bounded on Re T > 0.

    The exponential block holds one contiguous row exp(T^3/3 - T s) per s,
    and each value is the last-axis sum of its own row times the weights, so
    it depends on (k, s, s_ref, extra) alone, not on the other arguments.
    Rows are taken _BLOCK_ENTRIES entries at a time.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_ref is None:
        s_ref = float(np.min(s_arr))
    t, w = _upper_path(s_ref)
    weighted = [w * t ** complex(kk) for kk in np.atleast_1d(k)]
    if extra is not None:
        factor = extra(t)
        weighted = [vals * factor for vals in weighted]
    phase = t ** 3 / 3.0
    out = np.empty((len(weighted), s_arr.size))
    rows = max(1, _BLOCK_ENTRIES // t.size)
    for lo in range(0, s_arr.size, rows):
        block = _contour_exponential(t, phase, s_arr[lo:lo + rows])
        for i, vals in enumerate(weighted):
            out[i, lo:lo + rows] = np.sum(block * vals, axis=-1).imag / math.pi
    if np.ndim(k) == 0:
        out = out[0]
        if np.ndim(s) == 0:
            return float(out[0])
    return out


def _contour_exponential(t, phase, s_arr):
    """exp(T^3/3 - T s) on the path nodes t, one row per s (phase = T^3/3)."""
    block = np.empty((s_arr.size, t.size), dtype=complex)
    block.real = phase.real - s_arr[:, None] * t.real
    block.imag = phase.imag - s_arr[:, None] * t.imag
    # the path construction keeps Re(expo) modest; clip as a belt and braces
    np.minimum(block.real, 500.0, out=block.real)
    return np.exp(block, out=block)


def _ai_k_contour(ks, s):
    """Ai_k(s) by the contour for every k in ks and every s of a 1-d array,
    shape (len(ks), len(s)).

    The arguments are grouped by their lattice anchor
    a(s) = _ANCHOR_STEP * floor(s / _ANCHOR_STEP), which depends on s alone;
    each group makes one contour_integral call on the path anchored at a(s).
    -2 is a lattice point, so s < -2 and only those take a saddle path.  A
    value is therefore the same (==) in any table, alone or with any others.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty((len(ks), s.size))
    anchors = _ANCHOR_STEP * np.floor(s / _ANCHOR_STEP)
    order = np.argsort(anchors, kind="stable")
    starts = np.flatnonzero(np.diff(anchors[order])) + 1
    for group in np.split(order, starts) if s.size else ():
        out[:, group] = contour_integral(ks, s[group], s_ref=float(anchors[group[0]]))
    return out


def _ai_k_gamma(k, s):
    """Ai_k(s) for k < 0 and s >= -ASYMPTOTIC_SWITCH from the antiderivative form.

    24-point Gauss-Legendre panels: on [0, 1], where rho = tau^(1/kappa) turns
    rho^(kappa-1) drho into dtau / kappa, 25 panels graded by 0.15 toward
    tau = 0, where tau^(1/kappa) is not smooth; unit panels on [1, upper],
    upper = max(2, 14 - s) + 40.  Only ai is read (no contour, expansion or
    _memo), and the nodes depend on (k, s) alone (DECISIONS.md).
    """
    if k >= 0:
        raise ValueError("gamma_integral route requires k < 0")
    if s < -ASYMPTOTIC_SWITCH:
        raise ValueError(f"the gamma_integral route takes s >= -{ASYMPTOTIC_SWITCH:g} (below "
                         f"it ai is the left expansion); use auto or asymptotic for s = {s!r}")
    kappa = -float(k)
    tau, w_tau = quadrature.panels(np.append(0.0, 0.15 ** np.arange(24.0, -1.0, -1.0)), 24)
    upper = max(2.0, 14.0 - s) + 40.0
    rho, w_rho = quadrature.panels(np.append(np.arange(1.0, upper), upper), 24)
    nodes = np.concatenate((tau ** (1.0 / kappa), rho))
    weights = np.concatenate((w_tau / kappa, w_rho * rho ** (kappa - 1.0)))
    return float(np.sum(weights * ai(s + nodes))) / math.gamma(kappa)


_memo = {}


def ai_k(k, s, method="auto"):
    """Weighted Airy function Ai_k(s); k is the subscript as printed.

    method: one of "auto", "contour", "gamma_integral", "asymptotic".
    auto takes the left expansion below EXPANSION_SWITCH, the contour on
    [EXPANSION_SWITCH, ASYMPTOTIC_SWITCH] and the right expansion beyond,
    element by element; contour refuses |s| > ASYMPTOTIC_SWITCH, and
    gamma_integral k >= 0 and s < -ASYMPTOTIC_SWITCH.  `s` may be
    a scalar or an array; a scalar contour value goes through _memo, keyed by
    (float(k), float(s)).  Every auto value is the one its route gives for
    (k, s) in any table.
    """
    if method not in ("auto", "contour", "gamma_integral", "asymptotic"):
        raise ValueError(f"unknown method {method!r}")
    _check_finite((k,), s)
    if method == "gamma_integral":
        values = [_ai_k_gamma(k, x) for x in np.ravel(s).tolist()]
        return values[0] if np.ndim(s) == 0 else np.reshape(values, np.shape(s))
    if method == "asymptotic":
        return ai_k_asymptotic(k, s)
    if method == "contour":
        if np.any(np.abs(s) > ASYMPTOTIC_SWITCH):
            raise ValueError(f"the contour route takes |s| <= {ASYMPTOTIC_SWITCH:g} (its "
                             f"saddle path grows like |s|^(3/2)); use auto or asymptotic "
                             f"for s = {s!r}")
        return _family((k,), s, left_switch=-ASYMPTOTIC_SWITCH)[0]
    return _family((k,), s)[0]


def ai_k_family(ks, s):
    """[ai_k(k, s) for k in ks], method "auto": a list at a scalar s, an array
    with one row per weight for an array s.  The weights share each contour
    path and exponential block; every value equals ai_k(k, s)."""
    _check_finite(ks, s)
    return _family(ks, s)


def _check_finite(ks, s):
    for k in ks:
        if not math.isfinite(k):
            raise ValueError(f"ai_k needs a finite k, got {k!r}")
    if not np.isfinite(s).all():
        raise ValueError(f"ai_k needs a finite s, got {s!r}")


def _family(ks, s, left_switch=EXPANSION_SWITCH):
    """Left-expansion values below left_switch, right-expansion ones beyond
    ASYMPTOTIC_SWITCH and contour values between.

    A scalar contour argument reads and fills _memo, and the weights missing
    from it make one _ai_k_contour call.
    """
    if np.ndim(s) == 0:
        s = float(s)
        if s < left_switch:
            return [float(_ai_k_left(k, np.array([s]))[0]) for k in ks]
        if s > ASYMPTOTIC_SWITCH:
            return [_right_tail(k, s) for k in ks]
        out = [_memo.get((float(k), s)) for k in ks]
        missing = [i for i, val in enumerate(out) if val is None]
        if missing:
            vals = _ai_k_contour([ks[i] for i in missing], np.array([s]))
            if len(_memo) > 100000:
                _memo.clear()
            for i, val in zip(missing, vals[:, 0].tolist()):
                _memo[(float(ks[i]), s)] = out[i] = val
        return out
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    out = np.empty((len(ks), flat.size))
    left = flat < left_switch
    right = flat > ASYMPTOTIC_SWITCH
    for i, k in enumerate(ks):
        if left.any():
            out[i, left] = _ai_k_left(k, flat[left])
        out[i, right] = [_right_tail(k, x) for x in flat[right].tolist()]
    mid = ~(left | right)
    out[:, mid] = _ai_k_contour(ks, flat[mid])
    return out.reshape((len(ks),) + s.shape)


def ai_k_asymptotic(k, s):
    """Large-|s| expansions of Ai_k; refuses s in (EXPANSION_SWITCH, ASYMPTOTIC_CROSSOVER).

    For s >> 0 (kappa = -k):

        Ai_k(s) ~ exp(-(2/3) s^(3/2)) / (2 sqrt(pi)) * s^(-(2 kappa+1)/4)
                  * [1 - ((kappa^2 + 2 kappa)/4 + 5/48) s^(-3/2)
                       + C4(kappa) s^(-3)],

    from the saddle-point expansion at T = sqrt(s).  The 5/48 is the
    weight-independent piece familiar from Ai itself (dropping it stalls the
    error at O(s^(-3/2))), and C4 is the next even order; at kappa = 0 it
    reduces to the classical 385/10368 * (3/2)^2.  Residual error O(s^(-9/2)).
    It is expanded element by element, and it is refused with a ValueError
    where s^3 overflows (s > 5e102).

    For s << 0 it is _ai_k_left, the branch-point series plus the saddle
    series, over the whole array at once; it refuses s < -PHASE_LIMIT.
    """
    s_arr = np.asarray(s, dtype=float)
    flat = s_arr.ravel()
    if np.any((flat > EXPANSION_SWITCH) & (flat < ASYMPTOTIC_CROSSOVER)):
        raise ValueError(f"asymptotic expansion needs s <= {EXPANSION_SWITCH} or "
                         f"s >= {ASYMPTOTIC_CROSSOVER}, got {s}")
    out = np.empty(flat.size)
    left = flat < 0.0
    if left.any():
        out[left] = _ai_k_left(k, flat[left])
    out[~left] = [_right_tail(k, x) for x in flat[~left].tolist()]
    if np.ndim(s) == 0:
        return float(out[0])
    return out.reshape(s_arr.shape)


def _right_tail(k, s):
    """The s >> 0 expansion of ai_k_asymptotic at one s, in Python floats."""
    kappa, s = -float(k), float(s)
    try:
        c2 = (kappa * kappa + 2.0 * kappa) / 4.0 + 5.0 / 48.0
        c4 = 10395.0 / 124416.0 + 945.0 * kappa / 5184.0 \
            + 105.0 * kappa * (kappa + 1.0) / 576.0 \
            + 15.0 * kappa * (kappa + 1.0) * (kappa + 2.0) / 144.0 \
            + kappa * (kappa + 1.0) * (kappa + 2.0) * (kappa + 3.0) / 32.0
        corr = 1.0 - c2 / s ** 1.5 + c4 / s ** 3
        return math.exp(-2.0 / 3.0 * s ** 1.5) / (2.0 * _SQRT_PI) \
            * s ** (-(2.0 * kappa + 1.0) / 4.0) * corr
    except OverflowError:
        raise ValueError(f"the asymptotic expansion of Ai_k overflows at s = {s!r} "
                         f"(k = {k!r})") from None


def _ai_k_left(k, s):
    """Ai_k(s) for s << 0 on a 1-d array: with x = -s and kappa = -k,

        sum_j x^(kappa-3j-1) / (3^j j! Gamma(kappa-3j))
          + Im[e^(i(zeta + pi(2k+1)/4)) x^(k/2-1/4) sum_q a_q i^q x^(-3q/2)] / pi,

    zeta = (2/3) x^(3/2).  The first sum comes from the branch point T = 0
    and is cut at its smallest term (_branch_series); the second from the
    saddles T = +-i sqrt(x), with a_q from _saddle_coefficients, summed over
    _SADDLE_TERMS terms.  zeta + pi(2k+1)/4 is reduced mod 2 pi in
    double-double (_saddle_phase), and |s| > PHASE_LIMIT is refused.  Every
    operation is elementwise, so a value is the same (==) in any array.
    (DECISIONS.md, "Ai_k below s = -16")
    """
    x = -np.asarray(s, dtype=float)
    if np.any(x > PHASE_LIMIT):
        raise ValueError(f"Ai_k(s) takes s >= -{PHASE_LIMIT:g} (k = {k!r}): below it the "
                         f"double-double phase (2/3)|s|^(3/2) overflows the ~1e-16 rad it "
                         f"must hold, at s = {-float(np.max(x))!r}")
    hi, lo = _saddle_phase(x, (2.0 * k + 1.0) / 4.0)
    sin_hi, cos_hi = np.sin(hi), np.cos(hi)
    sin_t = sin_hi + lo * cos_hi
    cos_t = cos_hi - lo * sin_hi
    a = _saddle_coefficients(float(k))
    y = 1.0 / (x * np.sqrt(x))
    w = -y * y
    # sum_q a_q (i y)^q = re + i im, the even and the odd q by Horner in w = -y^2
    re, im = np.full_like(x, a[-2]), np.full_like(x, a[-1])
    for even, odd in zip(a[-4::-2], a[-3::-2]):
        re = re * w + even
        im = im * w + odd
    im *= y
    amp = x ** (k / 2.0 - 0.25) / math.pi
    return _branch_series(-float(k), x) + amp * (re * sin_t + im * cos_t)


@functools.lru_cache(maxsize=64)
def _saddle_coefficients(k):
    """a_q = sum_{p=q}^{3q} (-1)^p Gamma(p+1/2) C(k, 3q-p) / (3^(p-q) (p-q)!)
    for q < _SADDLE_TERMS, C the binomial coefficient at real k.

    Expanding T^k exp(T^3/3 + x T) about the saddle i sqrt(x) as
    T^k = sum_m C(k, m) (i sqrt x)^(k-m) u^m and exp(u^3/3) = sum_n u^(3n)/(3^n n!)
    leaves the moments int u^(2p) exp(i sqrt(x) u^2) du with 2p = m + 3n, and
    every (m, n) with p - n = q lands on x^(-3q/2).  At k = 0,
    a_q (2/3)^q = (-1)^q sqrt(pi) u_q with DLMF 9.7.2's u_q.
    """
    binom = [1.0]
    for m in range(1, 3 * _SADDLE_TERMS):
        binom.append(binom[-1] * (k - m + 1.0) / m)
    return tuple(
        math.fsum((-1) ** p * math.gamma(p + 0.5) * binom[3 * q - p]
                  / (3.0 ** (p - q) * math.factorial(p - q)) for p in range(q, 3 * q + 1))
        for q in range(_SADDLE_TERMS))


def _saddle_phase(x, c):
    """(2/3) x^(3/2) + c pi reduced mod 2 pi, as a double-double (hi, lo).

    sqrt(x) gets its correction from the exact residual x - r^2, x^(3/2) is
    the Dekker product x (r + r_lo), and the division by 3 is corrected the
    same way.  n = rint(zeta / 2 pi) is taken off against 2 pi in three parts,
    with zeta - n P1 exact by Sterbenz's lemma.  The phase then holds about
    zeta 2^-104 rad, ~1e-16 rad at x = PHASE_LIMIT.
    """
    r = np.sqrt(x)
    p, e = _two_prod(r, r)
    r_lo = ((x - p) - e) / (2.0 * r)
    hi, lo = _two_prod(x, r)
    hi, lo = _two_sum(hi, lo + x * r_lo)
    hi, lo = 2.0 * hi, 2.0 * lo
    zeta = hi / 3.0
    p, e = _two_prod(zeta, 3.0)
    zeta_lo = (((hi - p) - e) + lo) / 3.0
    n = np.rint(zeta / _TWO_PI[0])
    p1, e1 = _two_prod(n, _TWO_PI[0])
    p2, e2 = _two_prod(n, _TWO_PI[1])
    hi, lo = _two_sum(zeta - p1, -p2)
    c_hi, c_lo = _two_prod(c, _PI[0])
    hi, lo2 = _two_sum(hi, c_hi)
    lo = lo + lo2 + (zeta_lo - e1 - e2 - n * _TWO_PI[2] + (c_lo + c * _PI[1]))
    return _two_sum(hi, lo)


def _two_sum(a, b):
    """a + b as (sum, error), exact (Knuth)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _two_prod(a, b):
    """a * b as (product, error), exact for |a|, |b| < 2^996 (Dekker, by
    Veltkamp's split at 2^27 + 1)."""
    prod = a * b
    t = 134217729.0 * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = 134217729.0 * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return prod, ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _branch_series(kappa, x):
    """sum_j x^(kappa-3j-1) / (3^j j! Gamma(kappa-3j)) on a 1-d array x,
    element by element cut at its smallest term or at 2^-60 of its first.

    Each term is the last times (kappa-3j-1)(kappa-3j-2)(kappa-3j-3) /
    (3 (j+1) x^3); 1/Gamma is 0 at its poles, so at an integer kappa the sum
    is finite (and empty for kappa <= 0).
    """
    first = 0.0 if kappa <= 0.0 and kappa == round(kappa) else 1.0 / math.gamma(kappa)
    total = first * x ** (kappa - 1.0)
    if first == 0.0:
        return total
    floor = 2.0 ** -60 * np.abs(total)
    cube = x * x * x
    term = total
    live = np.ones(x.shape, dtype=bool)
    for j in itertools.count():
        factor = (kappa - 3 * j - 1.0) * (kappa - 3 * j - 2.0) * (kappa - 3 * j - 3.0) \
            / (3.0 * (j + 1))
        if factor == 0.0:
            break
        ratio = factor / cube
        term = term * ratio
        live &= (np.abs(ratio) < 1.0) & (np.abs(term) > floor)
        if not live.any():
            break
        total = total + np.where(live, term, 0.0)
    return total
