"""Weighted Airy family: identities, expansions, and cross-method agreement."""

import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from oscnodal import CausticFrame, _airy_anchors, ai, ai_k, ai_k_asymptotic, airy, quadrature
from oscnodal.airy import AI_PRIME_ZERO, AI_ZERO, contour_integral
from oscnodal.densities import omega_caustic_scaled

SQRT_2PI = math.sqrt(2.0 * math.pi)


def ai_series(s, max_terms=260):
    """Maclaurin-series Airy oracle, reliable for |s| <= ~6 in doubles.

    Ai = Ai(0) f(s) + Ai'(0) g(s) with f, g the two entire solutions of the
    Airy equation; independent of the anchor table behind airy.ai.
    """
    s = float(s)
    f_term = 1.0
    g_term = s
    f_sum = f_term
    g_sum = g_term
    s3 = s * s * s
    for k in range(max_terms):
        f_term *= s3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= s3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-20 * abs(f_sum) and abs(g_term) < 1e-20 * max(abs(g_sum), 1e-30):
            break
    return AI_ZERO * f_sum + AI_PRIME_ZERO * g_sum


def airy_product_contour(x, y):
    """Ai(x) Ai(y) through the single-contour product identity.

    Substituting T -> 2^(-1/3) T in the double-saddle form gives

        Ai(x) Ai(y) = 2^(-1/6) (2 pi)^(-1/2) *
            (1/2 pi i) int_C T^(-1/2) exp(T^3/3 - sT - c/T) dT,

    with s = 2^(-1/3) (x+y) and c = 2^(1/3) (x-y)^2 / 8.  At x = y this is
    the closed form Ai(x)^2 = 2^(-1/6) (2 pi)^(-1/2) Ai_{-1/2}(2^(2/3) x).
    """
    s = 2.0 ** (-1.0 / 3.0) * (x + y)
    c = 2.0 ** (1.0 / 3.0) * (x - y) ** 2 / 8.0
    val = contour_integral(-0.5, s, extra=lambda t: np.exp(-c / t))
    return 2.0 ** (-1.0 / 6.0) / SQRT_2PI * val


class TestAi:
    def test_value_at_origin(self):
        assert ai(0.0) == pytest.approx(0.35502805388781723926, abs=1e-15)
        assert ai(0.0) == pytest.approx(AI_ZERO, abs=1e-15)
        assert ai_series(0.0) == pytest.approx(AI_ZERO, abs=1e-15)

    def test_positive_and_decreasing_on_right_half_line(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 0.01)
        vals = ai(grid)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_first_root_by_bisection_on_series_oracle(self):
        lo, hi = -3.0, -2.0
        assert ai_series(lo) < 0 < ai_series(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ai_series(mid) < 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(-2.33811, abs=1e-5)
        assert ai(root) == pytest.approx(0.0, abs=1e-8)

    def test_series_oracle_matches_library(self):
        for s in np.arange(-5.0, 5.0001, 0.25):
            assert ai_series(s) == pytest.approx(ai(s), abs=1e-12)

    def test_absolute_accuracy_window(self):
        # contract: |ai - reference| < 1e-12 on [-20, 20]
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for s in np.arange(-20.0, 20.0001, 0.5):
            assert abs(ai(s) - float(mp.airyai(mp.mpf(s)))) < 1e-12


def _envelope(s):
    """max(|Ai|, envelope) scale of the ai tests: |s|^(-1/4)/sqrt(pi), kept
    finite at s = 0 as (1 + |s|)^(-1/4)/sqrt(pi)."""
    return (1.0 + np.abs(s)) ** -0.25 / math.sqrt(math.pi)


class TestAiTaylorTable:
    """ai: a Taylor series about the nearest anchor of the mpmath table."""

    def test_matches_mpmath_on_the_table(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        # random points, the table's ends, and anchor midpoints (the largest |h|)
        mid = _airy_anchors.START + 0.125 + 0.25 * rng.integers(0, _airy_anchors.COUNT - 5, 150)
        s = np.concatenate([rng.uniform(-200.0, 107.0, 350), mid,
                            [-200.0, -199.875, -0.125, 0.0, 0.125, 107.0]])
        vals = ai(s)
        worst = worst_right = 0.0
        with mp.workdps(30):
            for x, v in zip(s.tolist(), vals.tolist()):
                ref = float(mp.airyai(x))
                worst = max(worst, abs(v - ref) / max(abs(ref), _envelope(x)))
                if 0.0 <= x <= 100.0:  # relative to Ai itself where it decays
                    worst_right = max(worst_right, abs(v - ref) / ref)
        assert worst <= 1e-14
        assert worst_right <= 4e-15

    def test_scipy_is_a_second_oracle(self):
        s = np.linspace(-200.0, 107.0, 30001)
        ref = special.airy(s)[0]
        assert np.max(np.abs(ai(s) - ref) / np.maximum(np.abs(ref), _envelope(s))) <= 1e-12

    def test_past_the_table(self):
        # below -200 the switch ai_k makes to the asymptotic expansion; beyond
        # the last anchor, 108, Ai underflows
        far = [np.nextafter(-200.0, -201.0), -250.5, -1e4]
        assert [ai(x) for x in far] == [ai_k_asymptotic(0.0, x) for x in far]
        assert ai(np.array(far)).tolist() == [ai(x) for x in far]
        assert ai(-250.5) == ai_k(0.0, -250.5)
        beyond = np.array([np.nextafter(108.0, 109.0), 500.0, np.inf, -np.inf])
        assert ai(beyond).tolist() == [0.0] * 4
        assert ai(np.inf) == ai(-np.inf) == 0.0
        assert math.isnan(ai(math.nan)) and np.isnan(ai(np.array([np.nan]))).all()

    def test_value_is_the_same_alone_and_in_any_array(self):
        rng = np.random.default_rng(5)
        s = np.concatenate([rng.uniform(-210.0, 115.0, 401),
                            [-200.0, -0.125, -0.0, 0.0, 0.125, 107.875, 108.0]])
        alone = [ai(x) for x in s.tolist()]
        assert all(type(v) is float for v in alone + [ai(np.float64(0.5)), ai(np.array(0.5))])
        assert ai(s).tolist() == alone
        perm = rng.permutation(s.size)
        assert ai(s[perm]).tolist() == [alone[i] for i in perm]
        assert ai(s.reshape(3, -1)).ravel().tolist() == alone
        for lo in range(0, s.size, 37):
            assert ai(s[lo:lo + 37]).tolist() == alone[lo:lo + 37]

    def test_anchor_table_regenerates(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(1233)
        sample = sorted(set(rng.choice(_airy_anchors.COUNT, 24, replace=False).tolist())
                        | {0, airy._ANCHOR_ZERO, _airy_anchors.COUNT - 1})
        stored = _airy_anchors.VALUES[sample].tolist()
        assert _airy_anchors.anchor_values(sample) == list(map(tuple, stored))

    def test_table_spans_the_switch_and_the_underflow(self):
        assert len(_airy_anchors.VALUES) == _airy_anchors.COUNT
        assert _airy_anchors.START == -airy.ASYMPTOTIC_SWITCH
        assert airy._AI_TABLE_END == 108.0 and _airy_anchors.VALUES[-1][0] == 0.0
        c, counts = airy._taylor_table()
        assert counts.max() < airy._TAYLOR_TERMS
        assert np.all(c[np.arange(airy._TAYLOR_TERMS)[:, None] >= counts] == 0.0)

    def test_gamma_integral_runs_without_scipy(self, monkeypatch):
        want = ai_k(-1.5, -3.2, method="gamma_integral")
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        assert ai_k(-1.5, -3.2, method="gamma_integral") == want


class TestAiK:
    @pytest.mark.parametrize("s", [-3.0, 0.0, 2.0])
    def test_weight_zero_is_ai(self, s):
        assert ai_k(0.0, s) == pytest.approx(ai(s), abs=1e-10)

    def test_first_antiderivative_at_zero(self):
        # integral of Ai over the half line is 1/3
        assert ai_k(-1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert ai_k(-1.0, 0.0, method="gamma_integral") == pytest.approx(
            1.0 / 3.0, abs=1e-9)

    def test_half_weight_product_identity_at_zero(self):
        assert ai_k(-0.5, 0.0) == pytest.approx(
            SQRT_2PI * 2.0 ** (1.0 / 6.0) * ai(0.0) ** 2, rel=1e-10)

    def test_second_antiderivative_is_minus_ai_prime_at_zero(self):
        # int_0^inf rho Ai(rho) drho = -Ai'(0) via the Airy equation
        assert ai_k(-2.0, 0.0) == pytest.approx(-AI_PRIME_ZERO, rel=1e-12)

    def test_positive_weights_are_derivatives(self):
        step = 1e-5
        for s in (-1.5, 0.4, 2.0):
            fd = -(ai(s + step) - ai(s - step)) / (2 * step)
            assert ai_k(1.0, s) == pytest.approx(fd, rel=1e-8)

    def test_vectorized_matches_scalar(self):
        s = np.array([-7.3, -2.1, 0.0, 1.4, 6.0])
        vec = ai_k(-1.5, s)
        for si, vi in zip(s, vec):
            assert vi == pytest.approx(ai_k(-1.5, float(si)), rel=1e-11)

    def test_gamma_integral_rejects_nonnegative_weight(self):
        with pytest.raises(ValueError):
            ai_k(0.5, 1.0, method="gamma_integral")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ai_k(0.0, 0.0, method="saddle")

    @pytest.mark.parametrize("method", ["auto", "contour", "gamma_integral", "asymptotic"])
    def test_non_finite_arguments_are_named(self, method):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite k"):
                ai_k(bad, 0.0, method=method)
            with pytest.raises(ValueError, match="finite s"):
                ai_k(-1.0, bad, method=method)
        with pytest.raises(ValueError, match="finite s"):
            ai_k(-1.0, np.array([0.0, math.nan]), method=method)


class TestLadderAndReconstruction:
    KS = (-2.0, -1.5, -1.0, 0.0)
    SS = (-4.0, -1.0, 0.0, 1.0, 3.0)

    @pytest.mark.parametrize("k", KS)
    def test_derivative_ladder(self, k):
        # d/ds Ai_k = -Ai_{k+1}, central differences at step 1e-5
        step = 1e-5
        for s in self.SS:
            fd = (ai_k(k, s + step) - ai_k(k, s - step)) / (2 * step)
            assert fd == pytest.approx(-ai_k(k + 1.0, s), abs=1e-6)

    @pytest.mark.parametrize("k", KS)
    def test_monotone_reconstruction(self, k):
        # Ai_k(s) = int_s^(s+40) Ai_{k+1}; the tail beyond 40 is negligible
        for s in self.SS:
            panels = np.linspace(s, s + 40.0, 81)
            gx, gw = np.polynomial.legendre.leggauss(12)
            total = 0.0
            for lo, hi in zip(panels[:-1], panels[1:]):
                nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
                total += 0.5 * (hi - lo) * float(np.sum(gw * ai_k(k + 1.0, nodes)))
            assert total == pytest.approx(ai_k(k, s), abs=1e-6)


class TestPositivity:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_half_integer_antiderivatives_positive(self, d):
        grid = np.arange(-30.0, 10.0 + 1e-9, 0.05)
        vals = ai_k(-d / 2.0, grid)
        assert np.all(vals > 0.0), f"min {vals.min()} at s={grid[np.argmin(vals)]}"


class TestProductFormula:
    def test_diagonal_identity_on_grid(self):
        for x in np.arange(-5.0, 5.0001, 0.1):
            lhs = ai(x) ** 2
            rhs = 2.0 ** (-1.0 / 6.0) / SQRT_2PI * ai_k(-0.5, 2.0 ** (2.0 / 3.0) * x)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))
            assert abs(lhs - rhs) < 1e-8

    def test_general_arguments_by_contour_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.uniform(-3.0, 3.0, 2)
            assert airy_product_contour(x, y) == pytest.approx(
                ai(x) * ai(y), abs=1e-6)


class TestMethodAgreement:
    @pytest.mark.parametrize("k", [-0.5, -1.0, -1.5, -2.0, -2.5])
    def test_contour_vs_gamma_integral(self, k):
        for s in np.arange(-10.0, 10.0 + 1e-9, 2.5):
            a = ai_k(k, float(s), method="contour")
            b = ai_k(k, float(s), method="gamma_integral")
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestAsymptotics:
    def test_right_tail_weight_minus_one(self):
        exact = ai_k(-1.0, 25.0)
        approx = ai_k_asymptotic(-1.0, 25.0)
        assert abs(approx / exact - 1.0) < 1e-4

    def test_left_tail_weight_minus_one(self):
        # ai_k(-1, -25) is the expansion itself, so the reference is mpmath's
        pytest.importorskip("mpmath")
        exact = float(_mp_ai_k(-1.0, -25.0))
        approx = ai_k_asymptotic(-1.0, -25.0)
        oscillation_amplitude = 25.0 ** (-3.0 / 4.0) / math.sqrt(math.pi)
        assert abs(approx - exact) < 0.1 * oscillation_amplitude

    def test_weight_zero_right_tail(self):
        assert ai_k_asymptotic(0.0, 10.0) == pytest.approx(ai(10.0), rel=5e-4)

    def test_refuses_small_arguments(self):
        with pytest.raises(ValueError):
            ai_k_asymptotic(-1.0, 3.0)

    def test_oscillatory_phase_exponent_is_three_halves(self):
        # the 3/2-power phase matches mpmath; a 2/3-power phase does not
        pytest.importorskip("mpmath")
        s = -25.0
        exact = float(_mp_ai_k(-1.0, s))
        kappa = 1.0
        x = abs(s)
        series = 1.0  # j = 0 term; higher j hit Gamma poles for kappa = 1
        amp = 1.0 / (math.sqrt(math.pi) * x ** ((2 * kappa + 1) / 4.0))
        phase_ok = series + amp * math.sin(2.0 / 3.0 * x ** 1.5 - math.pi / 4.0)
        phase_typo = series + amp * math.sin(2.0 / 3.0 * x ** (2.0 / 3.0) - math.pi / 4.0)
        assert abs(phase_ok - exact) < 0.1 * amp
        assert abs(phase_typo - exact) > abs(phase_ok - exact)


class TestContourIntegral:
    def test_matches_gamma_route_for_generic_weight(self):
        val = contour_integral(-1.25, 0.7)
        ref = quad(lambda rho: ai(0.7 + rho) * rho ** 0.25, 0.0, 40.0,
                   limit=200)[0] / math.gamma(1.25)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_extra_factor_bounded_path(self):
        # exp(-c/T) extra factors stay on the principal branch
        val = contour_integral(-0.5, 1.0, extra=lambda t: np.exp(-0.3 / t))
        assert math.isfinite(val)


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _gl_panel_reference(a, b, n):
    x, w = _leggauss(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def _upper_path_reference(s_ref):
    """The per-panel path construction airy._upper_path replaced: its == oracle."""
    nodes = []
    weights = []
    direc = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))

    def _extend_ray(base, s_anchor):
        peak = (base ** 3 / 3.0 - base * s_anchor).real
        r = 0.0
        for _ in range(120):
            x, w = _gl_panel_reference(r, r + 1.0, 24)
            t = base + x * direc
            nodes.append(t)
            weights.append(w * direc)
            r += 1.0
            t_end = base + r * direc
            if (t_end ** 3 / 3.0 - t_end * s_anchor).real < peak - 46.0:
                break
            peak = max(peak, np.max((t ** 3 / 3.0 - t * s_anchor).real))

    if s_ref >= -2.0:
        t0 = max(1.0, math.sqrt(max(s_ref, 0.0)))
        _extend_ray(complex(t0, 0.0), s_ref)
    else:
        mag = abs(s_ref)
        a = min(1.0, 1.0 / math.sqrt(mag))
        y_top = math.sqrt(mag)
        n_panels = max(4, int(math.ceil((2.0 / 3.0) * mag ** 1.5 / 2.5)))
        edges = np.linspace(0.0, y_top, n_panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            y, w = _gl_panel_reference(lo, hi, 16)
            nodes.append(a + 1j * y)
            weights.append(1j * w)
        _extend_ray(complex(a, y_top), s_ref)
    return np.concatenate(nodes), np.concatenate(weights)


def _upper_path_panel_loop(s_ref):
    """airy._upper_path as it built the ray before, one unit panel at a time:
    the == oracle of the blocked ray construction."""
    direc = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    if s_ref >= -2.0:
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
    ray_nodes, ray_weights = airy._ray_panels()
    peak = (base ** 3 / 3.0 - base * s_ref).real
    for r in range(airy._RAY_PANELS):
        t = base + ray_nodes[r] * direc
        nodes.append(t)
        weights.append(ray_weights[r] * direc)
        t_end = base + (r + 1.0) * direc
        if (t_end ** 3 / 3.0 - t_end * s_ref).real < peak - 46.0:
            break
        peak = max(peak, np.max((t ** 3 / 3.0 - t * s_ref).real))
    return np.concatenate(nodes), np.concatenate(weights)


class TestContourPath:
    def test_blocked_ray_equals_the_panel_loop_on_every_anchor(self):
        # every anchor the contour route uses, |s| <= 200
        for s_ref in np.arange(-200.0, 200.25, 0.5).tolist():
            nodes, weights = airy._upper_path.__wrapped__(s_ref)
            ref_nodes, ref_weights = _upper_path_panel_loop(s_ref)
            assert nodes.shape == ref_nodes.shape
            assert np.all(nodes == ref_nodes) and np.all(weights == ref_weights)

    def test_panels_equal_a_loop_over_panels(self):
        edges = np.concatenate([[-3.7], np.sort(np.random.default_rng(3).uniform(-3, 5, 9))])
        nodes, weights = quadrature.panels(edges, 12)
        ref = [_gl_panel_reference(lo, hi, 12) for lo, hi in zip(edges[:-1], edges[1:])]
        assert np.array_equal(nodes, np.concatenate([x for x, _ in ref]))
        assert np.array_equal(weights, np.concatenate([w for _, w in ref]))

    def test_path_equals_per_panel_construction(self):
        # both sides of the saddle switch at s = -2, its edge and the
        # endpoints of [-60, 10]
        rng = np.random.default_rng(8)
        grid = np.concatenate([np.linspace(-60.0, 10.0, 281), rng.uniform(-60.0, 10.0, 60),
                               [-2.0, np.nextafter(-2.0, -3.0), -1.9999, 0.0]])
        airy._upper_path.cache_clear()
        for s_ref in grid:
            nodes, weights = airy._upper_path(float(s_ref))
            ref_nodes, ref_weights = _upper_path_reference(float(s_ref))
            assert nodes.shape == ref_nodes.shape
            assert np.all(nodes == ref_nodes) and np.all(weights == ref_weights)

    def test_cached_path_is_shared_and_read_only(self):
        airy._upper_path.cache_clear()
        first = airy._upper_path(-7.5)
        assert airy._upper_path(np.float64(-7.5)) is first
        for arr in first:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_weights_at_one_argument_share_one_path(self):
        airy._memo.clear()
        airy._upper_path.cache_clear()
        for k in (-1.0, -0.5, 0.5, 1.5):
            ai_k(k, -3.3)
        info = airy._upper_path.cache_info()
        assert (info.misses, info.hits) == (1, 3)


class TestSharedContourExponential:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_caustic_matrix_equals_three_scalar_weights(self, d):
        # s = 2 u1 runs over [-12, 6]; Ai_(2-d/2) enters through the
        # recurrence, Ai_(2-d/2) / Ai_(-d/2) = s + d tangential
        frame = CausticFrame.from_point(np.eye(d)[0])
        for u1 in np.arange(-6.0, 3.0 + 1e-9, 0.05):
            u = u1 * frame.x0
            airy._memo.clear()
            got = omega_caustic_scaled(frame, u).omega
            airy._memo.clear()
            s = 2.0 * frame.normal_component(u)
            base = ai_k(-d / 2.0, s)
            tangential = 0.5 * ai_k(-1.0 - d / 2.0, s) / base
            radial = s + d * tangential - (ai_k(1.0 - d / 2.0, s) / base) ** 2
            want = radial * np.outer(frame.x0, frame.x0) + tangential * np.eye(d)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_recurrence_lifts_the_weight_by_two(self, d):
        # Ai_(k+2)(s) = s Ai_k(s) - k Ai_(k-1)(s) at k = -d/2, by parts on the
        # contour: the tube's fourth weight is redundant
        s = np.linspace(-10.0, 20.0, 121)
        base, second, lower = airy.ai_k_family((-d / 2.0, 2.0 - d / 2.0, -1.0 - d / 2.0), s)
        scale = np.maximum(np.abs(s * base), d / 2.0 * np.abs(lower))
        assert np.max(np.abs(second - (s * base + d / 2.0 * lower)) / scale) <= 2e-14

    def test_family_fills_the_memo_that_ai_k_reads(self, monkeypatch):
        ks = (-1.5, 0.5, -0.5, -2.5)
        airy._memo.clear()
        values = airy.ai_k_family(ks, -4.7)
        assert all((k, -4.7) in airy._memo for k in ks)

        def no_path(s_ref):
            raise AssertionError("ai_k missed the memo")

        monkeypatch.setattr(airy, "_upper_path", no_path)
        assert [ai_k(k, -4.7) for k in ks] == values

    def test_family_reads_the_memo_that_ai_k_fills(self):
        airy._memo.clear()
        first = ai_k(-1.0, 0.25)
        airy._memo[(-1.0, 0.25)] = 123.0  # a hit must return the memo entry
        assert airy.ai_k_family((-1.0, -2.0), 0.25) == [123.0, ai_k(-2.0, 0.25)]
        airy._memo.clear()
        assert airy.ai_k_family((-1.0,), 0.25) == [first]

    def test_family_uses_the_asymptotic_expansion_beyond_200(self):
        assert airy.ai_k_family((-1.0, 0.0), 250.0) == [ai_k(-1.0, 250.0), ai_k(0.0, 250.0)]
        with pytest.raises(ValueError, match="finite s"):
            airy.ai_k_family((-1.0,), math.nan)


def _mp_ai_k(k, s):
    """Ai_k(s) as an mpmath number, from the Maclaurin series

        Ai_k(s) = sum_n (-s)^n / n! Ai_{k+n}(0),  Ai_j(0) = 3^((j-2)/3) / Gamma((2-j)/3)

    (the contour integral expanded in s; 1/Gamma is 0 at its poles).  The
    terms peak near e^((2/3)|s|^(3/2)) = 10^(0.29 |s|^(3/2)), and for s > 0
    the sum is as far below 1, so the series carries 30 + 0.3 |s|^(3/2)
    digits (0.6 s^(3/2) for s > 0) and keeps ~30 significant ones.  Any real
    k works, and there is no endpoint singularity to cost digits.

    The sum runs in fixed point on Python integers, scaled by 2^bits.  The
    first three terms come from mpmath, and each term gives the one three
    further on by the exact rational step
    c_(n+3) = c_n s^3 (1 + k + n) / ((n+1)(n+2)(n+3)) (k and s are binary
    fractions), rounded toward 0; the sum stops after three all-zero steps.
    mpmath keeps its Gamma coefficients for the highest precision asked so
    far, so a batch is cheapest deepest point first.
    """
    import mpmath

    digits = 30 + int((0.6 if s > 0 else 0.3) * abs(float(s)) ** 1.5)
    bits = int(digits * 3.33) + 64
    s_num, s_den = float(s).as_integer_ratio()
    k_num, k_den = float(k).as_integer_ratio()
    with mpmath.workdps(digits + 20):
        kk, ss = mpmath.mpf(k), mpmath.mpf(s)
        terms = [int(mpmath.nint(mpmath.ldexp(
            (-ss) ** r / math.factorial(r) * mpmath.power(3, (kk + r - 2) / 3)
            * mpmath.rgamma((2 - kk - r) / 3), bits))) for r in range(3)]
    total, n, quiet = 0, 0, 0
    while quiet < 3:
        total += sum(terms)
        quiet = quiet + 1 if not any(terms) else 0
        for r in range(3):
            num = terms[r] * s_num ** 3 * (k_den * (n + r + 1) + k_num)
            den = s_den ** 3 * k_den * (n + r + 1) * (n + r + 2) * (n + r + 3)
            terms[r] = num // den if num >= 0 else -(-num // den)
        n += 3
    with mpmath.workdps(digits):
        return mpmath.ldexp(mpmath.mpf(total), -bits)


def _mp_ai_k_tau(k, s):
    """Ai_k(s) for k < 0 from the antiderivative form with rho = tau^2,

        Ai_{-kappa}(s) = (2/Gamma(kappa)) int_0^inf Ai(s + tau^2) tau^(2 kappa - 1) dtau,

    smooth at tau = 0, by mpmath Gauss-Legendre panels of width 1/4 (~0.3 s a
    point, which is why the series above is the oracle on whole grids)."""
    import mpmath

    with mpmath.workdps(20):
        kappa, s = -mpmath.mpf(k), mpmath.mpf(s)
        upper = mpmath.sqrt(max(4, 40 - s))
        edges = mpmath.linspace(0, upper, int(4 * upper) + 2)
        total = mpmath.quad(lambda tau: mpmath.airyai(s + tau * tau) * tau ** (2 * kappa - 1),
                            edges, method="gauss-legendre")
        return 2 * total / mpmath.gamma(kappa)


TUBE_WEIGHTS = {d: (-d / 2.0, 2.0 - d / 2.0, 1.0 - d / 2.0, -1.0 - d / 2.0) for d in (2, 3)}


class TestAnchorLatticeTable:
    """One table routine: paths on the lattice h floor(s / h), one block per anchor."""

    @pytest.mark.parametrize("ks", [TUBE_WEIGHTS[2], TUBE_WEIGHTS[3], (-1.5,)])
    def test_value_does_not_depend_on_the_table(self, ks):
        rng = np.random.default_rng(15)
        s = np.concatenate([np.linspace(-40.0, 10.0, 61), rng.uniform(-40.0, 10.0, 20),
                            [-2.0, np.nextafter(-2.0, -3.0), -0.5, 0.0, 7.25, -200.0, 200.0]])
        table = airy.ai_k_family(ks, s)
        perm = rng.permutation(s.size)
        assert np.array_equal(airy.ai_k_family(ks, s[perm]), table[:, perm])
        airy._memo.clear()
        for j, x in enumerate(s):
            assert np.array_equal(airy.ai_k_family(ks, s[j:j + 1])[:, 0], table[:, j])
            assert airy.ai_k_family(ks, float(x)) == table[:, j].tolist()
        airy._memo.clear()
        for i, k in enumerate(ks):
            assert [ai_k(k, float(x)) for x in s] == table[i].tolist()
            assert np.array_equal(ai_k(k, s), table[i])

    def test_chunked_rows_change_no_value(self, monkeypatch):
        s = np.linspace(-30.0, 8.0, 301)
        whole = airy.ai_k_family(TUBE_WEIGHTS[3], s)
        monkeypatch.setattr(airy, "_BLOCK_ENTRIES", 1500)  # a row or two per block
        assert np.array_equal(airy.ai_k_family(TUBE_WEIGHTS[3], s), whole)

    def test_one_path_per_anchor(self):
        airy._upper_path.cache_clear()
        ai_k(-1.5, np.array([-2.4, -2.1, -2.0, -1.6, 0.2, 0.45, 0.5]))
        info = airy._upper_path.cache_info()
        assert (info.misses, info.hits) == (4, 0)  # anchors -2.5, -2, 0 and 0.5

    def test_series_oracle_is_the_antiderivative_form(self):
        pytest.importorskip("mpmath")
        assert float(_mp_ai_k(-1.5, -7.3)) == pytest.approx(float(_mp_ai_k_tau(-1.5, -7.3)),
                                                             rel=1e-15)

    def test_table_matches_mpmath(self):
        pytest.importorskip("mpmath")
        s = np.linspace(-40.0, 10.0, 40)
        got = ai_k(-1.5, s)
        want = np.array([float(_mp_ai_k(-1.5, x)) for x in s])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 3e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_tube_omega_matches_mpmath(self, d):
        mpmath = pytest.importorskip("mpmath")
        frame = CausticFrame.from_point(np.eye(d)[0])
        u1 = np.linspace(-6.0, 3.0, 16)
        got = np.array([m.omega for m in omega_caustic_scaled(frame, np.outer(u1, frame.x0))])
        want = np.empty_like(got)
        with mpmath.workdps(30):
            for i, x in enumerate(u1):
                base, second, first, lower = (_mp_ai_k(k, 2.0 * x) for k in TUBE_WEIGHTS[d])
                radial = float(second / base - (first / base) ** 2)
                tangential = float(lower / (2 * base))
                want[i] = radial * np.outer(frame.x0, frame.x0) + tangential * np.eye(d)
        assert np.max(np.abs(got - want)) <= 3e-14 * np.max(np.abs(want))

    def test_array_takes_the_asymptotic_switch_element_by_element(self):
        s = np.array([-250.0, -1000.0, 250.0, -3.0])
        got = ai_k(-1.0, s)
        assert got.tolist() == [ai_k(-1.0, float(x)) for x in s]
        assert got[:3].tolist() == [ai_k_asymptotic(-1.0, x) for x in s[:3]]
        assert airy.ai_k_family((-1.0, 0.0), s)[:, 1].tolist() == [ai_k(-1.0, -1000.0),
                                                                    ai_k(0.0, -1000.0)]

    def test_contour_method_stops_at_the_switch(self):
        # the contour still serves |s| <= 200 on request; auto leaves it below -16
        assert ai_k(-1.0, -200.0, method="contour") == \
            airy._ai_k_contour((-1.0,), np.array([-200.0]))[0, 0]
        assert ai_k(-1.0, -16.0, method="contour") == ai_k(-1.0, -16.0)
        assert ai_k(-1.0, np.array([-200.0, 200.0]), method="contour").tolist() == \
            airy._ai_k_contour((-1.0,), np.array([-200.0, 200.0]))[0].tolist()
        with pytest.raises(ValueError, match="contour route"):
            ai_k(-1.0, np.array([0.0, -250.0]), method="contour")


class TestAsymptoticEdges:
    def test_array_input_is_expanded_element_by_element(self):
        s = np.array([[10.0, 20.0], [-17.0, -300.0]])
        got = ai_k(-1.5, s, method="asymptotic")
        assert got.shape == s.shape
        assert got.ravel().tolist() == [ai_k_asymptotic(-1.5, x) for x in s.ravel()]
        with pytest.raises(ValueError, match="needs"):
            ai_k(-1.5, np.array([10.0, 3.0]), method="asymptotic")

    @pytest.mark.parametrize("s", [-15.99, -12.0, -8.0, -3.0])
    def test_left_expansion_refuses_s_above_the_switch(self, s):
        # on (-16, -8] the left expansion was silently off by up to 1.9e-6
        # against the contour (k = -2.5, s = -8)
        with pytest.raises(ValueError, match=r"s <= -16\.0"):
            ai_k_asymptotic(-2.5, s)
        with pytest.raises(ValueError, match=r"s <= -16\.0"):
            ai_k(-1.0, np.array([-20.0, s]), method="asymptotic")

    @pytest.mark.parametrize("s", [1e308, -1e308])
    def test_overflow_is_a_value_error(self, s):
        for k in (-1.0, 0.0, -2.5):
            with pytest.raises(ValueError, match="overflows"):
                ai_k(k, s)
            with pytest.raises(ValueError, match="overflows"):
                ai_k(k, np.array([0.0, s]))


#: the weights the left expansion is checked at
LEFT_WEIGHTS = (-2.5, -2.0, -1.5, -1.25, -1.0, -0.5, 0.0, 0.5, 1.0)


def _left_points(seed, count=40):
    """`count` points of [-200, EXPANSION_SWITCH), deepest first: -199.9, the
    float just below the switch, and the rest log-uniform in |s|, so that half
    lie within a factor 3.5 of the switch, where the expansion has the fewest
    digits to spare."""
    rng = np.random.default_rng(seed)
    inner = -np.exp(rng.uniform(math.log(-airy.EXPANSION_SWITCH), math.log(200.0), count - 2))
    return np.concatenate([[-199.9], np.sort(inner),
                           [np.nextafter(airy.EXPANSION_SWITCH, -np.inf)]])


def _left_scale(k, s, values):
    """max(|Ai_k|, |s|^(k/2-1/4)/sqrt(pi)): the size of the oscillation."""
    return np.maximum(np.abs(values), np.abs(s) ** (k / 2.0 - 0.25) / math.sqrt(math.pi))


class TestLeftExpansion:
    """Below EXPANSION_SWITCH auto sums the branch-point and the saddle series."""

    @pytest.mark.parametrize("k", LEFT_WEIGHTS)
    def test_matches_mpmath_below_the_switch(self, k):
        pytest.importorskip("mpmath")
        s = _left_points(round(4 * k) + 10)
        got = ai_k(k, s)
        want = np.array([float(_mp_ai_k(k, x)) for x in s])
        assert np.max(np.abs(got - want) / _left_scale(k, s, want)) <= 2e-15

    def test_saddle_coefficients_at_weight_zero_are_dlmf(self):
        # DLMF 9.7.2: u_q = (6q-5)(6q-3)(6q-1) / ((2q-1) 216 q) u_(q-1), u_0 = 1,
        # and a_q (2/3)^q = (-1)^q sqrt(pi) u_q
        a = airy._saddle_coefficients(0.0)
        assert a[0] == math.sqrt(math.pi)
        u = Fraction(1)
        for q in range(1, 7):
            u *= Fraction((6 * q - 5) * (6 * q - 3) * (6 * q - 1), (2 * q - 1) * 216 * q)
            want = (-1) ** q * math.sqrt(math.pi) * float(u * Fraction(3, 2) ** q)
            assert a[q] == pytest.approx(want, rel=1e-15)

    def test_value_is_the_same_alone_shuffled_and_beside_other_weights(self):
        rng = np.random.default_rng(22)
        s = np.concatenate([-np.exp(rng.uniform(math.log(16.0), math.log(1e9), 200)),
                            [np.nextafter(-16.0, -17.0), -200.0, -200.1, -1e9]])
        ks = TUBE_WEIGHTS[3] + (0.0, -1.5)
        table = airy.ai_k_family(ks, s)
        perm = rng.permutation(s.size)
        assert np.array_equal(airy.ai_k_family(ks, s[perm]), table[:, perm])
        for j, x in enumerate(s.tolist()):
            assert airy.ai_k_family(ks, x) == table[:, j].tolist()
            assert [ai_k(k, x) for k in ks] == table[:, j].tolist()
        for i, k in enumerate(ks):
            assert np.array_equal(ai_k(k, s.reshape(2, -1)).ravel(), table[i])
            assert np.array_equal(ai_k(k, s[:7]), table[i, :7])
            assert np.array_equal(ai_k(k, s, method="asymptotic"), table[i])
        assert ai(s[s < -200.0]).tolist() == table[ks.index(0.0), s < -200.0].tolist()

    @pytest.mark.parametrize("k", LEFT_WEIGHTS)
    def test_both_sides_of_the_switch_agree(self, k):
        s0 = airy.EXPANSION_SWITCH
        s = s0 + np.linspace(-1.0, 0.0, 21)   # the expansion takes s <= s0 only
        expansion = ai_k_asymptotic(k, s)
        contour = ai_k(k, s, method="contour")
        assert np.max(np.abs(expansion - contour) / _left_scale(k, s, contour)) <= 1e-13
        below = np.nextafter(s0, -np.inf)
        auto = ai_k(k, np.array([below, s0]))
        assert auto.tolist() == [ai_k_asymptotic(k, below), ai_k(k, s0, method="contour")]
        assert abs(auto[0] - auto[1]) <= 1e-13 * _left_scale(k, s0, auto[1])

    def test_ai_below_the_table_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for x in (-200.1, -250.3, -1000.7):
                ref = float(mp.airyai(x))
                assert abs(ai(x) - ref) <= 1e-14 * max(abs(ref), _envelope(x))
            # the phase (2/3)|s|^(3/2) is ~2e13 at s = -1e9
            for x in (-1e6, -1e9):
                assert abs(ai_k(0.0, x) - float(mp.airyai(x))) <= 1e-12

    def test_refuses_beyond_the_phase_limit(self):
        assert math.isfinite(ai_k(-1.5, -airy.PHASE_LIMIT))
        for bad in (np.nextafter(-airy.PHASE_LIMIT, -np.inf), -1e12):
            with pytest.raises(ValueError, match=r"s >= -1e\+10"):
                ai_k(-1.5, bad)
            with pytest.raises(ValueError, match=r"s >= -1e\+10"):
                ai(np.array([0.0, bad]))


class TestGammaIntegral:
    """The antiderivative form on one fixed Gauss-Legendre rule, reading ai alone."""

    GRIDS = [(-1.5, np.arange(-40.0, 10.0 + 1e-9, 0.5))] + \
        [(k, np.arange(-10.0, 10.0 + 1e-9, 0.5)) for k in (-0.5, -1.0, -2.0, -2.5)]

    def test_matches_mpmath(self):
        pytest.importorskip("mpmath")
        for k, s in self.GRIDS:
            got = ai_k(k, s, method="gamma_integral")
            want = np.array([float(_mp_ai_k(k, x)) for x in s])
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14, k
        for k in (-0.5, -1.5, -2.5):
            for x in (-200.0, -150.3, -100.7, -60.2):   # deepest first (_mp_ai_k)
                want = float(_mp_ai_k(k, x))
                got = ai_k(k, x, method="gamma_integral")
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, x)

    def test_value_is_the_same_alone_and_in_any_array(self):
        rng = np.random.default_rng(26)
        s = np.concatenate([rng.uniform(-200.0, 20.0, 24), [-200.0, -2.0, 0.0, 13.5]])
        alone = [ai_k(-1.5, x, method="gamma_integral") for x in s.tolist()]
        assert all(isinstance(v, float) for v in alone)
        assert ai_k(-1.5, s, method="gamma_integral").tolist() == alone
        perm = rng.permutation(s.size)
        assert ai_k(-1.5, s[perm], method="gamma_integral").tolist() == [alone[i] for i in perm]
        assert ai_k(-1.5, s.reshape(4, -1), method="gamma_integral").ravel().tolist() == alone

    def test_reads_neither_the_contour_nor_an_expansion(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the gamma_integral route left ai's Taylor table")
        for name in ("contour_integral", "_ai_k_contour", "_ai_k_left", "_family"):
            monkeypatch.setattr(airy, name, forbidden)
        airy._memo.clear()
        assert math.isfinite(ai_k(-1.5, -200.0, method="gamma_integral"))
        assert not airy._memo

    def test_refuses_below_the_table(self):
        assert math.isfinite(ai_k(-2.5, -200.0, method="gamma_integral"))
        for bad in (np.nextafter(-200.0, -np.inf), -250.0):
            with pytest.raises(ValueError, match=r"gamma_integral route takes s >= -200"):
                ai_k(-1.5, bad, method="gamma_integral")
            with pytest.raises(ValueError, match=r"s >= -200"):
                ai_k(-1.5, np.array([0.0, bad]), method="gamma_integral")
