"""Exact kernel vs residue integral, diagonal jets, and operator identities."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oscnodal import (
    covariance_jet,
    covariance_jet_batch,
    level_new,
    pi_exact,
    pi_exact_batch,
    pi_mehler,
)
from oscnodal.cli import main, read_table
from oscnodal import projector
from oscnodal.projector import (
    _PLANAR_CONDITION_MAX,
    _conv_full,
    _conv_last,
    _fold,
    _planar_sums,
    _zero_series,
    read_batch_csv,
)
from oscnodal.projector import CovarianceJet
from oscnodal.semiclassical import (
    ResourceLimitError,
    TrackedReal,
    _PI_LD,
    _laguerre_mantexp,
    _phi_deriv_mantexp,
    _phi_mantexp,
)


def unit(v):
    return v / np.linalg.norm(v)


class TestSaddleRadius:
    # pi_mehler's circle from the closed-form saddles of z^(-N) exp(-ss(z)/hbar)

    @pytest.mark.parametrize("n", [40, 400, 1600])
    def test_diagonal_closed_form(self, n):
        # on the diagonal w = z + 1/z is 2 or 2|x|^2/c - 2: |x| < 1 keeps the
        # saddles on the rim (the radius is the cap), |x| > 1 has the real
        # saddle z = (w - sqrt(w^2 - 4)) / 2 < 1
        level = level_new(3, n)
        c, cap = n * level.hbar, 1 - projector._RIM_MARGIN / (n + projector._RIM_MARGIN)
        for r in (0.0, 0.3, 0.9, 0.99, 1.01, 1.1, 1.3):
            x = r * unit(np.array([1.0, -2.0, 0.5]))
            w = 2 * r * r / c - 2
            saddle = (w - math.sqrt(w * w - 4)) / 2 if w > 2 else 1.0
            assert projector._saddle_radius(level, x, x) == pytest.approx(min(saddle, cap),
                                                                         rel=1e-12)

    @pytest.mark.parametrize("x,y", [((1.2, 0.1), (1.1, 0.0)), ((1.05, 0.0), (1.05, 0.02)),
                                     ((0.9, -0.9), (0.85, -0.8))])
    def test_real_saddle_is_stationary(self, x, y):
        # phi(r) = -N log r - ss(r)/hbar on the real axis: phi'(r) ~ 0 by
        # central differences, against the size N/r of either term
        level = level_new(2, 800)
        x, y = np.array(x), np.array(y)
        r = projector._saddle_radius(level, x, y)
        assert r < 1 - projector._RIM_MARGIN / (level.N + projector._RIM_MARGIN)
        a, b = (x @ x + y @ y) / 2, x @ y

        def phi(z):
            return -level.N * math.log(z) - ((1 + z * z) * a - 2 * z * b) / (1 - z * z) / level.hbar

        h = 1e-6
        assert abs(phi(r + h) - phi(r - h)) / (2 * h) <= 1e-6 * level.N / r

    @pytest.mark.parametrize("x,y", [((1.2, 0.1), (1.1, 0.0)), ((1.05, 0.0), (1.02, 0.1)),
                                     ((1.3, 0.0), (0.9, 0.1)), ((0.2, 0.1), (0.1, 0.3))])
    def test_radius_is_the_smallest_root_of_the_quartic(self, x, y):
        # real and complex w alike: the smallest modulus among the roots of
        # c z^4 - 2B z^3 + (4A - 2c) z^2 - 2B z + c, capped below the rim
        level = level_new(2, 800)
        x, y = np.array(x), np.array(y)
        a, b, c = (x @ x + y @ y) / 2, x @ y, level.N * level.hbar
        roots = np.roots([c, -2 * b, 4 * a - 2 * c, -2 * b, c])
        cap = 1 - projector._RIM_MARGIN / (level.N + projector._RIM_MARGIN)
        assert projector._saddle_radius(level, x, y) == pytest.approx(
            min(np.abs(roots).min(), cap), rel=1e-9)

    def test_allowed_pairs_take_the_rim(self):
        level = level_new(2, 1600)
        cap = 1 - projector._RIM_MARGIN / (level.N + projector._RIM_MARGIN)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = 0.95 * rng.random() * unit(rng.standard_normal(2))
            y = x + 0.02 * rng.standard_normal(2)
            assert projector._saddle_radius(level, x, y) == cap


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestPiExact:
    def test_symmetry_in_arguments(self):
        level = level_new(2, 30)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, y = rng.uniform(-1.2, 1.2, (2, 2))
            a = pi_exact(level, x, y)
            b = pi_exact(level, y, x)
            assert a.to_float() == pytest.approx(b.to_float(), rel=1e-12)

    def test_rotation_invariance(self):
        level = level_new(2, 30)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.uniform(-1.0, 1.0, (2, 2))
            rot = rotation(rng.uniform(0, 2 * math.pi))
            a = pi_exact(level, x, y).to_float()
            b = pi_exact(level, rot @ x, rot @ y).to_float()
            assert b == pytest.approx(a, rel=1e-10)

    def test_trace_equals_dimension(self):
        # radial quadrature of the rotation-invariant diagonal: 2 pi int Pi r dr
        level = level_new(2, 10)
        gx, gw = np.polynomial.legendre.leggauss(400)
        r = 1.5 + 1.5 * gx
        w = 1.5 * gw
        vals = np.array([pi_exact(level, [ri, 0.0]).to_float() for ri in r])
        trace = 2 * math.pi * float(np.sum(w * vals * r))
        assert trace == pytest.approx(11.0, rel=1e-6)

    def test_d1_kernel_is_rank_one(self):
        level = level_new(1, 5)
        from oscnodal import hermite_all
        x, y = 0.4, -0.7
        expect = hermite_all(level, x)[5].to_float() * hermite_all(level, y)[5].to_float()
        assert pi_exact(level, [x], [y]).to_float() == pytest.approx(expect, rel=1e-12)

    def test_budget_guard(self):
        # pairs at d >= 3 cost d (N+1)^2, jets d (N+1), against DEFAULT_DIM_BUDGET = 1e8
        with pytest.raises(ResourceLimitError, match=r"d \(N\+1\)\^2 = 1\.44e\+08 exceeds"):
            pi_exact(level_new(4, 6000), np.zeros(4))
        with pytest.raises(ResourceLimitError, match=r"d \(N\+1\) = 1e\+08 exceeds"):
            covariance_jet(level_new(100, 10**6), np.zeros(100))

    @pytest.mark.parametrize("d, n, x", [(2, 1600, 500.0), (3, 200, 1500.0)])
    def test_sums_below_two_to_the_minus_two_to_the_30(self, d, n, x):
        # every term's exponent is below -2^30: the kernel and the jet's Pi at
        # x e1 against sum_a phi_a(x)^2 D(N - a), D the zero-coordinate sums,
        # in TrackedReal arithmetic from hermite_all
        level = level_new(d, n)
        from oscnodal import hermite_all
        at_x, at_0 = hermite_all(level, x), hermite_all(level, 0.0)
        zero = [a * a for a in at_0]
        for _ in range(d - 2):
            zero = [sum((zero[j] * at_0[k - j] * at_0[k - j] for j in range(k + 1)),
                        TrackedReal(0.0)) for k in range(n + 1)]
        ref = sum((a * a * zero[n - k] for k, a in enumerate(at_x)), TrackedReal(0.0))
        assert ref.exponent < -2**30
        point = [x] + [0.0] * (d - 1)
        for value in (pi_exact(level, point), covariance_jet(level, point).pi):
            assert (value / ref).to_float() == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("x", [[1.9e7, 0.0], [1.4e7, -1.4e7], [1e8, 0.0], [1e12, 0.0]])
    def test_points_beyond_the_recurrence_range_are_refused(self, x):
        # |x| <= 2^30 sqrt(hbar) = 1.898e7 at N = 1600; beyond it the exponents
        # leave int64 (a silent 0 at (1e8, 0)) and the recurrence overflows
        # (NaN at (1e12, 0))
        level = level_new(2, 1600)
        match = r"\|x\| <= 2\^30 sqrt\(hbar\) = 1\.898e\+07 at N = 1600"
        with pytest.raises(ValueError, match=match):
            pi_exact(level, x)
        with pytest.raises(ValueError, match=match):
            pi_exact_batch(level, [[0.1, 0.2]], [x])
        with pytest.raises(ValueError, match=match):
            covariance_jet(level, x)
        assert pi_exact(level, [1.89e7, 0.0]).mantissa > 0

    def test_forbidden_region_tracked_exponent(self):
        # deep forbidden value is ~e^(-1189): far below float underflow
        level = level_new(2, 1600)
        v = pi_exact(level, [1.3, 0.0])
        assert v.mantissa > 0
        assert v.log_abs() < -700


class TestCovarianceJet:
    def test_gradient_vanishes_at_origin_even_degree(self):
        jet = covariance_jet(level_new(2, 30), [0.0, 0.0])
        for g in jet.grad:
            assert g.to_float() == 0.0

    def test_hessian_matches_finite_differences(self):
        level = level_new(2, 40)
        x = np.array([0.5, 0.3])
        h = 1e-5 * math.sqrt(level.hbar)
        jet = covariance_jet(level, x)
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h
                fd = (pi_exact(level, x + ei, x + ej).to_float()
                      - pi_exact(level, x + ei, x - ej).to_float()
                      - pi_exact(level, x - ei, x + ej).to_float()
                      + pi_exact(level, x - ei, x - ej).to_float()) / (4 * h * h)
                assert jet.hess[i][j].to_float() == pytest.approx(fd, rel=1e-5)

    def test_gradient_matches_finite_differences(self):
        level = level_new(2, 40)
        x = np.array([0.5, 0.3])
        h = 1e-5 * math.sqrt(level.hbar)
        jet = covariance_jet(level, x)
        for i in range(2):
            ei = np.eye(2)[i] * h
            fd = (pi_exact(level, x + ei, x).to_float()
                  - pi_exact(level, x - ei, x).to_float()) / (2 * h)
            assert jet.grad[i].to_float() == pytest.approx(fd, rel=1e-5)

    def test_cauchy_schwarz_structure(self):
        # pi > 0, hess PSD, and pi*hess - grad grad^T PSD (Gram structure)
        level = level_new(2, 25)
        for x in ([0.4, 0.1], [0.9, -0.3], [1.2, 0.2]):
            jet = covariance_jet(level, x)
            assert jet.pi.mantissa > 0
            log_pi = jet.pi.log_abs()
            hess = np.array([[(jet.hess[i][j] / jet.pi).to_float()
                              for j in range(2)] for i in range(2)])
            grad = np.array([(g / jet.pi).to_float() for g in jet.grad])
            assert np.linalg.eigvalsh(hess).min() > 0
            schur = hess - np.outer(grad, grad)
            assert np.linalg.eigvalsh(schur).min() > -1e-10 * np.abs(schur).max()
            del log_pi

    def test_one_jet_nondegeneracy(self):
        # the (d+1)x(d+1) covariance of (Phi, grad Phi) is positive definite
        # away from the origin
        level = level_new(2, 17)  # odd degree: the origin itself degenerates
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-1.3, 1.3, 2)
            if np.linalg.norm(x) < 1e-3:
                continue
            jet = covariance_jet(level, x)
            scale = jet.pi
            sigma = np.zeros((3, 3))
            sigma[0, 0] = 1.0
            for i in range(2):
                sigma[0, 1 + i] = sigma[1 + i, 0] = (jet.grad[i] / scale).to_float()
                for j in range(2):
                    sigma[1 + i, 1 + j] = (jet.hess[i][j] / scale).to_float()
            assert np.linalg.eigvalsh(sigma).min() > 0


class TestPiMehler:
    def test_agreement_with_exact_on_random_pairs(self):
        level = level_new(2, 40)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            radii = 1.1 * np.sqrt(rng.random(2))
            angles = rng.random(2) * 2 * math.pi
            x = radii[0] * np.array([math.cos(angles[0]), math.sin(angles[0])])
            y = radii[1] * np.array([math.cos(angles[1]), math.sin(angles[1])])
            exact = pi_exact(level, x, y).to_float()
            approx = pi_mehler(level, x, y)
            assert approx == pytest.approx(exact, rel=1e-8)
            checked += 1

    def test_odd_state_vanishes_at_origin(self):
        level = level_new(1, 3)
        assert pi_mehler(level, [0.0], [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_radius_independence(self):
        # the trapezoid rule behind pi_mehler, on two circles at (1, 0), (1, 0):
        # plus = |x+y|^2 = 4, minus = |x-y|^2 = 0, and 1024 nodes put the
        # upward aliases below e^-40 on both
        level = level_new(2, 30)
        plus, minus = np.longdouble(4.0), np.longdouble(0.0)
        a, b = (mean * math.exp(m) for mean, m in
                (projector._mehler_trapezoid(level, plus, minus, r, 1024) for r in (0.85, 0.95)))
        assert a == pytest.approx(b, rel=1e-9)
        assert pi_mehler(level, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(a, rel=1e-9)

    def test_region_guard(self):
        with pytest.raises(ValueError):
            pi_mehler(level_new(2, 20), [1.4, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("n", [800, 1600])
    def test_allowed_diagonal(self, n):
        # the ROADMAP diagonal: a searched radius in [0.15, 0.93] was off by
        # 4.3e6 (N = 800) and 3.5e28 (N = 1600) without a warning
        level, x = level_new(2, n), np.array([0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pi_mehler(level, x, x) == pytest.approx(pi_exact(level, x).to_float(),
                                                           rel=1e-11)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_near_pairs(self, seed):
        # the d = 2, N = 1600 pairs perfbench/workloads.write_pairs draws for
        # the kernels workload, inside the Mehler reach |x|, |y| <= 1.1
        level, rng = level_new(2, 1600), np.random.default_rng([seed, 0])
        checked = 0
        for r in np.resize([0.6, 1.0, 1.6], 6):
            direction = rng.standard_normal(2)
            x = (r + 0.02 * rng.uniform(-1.0, 1.0)) * direction / np.linalg.norm(direction)
            y = x + 0.05 * rng.standard_normal(2)
            if max(np.linalg.norm(x), np.linalg.norm(y)) <= 1.1:
                exact = pi_exact(level, x, y).to_float()
                assert pi_mehler(level, x, y) == pytest.approx(exact, rel=1e-11)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("n", [400, 1600])
    def test_random_pairs_at_large_n(self, n):
        # pi_exact is the reference only where it is trustworthy: at d = 3
        # where the planar condition is <= 1e4; at d = 2 the near-diagonal
        # pairs are read against the 60-digit planar kernel instead
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        for d in (2, 3):
            level = level_new(d, n)
            checked = 0
            while checked < 6:
                x = 1.1 * rng.random() ** (1 / d) * unit(rng.standard_normal(d))
                y = x + rng.choice([0.0, 0.01, 0.05]) * rng.standard_normal(d)
                if np.linalg.norm(y) > 1.1:
                    continue
                if d == 2:
                    ref = float(mp_kernel_planar(level, x, y))
                else:
                    values, conditions = planar(level, [x], [y])
                    if conditions[0] > 1e4:
                        continue
                    ref = pi_exact(level, x, y).to_float()
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert pi_mehler(level, x, y) == pytest.approx(ref, rel=1e-10), (x, y)
                checked += 1

    def test_edge_cases(self):
        for n, d in ((0, 1), (0, 3), (1, 2), (40, 2), (41, 3)):
            level = level_new(d, n)
            x, y = np.full(d, 0.4), np.linspace(-0.5, 0.6, d)
            zero = np.zeros(d)
            # Pi(x, x) sets the scale: at x = 0 an odd N gives Pi = 0
            scale = pi_exact(level, x).to_float()
            for a, b in ((x, y), (zero, y), (zero, zero), (x, -x)):
                exact = pi_exact(level, a, b).to_float()
                assert abs(pi_mehler(level, a, b) - exact) <= 1e-12 * scale, (n, d, a, b)
            # x.y < 0 is the parity image of x.y > 0, bit for bit
            assert pi_mehler(level, x, -x) == (-1) ** n * pi_mehler(level, x, x)
        x = np.array([0.4, 0.3])
        assert projector._saddle_radius(level_new(2, 0), x, x) == projector._N0_RADIUS

    def test_derivative_contour_cross_check(self):
        # the first-derivative residue integrand (analytic cross-check only;
        # basis-ladder derivatives are the primary path)
        level = level_new(2, 30)
        x = np.array([0.8, 0.0])
        n, d, hb = level.N, level.d, level.hbar
        k_nodes = max(4 * (n + 1), 512)
        r = 0.9
        theta = 2 * np.pi * np.arange(k_nodes) / k_nodes
        z = r * np.exp(1j * theta)
        ss = ((1 + z * z) * (2 * x @ x) / 2 - 2 * z * (x @ x)) / (1 - z * z)
        logf = -ss / hb - n * (math.log(r) + 1j * theta) \
            - (d / 2) * np.log(np.pi * hb * (1 - z * z))
        amp = -(x[0] / hb) * (1 - z) / (1 + z)
        val = float(np.real(np.mean(amp * np.exp(logf))))
        jet = covariance_jet(level, x)
        # d_{x_i} Pi(x,x)|_total = 2 * (one-sided diagonal derivative)
        assert val == pytest.approx(jet.grad[0].to_float(), rel=1e-8)


class TestOperatorIdentities:
    def test_reproducing_property_d1(self):
        # Pi composed with itself under quadrature equals Pi (finite rank)
        for n in (3, 8):
            level = level_new(1, n)
            gx, gw = np.polynomial.legendre.leggauss(500)
            xs = 4.0 * gx
            ws = 4.0 * gw
            from oscnodal.semiclassical import _phi_mantexp
            m, e = _phi_mantexp(level.hbar, n, xs)
            basis = np.ldexp(m, e)
            pi_mat = basis[n][:, None] * basis[n][None, :]
            composed = pi_mat @ (ws[:, None] * pi_mat)
            assert np.max(np.abs(composed - pi_mat)) < 1e-6

    def test_eigenfunction_property(self):
        # (-hbar^2/2 Laplacian + |x|^2/2) Pi(., y) = E Pi(., y) via 5-point
        # finite differences at interior allowed points
        level = level_new(2, 60)
        hb = level.hbar
        step = hb / 20.0
        y = np.array([0.3, -0.2])
        for x in (np.array([0.2, 0.1]), np.array([-0.4, 0.5])):
            center = pi_exact(level, x, y).to_float()
            lap = -4.0 * center
            for offset in (np.array([step, 0]), np.array([-step, 0]),
                           np.array([0, step]), np.array([0, -step])):
                lap += pi_exact(level, x + offset, y).to_float()
            lap /= step * step
            lhs = -0.5 * hb * hb * lap + 0.5 * float(x @ x) * center
            assert lhs == pytest.approx(0.5 * center, rel=1e-3)


def same(a, b):
    return a.mantissa == b.mantissa and a.exponent == b.exponent


def fold_per_coordinate(level, x, y):
    """The fold's (mantissa, exponent) pair for Pi(x, y), one basis recurrence per coordinate."""
    ld = np.longdouble
    arrays = []
    for xj, yj in zip(x, y):
        mx, ex = _phi_mantexp(level.hbar, level.N, [xj], dtype=ld)
        my, ey = _phi_mantexp(level.hbar, level.N, [yj], dtype=ld)
        arrays.append((mx[:, 0] * my[:, 0], ex[:, 0] + ey[:, 0]))
    return _fold(arrays, level.N, ld)


def per_coordinate(level, x, y):
    """Pi(x, y) with one basis recurrence per coordinate: the batch's oracle."""
    return TrackedReal(*fold_per_coordinate(level, x, y))


def tracked_value(t):
    """A TrackedReal as a longdouble value."""
    return np.ldexp(np.longdouble(t.mantissa), t.exponent)


#: the planar sums against the fold at d >= 3, relative to the fold's value
#: (measured: <= 4.2e-14 on the pairs of these tests, most of it the fold's)
PLANAR_RTOL = 1e-13


def matches_fold(level, x, y, v):
    """v is the fold's value: bit for bit at d <= 2, where the batch folds,
    and within PLANAR_RTOL at d >= 3, where it sums in the plane of x and y."""
    want = per_coordinate(level, x, y)
    if level.d <= 2:
        return same(v, want)
    return abs(tracked_value(v) - tracked_value(want)) <= PLANAR_RTOL * abs(tracked_value(want))


def base_e_oracle(m, e2):
    """A base-2 pair as the base-e pair mantissa * e**exponent, by the
    conversion the projector CSV was written with before the integer split
    of exponent * ln 2: log|value| as one float64."""
    m = float(m)
    if m == 0.0:
        return 0.0, 0
    log_abs = int(e2) * math.log(2.0) + math.log(abs(m))
    e = math.floor(log_abs)
    return math.copysign(math.exp(log_abs - e), m), int(e)


def mp_base_e(t):
    """A TrackedReal as the base-e pair (mantissa as an mpf, exponent) at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        log_abs = mpmath.log(abs(mp_value(t.mantissa, t.exponent)))
        e = int(mpmath.floor(log_abs))
        return mpmath.sign(t.mantissa) * mpmath.exp(log_abs - e), e


class TestBatch:
    def test_batch_matches_single_and_round_trips(self, tmp_path):
        level = level_new(2, 15)
        rng = np.random.default_rng(11)
        xs = [rng.uniform(-1, 1, 2) for _ in range(8)]
        ys = [rng.uniform(-1, 1, 2) for _ in range(8)]
        values = pi_exact_batch(level, xs, ys)
        for x, y, v in zip(xs, ys, values):
            assert same(v, pi_exact(level, x, y))
            assert matches_fold(level, x, y, v)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x1,x2,y1,y2\n" + "".join(
            ",".join(repr(float(c)) for c in np.concatenate([x, y])) + "\n"
            for x, y in zip(xs, ys)))
        path = tmp_path / "batch.csv"
        assert main(["projector", "--d", "2", "--N", "15", "--pairs-csv", str(pairs),
                     "-o", str(path)]) == 0
        # written side: the CSV holds to_base_e() of each value exactly
        _, rows = read_table(path)
        assert [tuple(row[4:]) for row in rows] == [v.to_base_e() for v in values]
        # read side: equal up to the base-e format's own rounding
        rx, ry, rv = read_batch_csv(path)
        for a, b in zip(rx + ry, xs + ys):
            assert np.array_equal(a, b)
        assert len(rv) == len(values)
        for a, b in zip(rv, values):
            assert a.log_abs() == pytest.approx(b.log_abs(), rel=4e-15, abs=4e-15)

    @pytest.mark.parametrize("d,n,count", [(2, 40, 12), (2, 1600, 12), (3, 40, 12), (3, 1600, 4)])
    def test_base_e_edge_matches_the_old_conversion(self, d, n, count):
        # the CSV's base-e columns move from those of the old float64
        # conversion by no more than its own rounding of log|value|
        level = level_new(d, n)
        rng = np.random.default_rng(60 + d)
        points = rng.standard_normal((2 * count, d))
        points *= (rng.uniform(0.0, 1.7, 2 * count) / np.linalg.norm(points, axis=1))[:, None]
        xs, ys = points[:count], points[count:]
        for x, y, v in zip(xs, ys, pi_exact_batch(level, xs, ys)):
            m, e = v.to_base_e()
            old_m, old_e = base_e_oracle(v.mantissa, v.exponent)
            assert e == old_e
            assert abs(m - old_m) <= abs(m) * (4 * math.ulp(abs(v.log_abs()) + 1.0) + 1e-15)

    def test_base_e_edge_is_exact_to_a_few_ulps(self):
        # on the axis at N = 1600 the old float64 log|value| put the written
        # mantissa 1.1e-14 off at |x| = 1.6, 5.9e-11 at 10, 1.9e-8 at 500 and
        # 8.3e-4 at 1e5; the integer split of exponent * ln 2 keeps it within
        # a few ulps, and reading it back returns the value to a few ulps
        mpmath = pytest.importorskip("mpmath")
        level = level_new(2, 1600)
        for r in (1.6, 10.0, 500.0, 1e5):
            v = pi_exact(level, (r, 0.0), (r, 0.0))
            m, e = v.to_base_e()
            want_m, want_e = mp_base_e(v)
            assert e == want_e and 1.0 <= m < math.e
            assert abs(m - want_m) <= 4 * math.ulp(m), r
            back = TrackedReal.from_base_e(m, e)
            with mpmath.workdps(50):
                assert abs(mp_value(back.mantissa, back.exponent)
                           / mp_value(v.mantissa, v.exponent) - 1) <= 4e-16, r

    def test_empty_pairs_csv_is_an_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="empty.csv.*no header row"):
            read_batch_csv(empty)

    @pytest.mark.parametrize("d,n", [(1, 30), (2, 40), (3, 12), (2, 1600)])
    def test_batch_equals_one_pair_calls(self, d, n):
        # random pairs, a diagonal pair, and a pair at |x| = 1.6, deep in the
        # forbidden region (far below float underflow at N = 1600)
        level = level_new(d, n)
        rng = np.random.default_rng(d)
        xs = [rng.uniform(-1.4, 1.4, d) for _ in range(5)]
        ys = [rng.uniform(-1.4, 1.4, d) for _ in range(5)]
        far = np.full(d, 1.6 / math.sqrt(d))
        xs += [xs[0], far]
        ys += [xs[0], far + 0.05]
        values = pi_exact_batch(level, xs, ys)
        for x, y, v in zip(xs, ys, values):
            assert same(v, pi_exact(level, x, y))
            assert matches_fold(level, x, y, v)
        assert same(pi_exact(level, xs[0]), values[5])

    @pytest.mark.parametrize("d,n", [(2, 40), (3, 12), (2, 1600)])
    def test_repeated_and_diagonal_coordinates(self, d, n):
        # coordinates shared within a point, across pairs and by diagonal
        # pairs (as tube_mass passes them), mirror images x and -x, and both
        # signs of zero
        level = level_new(d, n)
        rng = np.random.default_rng(20 + d)
        half = rng.uniform(0.1, 1.3, 2)
        grid = np.concatenate([half, -half, [0.0, -0.0, 1.0]])
        xs = [rng.choice(grid, d) for _ in range(12)]
        ys = [rng.choice(grid, d) for _ in range(12)]
        xs += [np.full(d, grid[0]), np.zeros(d), -np.zeros(d), xs[3]]
        ys += [np.full(d, grid[0]), -np.zeros(d), np.zeros(d), xs[3]]
        for r in (0.7, 1.0, 1.2):
            point = np.zeros(d)
            point[0] = r
            xs.append(point)
            ys.append(point)
        values = pi_exact_batch(level, xs, ys)
        for x, y, v in zip(xs, ys, values):
            assert same(v, pi_exact(level, x, y))
            assert matches_fold(level, x, y, v)

    def test_batch_longer_than_one_pass(self, monkeypatch):
        # a pass of 8 pairs: 8 * 2d basis columns of N + 1 entries
        level = level_new(2, 10)
        monkeypatch.setattr(projector, "_PASS_ENTRIES", 8 * 4 * 11)
        rng = np.random.default_rng(5)
        count = 2 * 8 + 3
        xs = rng.uniform(-1.2, 1.2, (count, 2))
        ys = rng.uniform(-1.2, 1.2, (count, 2))
        values = pi_exact_batch(level, xs, ys)
        assert len(values) == count
        for x, y, v in zip(xs, ys, values):
            assert same(v, pi_exact(level, x, y))
            assert same(v, per_coordinate(level, x, y))

    def test_empty_batch(self):
        assert pi_exact_batch(level_new(2, 10), [], []) == []

    def test_batch_validates_every_point(self):
        level = level_new(2, 10)
        good = [0.1, 0.2]
        with pytest.raises(ValueError, match="2-vectors"):
            pi_exact_batch(level, [good, [0.1, 0.2, 0.3]], [good, good])
        with pytest.raises(ValueError, match="finite"):
            pi_exact_batch(level, [good, good], [good, [0.1, math.nan]])
        with pytest.raises(ValueError, match="equal length"):
            pi_exact_batch(level, [good, good], [good])


def fold_jet(x, val, mix, der, n, dtype):
    """One point's CovarianceJet by the per-coordinate fold: each entry folds the
    d coordinate arrays with phi phi' (mix) or phi' phi' (der) in its slots."""
    d = len(val)
    grad = [TrackedReal(*_fold([mix[j] if j == i else val[j] for j in range(d)], n, dtype))
            for i in range(d)]
    hess = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            arrays = [der[k] if k == i == j else mix[k] if k in (i, j) else val[k]
                      for k in range(d)]
            hess[i][j] = hess[j][i] = TrackedReal(*_fold(arrays, n, dtype))
    return CovarianceJet(point=x, pi=TrackedReal(*_fold(val, n, dtype)), grad=grad, hess=hess)


def jet_per_point(level, x):
    """The per-coordinate fold's jet at x, with its own basis recurrence over x's
    d coordinates: the oracle of the radial covariance_jet."""
    ld = np.longdouble
    m, e, dm, de = _phi_deriv_mantexp(level.hbar, level.N, x, dtype=ld)
    val = [(m[:, j] * m[:, j], 2 * e[:, j]) for j in range(level.d)]
    mix = [(m[:, j] * dm[:, j], e[:, j] + de[:, j]) for j in range(level.d)]
    der = [(dm[:, j] * dm[:, j], 2 * de[:, j]) for j in range(level.d)]
    return fold_jet(np.asarray(x, dtype=float), val, mix, der, level.N, ld)


def jet_entries(jet):
    """(pi, grad, hess) of a jet as longdouble values."""
    def values(tracked):
        return tracked_values(([t.mantissa for t in tracked], [t.exponent for t in tracked]))
    return (values([jet.pi])[0], values(jet.grad),
            np.array([values(row) for row in jet.hess]))


def assert_jets_close(a, b, rel):
    """pi, grad and hess of a within rel of b, each relative to b's largest entry."""
    for got, want in zip(jet_entries(a), jet_entries(b)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def same_jet(a, b):
    return (np.array_equal(a.point, b.point) and same(a.pi, b.pi)
            and all(same(g, h) for g, h in zip(a.grad, b.grad))
            and all(same(g, h) for row_a, row_b in zip(a.hess, b.hess)
                    for g, h in zip(row_a, row_b)))


def jet_table(d, count, seed):
    """count off-axis points: |x| = 1.6, a point with both zeros, random ones
    and a point that shares the coordinates of the first random one."""
    rng = np.random.default_rng(seed)
    far = rng.standard_normal(d)
    zeros = np.where(np.arange(d) == 0, 0.7, 0.0)
    zeros[-1] = -0.0
    points = [1.6 * far / np.linalg.norm(far), zeros]
    points += [rng.uniform(-1.2, 1.2, d) for _ in range(count - 3)]
    return points + [points[-1][::-1].copy()]


class TestJetBatch:
    # passes of per_pass points, two basis columns each (None: the real
    # _PASS_ENTRIES, one pass); at d = 3 a pass of two points puts a pass
    # boundary inside a three-point table
    @pytest.mark.parametrize("d,count,per_pass", [(2, 70, None), (2, 70, 32), (3, 3, 2)])
    def test_batch_equals_one_point_calls(self, d, count, per_pass, monkeypatch):
        if per_pass is not None:
            monkeypatch.setattr(projector, "_PASS_ENTRIES", 2 * per_pass * 801)
        level = level_new(d, 800)
        points = jet_table(d, count, 30 + d)
        jets = covariance_jet_batch(level, points)
        assert len(jets) == count
        for x, jet in zip(points, jets):
            assert same_jet(jet, covariance_jet(level, x))

    @pytest.mark.parametrize("d,n", [(1, 30), (2, 40), (2, 1600), (3, 25), (3, 200), (4, 40)])
    def test_radial_jet_matches_per_coordinate_fold(self, d, n):
        # off-axis points out to |x| = 1.6, shared coordinates and both zeros
        # (measured: <= 1.2e-15 of the largest entry, d = 2 at N = 1600)
        level = level_new(d, n)
        for x in jet_table(d, 6, 50 + d):
            assert_jets_close(covariance_jet(level, x), jet_per_point(level, x), 1e-14)

    def test_one_dimension_is_the_fold(self):
        # d = 1: D = (1, 0, 0, ...), so the jet is phi_N^2, phi_N phi_N', phi_N'^2
        level = level_new(1, 41)
        for x in (0.3, -0.3, 0.0, -1.4, 1.6):
            got, want = covariance_jet(level, [x]), jet_per_point(level, [x])
            for a, b in zip(jet_entries(got), jet_entries(want)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("d,n", [(2, 30), (2, 31), (3, 30), (3, 31), (5, 12)])
    def test_origin(self, d, n):
        # x = 0 takes xhat = e1: grad is exactly 0, the Hessian is isotropic
        # with zero off-diagonal entries, and the fold agrees
        level = level_new(d, n)
        jet = covariance_jet(level, np.zeros(d))
        _, grad, hess = jet_entries(jet)
        assert np.all(grad == 0.0)
        assert np.all(hess[~np.eye(d, dtype=bool)] == 0.0)
        assert np.max(np.abs(np.diag(hess) - hess[0, 0])) <= 1e-15 * np.max(np.abs(hess))
        assert_jets_close(jet, jet_per_point(level, np.zeros(d)), 1e-14)

    def test_empty_batch_and_validation(self):
        level = level_new(2, 10)
        assert covariance_jet_batch(level, []) == []
        with pytest.raises(ValueError, match="2-vector"):
            covariance_jet_batch(level, [[0.1, 0.2], [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="finite"):
            covariance_jet_batch(level, [[0.1, 0.2], [0.1, math.inf]])


def tracked_values(pairs):
    """A tracked (mantissas, exponents) array as longdouble values."""
    m, e = pairs
    return np.ldexp(np.asarray(m, dtype=np.longdouble), np.asarray(e).astype(np.intc))


class TestZeroSeries:
    # the closed forms of D and T against the fold of the basis at x = 0
    N = 120

    def axis_series(self, hbar):
        """(phi_k(0)^2, phi_k'(0)^2) for k <= N, tracked, from the recurrence."""
        m, e, dm, de = _phi_deriv_mantexp(hbar, self.N, [0.0], dtype=np.longdouble)
        return (m[:, 0] ** 2, 2 * e[:, 0]), (dm[:, 0] ** 2, 2 * de[:, 0])

    def full(self, compact, parity):
        """A compact D or T as coefficients 0..N, zero at the other parity."""
        out = np.zeros(self.N + 1, dtype=np.longdouble)
        out[parity::2] = tracked_values(compact)
        return out

    def fold_power(self, val, m):
        """Coefficients 0..N of val^m (m >= 1) by repeated convolution."""
        power = val
        for _ in range(m - 1):
            power = _conv_full(*power, *val, self.N, np.longdouble)
        return power

    def test_one_coordinate_is_phi_at_zero(self):
        level = level_new(2, self.N)
        val, der = self.axis_series(level.hbar)
        d, t = _zero_series(level.hbar, self.N, 1)
        for got, want in ((self.full(d, 0), tracked_values(val)),
                          (self.full(t, 1), tracked_values(der))):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_m_coordinates_are_the_fold(self, m):
        level = level_new(m + 1, self.N)
        val, der = self.axis_series(level.hbar)
        d, t = _zero_series(level.hbar, self.N, m)
        want_d = tracked_values(self.fold_power(val, m))
        want_t = tracked_values(
            _conv_full(*der, *self.fold_power(val, m - 1), self.N, np.longdouble))
        for got, want in ((self.full(d, 0), want_d), (self.full(t, 1), want_t)):
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-15

    def test_no_coordinates_is_the_unit(self):
        # D_0 = (1, 0, 0, ...), and its zeros never set a sum's scale: the
        # one real term 2^-9000 survives partners of size 2^9000
        d, _ = _zero_series(0.01, self.N, 0)
        assert tracked_values(d).tolist() == [1.0] + [0.0] * (self.N // 2)
        n = self.N // 2
        exponents = np.full(n + 1, 9000, dtype=np.int64)
        exponents[n] = -9000
        total, e = _conv_last(np.ones(n + 1, dtype=np.longdouble), exponents, *d, n)
        assert np.ldexp(total, e) == np.ldexp(np.longdouble(1), -9000)


def mp_value(m, e):
    """A tracked (mantissa, exponent) pair as an exact mpf."""
    import mpmath

    m, shift = np.frexp(np.longdouble(m))
    return mpmath.mpf(int(np.ldexp(m, 64))) * mpmath.mpf(2) ** (int(e) + int(shift) - 64)


def mp_phis(n, hbar, coord):
    """phi_0..phi_n at coord (an mpf) by the recurrence, in the working precision."""
    import mpmath

    xi = coord / mpmath.sqrt(hbar)
    cur, prev = (hbar * mpmath.pi) ** mpmath.mpf(-0.25) * mpmath.exp(-xi * xi / 2), 0
    out = [cur]
    for k in range(n):
        cur, prev = (mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * xi * cur
                     - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev), cur
        out.append(cur)
    return out


def mp_kernel_planar(level, x, y, digits=60):
    """Pi(x, y) at `digits` digits (at the float hbar the program is given),
    summed in the plane of x and y: sum_a phi_a(r) phi_a(p) G(N - a) with the
    Laguerre series G, every step in mpmath from the exact float inputs."""
    import mpmath

    d, n = level.d, level.N
    with mpmath.workdps(digits):
        hbar = mpmath.mpf(level.hbar)
        x, y = [mpmath.mpf(float(c)) for c in x], [mpmath.mpf(float(c)) for c in y]
        r = mpmath.sqrt(mpmath.fsum(c * c for c in x))
        xhat = [c / r for c in x]
        p = mpmath.fsum(a * b for a, b in zip(xhat, y))
        z = mpmath.fsum((b - p * a) ** 2 for a, b in zip(xhat, y)) / hbar
        alpha = mpmath.mpf(d - 3) / 2
        lag = [mpmath.mpf(1), 1 + alpha - z]
        for j in range(1, n // 2):
            lag.append(((2 * j + 1 + alpha - z) * lag[j] - (j + alpha) * lag[j - 1]) / (j + 1))
        scale = (mpmath.pi * hbar) ** (-(mpmath.mpf(d) - 1) / 2) * mpmath.exp(-z / 2)
        phi_r, phi_p = mp_phis(n, hbar, r), mp_phis(n, hbar, p)
        return +mpmath.fsum(phi_r[a] * phi_p[a] * scale * lag[(n - a) // 2]
                            for a in range(n % 2, n + 1, 2))


def mp_kernel_fold(level, x, y, digits=50):
    """Pi(x, y) at `digits` digits by the per-coordinate fold (O(d N^2))."""
    import mpmath

    n = level.N
    with mpmath.workdps(digits):
        hbar = mpmath.mpf(level.hbar)
        arrays = [[u * v for u, v in zip(mp_phis(n, hbar, mpmath.mpf(float(a))),
                                         mp_phis(n, hbar, mpmath.mpf(float(b))))]
                  for a, b in zip(x, y)]
        acc = arrays[0]
        for other in arrays[1:]:
            acc = [mpmath.fsum(acc[i] * other[k - i] for i in range(k + 1)) for k in range(n + 1)]
        return +acc[n]


#: a pair whose planar sum cancels by ~1e14 at N = 1600 (the 5th pair of the
#: benchmark's d = 3 pair generator, perfbench/workloads.write_pairs, on the
#: generator np.random.default_rng([7, 3]))
FALLBACK_X = (-0.5657184435792018, -0.7895074756889385, 0.25503832496826245)
FALLBACK_Y = (-0.5916567693535149, -0.7932706316019036, 0.36264024426358865)


def planar(level, xs, ys):
    """(values as longdouble, conditions) of _planar_sums over the pairs."""
    total, top, size = _planar_sums(level, np.array([xs, ys], dtype=float))
    return np.ldexp(total, top.astype(np.intc)), size / np.abs(total)


class TestPlanar:
    # Pi at d >= 3 as one sum in the plane of x and y, against the Laguerre
    # series' closed form and the per-coordinate fold

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    def test_laguerre_series_matches_mpmath(self, alpha):
        # rows j <= 400, from z = 0 (the zero series D) far into the
        # monotone region; error over the largest of rows j-1..j+1, so the
        # zeros of L_j in the oscillatory region do not blow it up (measured:
        # <= 4.9e-16)
        mpmath = pytest.importorskip("mpmath")
        zs = np.array([0.0, 1e-3, 0.7, 30.0, 450.0, 3000.0], dtype=np.longdouble)
        m, e = _laguerre_mantexp(400, alpha, zs, -3.25)
        rows = (1, 2, 7, 8, 9, 100, 399)
        with mpmath.workdps(50):
            for col, z in enumerate(zs):
                z = mp_value(z, 0)
                scale = mpmath.mpf(2) ** mpmath.mpf(-3.25) * mpmath.exp(-z / 2)
                for j in rows:
                    ref = [scale * mpmath.laguerre(k, alpha, z) for k in (j - 1, j, j + 1)]
                    got = mp_value(m[j, col], e[j, col])
                    assert abs(got - ref[1]) <= 2e-15 * max(abs(v) for v in ref)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_laguerre_series_is_the_fold(self, d):
        # G(n) = sum_{|beta|=n} phi_beta(0) phi_beta(q e1) over d - 1
        # coordinates: phi_b(0) phi_b(q) convolved with the zero series of the
        # other d - 2, against the closed form; zero at odd n
        n, ld = 60, np.longdouble
        level = level_new(d, n)
        for q in (0.0, 0.3, 1.1, 1.9):
            m, e = _phi_mantexp(level.hbar, n, [0.0, q], dtype=ld)
            axis = (m[:, 0] * m[:, 1], e[:, 0] + e[:, 1])
            want = axis
            for _ in range(d - 2):
                want = _conv_full(*want, m[:, 0] * m[:, 0], 2 * e[:, 0], n, ld)
            want = tracked_values(want)
            hbar = ld(level.hbar)
            log2_scale = -(ld(d - 1) / 2) * np.log2(_PI_LD * hbar)
            got = tracked_values(_laguerre_mantexp(n // 2, (d - 3) / 2, [ld(q) * ld(q) / hbar],
                                                   log2_scale))[:, 0]
            assert np.all(want[1::2] == 0.0)
            assert np.max(np.abs(got - want[::2]) / np.abs(want[::2])) <= 1e-15

    def test_mpmath_oracle_is_the_fold(self):
        # the planar mpmath kernel the tests below use, against the fold
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(90)
        for d, n in ((3, 30), (3, 31), (4, 20)):
            level = level_new(d, n)
            x, y = rng.uniform(-1.2, 1.2, d), rng.uniform(-1.2, 1.2, d)
            with mpmath.workdps(60):
                assert abs(mp_kernel_planar(level, x, y) / mp_kernel_fold(level, x, y) - 1) \
                    <= mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("d,n", [(3, 60), (3, 61), (4, 40), (5, 24)])
    def test_planar_matches_fold(self, d, n):
        # random pairs out to |x| = 1.6, y = x + 0.3 noise: every one inside
        # the condition bound is within PLANAR_RTOL of the fold, and most are
        level = level_new(d, n)
        rng = np.random.default_rng(80 + d)
        xs = rng.standard_normal((12, d))
        xs *= (rng.uniform(0.1, 1.6, 12) / np.linalg.norm(xs, axis=1))[:, None]
        ys = xs + 0.3 * rng.standard_normal((12, d))
        values, conditions = planar(level, xs, ys)
        inside = conditions <= 1e4
        assert inside.sum() >= 10
        for x, y, v in zip(xs[inside], ys[inside], values[inside]):
            want = tracked_value(per_coordinate(level, x, y))
            assert abs(v - want) <= PLANAR_RTOL * abs(want)

    @pytest.mark.parametrize("d,n", [(3, 40), (3, 41), (4, 30), (6, 20)])
    def test_batch_equals_one_pair_calls(self, d, n, monkeypatch):
        # x = 0, y = +-x, signed zeros, tube_mass's diagonal pairs (r e1, r e1)
        # and random pairs, across passes of three pairs
        monkeypatch.setattr(projector, "_PASS_ENTRIES", 3 * 2 * d * (n + 1))
        level = level_new(d, n)
        rng = np.random.default_rng(100 + d)
        zero, signed = np.zeros(d), np.where(np.arange(d) % 2, -0.0, 0.0)
        x = rng.uniform(-1.0, 1.0, d)
        axis = [np.eye(d)[0] * r for r in (0.7, 1.0, 1.2)]
        xs = [zero, zero, signed, signed, x, x, x, -zero, *axis, rng.uniform(-1.5, 1.5, d)]
        ys = [x, zero, zero, x, x, -x, signed, signed, *axis, rng.uniform(-1.5, 1.5, d)]
        values = pi_exact_batch(level, xs, ys)
        for x, y, v in zip(xs, ys, values):
            assert same(v, pi_exact(level, x, y))
        for v in values[8:11]:
            assert v.mantissa > 0.0

    @pytest.mark.parametrize("d,n", [(3, 200), (4, 400)])
    def test_planar_sums_inside_the_bound_are_within_1e_9(self, d, n):
        # pairs uniform in the ball |x|, |y| <= 1.1, x.y < 0 included: every
        # one the planar sum takes is within 1e-9 of the 60-digit planar
        # kernel, also where its condition is past 1e4
        mpmath = pytest.importorskip("mpmath")
        level = level_new(d, n)
        rng = np.random.default_rng(26)
        xs, ys = rng.standard_normal((2, 40, d))
        for v in (xs, ys):
            v *= (1.1 * rng.random(40) ** (1 / d) / np.linalg.norm(v, axis=1))[:, None]
        _, conditions = planar(level, xs, ys)
        inside = conditions <= _PLANAR_CONDITION_MAX
        assert np.sum(inside & (conditions > 1e4)) >= 7
        with mpmath.workdps(60):
            for x, y, v in zip(xs[inside], ys[inside],
                               pi_exact_batch(level, xs[inside], ys[inside])):
                ref = mp_kernel_planar(level, x, y)
                assert abs(mp_value(v.mantissa, v.exponent) / ref - 1) <= 1e-9, (x, y)

    def test_planar_pair_the_old_bound_sent_to_the_fold(self):
        # planar condition 1.0e9 at d = 3, N = 200: the fold that the old
        # bound of 1e4 chose missed the 60-digit kernel by 2.2e-2
        mpmath = pytest.importorskip("mpmath")
        level = level_new(3, 200)
        x = (0.3929247392747984, 0.9341691611811787, 0.37570266518945344)
        y = (-0.8571385459211751, -0.4633913367651267, 0.38232716656311294)
        assert 1e4 < planar(level, [x], [y])[1][0] <= _PLANAR_CONDITION_MAX
        got = pi_exact(level, x, y)
        assert pi_mehler(level, x, y) == pytest.approx(got.to_float(), rel=1e-8)
        with mpmath.workdps(60):
            ref = mp_kernel_planar(level, x, y)
            assert abs(mp_value(got.mantissa, got.exponent) / ref - 1) <= 1e-9

    def test_ill_conditioned_pair_takes_the_fold(self):
        # the planar sum cancels by ~6e13 here and misses the 60-digit kernel
        # by ~1e-7; the batch takes the fold instead, within 1e-10 of it
        mpmath = pytest.importorskip("mpmath")
        level = level_new(3, 1600)
        value, condition = planar(level, [FALLBACK_X], [FALLBACK_Y])
        assert condition[0] > _PLANAR_CONDITION_MAX
        got = pi_exact(level, FALLBACK_X, FALLBACK_Y)
        assert same(got, per_coordinate(level, FALLBACK_X, FALLBACK_Y))
        with mpmath.workdps(60):
            ref = mp_kernel_planar(level, FALLBACK_X, FALLBACK_Y)
            assert abs(mp_value(got.mantissa, got.exponent) / ref - 1) <= 1e-10
            assert abs(mp_value(value[0], 0) / ref - 1) > 1e-8


def test_pass_memory_is_bounded_at_large_n(tmp_path):
    # 48 distinct radii at d = 3, N = 50000: in one pass (the old cap of 64
    # points) the jet basis took 225 MB; passes of _PASS_ENTRIES entries
    # hold it to 150 MB (peak RSS over the call, in a fresh interpreter)
    script = (
        "import resource, numpy as np, oscnodal\n"
        "rng = np.random.default_rng(1)\n"
        "pts = rng.standard_normal((48, 3))\n"
        "pts *= (rng.uniform(0.2, 1.2, 48) / np.linalg.norm(pts, axis=1))[:, None]\n"
        "oscnodal.covariance_jet_batch(oscnodal.level_new(3, 50), pts[:2])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "oscnodal.covariance_jet_batch(oscnodal.level_new(3, 50000), pts)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n")
    src = os.path.dirname(os.path.dirname(projector.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 200.0
