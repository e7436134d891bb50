"""Level bookkeeping, tracked arithmetic, and the scaled Hermite basis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnodal import (
    SemiclassicalLevel,
    TrackedReal,
    eigenspace_dim,
    hermite_all,
    hermite_deriv_all,
    level_new,
    multi_indices,
    rescale_to_unit,
)
from oscnodal.semiclassical import _phi_deriv_mantexp, _phi_mantexp, _psi_mantexp


def gauss_legendre(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


class TestLevel:
    def test_examples(self):
        assert level_new(2, 10).hbar == pytest.approx(1.0 / 22, abs=0)
        assert level_new(3, 0).hbar == pytest.approx(1.0 / 3, abs=0)

    def test_energy_identity(self):
        level = level_new(2, 100)
        assert level.hbar * (level.N + level.d / 2.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("d,N", [(0, 3), (-1, 3), (2, -1)])
    def test_rejects_bad_arguments(self, d, N):
        with pytest.raises(ValueError):
            level_new(d, N)


class TestEigenspaceDim:
    def test_d2(self):
        assert eigenspace_dim(level_new(2, 10)) == 11

    def test_d1_is_simple(self):
        assert eigenspace_dim(level_new(1, 7)) == 1

    def test_d3_matches_enumeration(self):
        # brute-force oracle: enumerate all beta with |beta| = 4
        count = sum(1 for _ in multi_indices(3, 4))
        assert count == 15
        assert eigenspace_dim(level_new(3, 4)) == count

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            eigenspace_dim(SemiclassicalLevel(20, 10**5))


class TestTrackedReal:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_exact(self, value):
        assert TrackedReal.from_float(value).to_float() == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_normalized_preserves_value(self, value):
        # base 2: frexp is exact, down to the subnormals
        tr = TrackedReal.from_float(value).normalized()
        if value != 0.0:
            assert 0.5 <= abs(tr.mantissa) < 1.0
            assert tr.to_float() == value
        else:
            assert tr.mantissa == 0.0 and tr.exponent == 0

    def test_products_and_sums(self):
        a = TrackedReal.from_float(3.0).normalized()
        b = TrackedReal.from_float(-7.5).normalized()
        assert (a * b).to_float() == pytest.approx(-22.5, rel=1e-15)
        assert (a + b).to_float() == pytest.approx(-4.5, rel=1e-15)
        assert (a - b).to_float() == pytest.approx(10.5, rel=1e-15)
        assert (a / b).to_float() == pytest.approx(-0.4, rel=1e-15)

    # moderate values: no product, quotient or sum of two leaves the normal range
    moderate = st.floats(min_value=-1e150, max_value=1e150).filter(
        lambda v: v == 0.0 or abs(v) > 1e-150)
    shift = st.integers(min_value=-10**4, max_value=10**4)

    @given(moderate, moderate, shift, shift)
    @settings(max_examples=300)
    def test_products_exact_in_the_exponent(self, a, b, e, f):
        product = TrackedReal(a, e) * TrackedReal(b, f)
        assert product == TrackedReal(a * b, e + f).normalized()
        assert (TrackedReal.from_float(a) * b).to_float() == a * b
        if b != 0.0:
            quotient = TrackedReal(a, e) / TrackedReal(b, f)
            assert quotient == TrackedReal(a / b, e - f).normalized()
            assert (TrackedReal.from_float(a) / b).to_float() == a / b

    @given(moderate, moderate, shift, st.integers(min_value=-60, max_value=60))
    @settings(max_examples=300)
    def test_sums_exact_in_the_exponent(self, a, b, e, k):
        # unnormalized operands (as folds hand them over) are aligned exactly
        total = TrackedReal(a, e) + TrackedReal(b, e + k)
        assert total == TrackedReal(a + math.ldexp(b, k), e).normalized()
        assert (TrackedReal.from_float(a) + b).to_float() == a + b
        assert (TrackedReal.from_float(a) - b).to_float() == a - b

    def test_huge_exponents_survive(self):
        tiny = TrackedReal(1.5, -5000)
        assert (tiny * tiny).exponent < -9000
        assert tiny.log_abs() == pytest.approx(math.log(1.5) - 5000 * math.log(2.0))
        assert (tiny / tiny).to_float() == 1.0
        assert (tiny + TrackedReal(1.0)).to_float() == 1.0
        assert tiny.to_float() == 0.0
        assert TrackedReal(0.75, 1024).to_float() == math.ldexp(0.75, 1024)
        assert TrackedReal(-0.5, 1025).to_float() == -math.inf

    @given(st.floats(min_value=-700.0, max_value=700.0), st.integers(-10**4, 10**4))
    @example(log_m=-214.0, e=339)   # an unnormalized mantissa: log_abs must not cancel
    def test_base_e_edge(self, log_m, e):
        # mantissa * e**exponent, mantissa in [1, e): the projector CSV's format
        value = TrackedReal(math.exp(log_m), e)
        m, k = value.to_base_e()
        assert 1.0 <= m < math.e * (1 + 1e-15) and isinstance(k, int)
        back = TrackedReal.from_base_e(m, k)
        assert back.log_abs() == pytest.approx(value.log_abs(), rel=1e-15, abs=1e-15)
        assert TrackedReal.from_base_e(-m, k).sign == -1.0
        assert TrackedReal.from_base_e(0.0, k) == TrackedReal(0.0, 0)


class TestHermiteAll:
    def test_ground_state_value(self):
        level = level_new(1, 6)
        values = hermite_all(level, 0.0)
        assert values[0].to_float() == pytest.approx(
            (math.pi * level.hbar) ** -0.25, rel=1e-13)

    def test_odd_vanish_at_origin(self):
        values = hermite_all(level_new(1, 9), 0.0)
        for k in (1, 3, 5, 7, 9):
            assert values[k].to_float() == 0.0

    @pytest.mark.parametrize("k", [0, 5, 40])
    def test_unit_norm_by_quadrature(self, k):
        level = level_new(1, 40)  # hbar = 1/81
        assert level.hbar == pytest.approx(1.0 / 81)
        half = 6.0 * math.sqrt(level.energy) * 3.0
        xs, ws = gauss_legendre(-half, half, 2400)
        m, e = _phi_mantexp(level.hbar, level.N, xs)
        vals = np.ldexp(m[k], e[k // 8])
        assert float(np.sum(ws * vals * vals)) == pytest.approx(1.0, abs=1e-10)

    def test_gram_matrix_is_identity(self):
        level = level_new(1, 60)
        xs, ws = gauss_legendre(-3.0, 3.0, 2400)
        m, e = _phi_mantexp(level.hbar, level.N, xs)
        basis = np.ldexp(m, np.repeat(e, 8, axis=0)[:len(m)])
        gram = (basis * ws) @ basis.T
        assert np.max(np.abs(gram - np.eye(level.N + 1))) < 1e-8

    def test_matches_high_precision_reference(self):
        # 200-bit forward recurrence on the unscaled functions
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200

        def psi_ref(n, xi):
            xi = mp.mpf(xi)
            p0 = mp.pi ** mp.mpf("-0.25") * mp.e ** (-xi * xi / 2)
            if n == 0:
                return p0
            p1 = mp.sqrt(2) * xi * p0
            for k in range(1, n):
                p0, p1 = p1, mp.sqrt(mp.mpf(2) / (k + 1)) * xi * p1 \
                    - mp.sqrt(mp.mpf(k) / (k + 1)) * p0
            return p1

        nmax = 4000
        for x in (0.3, 1.7, 2.9):
            xi = x * math.sqrt(2 * nmax + 1)  # d = 1 scaling
            m, e = _psi_mantexp(nmax, np.array([xi]))
            for k in (0, 137, 2500, 4000):
                ref = psi_ref(k, xi)
                got = mp.mpf(float(m[k, 0])) * mp.power(2, int(e[k // 8, 0]))
                assert float(abs(got - ref) / abs(ref)) < 1e-10


def psi_reference(nmax, xi, dtype):
    """The recurrence step by step, with two scalar sqrt calls per step; the
    ground state's log2(e) and pi^(-1/4) are taken in the working dtype."""
    xi = np.atleast_1d(np.asarray(xi, dtype=dtype))
    m = np.empty((nmax + 1, xi.size), dtype=dtype)
    e = np.empty((nmax + 1, xi.size), dtype=np.int64)
    if dtype is np.float64:
        log2e, norm = 1.0 / math.log(2.0), math.pi ** -0.25
    else:
        log2e = 1 / np.log(dtype(2))
        norm = dtype("3.14159265358979323846264338327950288") ** dtype(-0.25)
    t = -xi * xi * dtype(0.5) * dtype(log2e)
    ecur = np.floor(t).astype(np.int64)
    cur = dtype(norm) * np.exp2(t - ecur)
    prev = np.zeros(xi.size, dtype=dtype)
    m[0] = cur
    e[0] = ecur
    for k in range(nmax):
        a = np.sqrt(dtype(2.0) / dtype(k + 1))
        b = np.sqrt(dtype(k) / dtype(k + 1))
        cur, prev = a * xi * cur - b * prev, cur
        if (k + 1) % 8 == 0:
            _, sh = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            sh = sh.astype(np.int64)
            cur = np.ldexp(cur, -sh)
            prev = np.ldexp(prev, -sh)
            ecur = ecur + sh
        m[k + 1] = cur
        e[k + 1] = ecur
    return m, e


def _mpf(m, e):
    """m * 2**e as an exact mpmath number, for a float or longdouble m."""
    import mpmath

    f, k = np.frexp(m)
    return mpmath.ldexp(mpmath.mpf(int(np.ldexp(f, 64))), int(k) + int(e) - 64)


def _log2_abs(v):
    import mpmath

    if not v:
        return -math.inf
    man, ex = mpmath.frexp(v)
    return ex + math.log2(abs(float(man)))


def mp_recurrence(nmax, xi, start, digits=60):
    """Columns psi_0..psi_nmax of the recurrence at `digits` digits.

    Exact coefficients and exact xi, from the given row 0 (a (m, e) pair per
    column), so the comparison measures the recurrence's own rounding.
    """
    import mpmath

    with mpmath.workdps(digits):
        a = [mpmath.sqrt(mpmath.mpf(2) / (k + 1)) for k in range(nmax)]
        b = [mpmath.sqrt(mpmath.mpf(k) / (k + 1)) for k in range(nmax)]
        cols = []
        for x, (m0, e0) in zip(xi, start):
            x, cur, prev = _mpf(x, 0), _mpf(m0, e0), mpmath.mpf(0)
            col = [cur]
            for k in range(nmax):
                cur, prev = a[k] * x * cur - b[k] * prev, cur
                col.append(cur)
            cols.append(col)
    return cols


def envelope_errors(m, e, ref, width=8):
    """|m 2**e - ref| / max_{|j-k| <= width} |ref_j|, entry by entry."""
    import mpmath

    err = np.zeros(m.shape)
    with mpmath.workdps(60):
        for c, col in enumerate(ref):
            logs = np.array([_log2_abs(v) for v in col])
            padded = np.concatenate([np.full(width, -np.inf), logs, np.full(width, -np.inf)])
            env = np.lib.stride_tricks.sliding_window_view(padded, 2 * width + 1).max(axis=1)
            for k, v in enumerate(col):
                err[k, c] = 2.0 ** (_log2_abs(_mpf(m[k, c], e[k, c]) - v) - env[k])
    return err


def _recurrence_points(nmax):
    # both zeros, and |xi| up to ~90, i.e. |x| = 1.6 at N = 1600
    rng = np.random.default_rng(nmax)
    return np.concatenate([[0.0, -0.0, 90.5, -90.5], rng.uniform(-60.0, 60.0, 5)])


class TestPsiRecurrence:
    @pytest.mark.parametrize("nmax,dtype", [(n, np.float64)
                                            for n in (0, 1, 7, 8, 9, 17, 37, 400, 1601)]
                             + [(n, np.longdouble) for n in (0, 1, 7, 8, 9, 17)])
    def test_equals_per_step_reference(self, nmax, dtype):
        # the float64 route (Monte Carlo fields, jet grids) is the per-step
        # loop, with one exponent row per block of 8 rows; so is an extended
        # table of one block (nmax < 32), up to the frexp that normalizes its
        # mantissas, with one exponent per entry
        xi = _recurrence_points(nmax)
        m, e = _psi_mantexp(nmax, xi.astype(dtype), dtype=dtype)
        m_ref, e_ref = psi_reference(nmax, xi.astype(dtype), dtype)
        assert m.dtype == m_ref.dtype and e.dtype == e_ref.dtype
        if dtype is np.longdouble:
            m, e = np.ldexp(m, e - e_ref), e_ref
        else:
            assert e.shape == (nmax // 8 + 1, xi.size)
            e = np.array([e[k // 8] for k in range(nmax + 1)])
        assert np.array_equal(m, m_ref) and np.array_equal(e, e_ref)
        assert np.array_equal(np.signbit(m), np.signbit(m_ref))

    @pytest.mark.parametrize("nmax", [0, 1, 7, 8, 9, 17, 31, 32, 33, 400, 1601])
    def test_extended_within_per_step_error(self, nmax):
        # the block route against a 60-digit run of the same recurrence, error
        # over the local envelope: as accurate as the per-step loop on the same
        # inputs (RMS over the table), and below float64 resolution everywhere
        pytest.importorskip("mpmath")
        ld = np.longdouble
        xi = _recurrence_points(nmax).astype(ld)
        m, e = _psi_mantexp(nmax, xi, dtype=ld)
        m_step, e_step = psi_reference(nmax, xi, ld)
        assert m.dtype == ld and e.dtype == np.int64 and m.shape == m_step.shape
        ref = mp_recurrence(nmax, xi, zip(m_step[0], e_step[0]))
        err = envelope_errors(m, e, ref)
        err_step = envelope_errors(m_step, e_step, ref)
        assert np.sqrt(np.mean(err**2)) <= 1.5 * np.sqrt(np.mean(err_step**2))
        assert err.max() < 2.0 ** -53

    def test_column_alone_equals_its_column_in_a_batch(self):
        ld = np.longdouble
        xi = _recurrence_points(7).astype(ld)
        for nmax in (40, 1601):
            m, e = _psi_mantexp(nmax, xi, dtype=ld)
            for c in range(xi.size):
                mc, ec = _psi_mantexp(nmax, xi[c:c + 1], dtype=ld)
                assert np.array_equal(mc[:, 0], m[:, c]) and np.array_equal(ec[:, 0], e[:, c])

    @pytest.mark.parametrize("n", [0, 31, 32, 63, 400, 1600])
    def test_rows_do_not_depend_on_nmax(self, n):
        # pi_exact recurs to N and covariance_jet to N + 1 over the same rows
        ld = np.longdouble
        xi = _recurrence_points(n).astype(ld)
        m, e = _psi_mantexp(n, xi, dtype=ld)
        m1, e1 = _psi_mantexp(n + 1, xi, dtype=ld)
        assert np.array_equal(m1[: n + 1], m) and np.array_equal(e1[: n + 1], e)

    def test_signed_zero_is_kept(self):
        # psi_k(-0) = (-1)^k psi_k(+0), zeros included, as in the per-step loop
        ld = np.longdouble
        xi = np.array([0.0, -0.0], dtype=ld)
        m, _ = _psi_mantexp(1601, xi, dtype=ld)
        m_step, _ = psi_reference(1601, xi, ld)
        assert np.array_equal(np.signbit(m), np.signbit(m_step))
        mirrored = (-1.0) ** np.arange(1602) * m[:, 0]
        assert np.array_equal(m[:, 1], mirrored)
        assert np.array_equal(np.signbit(m[:, 1]), np.signbit(mirrored))

    def test_extended_mantissas_are_normalized(self):
        m, _ = _psi_mantexp(1601, _recurrence_points(3).astype(np.longdouble),
                            dtype=np.longdouble)
        size = np.abs(m)
        assert np.all((size < 1.0) & ((size >= 0.5) | (size == 0.0)))


    @pytest.mark.parametrize("x", [1.01, -1.01, math.inf, math.nan])
    def test_coordinates_beyond_the_recurrence_range_are_refused(self, x):
        # the extended-precision recurrence takes |x| <= 2^30 sqrt(hbar)
        level = level_new(1, 1600)
        limit = 2**30 * math.sqrt(level.hbar)
        assert hermite_all(level, 0.99 * limit)[-1].mantissa != 0.0
        match = r"\|x\| <= 2\^30 sqrt\(hbar\)" if math.isfinite(x) else "finite"
        for basis in (hermite_all, hermite_deriv_all):
            with pytest.raises(ValueError, match=match):
                basis(level, x * limit)


class TestHermiteDerivAll:
    def test_ground_state_derivative_vanishes(self):
        level = level_new(1, 4)
        assert hermite_deriv_all(level, 0.0)[0].to_float() == 0.0

    def test_first_excited_slope_against_finite_differences(self):
        level = level_new(1, 8)
        step = 1e-6
        for x0 in (0.0, 0.35):
            derivs = hermite_deriv_all(level, x0)
            up = hermite_all(level, x0 + step)
            dn = hermite_all(level, x0 - step)
            fd = (up[1].to_float() - dn[1].to_float()) / (2 * step)
            assert derivs[1].to_float() == pytest.approx(fd, rel=1e-8)

    def test_norm_is_stationary(self):
        # d/dx of the L2 normalization: integral of 2 phi phi' vanishes
        level = level_new(1, 12)
        xs, ws = gauss_legendre(-4.0, 4.0, 1600)
        m, e, dm, de = _phi_deriv_mantexp(level.hbar, level.N, xs)
        for k in (0, 5, 12):
            phi = np.ldexp(m[k], e[k])
            dphi = np.ldexp(dm[k], de[k])
            assert float(np.sum(ws * 2 * phi * dphi)) == pytest.approx(0.0, abs=1e-9)


    @pytest.mark.parametrize("n,xs", [(60, [0.0, 0.3, -0.9, 1.4]), (1600, [0.5, 1.0, 1.6])])
    def test_ladder_matches_per_degree_reference(self, n, xs):
        # psi_k' = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1}, one k at a time
        ld = np.longdouble
        hbar = level_new(2, n).hbar
        m, e, dm, de = _phi_deriv_mantexp(hbar, n, xs)
        pm, pe = _psi_mantexp(n + 1, np.asarray(xs, dtype=ld) / np.sqrt(ld(hbar)), dtype=ld)
        scale = ld(hbar) ** ld(-0.75)
        assert np.array_equal(de[0], pe[1])
        assert np.array_equal(dm[0], -np.sqrt(ld(1) / ld(2.0)) * pm[1] * scale)
        for k in range(1, n + 1):
            eo = np.maximum(pe[k - 1], pe[k + 1])
            ref = np.sqrt(ld(k) / ld(2.0)) * np.ldexp(pm[k - 1], pe[k - 1] - eo) \
                - np.sqrt(ld(k + 1) / ld(2.0)) * np.ldexp(pm[k + 1], pe[k + 1] - eo)
            assert np.array_equal(de[k], eo)
            assert np.array_equal(dm[k], ref * scale)


def phi_deriv_ldexp(hbar, nmax, xs):
    """_phi_deriv_mantexp as ldexp built it: each neighbour of the ladder
    realigned to the larger exponent by np.ldexp."""
    ld = np.longdouble
    hb = ld(hbar)
    m1, e1 = _psi_mantexp(nmax + 1, np.asarray(xs, dtype=ld) / np.sqrt(hb), dtype=ld)
    k = np.arange(nmax + 1, dtype=ld)
    lo, hi = np.sqrt(k / ld(2.0))[:, None], np.sqrt((k + 1) / ld(2.0))[:, None]
    dm, de = np.empty_like(m1[:-1]), np.empty_like(e1[:-1])
    dm[0], de[0] = -hi[0] * m1[1], e1[1]
    ea, eb = e1[:nmax], e1[2:]
    eo = np.maximum(ea, eb)
    dm[1:] = lo[1:] * np.ldexp(m1[:nmax], ea - eo) - hi[1:] * np.ldexp(m1[2:], eb - eo)
    de[1:] = eo
    return m1[:-1] * hb ** ld(-0.25), e1[:-1], dm * hb ** ld(-0.75), de


class TestLadderAlignment:
    @pytest.mark.parametrize("n,count", [(400, 30), (1600, 1), (100, 97)])
    def test_equals_the_ldexp_form(self, n, count):
        # out to |x| = 3, deep in the forbidden region, with both zeros where
        # the table has room for them
        xs = np.linspace(-3.0, 3.0, count) if count > 2 else np.array([3.0] * count)
        if count == 30:
            xs[:2] = 0.0, -0.0
        hbar = level_new(2, n).hbar
        got, want = _phi_deriv_mantexp(hbar, n, xs), phi_deriv_ldexp(hbar, n, xs)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


class TestRescaleToUnit:
    def test_identity_at_normalized_energy(self):
        rule = rescale_to_unit(np.array([0.3, -0.4]), 0.5)
        assert np.allclose(rule.x_prime, [0.3, -0.4])
        assert rule.hbar_factor == pytest.approx(1.0)

    def test_point_rescaling(self):
        rule = rescale_to_unit(np.array([2.0, 0.0]), 2.0)
        assert np.allclose(rule.x_prime, [1.0, 0.0])
        assert rule.hbar_factor == pytest.approx(0.25)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            rescale_to_unit(np.zeros(2), 0.0)

    def test_density_transport(self):
        # F_{hbar,E}(x) = (2E)^(-1/2) F_{hbar'}(x') checked against a direct
        # evaluation of the general-energy ensemble (d=2, E=2, N=50)
        from oscnodal import densities

        e_gen = 2.0
        n, d = 50, 2
        x = np.array([0.9, 0.5])  # allowed region for E = 2 (|x| < sqrt(2E))
        rule = rescale_to_unit(x, e_gen)
        level = level_new(d, n)
        assert rule.hbar_factor * (e_gen / (n + d / 2.0)) == pytest.approx(level.hbar)
        f_unit = densities.kac_rice_density(
            densities.omega_exact(level, rule.x_prime), d).to_float()

        # direct route: the general-energy basis is the same Hermite family
        # with hbar_general = E/(N + d/2); assemble Omega by explicit sums
        hbar_gen = e_gen / (n + d / 2.0)
        phi, dphi = [], []
        for j in range(d):
            m, e, dm, de = _phi_deriv_mantexp(hbar_gen, n, [x[j]])
            phi.append(np.ldexp(m[:, 0], e[:, 0]))
            dphi.append(np.ldexp(dm[:, 0], de[:, 0]))
        a0, a1 = phi[0], phi[1][::-1]
        b0, b1 = dphi[0], dphi[1][::-1]
        pi = float(np.sum(a0 * a0 * a1 * a1))
        grad = np.array([float(np.sum(b0 * a0 * a1 * a1)),
                         float(np.sum(a0 * a0 * b1 * a1))])
        hess = np.array([
            [float(np.sum(b0 * b0 * a1 * a1)), float(np.sum(a0 * b0 * a1 * b1))],
            [float(np.sum(a0 * b0 * a1 * b1)), float(np.sum(a0 * a0 * b1 * b1))]])
        omega = hess / pi - np.outer(grad, grad) / pi**2
        f_direct = densities.kac_rice_density(
            densities.KacRiceMatrix(omega), d).to_float()
        assert f_direct == pytest.approx(rule.density_factor * f_unit, rel=1e-10)
