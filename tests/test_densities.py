"""Kac-Rice reduction, exact and asymptotic Omega matrices, regime densities."""

import functools
import math

import numpy as np
import pytest
from scipy.special import ellipe, elliprg, hyp2f1

from oscnodal import (
    CausticFrame,
    KacRiceMatrix,
    Region,
    RegimeQuery,
    ai_k,
    caustic_crossing_constant,
    caustic_intersection_density,
    covariance_jet,
    covariance_jet_batch,
    density_regime,
    density_regime_batch,
    kac_rice_density,
    kac_rice_density_batch,
    level_new,
    omega_caustic_scaled,
    omega_exact,
    omega_exact_batch,
    pi_exact,
    tube_mass,
)
from oscnodal import projector
from oscnodal.airy import AI_PRIME_ZERO
from oscnodal.projector import _conv_last
from oscnodal.semiclassical import _phi_deriv_mantexp
from oscnodal.densities import (
    PSD_CLIP_TOL,
    C_d,
    _circle_average_norm,
    _ellipe_complement,
    c_d,
    chi_mean,
    density_grid,
    omega_allowed_annulus,
    omega_forbidden_annulus,
)

FRAME2 = CausticFrame.from_point([1.0, 0.0])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _mp_basis(n, hbar, coord):
    """phi_k(coord) and phi_k'(coord), k <= n, in the working mpmath precision:
    psi_k by the recurrence from psi_0 = pi^(-1/4) exp(-xi^2/2), psi_k' by the
    ladder, phi_k(x) = hbar^(-1/4) psi_k(x / sqrt(hbar))."""
    import mpmath

    xi = mpmath.mpf(coord) / mpmath.sqrt(hbar)
    psi, prev = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-xi * xi / 2)], 0
    for k in range(n + 1):
        nxt = (mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * xi * psi[k]
               - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev)
        prev = psi[k]
        psi.append(nxt)
    dpsi = [mpmath.sqrt(mpmath.mpf(k) / 2) * (psi[k - 1] if k else 0)
            - mpmath.sqrt(mpmath.mpf(k + 1) / 2) * psi[k + 1] for k in range(n + 1)]
    scale = hbar ** mpmath.mpf(-0.25)
    return [p * scale for p in psi[:n + 1]], [p * scale / mpmath.sqrt(hbar) for p in dpsi]


@functools.lru_cache(maxsize=None)
def _mp_axis_series(n, d, hbar, digits):
    """The share of the d - 1 coordinates held at 0 in a radial jet, to degree n:
    D = (phi(0)^2)^(*(d-1)) and T = phi'(0)^2 * (phi(0)^2)^(*(d-2)), by
    convolution of the basis at 0 in 256-bit fixed point (the series at 0
    span a few decades, so every term keeps far more than `digits` digits)."""
    import mpmath

    one = 2 ** 256

    def convolve(a, b):
        return [sum(a[i] * b[j - i] for i in range(j + 1)) // one for j in range(n + 1)]

    with mpmath.workdps(digits):
        phi, dphi = _mp_basis(n, mpmath.mpf(hbar), 0)
        val, der = ([int(mpmath.nint(p * p * one)) for p in basis] for basis in (phi, dphi))
        power = [one] + [0] * n
        for _ in range(d - 2):
            power = convolve(power, val)
        return tuple([mpmath.mpf(c) / one for c in convolve(power, s)] for s in (val, der))


def _mp_jet(level, x, digits=50):
    """Pi (an mpf) and Omega (rounded to floats) at a diagonal point, from a
    `digits`-digit covariance jet at the float hbar the program is given.

    At d = 2 the jet is the sums over beta = (k, N - k) at x itself, and Omega
    is H/Pi - G G^T / Pi^2.  At d >= 3 it is the radial jet at |x| e1 with the
    other coordinates folded by convolution (_mp_axis_series), turned back by
    the kernel's O(d) invariance: Omega = lambda_r xhat xhat^T + lambda_t (I -
    xhat xhat^T).
    """
    import mpmath

    n, d = level.N, level.d
    with mpmath.workdps(digits):
        hbar = mpmath.mpf(level.hbar)
        if d == 2:
            (a, da), (b, db) = (_mp_basis(n, hbar, coord) for coord in x)
            pairs = [(k, n - k) for k in range(n + 1)]
            pi = mpmath.fsum(a[i] ** 2 * b[j] ** 2 for i, j in pairs)
            grad = [mpmath.fsum(da[i] * a[i] * b[j] ** 2 for i, j in pairs),
                    mpmath.fsum(a[i] ** 2 * db[j] * b[j] for i, j in pairs)]
            hess = [[mpmath.fsum(da[i] ** 2 * b[j] ** 2 for i, j in pairs),
                     mpmath.fsum(a[i] * da[i] * b[j] * db[j] for i, j in pairs)]]
            hess.append([hess[0][1], mpmath.fsum(a[i] ** 2 * db[j] ** 2 for i, j in pairs)])
            omega = [[hess[r][c] / pi - grad[r] * grad[c] / pi ** 2 for c in range(2)]
                     for r in range(2)]
        else:
            r = mpmath.sqrt(mpmath.fsum(mpmath.mpf(coord) ** 2 for coord in x))
            a, da = _mp_basis(n, hbar, r)
            zero_d, zero_t = _mp_axis_series(n, d, level.hbar, digits)

            def radial(f, g, z):
                return mpmath.fsum(f[k] * g[k] * z[n - k] for k in range(n + 1))

            pi = radial(a, a, zero_d)
            lam_r = radial(da, da, zero_d) / pi - (radial(a, da, zero_d) / pi) ** 2
            lam_t = radial(a, a, zero_t) / pi
            u = [mpmath.mpf(coord) / r for coord in x]
            omega = [[lam_r * u[i] * u[j] + lam_t * ((i == j) - u[i] * u[j]) for j in range(d)]
                     for i in range(d)]
        return pi, np.array([[float(v) for v in row] for row in omega])


class TestKacRiceDensity:
    def test_isotropic_d2(self):
        # closed form sigma (2 pi)^(-1/2) E[chi_2] = 1/2 at sigma = 1;
        # frozen from the Monte Carlo oracle of the defining integral
        val = kac_rice_density(KacRiceMatrix(np.eye(2)), 2).to_float()
        assert val == pytest.approx(0.5, rel=1e-12)
        rng = np.random.default_rng(0)
        xi = rng.standard_normal((10**7, 2))
        mc = np.mean(np.linalg.norm(xi, axis=1)) / math.sqrt(2 * math.pi)
        assert val == pytest.approx(mc, rel=1e-3)

    def test_rank_deficient(self):
        # diag(1, 0): density (2 pi)^(-1/2) E|xi_1| = 1/pi
        val = kac_rice_density(KacRiceMatrix(np.diag([1.0, 0.0])), 2).to_float()
        assert val == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_zero_matrix(self):
        assert kac_rice_density(KacRiceMatrix(np.zeros((2, 2))), 2).to_float() == 0.0

    def test_one_homogeneous_in_sigma(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2))
        omega = a @ a.T
        base = kac_rice_density(KacRiceMatrix(omega), 2).to_float()
        for c in (2.0, 10.0):
            scaled = kac_rice_density(KacRiceMatrix(c * c * omega), 2).to_float()
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_isotropic_d3_quadrature(self):
        val = kac_rice_density(KacRiceMatrix(np.eye(3)), 3).to_float()
        assert val == pytest.approx(chi_mean(3) / math.sqrt(2 * math.pi), rel=1e-12)

    def test_sphere_average_matches_closed_forms(self):
        # three independent closed forms of the sphere average, on seeded
        # random spectra with zero entries and rank-one cases:
        #   d = 2: (2/pi) sqrt(hi) E(1 - lo/hi), E the elliptic integral;
        #   d = 3: Carlson's R_G(lam) (DLMF 19.16);
        #   d >= 3, spectrum (a, b, ..., b): the Euler integral over the
        #   Beta((d-1)/2, 1/2)-distributed 1 - w_1^2 (DLMF 15.6.1),
        #   sqrt(a) 2F1(-1/2, (d-1)/2; d/2; 1 - b/a); scipy's 2F1 holds ~1e-15
        #   on this branch (~1e-13 on sqrt(b) 2F1(-1/2, 1/2; d/2; 1 - a/b)
        #   as a/b -> 0), which serves only a = 0
        rng = np.random.default_rng(13)

        def density(lam):
            d = len(lam)
            return kac_rice_density(KacRiceMatrix(np.diag(lam)), d).to_float() \
                * math.sqrt(2 * math.pi) / chi_mean(d)

        def two_eigenvalue(a, b, d):
            if a == 0.0:
                return math.sqrt(b) * hyp2f1(-0.5, 0.5, d / 2.0, 1.0)
            return math.sqrt(a) * hyp2f1(-0.5, (d - 1) / 2.0, d / 2.0, 1.0 - b / a)

        checked = 0
        for trial in range(40):
            lam = 10.0 ** rng.uniform(-6.0, 2.0, 8)
            lam[rng.uniform(size=8) < 0.2] = 0.0
            if trial % 5 == 0:  # rank one
                lam[1:] = 0.0
            lo, hi = sorted(lam[:2])
            if hi > 0.0:
                elliptic = 2.0 / math.pi * math.sqrt(hi) * ellipe(1.0 - lo / hi)
                assert density(lam[:2]) == pytest.approx(elliptic, rel=1e-13)
            if lam[:3].max() > 0.0:
                assert density(lam[:3]) == pytest.approx(elliprg(*lam[:3]), rel=1e-13)
            a, b = lam[0], lam[1]
            if max(a, b) > 0.0:
                for d in range(3, 9):
                    spectrum = np.r_[a, np.full(d - 1, b)]
                    assert density(spectrum) == pytest.approx(
                        two_eigenvalue(a, b, d), rel=1e-13)
                    checked += 1
        assert checked >= 6 * 30

    def test_psd_clipping_and_rejection(self):
        nearly = np.diag([1.0, -1e-9])
        assert kac_rice_density(KacRiceMatrix(nearly), 2).to_float() > 0
        with pytest.raises(ValueError):
            kac_rice_density(KacRiceMatrix(np.diag([1.0, -1e-3])), 2)


class TestKacRiceDensityBatch:
    """kac_rice_density_batch: the one array reduction behind every density."""

    @staticmethod
    def psd_stack(rng, d, m=40):
        # seeded random PSD matrices with ranks 0..d spread over ten decades,
        # plus a zero row and a row with an eigenvalue just inside the clip
        rows = []
        for i in range(m):
            a = rng.standard_normal((d, i % (d + 1))) * 10.0 ** rng.uniform(-5.0, 5.0)
            rows.append(a @ a.T)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.linspace(1.0, 2.0, d)
        lam[0] = -0.5 * PSD_CLIP_TOL * lam[-1]
        rows.append(q @ np.diag(lam) @ q.T)
        rows.append(np.zeros((d, d)))
        stack = np.array(rows)
        return 0.5 * (stack + stack.swapaxes(1, 2))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_one_matrix_at_a_time(self, d):
        stack = self.psd_stack(np.random.default_rng(70 + d), d)
        batch = kac_rice_density_batch(stack)
        assert batch.shape == (len(stack),)
        for i, omega in enumerate(stack):
            assert batch[i] == kac_rice_density(KacRiceMatrix(omega), d).to_float(), i
        # each row depends on its own matrix alone
        assert kac_rice_density_batch(stack[::-1]).tolist() == batch[::-1].tolist()
        assert batch[-1] == 0.0 and not math.copysign(1.0, batch[-1]) < 0.0
        assert batch[-2] > 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_bad_stacks(self, d):
        good = np.tile(np.eye(d), (3, 1, 1))
        below = good.copy()
        below[1] = np.diag(np.r_[-1e-3, np.ones(d - 1)])
        with pytest.raises(ValueError, match="below the PSD clip tolerance"):
            kac_rice_density_batch(below)
        with pytest.raises(ValueError, match="below the PSD clip tolerance"):
            kac_rice_density_batch(-good)
        with pytest.raises(ValueError, match="square"):
            kac_rice_density_batch(np.ones((3, d, d + 1)))
        with pytest.raises(ValueError, match="square"):
            kac_rice_density_batch(np.eye(d))
        asymmetric = good.copy()
        asymmetric[2, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            kac_rice_density_batch(asymmetric)
        for bad in (np.nan, np.inf):
            broken = good.copy()
            broken[0, 0, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                kac_rice_density_batch(broken)
            with pytest.raises(ValueError, match="finite"):
                KacRiceMatrix(broken[0])

    def test_density_grid_equals_batch_on_its_entries(self):
        level = level_new(2, 60)
        xs, ys = np.linspace(0.4, 1.5, 23), np.linspace(-0.1, 0.3, 9)
        grid = density_grid(level, xs, ys)
        jets = projector.jet_grid(level, xs, ys)
        pi = jets["Pi"]
        o11 = jets["H11"] / pi - (jets["G1"] / pi) ** 2
        o22 = jets["H22"] / pi - (jets["G2"] / pi) ** 2
        o12 = jets["H12"] / pi - (jets["G1"] / pi) * (jets["G2"] / pi)
        stack = np.stack([np.stack([o11, o12], -1), np.stack([o12, o22], -1)], -2)
        batch = kac_rice_density_batch(stack.reshape(-1, 2, 2))
        assert batch.tolist() == grid.ravel().tolist()


class TestEllipticE:
    """_ellipe_complement(p) = E(1 - p), the AGM behind the d = 2 reduction."""

    RATIOS = (1e-300, 1e-12, 0.5, 1.0)

    def test_exactly_one_at_m_one(self):
        # the d = 2 forbidden bulk has lo = 0
        assert _ellipe_complement(np.array([0.0, 0.0])).tolist() == [1.0, 1.0]
        assert _circle_average_norm(np.array([0.0]), np.array([4.0])).tolist() == [4.0 / math.pi]

    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        ratios = list(self.RATIOS) + (10.0 ** rng.uniform(-300.0, 0.0, 20)).tolist()
        values = _ellipe_complement(np.array(ratios))
        for ratio, value in zip(ratios, values.tolist()):
            # enough digits to hold 1 - ratio
            with mp.workdps(30 + int(-math.log10(ratio))):
                ref = float(mp.ellipe(1 - mp.mpf(ratio)))
            assert abs(value - ref) <= 5e-16 * ref, ratio
            # scipy as a second oracle
            assert abs(value - ellipe(1.0 - ratio)) <= 1e-15 * ref, ratio

    def test_element_alone_equals_element_in_array(self):
        rng = np.random.default_rng(4)
        p = np.concatenate([[0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), 5e-324, 1e-300],
                            10.0 ** rng.uniform(-300.0, 0.0, 200), rng.uniform(0.0, 1.0, 200)])
        table = _ellipe_complement(p)
        assert [_ellipe_complement(np.array([v]))[0] for v in p.tolist()] == table.tolist()
        assert _ellipe_complement(p[::-1]).tolist() == table[::-1].tolist()
        assert _ellipe_complement(p.reshape(2, -1)).ravel().tolist() == table.tolist()
        assert _ellipe_complement(p[::3]).tolist() == table[::3].tolist()


class TestOmegaExact:
    @pytest.mark.parametrize("x", [(1.3, 0.0), (1.6, 0.3)])
    def test_forbidden_ratio_matches_longdouble_reference(self, x):
        # the same fold totals, left unrounded and divided in longdouble; the
        # difference H/Pi - (G/Pi)^2 amplifies any error in the ratios by ~1/hbar
        level, ld = level_new(2, 1600), np.longdouble
        m, e, dm, de = _phi_deriv_mantexp(level.hbar, level.N, np.array(x), dtype=ld)
        val = [(m[:, j] * m[:, j], 2 * e[:, j]) for j in range(2)]
        mix = [(m[:, j] * dm[:, j], e[:, j] + de[:, j]) for j in range(2)]
        der = [(dm[:, j] * dm[:, j], 2 * de[:, j]) for j in range(2)]
        pi_total, pi_exp = _conv_last(*val[0], *val[1], level.N)

        def ratio(a, b):
            total, exp = _conv_last(*a, *b, level.N)
            return np.ldexp(total / pi_total, exp - pi_exp)

        grad = [ratio(mix[0], val[1]), ratio(val[0], mix[1])]
        hess = [[ratio(der[0], val[1]), ratio(mix[0], mix[1])],
                [ratio(mix[0], mix[1]), ratio(val[0], der[1])]]
        ref = np.array([[hess[i][j] - grad[i] * grad[j] for j in range(2)]
                        for i in range(2)])
        omega = omega_exact(level, x).omega
        assert np.max(np.abs(omega - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,x", [(800, (2.0, 0.0)), (1600, (1.3, 0.0))])
    def test_forbidden_density_matches_mpmath_jet(self, n, x):
        # H_rr/Pi - (g/Pi)^2 cancels heavily here, so it is formed from the
        # extended-precision sums (measured: 1.3e-14 and 4.4e-16; 1.5e-11
        # and 1.2e-12 when formed from float64 mantissas)
        pytest.importorskip("mpmath")
        level = level_new(2, n)
        ref = math.log(kac_rice_density_batch(_mp_jet(level, x)[1][np.newaxis])[0])
        got = math.log(kac_rice_density_batch(omega_exact(level, x).omega[np.newaxis])[0])
        assert abs(got - ref) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [200, 800, 1600])
    def test_jet_matches_mpmath(self, d, n):
        # off-axis points from the allowed bulk to |x| = 1.6: Pi within 3e-13
        # relative and Omega within 1e-14 of max|Omega| (measured: <= 1.2e-13
        # and <= 1.2e-15)
        mpmath = pytest.importorskip("mpmath")
        level = level_new(d, n)
        rng = np.random.default_rng(70 + d)
        points = [radius * v / np.linalg.norm(v)
                  for radius, v in zip((0.5, 1.0, 1.3, 1.6), rng.standard_normal((4, d)))]
        jets = covariance_jet_batch(level, points)
        for x, jet, omega in zip(points, jets, omega_exact_batch(level, points)):
            pi, ref = _mp_jet(level, x)
            assert abs(mpmath.ldexp(jet.pi.mantissa, jet.pi.exponent) / pi - 1) <= 3e-13
            assert np.max(np.abs(omega.omega - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_extended_ground_state_constants(self):
        # deep in the forbidden region psi_0 carries the relative error of
        # log2(e) times xi^2 / 2 ~ 2000 here: 1.2e-13 with a float64 log2(e),
        # 9e-16 with the extended one
        mpmath = pytest.importorskip("mpmath")
        level, x = level_new(2, 1600), [1.6, 0.0]
        pi, _ = _mp_jet(level, x)
        for got in (covariance_jet(level, x).pi, pi_exact(level, x)):
            assert abs(mpmath.ldexp(got.mantissa, got.exponent) / pi - 1) <= 1e-14

    def test_rotational_covariance(self):
        level = level_new(2, 30)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 2)
            if np.linalg.norm(x) < 0.1:
                continue
            rot = rotation(rng.uniform(0, 2 * math.pi))
            a = omega_exact(level, rot @ x).omega
            b = rot @ omega_exact(level, x).omega @ rot.T
            assert np.max(np.abs(a - b)) < 1e-8 * np.max(np.abs(a))

    def test_block_structure_on_axis(self):
        level = level_new(2, 30)
        for r in (0.4, 0.9, 1.2):
            omega = omega_exact(level, [r, 0.0]).omega
            assert abs(omega[0, 1]) < 1e-8 * np.max(np.abs(omega))

    def test_allowed_bulk_density(self):
        # |x| = 0.5, N = 400: matches hbar^-1 c_d sqrt(1 - |x|^2) within 5%
        level = level_new(2, 400)
        dens = kac_rice_density(omega_exact(level, [0.5, 0.0]), 2).to_float()
        pred = c_d(2) * math.sqrt(1 - 0.25) / level.hbar
        assert abs(dens / pred - 1.0) <= 0.05

    def test_forbidden_bulk_density_measured_constant(self):
        # The forbidden-bulk Omega is rank deficient: the exact radial
        # eigenvalue vanishes relative to the tangential one, so the true
        # density is E[chi_{d-1}]/E[chi_d] times the closed form built from
        # the full-rank constant C_d (= 2/pi at d = 2).  The tangential
        # variance itself matches the closed form.  Measured, not assumed;
        # see DECISIONS.md.
        level = level_new(2, 1600)
        omega = omega_exact(level, [1.3, 0.0]).omega
        lam = np.linalg.eigvalsh(omega)
        assert lam[0] < 1e-3 * lam[1]  # rank deficiency
        dens = kac_rice_density(omega_exact(level, [1.3, 0.0]), 2).to_float()
        closed = C_d(2) * math.sqrt(0.5) / (math.sqrt(1.3) * (1.3 ** 2 - 1) ** 0.25) \
            * level.hbar ** -0.5
        ratio = chi_mean(1) / chi_mean(2)
        assert ratio == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert abs(dens / (ratio * closed) - 1.0) <= 0.05
        # the implied tangential standard deviation matches the closed form
        sigma_t = math.sqrt(lam[1])
        assert sigma_t == pytest.approx(2.0 * closed, rel=0.05)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            omega_exact(level_new(2, 10), [0.0, 0.0])
        with pytest.raises(ValueError, match="x != 0"):
            omega_exact_batch(level_new(2, 10), [[0.5, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("d,n,count,per_pass", [
        (2, 800, 70, None), (2, 800, 70, 32), (3, 200, 3, 2)])
    def test_batch_equals_one_point_calls(self, d, n, count, per_pass, monkeypatch):
        # off-axis points out to |x| = 1.6, in one pass or across a pass
        # boundary (passes of per_pass points, two basis columns each)
        if per_pass is not None:
            monkeypatch.setattr(projector, "_PASS_ENTRIES", 2 * per_pass * (n + 1))
        level = level_new(d, n)
        rng = np.random.default_rng(40 + d)
        far = rng.standard_normal(d)
        points = [1.6 * far / np.linalg.norm(far)]
        points += [rng.uniform(-1.3, 1.3, d) for _ in range(count - 1)]
        omegas = omega_exact_batch(level, points)
        assert len(omegas) == count
        for x, omega in zip(points, omegas):
            one = omega_exact(level, x)
            assert np.array_equal(omega.omega, one.omega)

    def test_density_grid_matches_pointwise(self):
        # allowed points, and forbidden ones where Omega is near rank one
        # (an angle rule is ~1e-8 off there, the elliptic form ~1e-12)
        level = level_new(2, 60)
        for xs, ys in (([0.42, 0.55], [-0.03, 0.08]), ([1.25, 1.4], [0.0, 0.05])):
            grid = density_grid(level, np.array(xs), np.array(ys))
            for i, y in enumerate(ys):
                for j, x in enumerate(xs):
                    point = kac_rice_density(omega_exact(level, [x, y]), 2).to_float()
                    assert grid[i, j] == pytest.approx(point, rel=1e-10)


class TestOmegaCausticScaled:
    def test_tangential_entry_at_zero(self):
        omega = omega_caustic_scaled(FRAME2, np.zeros(2)).omega
        expected = ai_k(-2.0, 0.0) / (2.0 * ai_k(-1.0, 0.0))
        assert omega[1, 1] == pytest.approx(expected, rel=1e-12)
        assert omega[1, 1] == pytest.approx(0.38823, abs=5e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_positive_semidefinite_on_grid(self, d):
        frame = CausticFrame.from_point([1.0] + [0.0] * (d - 1))
        for u1 in np.arange(-3.0, 3.0001, 0.25):
            omega = omega_caustic_scaled(frame, u1 * frame.x0).omega
            lam = np.linalg.eigvalsh(omega)
            assert lam.min() >= -1e-10 * max(lam.max(), 1.0)

    def test_tangential_block_d3(self):
        frame = CausticFrame.from_point([1.0, 0.0, 0.0])
        omega = omega_caustic_scaled(frame, np.zeros(3)).omega
        expected = ai_k(-1.0 - 1.5, 0.0) / (2.0 * ai_k(-1.5, 0.0))
        for i in (1, 2):
            assert omega[i, i] == pytest.approx(expected, rel=1e-10)
        off = omega - np.diag(np.diag(omega))
        assert np.max(np.abs(off)) < 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_table_of_offsets_equals_one_offset_at_a_time(self, d):
        frame = CausticFrame.from_point(np.eye(d)[0])
        offsets = np.outer(np.arange(-6.0, 3.0001, 0.3), frame.x0)
        table = omega_caustic_scaled(frame, offsets)
        assert len(table) == len(offsets)
        for u, omega in zip(offsets, table):
            assert np.array_equal(omega.omega, omega_caustic_scaled(frame, u[None, :])[0].omega)
            assert np.array_equal(omega.omega, omega_caustic_scaled(frame, u).omega)

    def test_underflowing_base_weight_is_refused(self):
        # Ai_{-1}(2 u1) leaves the normal floats near u1 = 52
        assert np.all(np.isfinite(omega_caustic_scaled(FRAME2, 50.0 * FRAME2.x0).omega))
        for u1 in (53.0, 60.0):
            with pytest.raises(ValueError, match="smallest normal float"):
                omega_caustic_scaled(FRAME2, u1 * FRAME2.x0)
            with pytest.raises(ValueError, match=f"= {u1!r}:"):
                omega_caustic_scaled(FRAME2, np.outer([0.0, u1], FRAME2.x0))

    def test_consistency_with_exact_kernel(self):
        # hbar^(4/3) omega_exact(x0 + hbar^(2/3) u) approaches the scaled
        # matrix as N grows, with error shrinking like hbar^(1/3)
        target = omega_caustic_scaled(FRAME2, np.zeros(2)).omega
        errs = []
        for n in (100, 400):
            level = level_new(2, n)
            got = omega_exact(level, FRAME2.x0).omega * level.hbar ** (4.0 / 3.0)
            errs.append(np.max(np.abs(got - target)) / np.max(np.abs(target)))
        assert errs[1] < errs[0]
        assert errs[1] < 0.1


class TestDensityRegime:
    def test_allowed_bulk_example(self):
        level = level_new(2, 300)
        query = RegimeQuery(frame=FRAME2, u=np.array([-0.4, 0.0]), alpha=0.0,
                            region=Region.ALLOWED_BULK)
        value = density_regime(query, level).to_float()
        c2 = math.gamma(1.5) / (math.sqrt(2 * math.pi) * math.gamma(1.0))
        assert c2 == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-14)
        assert value == pytest.approx(c2 * 0.8 / level.hbar, rel=1e-12)

    def test_allowed_annulus_closed_form_identity(self):
        # the isotropic Omega reproduces hbar^-(1-3a/2) c_d sqrt(s) exactly
        level = level_new(2, 500)
        alpha, s = 1.0 / 3.0, 1.0
        query = RegimeQuery(frame=FRAME2, u=np.array([-s / 2.0, 0.0]), alpha=alpha,
                            region=Region.ALLOWED_ANNULUS)
        value = density_regime(query, level).to_float()
        pred = level.hbar ** -(1.0 - 1.5 * alpha) * c_d(2) * math.sqrt(s)
        assert value == pytest.approx(pred, rel=1e-10)

    def test_forbidden_annulus_constant_reported(self):
        # the Omega route gives Gamma(d/2)/(sqrt(2 pi) Gamma((d-1)/2)) s^(-1/4),
        # which differs from the bulk constant C_d (measured, not assumed)
        level = level_new(2, 500)
        alpha, s = 0.5, 1.0
        query = RegimeQuery(frame=FRAME2, u=np.array([s / 2.0, 0.0]), alpha=alpha,
                            region=Region.FORBIDDEN_ANNULUS)
        value = density_regime(query, level).to_float()
        const = math.gamma(1.0) / (math.sqrt(2 * math.pi) * math.gamma(0.5))
        pred = level.hbar ** (-0.5 * (1.0 - 1.5 * alpha)) * const * s ** -0.25
        assert value == pytest.approx(pred, rel=1e-10)
        assert const != pytest.approx(C_d(2), rel=0.2)

    @pytest.mark.parametrize("d,n,tolerance", [(2, 800, 0.01), (3, 200, 0.02)])
    def test_forbidden_bulk_matches_exact(self, d, n, tolerance):
        # the rank-(d-1) forbidden Omega through the one reduction: the paper's
        # full-rank closed form times E[chi_(d-1)]/E[chi_d], within 1-2% of the
        # exact density (the closed form alone reads pi/2 times it at d = 2)
        frame = CausticFrame.from_point([1.0] + [0.0] * (d - 1))
        level = level_new(d, n)
        radii = [1.2, 1.4, 1.6, 1.8, 2.0]
        omegas = omega_exact_batch(level, [r * frame.x0 for r in radii])
        for r, omega in zip(radii, omegas):
            query = RegimeQuery(frame=frame, u=(r - 1.0) * frame.x0, alpha=0.0,
                                region=Region.FORBIDDEN_BULK)
            value = density_regime(query, level).log_abs()
            exact = kac_rice_density(omega, d).log_abs()
            assert abs(math.expm1(value - exact)) <= tolerance
            closed = C_d(d) * math.sqrt(0.5) / (math.sqrt(r) * (r * r - 1.0) ** 0.25) \
                * level.hbar ** -0.5
            assert math.exp(value) == pytest.approx(
                chi_mean(d - 1) / chi_mean(d) * closed, rel=1e-12)

    def test_caustic_tube_density_against_monte_carlo(self):
        level = level_new(2, 100)
        query = RegimeQuery(frame=FRAME2, u=np.zeros(2), alpha=2.0 / 3.0,
                            region=Region.CAUSTIC_TUBE)
        value = density_regime(query, level).to_float()
        omega = omega_caustic_scaled(FRAME2, np.zeros(2)).omega
        rng = np.random.default_rng(3)
        xi = rng.standard_normal((10**7, 2))
        root = np.linalg.cholesky(omega + 1e-15 * np.eye(2))
        mc = np.mean(np.linalg.norm(xi @ root.T, axis=1)) / math.sqrt(2 * math.pi)
        assert value == pytest.approx(mc, rel=1e-3)

    def test_tube_value_is_hbar_independent(self):
        query = RegimeQuery(frame=FRAME2, u=np.array([0.3, 0.0]), alpha=2.0 / 3.0,
                            region=Region.CAUSTIC_TUBE)
        a = density_regime(query, level_new(2, 100)).to_float()
        b = density_regime(query, level_new(2, 1000)).to_float()
        assert a == pytest.approx(b, rel=1e-12)

    def test_tube_density_positive_on_grid(self):
        for u1 in np.arange(-3.0, 3.0001, 0.5):
            query = RegimeQuery(frame=FRAME2, u=np.array([u1, 0.0]),
                                alpha=2.0 / 3.0, region=Region.CAUSTIC_TUBE)
            assert density_regime(query, level_new(2, 100)).to_float() > 0.0

    def test_batch_equals_one_query_at_a_time(self):
        # the tube queries share one Airy table; the others go one by one
        level = level_new(2, 100)
        queries = [RegimeQuery(frame=FRAME2, u=np.array([u1, 0.0]), alpha=2.0 / 3.0,
                               region=Region.CAUSTIC_TUBE) for u1 in np.arange(-4.0, 2.0, 0.7)]
        queries.insert(3, RegimeQuery(frame=FRAME2, u=np.array([-0.4, 0.0]), alpha=0.0,
                                      region=Region.ALLOWED_BULK))
        batch = density_regime_batch(queries, level)
        assert len(batch) == len(queries)
        for query, value in zip(queries, batch):
            assert value == density_regime(query, level)

    def test_regime_consistency_validation(self):
        with pytest.raises(ValueError):
            RegimeQuery(frame=FRAME2, u=np.zeros(2), alpha=0.5,
                        region=Region.CAUSTIC_TUBE)
        with pytest.raises(ValueError):
            RegimeQuery(frame=FRAME2, u=np.zeros(2), alpha=0.2,
                        region=Region.ALLOWED_BULK)
        query = RegimeQuery(frame=FRAME2, u=np.array([0.5, 0.0]), alpha=0.5,
                            region=Region.ALLOWED_ANNULUS)
        with pytest.raises(ValueError):  # wrong side of the caustic
            density_regime(query, level_new(2, 100))


class TestAnnulusOmegas:
    def test_forbidden_annulus_radial_null_vector(self):
        level = level_new(2, 200)
        omega, _ = omega_forbidden_annulus(level, FRAME2, 0.5, 1.0)
        assert np.allclose(omega.omega @ FRAME2.x0, 0.0, atol=0.0)

    def test_allowed_annulus_isotropic(self):
        level = level_new(2, 200)
        omega, log_scale = omega_allowed_annulus(level, FRAME2, 0.5, 2.0)
        assert np.allclose(omega.omega, np.eye(2))
        assert log_scale == pytest.approx(
            math.log(1.0) + (-0.5) * math.log(level.hbar), rel=1e-12)


class TestCausticIntersections:
    def test_d2_constant(self):
        c0 = caustic_crossing_constant()
        # quadrature-oracle values: Ai_{-1}(0) = 1/3, Ai_{-2}(0) = -Ai'(0)
        assert ai_k(-1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert ai_k(-2.0, 0.0) == pytest.approx(-AI_PRIME_ZERO, rel=1e-12)
        assert c0 == pytest.approx(
            math.sqrt(2.0) * math.sqrt(-AI_PRIME_ZERO / (1.0 / 3.0)), rel=1e-10)
        assert c0 == pytest.approx(1.2462, abs=2e-4)

    def test_circumference_consistency(self):
        assert caustic_intersection_density(2) * 2 * math.pi == pytest.approx(
            caustic_crossing_constant(), rel=1e-12)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            caustic_intersection_density(1)


class TestTubeMass:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [-1.0, 0.0, 2.0])
    def test_inner_integral_identity(self, d, s):
        from scipy.integrate import quad
        from oscnodal import ai
        lhs = quad(lambda rho: ai(s + rho) * rho ** (d / 2.0 - 1.0), 0.0, 50.0,
                   limit=400)[0]
        rhs = math.gamma(d / 2.0) * ai_k(-d / 2.0, s)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_exact_to_asymptotic_trend(self):
        errs = []
        for n in (100, 400):
            exact, asym = tube_mass(level_new(2, n), 1.0)
            errs.append(abs(exact / asym - 1.0))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.1

    def test_small_kappa_linearity(self):
        _, a1 = tube_mass(level_new(2, 50), 1e-3, n_nodes=64)
        _, a2 = tube_mass(level_new(2, 50), 2e-3, n_nodes=64)
        assert a2 / a1 == pytest.approx(2.0, abs=1e-3)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            tube_mass(level_new(2, 50), 0.0)
