"""The caustic scaling-limit kernel in its two representations."""

import math

import numpy as np
import pytest
from scipy import special

from oscnodal import CausticFrame, ai, ai_k, pi0, pi0_airy, pi0_contour
from oscnodal.scaled_kernel import _panel_grid, _sphere_average, pi0_airy_batch, pi0_diagonal

FRAME2 = CausticFrame.from_point([1.0, 0.0])


class TestFrame:
    def test_from_point_builds_orthonormal_frame(self):
        v = np.array([0.3, -0.5, 0.81])
        v /= np.linalg.norm(v)
        frame = CausticFrame.from_point(v)
        assert np.allclose(frame.basis @ frame.basis.T, np.eye(3), atol=1e-14)
        assert np.allclose(frame.basis[0], v, atol=1e-14)

    def test_rejects_off_caustic_point(self):
        with pytest.raises(ValueError):
            CausticFrame.from_point([1.1, 0.0])

    def test_components(self):
        u = np.array([0.7, -0.4])
        assert FRAME2.normal_component(u) == pytest.approx(0.7)
        assert np.allclose(FRAME2.tangential_component(u), [0.0, -0.4])


class TestPi0Airy:
    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = rng.uniform(-1.5, 1.5, (2, 2))
            assert pi0_airy(FRAME2, u, v) == pytest.approx(
                pi0_airy(FRAME2, v, u), abs=1e-10)

    def test_tangential_translation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u, v = rng.uniform(-1.0, 1.0, (2, 2))
            t = np.array([0.0, rng.uniform(-2.0, 2.0)])
            a = pi0_airy(FRAME2, u, v)
            b = pi0_airy(FRAME2, u + t, v + t)
            assert b == pytest.approx(a, abs=1e-8)

    @pytest.mark.parametrize("u1", [-2.0, 0.0, 1.0])
    def test_diagonal_reduction(self, u1):
        u = np.array([u1, 0.0])
        closed = 2.0 ** (-1) * math.pi ** (-1) * ai_k(-1.0, 2.0 * u1)
        assert pi0_airy(FRAME2, u, u) == pytest.approx(closed, abs=1e-6)
        assert pi0_diagonal(FRAME2, u1) == pytest.approx(closed, rel=1e-12)

    def test_d3_diagonal_reduction(self):
        frame = CausticFrame.from_point([0.0, 0.0, 1.0])
        u = 0.3 * frame.x0
        closed = 2.0 ** (-2) * math.pi ** (-1.5) * ai_k(-1.5, 0.6)
        assert pi0_airy(frame, u, u) == pytest.approx(closed, rel=1e-6)


class TestPi0Contour:
    def test_two_method_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u, v = rng.uniform(-1.0, 1.0, (2, 2))
            a = pi0_airy(FRAME2, u, v)
            b = pi0_contour(FRAME2, u, v)
            assert abs(a - b) < 1e-6

    def test_diagonal_matches_airy_route(self):
        for u1 in (-2.0, 0.0, 1.0):
            u = np.array([u1, 0.0])
            assert pi0_contour(FRAME2, u, u) == pytest.approx(
                pi0_airy(FRAME2, u, u), abs=1e-8)

    def test_large_tangential_separation_decay(self):
        u = np.array([0.0, 10.0])
        v = np.array([0.0, -10.0])
        assert abs(pi0_contour(FRAME2, u, v)) < 1e-3
        assert abs(pi0_airy(FRAME2, u, v)) < 1e-3


class TestKernelStructure:
    def test_positive_semidefinite_gram(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.2, 1.2, (15, 2))
        gram = np.empty((15, 15))
        for i in range(15):
            for j in range(i, 15):
                gram[i, j] = gram[j, i] = pi0_airy(FRAME2, pts[i], pts[j])
        lam = np.linalg.eigvalsh(gram)
        assert lam.min() >= -1e-8 * lam.max()

    def test_dispatcher_and_dimension_cap(self):
        frame4 = CausticFrame.from_point([1.0, 0.0, 0.0, 0.0])
        u = np.array([0.2, 0.1, 0.0, -0.1])
        v = np.array([-0.1, 0.0, 0.2, 0.1])
        val = pi0(frame4, u, v)
        assert val == pytest.approx(pi0_contour(frame4, u, v), rel=1e-12)
        # no dimension cap: the radial rule is one-dimensional in every d
        frame5 = CausticFrame.from_point([1.0] + [0.0] * 4)
        us, vs = _table(frame5, [-1.0, 0.0, 0.5], [-0.5, 1.0], 0.7)
        _assert_agrees(pi0_airy_batch(frame5, us, vs),
                       [pi0_contour(frame5, u, v) for u, v in zip(us, vs)], 1e-12)


def _p_nodes_reference(p_max, freq, dim):
    width = max(0.25, 2.0 / (1.0 + freq))
    n_panels = int(math.ceil(2.0 * p_max / width))
    nodes, weights = [], []
    edges = np.linspace(-p_max, p_max, n_panels + 1)
    gx, gw = np.polynomial.legendre.leggauss(12)
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * gx)
        weights.append(0.5 * (hi - lo) * gw)
    p1 = np.concatenate(nodes)
    w1 = np.concatenate(weights)
    if dim == 1:
        return p1[:, None], w1
    grids = np.meshgrid(*([p1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = w1
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)
    return pts, w.ravel()


def _pi0_airy_reference(frame, u, v):
    """Pi0 by the tensor p-grid over R^(d-1) that the radial rule replaced:
    an independent oracle for pi0_airy_batch."""
    d = frame.d
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u1 = frame.normal_component(u)
    v1 = frame.normal_component(v)
    dt = frame.tangential_component(u) - frame.tangential_component(v)
    delta = frame.basis[1:] @ dt
    m = min(u1, v1)
    p_max = math.sqrt(2.0 * max(1.0, 13.6 * 2.0 ** (-1.0 / 3.0) - m))
    freq = float(np.max(np.abs(delta))) + 2.2 * p_max
    pts, w = _p_nodes_reference(p_max, freq, d - 1)
    p_sq = np.sum(pts * pts, axis=1)
    au = ai(2.0 ** (1.0 / 3.0) * (u1 + p_sq / 2.0))
    av = ai(2.0 ** (1.0 / 3.0) * (v1 + p_sq / 2.0))
    phase = np.exp(1j * (pts @ delta))
    total = np.sum(w * phase * au * av)
    pref = 2.0 ** (2.0 / 3.0) * (2.0 * math.pi) ** (1 - d)
    return float((pref * total).real)


def _table(frame, u1s, v1s, sep):
    tangent = np.zeros(frame.d)
    tangent[1] = sep
    us = [u1 * frame.x0 for u1 in u1s for _ in v1s]
    vs = [v1 * frame.x0 + tangent for _ in u1s for v1 in v1s]
    return us, vs


def _assert_agrees(values, refs, bound):
    """max |values - refs| <= bound * max |refs|."""
    refs = np.asarray(refs)
    assert np.max(np.abs(np.asarray(values) - refs)) <= bound * np.max(np.abs(refs))


class TestPi0AiryBatch:
    """The radial rule against the tensor p-grid it replaced and the contour.

    The tensor route (_pi0_airy_reference) and the contour are independent
    oracles; the radial rule agrees with both to 1e-13 of each table's max."""

    def _check(self, frame, us, vs):
        values = pi0_airy_batch(frame, us, vs)
        assert values.shape == (len(us),)
        _assert_agrees(values, [_pi0_airy_reference(frame, u, v) for u, v in zip(us, vs)], 1e-13)
        _assert_agrees(values, [pi0_contour(frame, u, v) for u, v in zip(us, vs)], 1e-13)

    @pytest.mark.parametrize("sep", [0.0, 0.5, 1.7])
    def test_d2_table_with_shared_grids(self, sep):
        self._check(FRAME2, *_table(FRAME2, np.arange(-4.0, 1.0, 0.37),
                                    np.arange(-3.0, 2.0, 0.41), sep))

    def test_d2_random_pairs_in_any_direction(self):
        frame = CausticFrame.from_point([0.6, -0.8])
        rng = np.random.default_rng(12)
        us = list(rng.uniform(-3.0, 2.0, (25, 2)))
        vs = list(rng.uniform(-3.0, 2.0, (25, 2)))
        us += [us[0], us[1]]
        vs += [us[0], us[0]]
        self._check(frame, us, vs)

    def test_d3_table(self):
        frame = CausticFrame.from_point([0.0, 0.0, 1.0])
        self._check(frame, *_table(frame, [-1.0, 0.5], [-1.0, 0.0], 0.5))

    def test_pairs_on_one_p_max_with_different_frequencies(self):
        # far on the forbidden side, with one p_max and three tangential
        # separations: the tensor route is 2.3e-12 (of the max) off the
        # contour here, the radial rule within 1e-13 of it
        us = [np.array([8.0, 0.0])] * 3
        vs = [np.array([8.2, 0.0]), np.array([8.2, 1.5]), np.array([8.2, -1.5])]
        values = pi0_airy_batch(FRAME2, us, vs)
        _assert_agrees(values, [pi0_contour(FRAME2, u, v) for u, v in zip(us, vs)], 1e-13)
        _assert_agrees(values, [_pi0_airy_reference(FRAME2, u, v) for u, v in zip(us, vs)], 5e-12)

    @pytest.mark.parametrize("d, u1s, v1s", [
        # the tensor grid takes seconds at d = 3, u1 = -12 and is out of
        # reach beyond d = 4: the contour alone checks these tables
        (3, [-12.0, -6.0, 0.0], [-12.0, -3.0, 1.0]),
        (4, [-2.0, -0.5, 1.0], [-1.0, 0.0, 2.0]),
        (5, [-2.0, -0.5, 1.0], [-1.0, 0.0, 2.0]),
        (6, [-2.0, -0.5, 1.0], [-1.0, 0.0, 2.0]),
    ])
    def test_against_contour_alone(self, d, u1s, v1s):
        frame = CausticFrame.from_point(np.eye(d)[0])
        us, vs = _table(frame, u1s, v1s, 0.5)
        _assert_agrees(pi0_airy_batch(frame, us, vs),
                       [pi0_contour(frame, u, v) for u, v in zip(us, vs)], 1e-13)

    def test_one_pair_alone(self):
        # pairs of different cutoffs share prefixes of one grid, so a pair's
        # value does not depend on the batch around it
        u, v = np.array([-0.9, 0.2]), np.array([0.1, -0.3])
        alone = pi0_airy_batch(FRAME2, [u], [v])[0]
        assert pi0_airy(FRAME2, u, v) == alone
        us, vs = _table(FRAME2, [-6.0, 2.0], [-1.0, 4.0], 1.1)
        assert pi0_airy_batch(FRAME2, us + [u], vs + [v])[-1] == alone
        assert pi0_airy_batch(FRAME2, [us[0], u], [vs[0], v])[1] == alone

    def test_sphere_average_is_the_bessel_form(self):
        x = np.concatenate([[1e-5, 1e-4, 9.9e-4], np.linspace(0.01, 40.0, 800)])
        for nu in (-0.5, 0.0, 0.5, 1.0, 1.5):
            bessel = math.gamma(nu + 1.0) * (2.0 / x) ** nu * special.jv(nu, x)
            assert np.max(np.abs(_sphere_average(nu, x) - bessel)) < 1e-14
        assert np.max(np.abs(_sphere_average(0.5, x) - np.sin(x) / x)) < 1e-14
        for nu in (-0.5, 0.0, 0.5, 1.0, 4.0):
            assert np.array_equal(_sphere_average(nu, np.array([0.0, 1e-300])), [1.0, 1.0])

    def test_sphere_average_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        x = np.array([0.0, 1e-300, 1e-5, 1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 37.3,
                      50.0, 100.0, 150.0, 200.0])
        # integer nu: the trapezoid rule; half-integer nu: the closed forms
        for nu in (0.0, 1.0, 2.0, 0.5, 1.5, 2.5):
            with mp.workdps(40):
                ref = [1.0 if v == 0.0 else float(
                    mp.gamma(nu + 1) * (2 / mp.mpf(v)) ** nu * mp.besselj(nu, mp.mpf(v)))
                    for v in x.tolist()]
            got = _sphere_average(nu, x)
            assert np.max(np.abs(got - ref)) < 1e-14, nu
            assert got[:2].tolist() == [1.0, 1.0]

    def test_sphere_average_depends_on_its_own_x(self):
        # the trapezoid node count follows each element's x, never the table's
        # largest, so a value is the same alone and in any table
        x = np.concatenate([np.linspace(0.0, 60.0, 241), [199.0, 0.0]])
        for nu in (0.0, 1.0, 0.5):
            table = _sphere_average(nu, x)
            assert [_sphere_average(nu, np.array([v]))[0] for v in x.tolist()] == table.tolist()
            assert _sphere_average(nu, x[:100]).tolist() == table[:100].tolist()

    def test_empty_and_mismatched_lists(self):
        assert pi0_airy_batch(FRAME2, [], []).shape == (0,)
        with pytest.raises(ValueError, match="equal length"):
            pi0_airy_batch(FRAME2, [np.zeros(2)], [])

    def test_panel_grid_equals_a_loop_over_panels(self):
        xs, ws = _panel_grid(-25.0, 8.0, 9.07)
        n_panels = int(math.ceil(33.0 / max(0.1, 2.0 / (1.0 + 9.07 / 6.0))))
        edges = np.linspace(-25.0, 8.0, n_panels + 1)
        gx, gw = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(xs, np.concatenate(
            [0.5 * (a + b) + 0.5 * (b - a) * gx for a, b in zip(edges[:-1], edges[1:])]))
        assert np.array_equal(ws, np.concatenate(
            [0.5 * (b - a) * gw for a, b in zip(edges[:-1], edges[1:])]))
