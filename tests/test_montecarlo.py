"""Random eigenfunction sampling and empirical nodal statistics."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import ndimage, stats

from oscnodal import (
    EnsembleSpec,
    caustic_crossings,
    caustic_crossings_ensemble,
    hermite_all,
    level_new,
    nodal_length,
    nodal_length_ensemble,
    pi_exact,
    radial_zero_profile,
    sample_field,
)
from oscnodal import montecarlo
from oscnodal.montecarlo import (
    _PASS_ENTRIES,
    NodalEstimate,
    _circle_signs,
    _ensemble_coeffs,
    _fan_axes,
    _fan_passes,
    _grid_axis,
    _grid_values,
    _index_table,
    _marching_squares_length,
    _point_basis,
    _reflected_signs,
    _tensor_basis,
)
from oscnodal.semiclassical import (
    ResourceLimitError,
    _phi_mantexp,
    eigenspace_dim,
    multi_indices,
)


class TestSampleField:
    def test_seed_determinism(self):
        level = level_new(2, 25)
        a = sample_field(level, 42)
        b = sample_field(level, 42)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, sample_field(level, 43).coeffs)

    def test_linearity_against_independent_basis(self):
        level = level_new(2, 12)
        field = sample_field(level, 5)
        x = np.array([0.4, -0.3])
        phi1 = [t.to_float() for t in hermite_all(level, x[0])]
        phi2 = [t.to_float() for t in hermite_all(level, x[1])]
        basis_vec = np.array([phi1[b[0]] * phi2[b[1]]
                              for b in multi_indices(2, 12)])
        assert field.evaluate(x)[0] == pytest.approx(
            float(field.coeffs @ basis_vec), rel=1e-12)

    def test_coefficient_accessor(self):
        level = level_new(2, 4)
        field = sample_field(level, 9)
        betas = list(multi_indices(2, 4))
        assert field.coefficient(betas[3]) == field.coeffs[3]
        with pytest.raises(KeyError):
            field.coefficient((1, 1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_coefficient_rank_matches_enumeration(self, d):
        for n in range(0, 7):
            field = sample_field(level_new(d, n), 11)
            betas = list(multi_indices(d, n))
            for beta in betas:
                assert field.coefficient(beta) == field.coeffs[betas.index(beta)]

    def test_coefficient_rejects_non_multi_indices(self):
        field = sample_field(level_new(3, 4), 9)
        for beta in [(4, 0), (1, 1, 1, 1), (5, -1, 0), (2, 1, 0), (2, 2, 1)]:
            with pytest.raises(KeyError):
                field.coefficient(beta)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            sample_field(level_new(3, 3000), 0)

    def test_rekeyed_draw_equals_a_fresh_philox(self):
        level = level_new(2, 30)
        seeds = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
        fresh = np.stack([np.random.Generator(np.random.Philox(key=s)).standard_normal(31)
                          for s in seeds])
        assert np.array_equal(_ensemble_coeffs(level, seeds), fresh)
        for s, row in zip(seeds, fresh):
            assert np.array_equal(sample_field(level, s).coeffs, row)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seeds_outside_the_philox_key_range_are_rejected(self, seed):
        level = level_new(2, 10)
        with pytest.raises(ValueError, match="key"):
            sample_field(level, seed)
        with pytest.raises(ValueError, match="key"):
            _ensemble_coeffs(level, [1, seed])

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_general_dimension_evaluation(self, d):
        level = level_new(d, 6)
        field = sample_field(level, 21)
        x = np.array([0.2, -0.1, 0.3, 0.15][:d])
        phis = [[t.to_float() for t in hermite_all(level, xi)] for xi in x]
        basis = [math.prod(phis[j][b] for j, b in enumerate(beta))
                 for beta in multi_indices(d, 6)]
        assert field.evaluate(x)[0] == pytest.approx(
            float(field.coeffs @ np.asarray(basis)), rel=1e-10)

    def test_expected_covariance(self):
        # averaging Phi(x) Phi(y) over seeds reproduces the kernel within 3 SE
        level = level_new(2, 20)
        rng = np.random.default_rng(8)
        pairs = rng.uniform(-0.9, 0.9, (10, 2, 2))
        pts = pairs.reshape(-1, 2)
        n_seeds = 20000
        vals = np.empty((n_seeds, len(pts)))
        for lo in range(0, n_seeds, 5000):
            coeffs = np.stack([sample_field(level, s).coeffs
                               for s in range(lo + 1, lo + 5001)])
            basis, scale = _point_basis(level, pts)
            vals[lo:lo + 5000] = np.ldexp(coeffs @ basis, scale)
        for i in range(10):
            a = vals[:, 2 * i]
            b = vals[:, 2 * i + 1]
            emp = float(np.mean(a * b))
            pi_xy = pi_exact(level, pairs[i, 0], pairs[i, 1]).to_float()
            pi_xx = pi_exact(level, pairs[i, 0]).to_float()
            pi_yy = pi_exact(level, pairs[i, 1]).to_float()
            stderr = math.sqrt((pi_xx * pi_yy + pi_xy ** 2) / n_seeds)
            assert abs(emp - pi_xy) <= 3.0 * stderr

    def test_gaussian_marginals(self):
        level = level_new(2, 20)
        pt = np.array([[0.3, 0.2]])
        vals = np.empty(2000)
        basis, scale = _point_basis(level, pt)
        for i in range(2000):
            vals[i] = np.ldexp(sample_field(level, i + 1).coeffs @ basis, scale)[0]
        sigma = math.sqrt(pi_exact(level, pt[0]).to_float())
        assert stats.kstest(vals / sigma, "norm").pvalue >= 0.01


def _point_basis_d2_reference(level, points):
    """The two-axis d = 2 basis formula (the oracle for the product basis)."""
    n = level.N
    m1, e1 = _phi_mantexp(level.hbar, n, points[:, 0])
    m2, e2 = _phi_mantexp(level.hbar, n, points[:, 1])
    m = m1 * m2[::-1]
    e = e1 + e2[::-1]
    scale = e.max(axis=0)
    b = m * np.exp2((e - scale[None, :]).astype(float))
    return b, scale


class TestPointBasis:
    @pytest.mark.parametrize("n", [60, 400])
    def test_d2_equals_the_two_axis_formula(self, n):
        level = level_new(2, n)
        theta = 2.0 * math.pi * np.arange(8192) / 8192
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = np.concatenate([circle, 1.4 * circle[::64],
                              np.random.default_rng(n).uniform(-1.4, 1.4, (500, 2))])
        basis, scale = _point_basis(level, pts)
        ref_basis, ref_scale = _point_basis_d2_reference(level, pts)
        assert np.array_equal(basis, ref_basis)
        assert np.array_equal(scale, ref_scale)
        assert scale.dtype == ref_scale.dtype

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 7), (3, 6), (4, 4)])
    def test_index_table_is_the_storage_order(self, d, n):
        table = _index_table(d, n)
        assert table.shape == (eigenspace_dim(level_new(d, n)), d)
        assert [tuple(row) for row in table.tolist()] == list(multi_indices(d, n))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_evaluation_over_several_passes(self):
        level = level_new(3, 120)
        field = sample_field(level, 4)
        step = _PASS_ENTRIES // eigenspace_dim(level)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(2 * step + 37, 3))
        pts *= rng.uniform(0.0, 1.4, (len(pts), 1)) / np.linalg.norm(pts, axis=1)[:, None]
        by_pass = []
        for lo in range(0, len(pts), step):
            basis, scale = _point_basis(level, pts[lo:lo + step])
            by_pass.append(np.ldexp(field.coeffs @ basis, scale))
        assert len(by_pass) == 3
        assert np.array_equal(field.evaluate(pts), np.concatenate(by_pass))


class TestReflectionFold:
    """The circle and ray grids are evaluated on their first quadrant only."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_basis_parity_is_bitwise(self, n):
        # B[k, (sx x, sy y)] = sx^k sy^(N-k) B[k, (x, y)], with equal scales
        level = level_new(2, n)
        pts = np.random.default_rng(n).uniform(0.0, 1.5, (200, 2))
        basis, scale = _point_basis(level, pts)
        k = np.arange(n + 1)[:, None]
        for sx, sy in ((-1, 1), (1, -1), (-1, -1)):
            reflected, reflected_scale = _point_basis(level, pts * [sx, sy])
            assert np.array_equal(reflected, sx ** k * sy ** (n - k) * basis)
            assert np.array_equal(reflected_scale, scale)

    @pytest.mark.parametrize("n, n_points", [
        (200, 5476), (400, 8678),   # even N; n % 4 == 0 and n % 4 == 2
        (61, 2500), (201, 5494),    # odd N; n % 4 == 0 and n % 4 == 2
        (40, 1001),                 # an odd grid folds through y -> -y only
    ])
    def test_circle_signs_equal_direct_evaluation(self, n, n_points):
        level = level_new(2, n)
        coeffs = np.stack([sample_field(level, s).coeffs for s in range(1, 9)])
        pts = _circle_grid(n_points)
        direct = coeffs @ _point_basis(level, pts)[0] >= 0
        signs = _circle_signs(level, coeffs, n_points)
        assert signs.shape == (8, n_points)
        assert np.array_equal(signs, direct)

    @pytest.mark.parametrize("n", [8678, 8680, 1001, 36, 4])
    def test_quarter_turn_axis_tables_are_bitwise(self, n):
        # when 4 | n, the y column of base angle j is the x column of angle
        # n/4 - j, on the circle and on rays; otherwise it is sin theta_j
        level = level_new(2, 60)
        ts = np.array([0.3, 0.9, 1.0, 1.45])
        n_base = n // 4 + 1 if n % 4 == 0 else n // 2 + 1
        for radii in ([1.0], ts):
            for angles in _fan_passes(n, n_base, 61, len(radii))[0]:
                mx, ex, my, ey = _fan_axes(level, n, angles, np.asarray(radii))
                theta = 2.0 * math.pi * angles / n
                if n % 4 == 0:
                    assert np.array_equal(angles, n // 4 - angles[::-1])
                    assert np.array_equal(my, mx[:, ::-1]) and np.array_equal(ey, ex[:, ::-1])
                    y = np.cos(2.0 * math.pi * (n // 4 - angles) / n)
                else:
                    y = np.sin(theta)
                for (m, e), coord in (((mx, ex), np.cos(theta)), ((my, ey), y)):
                    ref_m, ref_e = _phi_mantexp(level.hbar, 60, np.outer(coord, radii).ravel())
                    assert np.array_equal(m.reshape(61, -1), ref_m)
                    assert np.array_equal(e.reshape(61, -1), ref_e)

    def test_comparisons_equal_the_signs_of_the_sums(self):
        level = level_new(2, 41)
        coeffs = np.stack([sample_field(level, s).coeffs for s in range(1, 7)])
        basis, _ = _point_basis(level, _circle_grid(400)[:101])
        gemm = (coeffs[:, 0::2] @ basis[0::2], coeffs[:, 1::2] @ basis[1::2])
        tiny = np.nextafter(0.0, 1.0)
        crafted = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0],
                            [1.5, -1.5], [-1.5, 1.5], [2.5, 2.5], [-2.5, -2.5],
                            [tiny, -tiny], [tiny, tiny], [-tiny, 0.0], [1e308, 1e308],
                            [-1e308, 1e308], [1e308, -1e308], [0.1, 0.2], [0.3, -0.1]]).T
        for s_e, s_o in (gemm, (crafted[:1], crafted[1:])):
            with np.errstate(over="ignore"):
                sums = (s_e + s_o, s_e - s_o, -(s_e + s_o), -(s_e - s_o))
            reference = np.stack([np.where(v >= 0, 1, -1) for v in sums], axis=1)
            out = np.empty(reference.shape, dtype=bool)
            _reflected_signs(s_e, s_o.copy(), out, used=(True,) * 4)
            assert np.array_equal(out, reference == 1)

    @pytest.mark.parametrize("n, n_points", [(40, 1000), (41, 1000), (40, 998), (41, 1001)])
    def test_circle_signs_over_several_passes(self, n, n_points, monkeypatch):
        level = level_new(2, n)
        coeffs = np.stack([sample_field(level, s).coeffs for s in range(1, 6)])
        one_pass = _circle_signs(level, coeffs, n_points)
        monkeypatch.setattr(montecarlo, "_PASS_ENTRIES", (n + 1) * 37)
        n_base = n_points // 4 + 1 if n_points % 2 == 0 else n_points // 2 + 1
        assert len(_fan_passes(n_points, n_base, n + 1, 1)[0]) > 3
        assert np.array_equal(_circle_signs(level, coeffs, n_points), one_pass)

    @pytest.mark.parametrize("n_rays", [32, 30, 7])
    @pytest.mark.parametrize("entries, cuts_rays", [(41 * 300, True), (41 * 2000, False)])
    def test_radial_profile_over_several_passes(self, n_rays, entries, cuts_rays, monkeypatch):
        # 525 points per ray: 41 * 300 entries cut every ray into slices,
        # 41 * 2000 hold whole rays, a few base angles a pass
        spec = EnsembleSpec(level=level_new(2, 40), seeds=tuple(range(1, 7)), n_rays=n_rays)
        radii = [0.6, 0.8, 1.0, 1.2]
        one_pass = radial_zero_profile(spec, radii)
        calls = []
        monkeypatch.setattr(montecarlo, "_PASS_ENTRIES", entries)
        monkeypatch.setattr(montecarlo, "_fan_axes",
                            lambda *args: calls.append(args) or _fan_axes(*args))
        several = radial_zero_profile(spec, radii)
        assert len(calls) > 1
        assert all(41 * len(angles) * len(ts) <= entries for _, _, angles, ts in calls)
        assert any(len(ts) < 525 for *_, ts in calls) == cuts_rays
        assert [(e.value, e.std_error) for e in several] == \
            [(e.value, e.std_error) for e in one_pass]

    @pytest.mark.parametrize("n_rays", [8, 6])
    def test_radial_pass_memory_is_bounded_at_large_n(self, n_rays, tmp_path):
        # at N = 600 one ray holds 5.8e6 basis entries, more than _PASS_ENTRIES;
        # passes of whole rays took 265 MB, passes that also cut the rays
        # hold it to 130 MB (4 | n) and 175 MB (peak RSS over the call, in a
        # fresh interpreter)
        script = (
            "import resource, oscnodal\n"
            "from oscnodal.montecarlo import EnsembleSpec, radial_zero_profile\n"
            f"def run(n):\n"
            f"    spec = EnsembleSpec(level=oscnodal.level_new(2, n), seeds=(1, 2), n_rays={n_rays})\n"
            "    radial_zero_profile(spec, [0.5, 0.9, 1.4])\n"
            "run(20)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run(600)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n")
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) <= 200.0

    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("n_rays", [1, 2, 7, 30, 32])
    def test_radial_profile_equals_per_ray_evaluation(self, n, n_rays):
        spec = EnsembleSpec(level=level_new(2, n), seeds=tuple(range(1, 7)), n_rays=n_rays)
        radii = [0.6, 0.8, 1.0, 1.2]
        folded = radial_zero_profile(spec, radii)
        reference = _radial_zero_profile_per_ray(spec, radii)
        assert [(e.value, e.std_error) for e in folded] == \
            [(e.value, e.std_error) for e in reference]


def _circle_grid(n):
    """The n circle points as the program defines them.

    When 4 | n, each coordinate is the cosine of the angular distance to the
    nearest point of its axis, with that point's sign, so that sin theta_j is
    cos theta_(n/4 - j) and every point is an exact reflection of a
    first-quadrant point; otherwise (cos theta_j, sin theta_j).
    """
    theta = 2.0 * math.pi * np.arange(n) / n
    if n % 4:
        return np.column_stack([np.cos(theta), np.sin(theta)])
    q = n // 4
    j = np.arange(n)
    cos = np.cos(2.0 * math.pi * np.arange(q + 1) / n)
    to_plus_x, to_minus_x = np.minimum(j, n - j), np.abs(j - 2 * q)
    to_plus_y, to_minus_y = np.abs(j - q), np.abs(j - 3 * q)
    def nearest(to_plus, to_minus):
        # ties go to the plus side, as the reflection fold has them
        return np.where(to_minus < to_plus, -cos[np.minimum(to_minus, q)],
                        cos[np.minimum(to_plus, q)])

    return np.column_stack([nearest(to_plus_x, to_minus_x), nearest(to_plus_y, to_minus_y)])


def _radial_zero_profile_per_ray(spec, radii):
    """radial_zero_profile evaluated ray by ray, radius bin by radius bin."""
    level = spec.level
    radii = np.asarray(sorted(radii), dtype=float)
    half_width = float(np.diff(radii).min()) / 2.0
    t_step = level.hbar / 8.0
    ts = _grid_axis(max(radii[0] - half_width, t_step), radii[-1] + half_width, t_step)
    mids = 0.5 * (ts[1:] + ts[:-1])
    per_seed = np.zeros((len(spec.seeds), len(radii)))
    coeffs = np.stack([sample_field(level, s).coeffs for s in spec.seeds])
    for ang in 2.0 * math.pi * np.arange(spec.n_rays) / spec.n_rays:
        pts = np.column_stack([ts * math.cos(ang), ts * math.sin(ang)])
        signs = np.where(coeffs @ _point_basis(level, pts)[0] >= 0, 1, -1)
        changes = signs[:, 1:] != signs[:, :-1]
        for i, r in enumerate(radii):
            per_seed[:, i] += np.sum(changes[:, np.abs(mids - r) <= half_width], axis=1)
    per_seed /= spec.n_rays * 2.0 * half_width
    return [NodalEstimate(value=float(np.mean(col)),
                          std_error=float(np.std(col, ddof=1) / math.sqrt(len(col))),
                          n_samples=len(col), resolution=t_step)
            for col in per_seed.T]


class TestNodalLength:
    def test_plane_wave_control(self):
        wavelength = 0.1
        field = lambda pts: np.sin(2 * math.pi * pts[:, 0] / wavelength)
        box = ((0.013, 1.013), (0.0, 1.0))
        est = nodal_length(field, box, 0.004)
        assert est.value == pytest.approx(2.0 / wavelength, rel=0.01)

    def test_constant_field_has_no_zeros(self):
        est = nodal_length(lambda pts: np.ones(len(pts)), ((0, 1), (0, 1)), 0.02)
        assert est.value == 0.0

    def test_circle_control(self):
        field = lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2 - 0.5 ** 2
        est = nodal_length(field, ((-1, 1), (-1, 1)), 0.01)
        assert est.value == pytest.approx(2 * math.pi * 0.5, rel=0.005)

    def test_resolution_rule_enforced(self):
        level = level_new(2, 100)
        field = sample_field(level, 1)
        with pytest.raises(ValueError):
            nodal_length(field, ((0.4, 0.6), (-0.1, 0.1)), level.hbar)

    @pytest.mark.parametrize("box", [((0.5, 0.5), (-0.1, 0.1)), ((0.4, 0.6), (0.1, -0.1))])
    def test_box_sides_must_be_positive(self, box):
        level = level_new(2, 20)
        with pytest.raises(ValueError, match="box sides must be positive"):
            nodal_length(sample_field(level, 1), box, level.hbar / 8)
        with pytest.raises(ValueError, match="box sides must be positive"):
            nodal_length_ensemble(level, [1, 2], box, level.hbar / 8)
        with pytest.raises(ValueError, match="box sides must be positive"):
            nodal_length(lambda pts: pts[:, 0] - 0.5, box, 0.01)

    def test_field_path_matches_callable_path(self):
        level = level_new(2, 60)
        field = sample_field(level, 3)
        box = ((0.3, 0.45), (0.0, 0.15))
        step = level.hbar / 8
        a = nodal_length(field, box, step)
        b = nodal_length(lambda pts: field.evaluate(pts), box, step)
        assert a.value == pytest.approx(b.value, rel=1e-9)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-6, abs=1e-12)
        fine, coarse = montecarlo._box_lengths(level, field.coeffs[None], box, step)[:, 0]
        assert (a.value, a.std_error) == (2.0 * fine - coarse, abs(fine - coarse))

    def test_coarse_grid_is_the_even_nodes_of_the_fine_grid(self):
        # the fine axes refine the grid_step axes at their midpoints, and the
        # coarse length is marching squares on the even nodes at twice the step
        level, box = level_new(2, 60), ((0.4, 0.6), (-0.1, 0.1))
        step = level.hbar / 8.0
        xs, ys = montecarlo._fine_axes(box, step)
        for (lo, hi), axis in zip(box, (xs, ys)):
            coarse = _grid_axis(lo, hi, step)
            assert len(axis) == 2 * len(coarse) - 1
            assert axis[::2] == pytest.approx(coarse, rel=0, abs=1e-15)
        coeffs = _ensemble_coeffs(level, [5, 6])
        fine, coarse = montecarlo._box_lengths(level, coeffs, box, step)
        dx, dy = xs[1] - xs[0], ys[1] - ys[0]
        for a, f_len, c_len in zip(coeffs, fine, coarse):
            f = _grid_values(a, *_tensor_basis(level, xs, ys))
            assert f_len == _marching_squares_length(f, dx, dy)
            assert c_len == _marching_squares_length(f[::2, ::2], 2 * dx, 2 * dy)

    def test_one_basis_and_one_evaluation_per_field(self, monkeypatch):
        calls = {"_tensor_basis": 0, "_grid_values": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(montecarlo, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(montecarlo, name, counted)
        level, box = level_new(2, 40), ((0.4, 0.6), (-0.1, 0.1))
        nodal_length_ensemble(level, range(1, 6), box, level.hbar / 8.0)
        assert calls == {"_tensor_basis": 1, "_grid_values": 5}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            nodal_length(sample_field(level, 1), box, level.hbar / 8.0)
        assert calls == {"_tensor_basis": 2, "_grid_values": 6}


def _marching_squares_reference(f, dx, dy):
    """Per-case masked marching squares over the whole grid (the oracle)."""
    segments_of = {
        1: [(0, 3)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
        3: [(3, 1)], 6: [(0, 2)], 12: [(1, 3)], 9: [(0, 2)],
        7: [(2, 3)], 11: [(1, 2)], 13: [(0, 1)], 14: [(0, 3)],
    }
    bl = f[:-1, :-1]
    br = f[:-1, 1:]
    tr = f[1:, 1:]
    tl = f[1:, :-1]
    case = ((bl >= 0).astype(np.int8) + 2 * (br >= 0).astype(np.int8)
            + 4 * (tr >= 0).astype(np.int8) + 8 * (tl >= 0).astype(np.int8))
    with np.errstate(divide="ignore", invalid="ignore"):
        xb = bl / (bl - br)
        yr = br / (br - tr)
        xt = tl / (tl - tr)
        yl = bl / (bl - tl)
    ex = (xb, np.ones_like(xb), xt, np.zeros_like(xb))
    ey = (np.zeros_like(xb), yr, np.ones_like(yr), yl)

    def seg_len(mask, e1, e2):
        with np.errstate(invalid="ignore"):
            ddx = (ex[e1] - ex[e2]) * dx
            ddy = (ey[e1] - ey[e2]) * dy
        return float(np.sum(np.hypot(ddx, ddy)[mask]))

    total = 0.0
    for c, segments in segments_of.items():
        mask = case == c
        if not mask.any():
            continue
        for e1, e2 in segments:
            total += seg_len(mask, e1, e2)
    center = bl + br + tr + tl
    for c, pos_pair, neg_pair in ((5, [(0, 1), (2, 3)], [(0, 3), (1, 2)]),
                                  (10, [(0, 3), (1, 2)], [(0, 1), (2, 3)])):
        mask = case == c
        if not mask.any():
            continue
        for e1, e2 in pos_pair:
            total += seg_len(mask & (center >= 0), e1, e2)
        for e1, e2 in neg_pair:
            total += seg_len(mask & (center < 0), e1, e2)
    return total


class TestMarchingSquares:
    BOX = ((0.4, 0.6), (-0.1, 0.1))

    def test_bit_identical_to_reference_on_sampled_fields(self):
        level = level_new(2, 60)
        (x0, x1), (y0, y1) = self.BOX
        for step in (level.hbar / 8.0, level.hbar / 16.0):
            xs = _grid_axis(x0, x1, step)
            ys = _grid_axis(y0, y1, step)
            cx, cy = _tensor_basis(level, xs, ys)
            for seed in range(1, 6):
                f = _grid_values(sample_field(level, seed).coeffs, cx, cy)
                dx, dy = xs[1] - xs[0], ys[1] - ys[0]
                assert _marching_squares_length(f, dx, dy) == \
                    _marching_squares_reference(f, dx, dy)

    def test_saddles_with_both_center_signs(self):
        # checkerboard signs: cells are saddles 5, 10, 5, 10 with center sums
        # 4, 2, -2, -2; the last grid is a saddle 5 whose center sum is
        # exactly 0, which counts as positive
        for f in (np.array([[3.0, -1.0, 1.0, -3.0, 1.0],
                            [-1.0, 3.0, -1.0, 1.0, -1.0]]),
                  np.array([[2.0, -1.0], [-4.0, 3.0]])):
            assert _marching_squares_length(f, 0.3, 0.7) == \
                _marching_squares_reference(f, 0.3, 0.7)
        # one saddle 5 with a positive center: its segments cut off the
        # negative bottom-right and top-left corners, |(0.25, 0.25)| and
        # |(0.4, 0.4)|; the other pattern would measure ~1.92
        single = np.array([[3.0, -1.0], [-2.0, 3.0]])
        assert _marching_squares_length(single, 1.0, 1.0) == \
            pytest.approx(math.hypot(0.25, 0.25) + math.hypot(0.4, 0.4), rel=1e-14)

    def test_exact_zeros_at_nodes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.integers(-2, 3, size=(9, 13)).astype(float)
            assert _marching_squares_length(f, 0.1, 0.2) == \
                _marching_squares_reference(f, 0.1, 0.2)
        assert _marching_squares_length(np.zeros((5, 6)), 0.1, 0.1) == 0.0

    def test_constant_field(self):
        for value in (1.0, -1.0):
            f = np.full((7, 8), value)
            assert _marching_squares_length(f, 0.1, 0.1) == 0.0
            assert _marching_squares_reference(f, 0.1, 0.1) == 0.0

    def test_ensemble_equals_single_field_richardson(self):
        level = level_new(2, 60)
        seeds = range(1, 5)
        step = level.hbar / 8.0
        lengths, _ = nodal_length_ensemble(level, seeds, self.BOX, step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            single = [nodal_length(sample_field(level, s), self.BOX, step).value
                      for s in seeds]
        assert list(lengths) == single

    def test_ensemble_enforces_the_resolution_rule(self):
        level = level_new(2, 60)
        with pytest.raises(ValueError, match="hbar/8"):
            nodal_length_ensemble(level, [1, 2], self.BOX, level.hbar)

    def test_ensembles_are_d2_only(self):
        level = level_new(3, 6)
        with pytest.raises(ValueError, match="d = 2"):
            nodal_length_ensemble(level, [1, 2], self.BOX, level.hbar / 8.0)
        with pytest.raises(ValueError, match="d = 2"):
            caustic_crossings_ensemble(level, [1, 2])


class TestCausticCrossings:
    @pytest.mark.parametrize("n, counts", [
        (60, [28, 32, 40, 44, 28, 32, 32, 20, 36, 28, 32, 32]),
        (200, [56, 68, 84, 80, 72, 72, 64, 64, 68, 72, 72, 76]),
    ])
    def test_counts_are_pinned(self, n, counts):
        # seeds 1-12: the single-field and ensemble entries share one count
        # routine, and their counts stay pinned
        level = level_new(2, n)
        assert caustic_crossings_ensemble(level, range(1, 13))[0].tolist() == counts
        for seed in (1, 2, 3):
            est = caustic_crossings(sample_field(level, seed))
            assert (est.value, est.std_error) == (counts[seed - 1], 0.0)

    def test_count_is_even(self):
        level = level_new(2, 60)
        for seed in range(1, 8):
            est = caustic_crossings(sample_field(level, seed))
            assert est.value % 2 == 0

    def test_step_cap_enforced(self):
        level = level_new(2, 60)
        with pytest.raises(ValueError):
            caustic_crossings(sample_field(level, 1),
                              angular_step=level.hbar ** (2.0 / 3.0))

    def test_ensemble_enforces_the_step_cap(self):
        with pytest.raises(ValueError, match="angular_step"):
            caustic_crossings_ensemble(level_new(2, 60), [1, 2, 3], angular_step=0.5)

    def test_rotation_invariance_of_ensemble_mean(self):
        # composing the fields with a fixed rotation leaves the mean count
        # unchanged within error (counting on a rotated circle grid)
        level = level_new(2, 100)
        seeds = range(1, 61)
        counts, est = caustic_crossings_ensemble(level, seeds)
        n_pts = round(2 * math.pi / est.resolution)
        angles = 2 * math.pi * np.arange(n_pts) / n_pts + 0.7
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        basis, _ = _point_basis(level, pts)
        rotated = np.empty(len(counts))
        for i, seed in enumerate(seeds):
            signs = np.where(sample_field(level, seed).coeffs @ basis >= 0, 1, -1)
            rotated[i] = np.sum(signs != np.roll(signs, -1))
        se = math.sqrt(np.var(counts, ddof=1) / len(counts)
                       + np.var(rotated, ddof=1) / len(counts))
        assert abs(np.mean(rotated) - np.mean(counts)) <= 3.0 * se

    def test_estimator_consistency(self):
        # doubling the ensemble shrinks the standard error by sqrt(2) +- 20%
        level = level_new(2, 60)
        _, est1 = caustic_crossings_ensemble(level, range(1, 151))
        _, est2 = caustic_crossings_ensemble(level, range(1, 301))
        ratio = est1.std_error / est2.std_error
        assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)


class TestRadialProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        level = level_new(2, 200)
        spec = EnsembleSpec(level=level, seeds=tuple(range(1, 201)), n_rays=32)
        radii = [0.5, 0.9, 1.0 - level.hbar ** (2.0 / 3.0),
                 1.0, 1.0 + level.hbar ** (2.0 / 3.0), 1.1, 1.4]
        return level, radii, radial_zero_profile(spec, radii)

    def test_forbidden_sparser_than_allowed(self, profile):
        _, radii, estimates = profile
        dens = {r: e for r, e in zip(radii, estimates)}
        assert dens[1.4].value < dens[0.9].value

    def test_tube_transition_location(self, profile):
        # the bulk-to-forbidden transition (the peak of the proportional
        # density falloff) sits within 3 hbar^(2/3) of the caustic; bins of
        # width hbar^(2/3) average out the hbar-scale bulk oscillations
        level, _, _ = profile
        h23 = level.hbar ** (2.0 / 3.0)
        radii = np.arange(0.88, 1.12, h23)
        spec = EnsembleSpec(level=level, seeds=tuple(range(1, 201)), n_rays=32)
        prof = radial_zero_profile(spec, radii, half_width=h23 / 2.0)
        vals = np.array([p.value for p in prof])
        drop = -np.diff(np.log(np.maximum(vals, 1e-6)))
        mid = 0.5 * (radii[1:] + radii[:-1])
        assert abs(mid[np.argmax(drop)] - 1.0) <= 3.0 * h23

    def test_disjoint_ensembles_agree(self, profile):
        level, radii, first = profile
        spec = EnsembleSpec(level=level, seeds=tuple(range(201, 401)), n_rays=32)
        second = radial_zero_profile(spec, radii)
        for a, b in zip(first, second):
            se = math.sqrt(a.std_error ** 2 + b.std_error ** 2)
            if se == 0.0:
                assert a.value == b.value
            else:
                assert abs(a.value - b.value) <= 3.0 * se

    @pytest.mark.parametrize("radii,half_width,message", [
        ([0.5, 0.5], None, "radii must be"), ([0.5, 0.7, 0.5], 0.05, "radii must be"),
        ([-0.5, 0.5], None, "radii must be"), ([0.0, 0.5], None, "radii must be"),
        ([], None, "radii must be"), ([0.5, 0.7], 0.0, "half_width must be"),
        ([0.5, 0.7], -0.1, "half_width must be")])
    def test_rejects_bad_radii(self, radii, half_width, message):
        spec = EnsembleSpec(level=level_new(2, 20), seeds=(1, 2), n_rays=4)
        with pytest.raises(ValueError, match=message):
            radial_zero_profile(spec, radii, half_width=half_width)


class TestNoForbiddenNodalDomain:
    def test_components_in_forbidden_region_touch_allowed(self):
        # every nodal domain meeting {|x| > 1} must also meet {|x| <= 1};
        # checked on the evaluation grid for 50 fields (domains that touch
        # the window edge are inconclusive and skipped).  Only the sign set
        # outside the disc is labelled: a domain misses the disc exactly when
        # its outside part is a component with no 4-neighbour of its own sign
        # inside the disc
        level = level_new(2, 100)
        step = level.hbar / 8.0
        half = 1.55
        xs = _grid_axis(-half, half, step)
        ys = xs.copy()
        cx, cy = _tensor_basis(level, xs, ys)
        gx, gy = np.meshgrid(xs, ys)
        inside = gx ** 2 + gy ** 2 <= 1.0
        outside = ~inside
        # flat indices of every (outside pixel, inside 4-neighbour) pair
        index = np.arange(inside.size).reshape(inside.shape)
        rim_out, rim_in = [], []
        for a, b in ((np.s_[1:], np.s_[:-1]), (np.s_[:-1], np.s_[1:])):
            for here, there in (((a, slice(None)), (b, slice(None))),
                                ((slice(None), a), (slice(None), b))):
                hit = outside[here] & inside[there]
                rim_out.append(index[here][hit])
                rim_in.append(index[there][hit])
        rim_out, rim_in = np.concatenate(rim_out), np.concatenate(rim_in)
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for seed in range(1, 51):
            values = _grid_values(sample_field(level, seed).coeffs, cx, cy)
            positive = values >= 0
            joined = positive.ravel()[rim_out] == positive.ravel()[rim_in]
            for sign in (positive, ~positive):
                labels, n_labels = ndimage.label(sign & outside, structure=structure)
                # components that reach the window edge or a same-sign inside pixel
                reaches = np.zeros(n_labels + 1, dtype=bool)
                for border in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
                    reaches[border] = True
                reaches[labels.ravel()[rim_out[joined]]] = True
                assert reaches[1:].all(), f"seed {seed}: isolated forbidden domain"
