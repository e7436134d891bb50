"""Command-line interface: tables, manifests, determinism, exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import oscnodal
from oscnodal import ai_k, cli, level_new, pi_exact
from oscnodal.cli import main, read_table


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    status = main(list(argv) + ["-o", str(out)])
    return status, out


class TestAiryCommand:
    def test_table_and_round_trip(self, tmp_path):
        status, out = run(tmp_path, "airy", "--k", "-1", "--s", "-10:10:0.05")
        assert status == 0
        header, rows = read_table(out)
        assert header == ["k", "s", "value", "method"]
        assert len(rows) == 401
        mid = rows[200]
        assert mid[1] == pytest.approx(0.0, abs=1e-12)
        assert mid[2] == pytest.approx(ai_k(-1.0, 0.0), rel=1e-12)
        # full round-trip precision: re-parsed values match exactly
        assert mid[2] == float(repr(mid[2]))

    def test_table_equals_scalar_values(self, tmp_path):
        # one ai_k call per table, each value the scalar ai_k's to the bit
        status, out = run(tmp_path, "airy", "--k", "-1.5", "--s", "-40:10:0.35")
        assert status == 0
        rows = read_table(out)[1]
        assert [row[2] for row in rows] == [ai_k(-1.5, row[1]) for row in rows]

    @pytest.mark.parametrize("s", ["1e308", "-1e308"])
    def test_overflowing_argument_is_a_usage_error(self, tmp_path, capsys, s):
        status, out = run(tmp_path, "airy", "--k", "-1", "--s", s)
        assert status == 1
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_header_and_comment_block(self, tmp_path):
        _, out = run(tmp_path, "airy", "--k", "0", "--s", "0:1:0.5")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert any(not line.startswith("#") and line.startswith("k,")
                   for line in lines)

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["airy", "--k", "-0.5", "--s", "-3:3:0.1", "-o", str(a)])
        main(["airy", "--k", "-0.5", "--s", "-3:3:0.1", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        _, out = run(tmp_path, "airy", "--k", "0", "--s", "0,1")
        manifest = json.loads((tmp_path / "out_manifest.json").read_text())
        assert manifest["command"] == "airy"
        assert manifest["parameters"]["k"] == 0.0
        assert "library_version" in manifest
        assert manifest["wall_clock_seconds"] >= 0.0
        assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
        assert manifest["numpy"] == np.__version__
        # the version of the scipy loaded in this process, null when none is
        loaded = sys.modules.get("scipy")
        assert manifest["scipy"] == (loaded.__version__ if loaded else None)
        assert manifest["cpu_count"] == os.cpu_count()


class TestProjectorCommand:
    def test_single_pair(self, tmp_path):
        status, out = run(tmp_path, "projector", "--d", "2", "--N", "12",
                          "--x", "0.5,0.1", "--y", "0.2,-0.3")
        assert status == 0
        header, rows = read_table(out)
        assert header == ["x1", "x2", "y1", "y2", "pi_mantissa", "pi_exponent"]
        value = rows[0][4] * math.exp(rows[0][5])
        expect = pi_exact(level_new(2, 12), [0.5, 0.1], [0.2, -0.3]).to_float()
        assert value == pytest.approx(expect, rel=1e-12)

    def test_empty_pairs_csv_is_a_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        status, out = run(tmp_path, "projector", "--d", "2", "--N", "12",
                          "--pairs-csv", str(empty))
        assert status == 1
        assert "empty.csv has no header row" in capsys.readouterr().err
        assert not out.exists()

    def test_mehler_method(self, tmp_path):
        status, out = run(tmp_path, "projector", "--d", "2", "--N", "12",
                          "--x", "0.5,0.1", "--method", "mehler")
        assert status == 0
        _, rows = read_table(out)
        value = rows[0][4] * math.exp(rows[0][5])
        expect = pi_exact(level_new(2, 12), [0.5, 0.1]).to_float()
        assert value == pytest.approx(expect, rel=1e-9)


class TestDensityCommand:
    def test_caustic_tube_curve(self, tmp_path):
        status, out = run(tmp_path, "density", "--regime", "caustic-tube",
                          "--d", "2", "--N", "100", "--u1-range", "-3:3:0.1")
        assert status == 0
        header, rows = read_table(out)
        assert len(rows) == 61
        assert "predicted_density_log" in header
        logs = [r[header.index("predicted_density_log")] for r in rows]
        assert all(np.isfinite(logs))

    @pytest.mark.parametrize("regime", sorted(cli._REGIMES))
    def test_default_range_stays_on_the_regime_side(self, tmp_path, regime):
        status, out = run(tmp_path, "density", "--regime", regime, "--d", "2",
                          "--N", "20", "--with-exact")
        assert status == 0
        header, rows = read_table(out)
        assert rows
        assert all(np.isfinite(r[header.index("exact_density_log")]) for r in rows)

    def test_explicit_range_on_the_wrong_side_is_an_error(self, tmp_path, capsys):
        status, out = run(tmp_path, "density", "--regime", "allowed-annulus",
                          "--N", "20", "--u1-range", "-1:1:0.5")
        assert status == 1
        assert "allowed annulus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("regime,alpha", [("allowed-bulk", 0.0), ("allowed-annulus", 0.5),
                                              ("caustic-tube", 2.0 / 3.0),
                                              ("forbidden-annulus", 0.5), ("forbidden-bulk", 0.0)])
    def test_default_alpha_is_the_regime_own(self, tmp_path, regime, alpha):
        status, out = run(tmp_path, "density", "--regime", regime, "--N", "20")
        assert status == 0
        header, rows = read_table(out)
        assert {r[header.index("alpha")] for r in rows} == {alpha}
        explicit = tmp_path / "explicit.csv"
        assert main(["density", "--regime", regime, "--N", "20", "--alpha", repr(alpha),
                     "-o", str(explicit)]) == 0
        assert explicit.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("regime,message", [
        ("caustic-tube", "caustic_tube requires alpha = 2/3"),
        ("allowed-bulk", "bulk regions require alpha = 0"),
        ("forbidden-bulk", "bulk regions require alpha = 0"),
    ])
    def test_alpha_off_the_regime_is_a_usage_error(self, tmp_path, capsys, regime, message):
        # --alpha used to be overridden silently for these regimes
        status, out = run(tmp_path, "density", "--regime", regime, "--N", "20",
                          "--alpha", "0.3", "--u1-range", "0,1")
        assert status == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_alpha_moves_an_annulus(self, tmp_path):
        status, out = run(tmp_path, "density", "--regime", "forbidden-annulus",
                          "--N", "20", "--alpha", "0.3", "--u1-range", "1")
        assert status == 0
        header, rows = read_table(out)
        assert rows[0][header.index("alpha")] == 0.3

    def test_validation_exit_code(self, tmp_path):
        # an absurdly tight tolerance forces the validation failure path
        status, _ = run(tmp_path, "density", "--regime", "allowed-bulk",
                        "--d", "2", "--N", "100", "--u1-range", "-0.3:-0.3:1",
                        "--with-exact", "--tolerance", "1e-12")
        assert status == 2

    def test_caustic_tube_refuses_an_underflowing_offset(self, tmp_path, capsys):
        for u1 in ("53:53:1", "-1,60"):
            status, out = run(tmp_path, "density", "--regime", "caustic-tube", "--d", "2",
                              "--u1-range", u1)
            assert status == 1
            err = capsys.readouterr().err
            assert f"--u1-range {u1!r}" in err and "smallest normal float" in err
            assert not out.exists()
        status, out = run(tmp_path, "density", "--regime", "caustic-tube", "--d", "2",
                          "--u1-range", "50:50:1")
        assert status == 0
        header, rows = read_table(out)
        assert math.isfinite(rows[0][header.index("predicted_density_log")])

    def test_caustic_tube_d4_is_fast(self, tmp_path):
        # the d >= 4 sphere average is one fixed 333-node rule per point
        start = time.perf_counter()
        status, out = run(tmp_path, "density", "--regime", "caustic-tube", "--d", "4")
        elapsed = time.perf_counter() - start
        assert status == 0
        assert len(read_table(out)[1]) == 61
        assert elapsed < 1.0


class TestScalingSweepCommand:
    def test_slope_report(self, tmp_path, capsys):
        status, out = run(tmp_path, "scaling-sweep", "--d", "2",
                          "--N", "100,200,400", "--point", "allowed")
        assert status == 0
        printed = capsys.readouterr().out
        assert "fitted slope" in printed
        header, rows = read_table(out)
        assert len(rows) == 3

    def test_tolerance_failure_exit(self, tmp_path):
        status, _ = run(tmp_path, "scaling-sweep", "--d", "2",
                        "--N", "100,200", "--point", "allowed",
                        "--tolerance", "1e-6")
        assert status == 2

    def test_allowed_annulus_at_s4_within_tolerance(self, tmp_path):
        # s = 4 (criterion 5, and the default) puts every N of the default
        # list in the annulus regime; s = 1 does not (slope -0.93 against -0.75)
        status, _ = run(tmp_path, "scaling-sweep", "--point", "allowed-annulus",
                        "--s", "4", "--tolerance", "0.06")
        assert status == 0

    @pytest.mark.parametrize("point, flags", [
        # alpha = 0 and s = 4 ask for |x|^2 = 1 - 4 at every N
        ("allowed-annulus", ("--alpha", "0", "--s", "4")),
        ("forbidden-annulus", ("--s", "-1")),
    ])
    def test_annulus_shift_out_of_range_is_usage_error(self, tmp_path, capsys, point, flags):
        status, out = run(tmp_path, "scaling-sweep", "--N", "100,200", "--point", point, *flags)
        assert status == 1
        err = capsys.readouterr().err
        assert "--s" in err and "--alpha" in err and "N = 100" in err
        assert not out.exists()

    @pytest.mark.parametrize("point", ["allowed-annulus", "forbidden-annulus"])
    @pytest.mark.parametrize("alpha", ["-200", "0.9", "nan"])
    def test_annulus_alpha_out_of_range_is_usage_error(self, tmp_path, capsys, point, alpha):
        # -200 used to overflow in hbar ** alpha with an uncaught traceback
        status, out = run(tmp_path, "scaling-sweep", "--N", "100,200", "--point", point,
                          "--alpha", alpha)
        assert status == 1
        assert "alpha must lie in [0, 2/3]" in capsys.readouterr().err
        assert not out.exists()

    def test_default_s_fits_both_annuli(self, tmp_path):
        for point in ("allowed-annulus", "forbidden-annulus"):
            assert run(tmp_path, "scaling-sweep", "--point", point, "--tolerance", "0.06")[0] == 0

    @pytest.mark.parametrize("ns", ["100,100", "200", "100,100,100"])
    def test_fewer_than_two_distinct_n_is_a_usage_error(self, tmp_path, capsys, ns):
        # one distinct hbar leaves the slope undetermined (numpy's RankWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run(tmp_path, "scaling-sweep", "--N", ns, "--point", "allowed")
        assert status == 1
        assert "at least two distinct N values" in capsys.readouterr().err
        assert not out.exists()

    def test_d3_sweep_point_is_r_e1(self, tmp_path):
        status, out = run(tmp_path, "scaling-sweep", "--d", "3", "--N", "20,40",
                          "--point", "caustic")
        assert status == 0
        _, rows = read_table(out)
        assert [(row[1], row[4]) for row in rows] == [(3, 1.0), (3, 1.0)]


class TestMonteCarloCommand:
    def test_crossings_table(self, tmp_path):
        status, out = run(tmp_path, "montecarlo", "--statistic",
                          "caustic-crossings", "--d", "2", "--N", "40",
                          "--seeds", "4", "--seed", "7")
        assert status == 0
        header, rows = read_table(out)
        assert header == ["seed", "N", "statistic", "value", "std_error",
                          "resolution"]
        assert rows[-1][0] == "mean"
        assert all(r[3] % 2 == 0 for r in rows[:-1])

    def test_radial_profile_table(self, tmp_path):
        status, out = run(tmp_path, "montecarlo", "--statistic",
                          "radial-profile", "--d", "2", "--N", "40",
                          "--seeds", "4", "--radii", "0.6:1.2:0.2")
        assert status == 0
        _, rows = read_table(out)
        assert len(rows) == 4

    @pytest.mark.parametrize("radii", ["0.5,0.5", "-0.5,0.5", "0,0.5"])
    def test_bad_radii_are_a_usage_error(self, tmp_path, capsys, radii):
        # a repeated radius used to divide by a zero half-width (NaN rows,
        # exit 0) and a negative one to write a 0.0 row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run(tmp_path, "montecarlo", "--statistic", "radial-profile",
                              "--d", "2", "--N", "20", "--seeds", "2", "--radii", radii)
        assert status == 1
        assert "radii must be positive and distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("statistic", ["nodal-length", "caustic-crossings"])
    def test_d3_is_a_usage_error(self, tmp_path, capsys, statistic):
        status, out = run(tmp_path, "montecarlo", "--statistic", statistic,
                          "--d", "3", "--N", "6", "--seeds", "2")
        assert status == 1
        assert "d = 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rays", ["0", "-4"])
    def test_rays_below_one_is_a_usage_error(self, tmp_path, capsys, rays):
        status, out = run(tmp_path, "montecarlo", "--statistic", "radial-profile",
                          "--d", "2", "--N", "20", "--seeds", "2", "--rays", rays)
        assert status == 1
        assert "at least one ray" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("statistic", ["caustic-crossings", "nodal-length",
                                           "radial-profile"])
    @pytest.mark.parametrize("seeds", ["0", "1"])
    def test_seeds_below_two_is_a_usage_error(self, tmp_path, capsys, statistic, seeds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run(tmp_path, "montecarlo", "--statistic", statistic,
                              "--d", "2", "--N", "20", "--seeds", seeds)
        assert status == 1
        assert "at least two seeds for a standard error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-0.2"])
    def test_box_size_must_be_positive(self, tmp_path, capsys, size):
        # a zero or negative box used to write zero lengths and exit 0
        status, out = run(tmp_path, "montecarlo", "--statistic", "nodal-length",
                          "--d", "2", "--N", "20", "--seeds", "2", "--box-size", size)
        assert status == 1
        assert "box-size must lie in (0, inf)" in capsys.readouterr().err
        assert not out.exists()

    def test_nodal_length_table(self, tmp_path):
        status, out = run(tmp_path, "montecarlo", "--statistic",
                          "nodal-length", "--d", "2", "--N", "40",
                          "--seeds", "3", "--box-size", "0.2")
        assert status == 0
        _, rows = read_table(out)
        assert rows[-1][0] == "mean"
        assert all(r[3] >= 0 for r in rows)


class TestPi0Command:
    def test_grid_table(self, tmp_path):
        status, out = run(tmp_path, "pi0", "--d", "2", "--u1-range", "-1:1:1",
                          "--v1-range", "-1:1:1", "--tangential-sep", "0.5")
        assert status == 0
        _, rows = read_table(out)
        assert len(rows) == 9

    @pytest.mark.parametrize("d", [5, 6])
    def test_airy_and_contour_tables_agree_beyond_d4(self, tmp_path, d):
        tables = []
        for method in ("airy", "contour"):
            status, out = run(tmp_path, "pi0", "--d", str(d), "--u1-range", "-2:1:1.5",
                              "--v1-range", "-1:1:1", "--tangential-sep", "0.5",
                              "--method", method)
            assert status == 0
            _, rows = read_table(out)
            tables.append(np.array([row[3] for row in rows]))
        airy_values, contour_values = tables
        assert len(airy_values) == 9
        scale = np.max(np.abs(contour_values))
        assert np.max(np.abs(airy_values - contour_values)) <= 1e-12 * scale


class TestTubeMassCommand:
    def test_ratio_reported(self, tmp_path, capsys):
        status, out = run(tmp_path, "tube-mass", "--d", "2", "--N", "100",
                          "--kappa", "1.0")
        assert status == 0
        _, rows = read_table(out)
        assert rows[0][5] == pytest.approx(1.0, abs=0.1)


class TestConfigAndErrors:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["airy", "--bogus-flag", "1"])
        assert err.value.code == 1

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag(self, tmp_path):
        assert main(["airy", "-o", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("argv", [
        ("tube-mass", "--d", "60", "--N", "100000", "--kappa", "1"),
    ])
    def test_kernel_over_budget_is_an_error_not_a_traceback(self, tmp_path, capsys, argv):
        # tube_mass folds pairs, d (N+1)^2 = 6e11 against the budget 1e8
        status, out = run(tmp_path, *argv)
        assert status == 1
        err = capsys.readouterr().err
        assert err == "oscnodal: error: kernel work d (N+1)^2 = 6e+11 exceeds the budget 1e+08\n"
        assert not out.exists()

    def test_exact_density_at_d60(self, tmp_path):
        # a radial jet costs d (N+1) = 6e6: d = 60 at N = 100000 runs
        status, out = run(tmp_path, "density", "--regime", "allowed-bulk", "--d", "60",
                          "--N", "100000", "--with-exact", "--u1-range", "-0.5")
        assert status == 0
        header, rows = read_table(out)
        assert len(rows) == 1 and rows[0][header.index("relative_error")] < 1e-6

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# airy run\nk = -1\ns = 0:1:0.5\n")
        out = tmp_path / "cfg.csv"
        status = main(["airy", "--config", str(cfg), "-o", str(out)])
        assert status == 0
        _, rows = read_table(out)
        assert len(rows) == 3
        assert rows[0][0] == -1.0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=-1\ns=0:1:0.5\n")
        out = tmp_path / "cfg.csv"
        status = main(["airy", "--config", str(cfg), "--k", "0", "-o", str(out)])
        assert status == 0
        _, rows = read_table(out)
        assert rows[0][0] == 0.0

    def test_short_output_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k=-1\ns=0:1:0.5\noutput={tmp_path / 'cfg.csv'}\n")
        out = tmp_path / "explicit.csv"
        status = main(["airy", "--config", str(cfg), "-o", str(out)])
        assert status == 0
        assert out.exists()
        assert not (tmp_path / "cfg.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("tube-mass", "--N", "40"),
        ("density", "--regime", "allowed-bulk", "--N", "100", "--u1-range", "-0.3:-0.3:1",
         "--with-exact"),
        ("scaling-sweep", "--N", "100,200", "--point", "allowed"),
    ])
    def test_config_tolerance_acts_as_the_flag(self, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        for tolerance, expected in (("1e-12", 2), ("10", 0)):
            cfg.write_text(f"tolerance={tolerance}\n")
            assert run(tmp_path, *argv, "--config", str(cfg))[0] == expected
            assert run(tmp_path, *argv, "--tolerance", tolerance)[0] == expected

    def test_config_switch_and_flag_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime=allowed-bulk\nN=100\nu1-range=-0.3:-0.3:1\n"
                       "with_exact=yes\n")
        status, out = run(tmp_path, "density", "--config", str(cfg))
        assert status == 0
        header, rows = read_table(out)
        assert "relative_error" in header
        assert rows[0][2] == 100.0

    def test_config_switch_takes_only_true_or_false(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        base = "regime=allowed-bulk\nN=40\nu1_range=-0.3:-0.3:1\n"
        cfg.write_text(base + "with_exact=maybe\n")
        status, out = run(tmp_path, "density", "--config", str(cfg))
        assert status == 1
        assert "with_exact" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(base + "with_exact=false\n")
        status, out = run(tmp_path, "density", "--config", str(cfg))
        assert status == 0
        assert "relative_error" not in read_table(out)[0]

    def test_config_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime=bogus\n")
        with pytest.raises(SystemExit) as err:
            main(["density", "--config", str(cfg), "-o", str(tmp_path / "x.csv")])
        assert err.value.code == 1
        assert "--regime" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["airy", "--config", str(cfg)]) == 1

    def test_empty_range_is_an_error(self, tmp_path, capsys):
        status, out = run(tmp_path, "airy", "--k", "-1", "--s", "5:0:1")
        assert status == 1
        assert "no values" in capsys.readouterr().err
        assert not out.exists()
        status, out = run(tmp_path, "airy", "--k", "-1", "--s", "0:0:1")
        assert status == 0
        assert len(read_table(out)[1]) == 1

    @pytest.mark.parametrize("s_range", ["0:inf:1", "nan", "0:nan:1", "0,-inf", "inf:1:1",
                                         "0:1:nan"])
    def test_non_finite_range_is_an_error(self, tmp_path, capsys, s_range):
        status, out = run(tmp_path, "airy", "--k", "-1", "--s", s_range)
        assert status == 1
        assert f"{s_range!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
    def test_non_finite_weight_is_an_error(self, tmp_path, capsys, k):
        status, out = run(tmp_path, "airy", "--k", k, "--s", "0")
        assert status == 1
        assert "finite k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("airy", "--s", "0", "--k"),
        ("pi0", "--tangential-sep"),
        ("density", "--regime", "allowed-annulus", "--alpha"),
        ("density", "--regime", "allowed-bulk", "--tolerance"),
        ("scaling-sweep", "--alpha"),
        ("scaling-sweep", "--s"),
        ("scaling-sweep", "--tolerance"),
        ("montecarlo", "--statistic", "nodal-length", "--box-x"),
        ("montecarlo", "--statistic", "nodal-length", "--box-y"),
        ("montecarlo", "--statistic", "nodal-length", "--box-size"),
        ("tube-mass", "--kappa"),
        ("tube-mass", "--tolerance"),
    ])
    def test_non_finite_float_flag_is_a_usage_error(self, tmp_path, capsys, argv, value):
        # rejected at parse time, naming the flag: a nan tolerance would switch
        # its check off, a nan offset would write NaN rows
        status, out = run(tmp_path, *argv, value)
        assert status == 1
        assert argv[-1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("tube-mass", "--N", "40"),
        ("density", "--regime", "allowed-bulk", "--N", "40", "--with-exact"),
        ("scaling-sweep", "--N", "20,40", "--point", "allowed"),
    ])
    def test_negative_tolerance_is_a_usage_error(self, tmp_path, capsys, command):
        status, out = run(tmp_path, *command, "--tolerance", "-0.1")
        assert status == 1
        assert "tolerance must lie in [0, inf)" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance=nan\n")
        assert run(tmp_path, *command, "--config", str(cfg))[0] == 1


@pytest.mark.parametrize("argv", [
    ("density", "--regime", "allowed-bulk", "--d", "1", "--u1-range", "-0.5", "--with-exact"),
    ("density", "--regime", "caustic-tube", "--N", "0", "--u1-range", "0", "--with-exact"),
    ("scaling-sweep", "--d", "1", "--N", "10,20", "--point", "allowed"),
    ("scaling-sweep", "--d", "2", "--N", "10,0", "--point", "allowed"),
])
def test_one_dimensional_eigenspace_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # d = 1 or N = 0: one eigenfunction, Omega = 0, an exact density of 0
    # (these used to exit 1 with a bare "log of zero"); refused before any
    # basis is built
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was built")
    monkeypatch.setattr(oscnodal.projector, "_phi_deriv_mantexp", no_basis)
    status, out = run(tmp_path, *argv)
    assert status == 1
    assert "one-dimensional eigenspace" in capsys.readouterr().err
    assert not out.exists()


def test_one_dimensional_eigenspace_closed_form_still_runs(tmp_path):
    # without --with-exact the closed form needs no exact density
    status, out = run(tmp_path, "density", "--regime", "allowed-bulk", "--d", "1",
                      "--u1-range", "-0.5")
    assert status == 0
    assert len(read_table(out)[1]) == 1


def _readme_commands():
    """The command lines of the README's "Command line" block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("oscnodal ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    # every command of the README block exits 0 (outputs land in tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def _run_python(cwd, *args, check=True):
    """`python *args` in a fresh interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(oscnodal.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=check)


@pytest.mark.parametrize("argv", [
    ("airy", "--k", "-1", "--s", "1e308"),
    ("airy", "--k", "-1", "--s", "-1e308"),
    ("density", "--regime", "caustic-tube", "--u1-range", "60:60:1"),
    ("pi0", "--d", "2", "--u1-range", "200:200:1", "--v1-range", "0:0:1"),
])
def test_extreme_inputs_end_without_a_traceback(tmp_path, argv):
    # through the real entry point: exit 0 or a usage error, never a traceback
    done = _run_python(tmp_path, "-m", "oscnodal.cli", *argv, check=False)
    assert done.returncode in (0, 1), done.stderr
    assert "Traceback" not in done.stderr


def test_runtime_imports_no_scipy(tmp_path):
    """No scipy module is loaded by importing the CLI, nor by pi0, caustic-tube
    density and montecarlo runs; the gamma_integral route loads scipy.integrate
    on first use, with unchanged values."""
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import oscnodal.cli\n"
        "print(scipy_modules())\n"
        "runs = [['pi0', '--d', '2', '--u1-range', '-1:1:0.5', '--v1-range', '0:0:1'],\n"
        "        ['pi0', '--d', '3', '--u1-range', '-1:1:0.5', '--v1-range', '0:0:1'],\n"
        "        ['density', '--regime', 'caustic-tube', '--d', '2', '--u1-range', '-3:3:0.5'],\n"
        "        ['density', '--regime', 'forbidden-bulk', '--d', '2', '--N', '40'],\n"
        "        ['montecarlo', '--statistic', 'nodal-length', '--d', '2', '--N', '20',\n"
        "         '--seeds', '2']]\n"
        "print([oscnodal.cli.main(argv + ['-o', 'out.csv']) for argv in runs])\n"
        "print(scipy_modules())\n"
        "print(json.load(open('out_manifest.json'))['scipy'])\n"
        "from oscnodal import ai_k\n"
        "print(repr(ai_k(-1.5, -3.2, method='gamma_integral')))\n"
        "print(repr(ai_k(-0.5, 1.0, method='gamma_integral')))\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    done = _run_python(tmp_path, "-c", script)
    at_import, statuses, after_runs, manifest_key, first, second, integrate_loaded = \
        done.stdout.splitlines()
    assert at_import == "[]"
    assert statuses == "[0, 0, 0, 0, 0]"
    assert after_runs == "[]"
    assert manifest_key == "None"
    assert float(first) == ai_k(-1.5, -3.2, method="gamma_integral")
    assert float(second) == ai_k(-0.5, 1.0, method="gamma_integral")
    assert integrate_loaded == "True"


def test_left_expansion_loads_neither_mpmath_nor_scipy(tmp_path):
    """An airy table below the contour's switch runs on numpy alone."""
    script = (
        "import sys\n"
        "from oscnodal.cli import main\n"
        "print(main(['airy', '--k', '-1.5', '--s', '-40:-16:0.5', '-o', 'a.csv']))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('mpmath', 'scipy')))\n"
    )
    done = _run_python(tmp_path, "-c", script)
    assert done.stdout.splitlines()[-2:] == ["0", "[]"]


def test_readme_commands_run_without_scipy(tmp_path):
    """With scipy unimportable, every command of the README block exits 0 and
    writes a manifest whose scipy key is null; the gamma_integral route exits
    1 and names the missing package."""
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from oscnodal.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
        "print(json.load(open('pi_manifest.json'))['scipy'])\n"
    )
    commands = _readme_commands()
    assert ["-o", "pi.csv"] == commands[0][-2:]
    gamma = ["airy", "--k", "-1", "--s", "0,1", "--method", "gamma_integral", "-o", "g.csv"]
    done = _run_python(tmp_path, "-c", script, json.dumps(commands + [gamma]))
    statuses, manifest_key = done.stdout.splitlines()[-2:]  # after the commands' own output
    assert json.loads(statuses) == [0] * len(commands) + [1]
    assert manifest_key == "None"
    assert "gamma_integral route of ai_k needs scipy" in done.stderr
    assert not (tmp_path / "g.csv").exists()


#: commands run one after another in one interpreter; the second projector
#: call leaves --y and --x at their defaults after a call that set them
_SUCCESSIVE = [
    ("projector", "--d", "3", "--N", "40", "--x", "0.5,0.1,0.2", "--y", "0.45,0.12,0.2"),
    ("airy", "--k", "-1", "--s", "-2:2:0.5"),
    ("projector", "--d", "2", "--N", "20"),
    ("tube-mass", "--d", "3", "--N", "40", "--kappa", "1"),
    ("density", "--regime", "caustic-tube", "--u1-range", "-1:1:1"),
]


def test_successive_calls_write_the_csvs_of_separate_runs(tmp_path):
    # main keeps one parser for the process: every command run twice in
    # this interpreter writes the bytes a fresh interpreter writes
    for i, argv in enumerate(_SUCCESSIVE):
        for rep in range(2):
            assert main([*argv, "-o", str(tmp_path / f"same_{i}_{rep}.csv")]) == 0
        _run_python(tmp_path, "-m", "oscnodal.cli", *argv, "-o", f"fresh_{i}.csv")
        fresh = (tmp_path / f"fresh_{i}.csv").read_bytes()
        for rep in range(2):
            assert (tmp_path / f"same_{i}_{rep}.csv").read_bytes() == fresh, argv


@pytest.mark.parametrize("argv", [
    ("airy", "--bogus-flag", "1"),
    ("frobnicate",),
    ("projector", "--method", "bogus"),
    ("airy", "--s", "0:1:0.5"),
])
def test_usage_errors_after_a_run_match_a_fresh_process(tmp_path, capsys, argv):
    # exit 1 and the same message as in a fresh interpreter, after a run
    assert main(["airy", "--k", "-1", "--s", "0", "-o", str(tmp_path / "a.csv")]) == 0
    capsys.readouterr()
    try:
        status = main([*argv, "-o", str(tmp_path / "b.csv")])
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    fresh = _run_python(tmp_path, "-m", "oscnodal.cli", *argv, "-o", "b.csv", check=False)
    assert status == fresh.returncode == 1
    assert err == fresh.stderr
