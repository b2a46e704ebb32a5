"""CLI contract: artifact schemas, determinism, exit codes, config handling."""

import argparse
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerpoisson import cli, emden, errors, fields, goldreich_weber, ode
from eulerpoisson.cli import main
from eulerpoisson.ode import IntegratorConfig


def run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


def test_importing_the_cli_loads_no_test_dependency():
    # import time is the benchmark's setup_s, and scipy and mpmath are test dependencies only
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, eulerpoisson.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    test_only = ("scipy", "hypothesis", "mpmath", "pytest", "_pytest")
    assert [name for name in out if name.split(".")[0] in test_only] == []


def test_importing_the_cli_compiles_no_run():
    # each system's DOP853 run is compiled on its first use, never at import (setup_s)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import eulerpoisson.cli; from eulerpoisson import ode; "
            "print(ode._run.cache_info().currsize, ode._system_factory.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    assert out == ["0", "0"]


class TestEmdenCommand:
    def test_default_is_periodic_orbit(self, tmp_path):
        assert run(tmp_path, "emden") == 0
        lines = (tmp_path / "emden.csv").read_text().splitlines()
        assert lines[0] == "t,a,adot,energy"
        assert len(lines) == 1002
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        report = json.loads((tmp_path / "emden_report.json").read_text())
        assert report["classification"] == "periodic"
        assert report["theta"] == 1.0
        assert abs(report["T_quadrature"] - report["T_simulation"]) < 1e-6
        # energy column is constant to integrator accuracy
        energies = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(energies) - min(energies) < 1e-7

    def test_a_near_steady_orbit_gets_both_periods(self, tmp_path):
        # exited 2 when the period quadrature ran out of panels
        assert run(tmp_path, "emden", "--a1", "1e-5") == 0
        report = json.loads((tmp_path / "emden_report.json").read_text())
        tq, ts = report["T_quadrature"], report["T_simulation"]
        assert abs(tq - ts) / tq <= 1e-6

    def test_steady_constant_columns(self, tmp_path):
        assert run(tmp_path, "emden", "--a1", "0") == 0
        lines = (tmp_path / "emden.csv").read_text().splitlines()[1:]
        assert all(float(l.split(",")[1]) == 1.0 for l in lines)
        report = json.loads((tmp_path / "emden_report.json").read_text())
        assert report["classification"] == "steady"
        assert report["touchdown_time"] is None

    def test_blowup_truncates_to_touchdown(self, tmp_path):
        assert run(tmp_path, "emden", "--xi", "0", "--a1", "0") == 0
        report = json.loads((tmp_path / "emden_report.json").read_text())
        td = report["touchdown_time"]
        assert td == pytest.approx(math.sqrt(math.pi / 2), rel=1e-6)
        lines = (tmp_path / "emden.csv").read_text().splitlines()[1:]
        assert float(lines[-1].split(",")[0]) <= td
        assert float(lines[-1].split(",")[1]) < 1e-6  # density blew up

    @pytest.mark.parametrize("argv,starts", [((), [0.0]), (("--t-end", "3"), [0.0, 3.0])])
    def test_one_run_serves_the_csv_and_the_period(self, tmp_path, monkeypatch, argv, starts):
        # a run to t_end that lacks four falls of a' is continued, not redone:
        # from Sundman time 0 at (ln a, a', t) of the run's last node
        seen = []

        def spy(rhs, y0, *rest, **kwargs):
            seen.append(y0)
            return ode.integrate(rhs, y0, *rest, **kwargs)

        monkeypatch.setattr(emden, "integrate", spy)
        assert run(tmp_path, "emden", *argv) == 0
        assert [y0.t for y0 in seen] == [0.0] * len(starts)
        assert seen[0].y.tolist() == [1.0, 1.0]
        # the CSV's last row is the run's last node, printed to round-trip
        t, a, adot, _ = map(float, (tmp_path / "emden.csv").read_text().splitlines()[-1].split(","))
        for y0, start in zip(seen[1:], starts[1:]):
            assert y0.y.tolist() == [math.log(a), adot, start] and t == start
        report = json.loads((tmp_path / "emden_report.json").read_text())
        assert abs(report["T_simulation"] / report["T_quadrature"] - 1) < 1e-8


class TestLiouvilleCommand:
    def test_bracket_column_small(self, tmp_path):
        assert run(tmp_path, "liouville") == 0
        lines = (tmp_path / "liouville.csv").read_text().splitlines()
        assert lines[0] == "s,f,fdot,enclosed_mass,bracket"
        brackets = [abs(float(l.split(",")[4])) for l in lines[1:]]
        assert max(brackets) <= 1e-8
        report = json.loads((tmp_path / "liouville_report.json").read_text())
        assert report["max_abs_bracket"] <= 1e-8

    def test_invalid_range_exits_2(self, tmp_path):
        assert run(tmp_path, "liouville", "--s-max", "-5") == 2


class TestFieldsCommand:
    @pytest.mark.parametrize("family", ["rotational", "yuen", "zz-inner", "zz-outer"])
    def test_families_emit_rows(self, tmp_path, family):
        assert run(tmp_path, "fields", "--family", family, "--nt", "2",
                   "--nx", "5", "--ny", "5") == 0
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,rho,u1,u2,phi_r"
        assert len(lines) > 1
        has_gravity = family in ("rotational", "yuen")
        for line in lines[1:]:
            cols = line.split(",")
            assert len(cols) == 7
            assert (cols[6] != "") == has_gravity
            assert float(cols[3]) >= 0.0  # density nonnegative

    def test_gw_family(self, tmp_path):
        assert run(tmp_path, "fields", "--family", "gw", "--alpha", "1",
                   "--lam", "0", "--nt", "2", "--nx", "5", "--ny", "5") == 0
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert len(lines) > 1

    @pytest.mark.parametrize("N", ["5", "6", "7", "10"])
    def test_gw_collapse_samples_up_to_its_touchdown(self, tmp_path, N):
        # each exited 2 with "step size ... underflowed": the halt's last a was above
        # 1e-6 of a0, which was once the only touchdown rule
        assert run(tmp_path, "fields", "--family", "gw", "--N", N, "--alpha", "1",
                   "--a1", "0") == 0
        cols = np.loadtxt(tmp_path / "fields.csv", delimiter=",", skiprows=1, usecols=(0, 3))
        p = goldreich_weber.GWParams(int(N), 1.0, 1.0, 1.0, 1.0, 0.0)
        touchdown = emden.integrate_scale(p, 2.0).touchdown_time
        assert touchdown is not None and touchdown < 2.0
        assert np.all(np.isfinite(cols[:, 1])) and np.all(cols[:, 1] >= 0)
        assert cols[-1, 0] <= touchdown

    def test_gw_rejects_bad_alpha(self, tmp_path):
        assert run(tmp_path, "fields", "--family", "gw", "--alpha", "0") == 2

    @pytest.mark.parametrize("argv,module,name,n_calls,rows", [
        # the 3 default times, each on the 49 points of the 9x9 grid in the disk
        (("--family", "gw", "--alpha", "1"), fields, "eval_gw", 1, 3 * 49),
        (("--family", "rotational"), fields, "eval_rotational", 1, 3 * 49),
        # a region boundary crosses the disk: the points outside it are dropped
        # and the rest take a second call
        (("--family", "zz-inner"), fields, "eval_zz_inner", 2, 111),
        (("--family", "zz-outer"), fields, "eval_zz_outer", 2, 36),
        (("--family", "rotational", "--rmax", "40"), fields, "eval_rotational", 2, 123),
        (("--family", "gw", "--N", "3", "--alpha", "0.7", "--lam", "2", "--rmax", "150"),
         fields, "eval_gw", 2, 75),
    ], ids=["gw", "rotational", "zz-inner", "zz-outer", "rotational-rmax-40", "gw-no-support"])
    def test_all_times_take_one_evaluator_call(self, tmp_path, monkeypatch, argv, module, name,
                                               n_calls, rows):
        calls, evaluator = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or evaluator(*args))
        assert run(tmp_path, "fields", *argv) == 0
        assert len(calls) == n_calls
        assert len((tmp_path / "fields.csv").read_text().splitlines()) == 1 + rows

    @pytest.mark.parametrize("argv", [
        ("--family", "rotational"),
        ("--family", "rotational", "--rmax", "40"),
        ("--family", "rotational", "--K", "1e-3"),
        # a touchdown before t1 re-spaces the sampled times after the scale solve
        ("--family", "yuen", "--lam", "2", "--xi", "0.5", "--a1", "-0.5"),
    ], ids=["defaults", "rmax-40", "K-1e-3", "yuen-touchdown"])
    def test_a_profile_solved_to_the_grid_writes_the_csv_of_a_solve_to_20(
            self, tmp_path, monkeypatch, argv):
        assert run(tmp_path / "grid", "fields", *argv) == 0
        build = fields.build_rotational
        monkeypatch.setattr(fields, "build_rotational",
                            lambda *args, samples=None, **kwargs: build(*args, **kwargs))
        assert run(tmp_path / "to-20", "fields", *argv) == 0
        assert ((tmp_path / "grid" / "fields.csv").read_bytes()
                == (tmp_path / "to-20" / "fields.csv").read_bytes())

    def test_the_rotating_profile_reaches_1_past_the_grid(self, tmp_path, monkeypatch):
        sols, build = [], fields.build_rotational
        monkeypatch.setattr(fields, "build_rotational",
                            lambda *args, **kwargs: sols.append(build(*args, **kwargs)) or sols[-1])
        assert run(tmp_path, "fields", "--family", "rotational") == 0
        a = sols[0].scale.evaluate(np.linspace(0.5, 2.0, 3))[:, 0]
        assert sols[0].profile.s_max == 1.0 + np.max(2.0 / a) < 3.0

    @pytest.mark.parametrize("family", ["zz-inner", "zz-outer"])
    def test_a_region_crossing_the_disk_keeps_its_points_and_order(self, tmp_path, family):
        # at the defaults the interface circle crosses the disk, so the one call
        # over all times raises, and the points its mask leaves in are sampled again
        assert run(tmp_path, "fields", "--family", family) == 0
        zz = fields.ZZSolution(K=1.0, rho0=0.5)
        ev = fields.eval_zz_inner if family == "zz-inner" else fields.eval_zz_outer
        axis = np.linspace(-2.0, 2.0, 9).tolist()
        expected = ["t,x,y,rho,u1,u2,phi_r"]
        for t in np.linspace(0.5, 2.0, 3).tolist():
            for x in axis:
                for y in axis:
                    if np.hypot(x, y) > 2.0:
                        continue
                    try:
                        s = ev(zz, t, x, y)
                    except errors.OutsideRegion:
                        continue
                    expected.append("%.17g," * 6 % (t, x, y, s.rho, s.u1, s.u2))
        assert (tmp_path / "fields.csv").read_text().splitlines() == expected
        assert 1 < len(expected) < 1 + 3 * 49


class TestWriteCsv:
    _SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e17, 1e-4, 1e-5, 1e300,
                -1e300, 1 / 3, -2.5]

    @pytest.mark.parametrize("rows", [len(_SPECIAL), 1, 0])
    def test_equals_a_per_cell_join(self, tmp_path, rows):
        a = np.array(self._SPECIAL[:rows])
        columns = [None, a, a[::-1], None, -a, None]
        cli._write_csv(tmp_path / "out.csv", list("abcdef"), columns)
        expected = "a,b,c,d,e,f\n" + "".join(",".join(
            "" if c is None else "%.17g" % c.tolist()[i] for c in columns) + "\n"
            for i in range(rows))
        assert (tmp_path / "out.csv").read_text() == expected


class TestPeriodCommand:
    def test_default_agreement(self, tmp_path):
        assert run(tmp_path, "period") == 0
        report = json.loads((tmp_path / "period.json").read_text())
        assert report["rel_diff"] <= 1e-6

    def test_near_steady_agreement(self, tmp_path):
        # exited 2 when the period quadrature ran out of panels
        assert run(tmp_path, "period", "--a1", "1e-6") == 0
        assert json.loads((tmp_path / "period.json").read_text())["rel_diff"] <= 1e-6

    def test_steady_exits_2(self, tmp_path):
        assert run(tmp_path, "period", "--a1", "0") == 2

    def test_reports_simulation_counts(self, tmp_path):
        assert run(tmp_path / "a", "period") == 0
        assert run(tmp_path / "b", "period") == 0
        raw = (tmp_path / "a" / "period.json").read_bytes()
        assert raw == (tmp_path / "b" / "period.json").read_bytes()
        sim = json.loads(raw)["simulation"]
        assert set(sim) == {"integrator"}
        counts = sim["integrator"]
        assert counts["accepted"] > 0
        # one run: one initial rhs call, 11 per attempted step, then the
        # FSAL and three dense-output stages per accepted step
        attempts = counts["accepted"] + counts["rejected"]
        assert counts["rhs_calls"] == 1 + 11 * attempts + 4 * counts["accepted"]


class TestVerifyCommand:
    def test_passes_and_reports(self, tmp_path):
        assert run(tmp_path, "verify") == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"rotational/mass", "rotational/poisson",
                "zz_inner_as_printed/mass", "zz_interface_continuity"} <= names
        neg = next(c for c in report["checks"] if c["name"] == "zz_inner_as_printed/mass")
        assert neg["expected"] == "fails" and neg["passed"] is True

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["verify", "--outdir", str(a)]) == 0
        assert main(["verify", "--outdir", str(b)]) == 0
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()

    def test_corruption_self_test(self, tmp_path):
        assert run(tmp_path, "verify", "--inject-corruption") == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        corrupted = [c for c in report["checks"] if c["name"].startswith("corrupted")]
        assert len(corrupted) == 3
        assert all(c["expected"] == "fails" and c["passed"] for c in corrupted)

    def test_null_corruption_fails_self_test(self, tmp_path):
        # delta = 0 leaves the field exact, so the expected failure never
        # happens and the run must exit with the verification-failure code
        assert run(tmp_path, "verify", "--inject-corruption",
                   "--corruption-delta", "0") == 3


class TestUsageAndConfig:
    @pytest.mark.parametrize("value", ["-1e300", "-1e-300", "-1.5E+10", "-.5e3", "-3", "-0.25"])
    @pytest.mark.parametrize("argv,dest", [(("emden", "--a1"), "a1"), (("period", "--lam"), "lam"),
                                           (("fields", "--t0"), "t0"),
                                           (("verify", "--corruption-delta"), "corruption_delta")])
    def test_a_negative_number_is_a_value(self, argv, dest, value):
        # exponent forms were read as options: "expected one argument", exit 1
        parser, _ = cli.build_parser()
        assert getattr(parser.parse_args([*argv, value]), dest) == float(value)

    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["emden", "--nonsense"]) == 1

    def test_missing_command_exits_1(self):
        assert main([]) == 1

    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi=0\na1=0   # collapse configuration\n")
        out = tmp_path / "out"
        assert main(["emden", "--config", str(cfg), "--outdir", str(out)]) == 0
        report = json.loads((out / "emden_report.json").read_text())
        assert report["classification"] == "finite_time_blowup"
        # explicit flag wins over the file value
        out2 = tmp_path / "out2"
        assert main(["emden", "--config", str(cfg), "--xi", "1",
                     "--outdir", str(out2)]) == 0
        report2 = json.loads((out2 / "emden_report.json").read_text())
        assert report2["classification"] == "steady"

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["emden", "--config", str(cfg)]) == 1

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EULERPOISSON_OUTDIR", str(tmp_path / "envout"))
        assert main(["liouville", "--s-max", "2"]) == 0
        assert (tmp_path / "envout" / "liouville.csv").exists()

    def test_csv_uses_17_significant_digits(self, tmp_path):
        assert run(tmp_path, "liouville", "--s-max", "2") == 0
        lines = (tmp_path / "liouville.csv").read_text().splitlines()
        s_first = lines[1].split(",")[0]
        assert s_first == "9.9999999999999995e-07"

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=abc\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "bad value for points" in capsys.readouterr().err


class TestRobustness:
    """Bad inputs end in one stderr line and a documented exit code."""

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        return lines[0]

    @staticmethod
    def must_not_run(args):
        raise AssertionError(f"{args.command} ran with {args}")

    def test_tiny_K_underflows_cleanly(self, tmp_path, capsys):
        # math.exp overflows in a trial stage: the step is rejected, not raised
        assert run(tmp_path, "liouville", "--K", "1e-300") == 2
        assert "underflowed" in self.one_line_error(capsys)

    @pytest.mark.parametrize("argv,where", [
        (("liouville", "--s-max", "1e-300"), "at t=0.0 in the profile of LiouvilleParams("
                                             "K=1.0, lam=1.0, alpha=0.0)"),
        # the rotational family solves its profile through fields.build_rotational
        (("fields", "--family", "rotational", "--K", "1e-300"), " in the profile of "
                                                                 "LiouvilleParams(K=1e-300, "),
    ], ids=["liouville", "fields-rotational"])
    def test_a_profile_halt_names_its_parameters(self, tmp_path, capsys, argv, where):
        assert run(tmp_path, *argv) == 2
        line = self.one_line_error(capsys)
        assert "underflowed" in line and where in line

    @pytest.mark.parametrize("atol", ["0", "1e-300"])
    @pytest.mark.parametrize("command", ["emden", "liouville", "period"])
    def test_vanishing_tolerances_exit_2(self, tmp_path, capsys, command, atol):
        # the first step stays finite and positive however small the error scale
        argv = (command, "--rtol", "1e-300", "--atol", atol, "--max-steps", "2000")
        assert run(tmp_path, *argv) == 2
        assert "underflowed" in self.one_line_error(capsys)
        assert not any(tmp_path.iterdir())

    def test_negative_samples_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "emden", "--samples", "-1") == 1
        assert "--samples" in self.one_line_error(capsys)

    def test_non_numeric_h_list_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--h-list", "1e-2,abc") == 1
        assert "--h-list" in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            # wrote a header-only fields.csv and exited 0
            (("fields", "--family", "rotational", "--rmax", "nan"), "--rmax"),
            # ground through 1,000,000 steps before exiting 2
            (("emden", "--t-end", "inf"), "--t-end"),
            # never returned
            (("liouville", "--s-max", "inf"), "--s-max"),
            (("period", "--lam", "-inf"), "--lam"),
            (("verify", "--corruption-delta", "nan"), "--corruption-delta"),
        ],
    )
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, flag):
        # rejected while parsing: the command itself must never start
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", self.must_not_run)
        assert run(tmp_path, *argv) == 1
        assert flag in self.one_line_error(capsys)
        assert not any(tmp_path.iterdir())

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_liouville", self.must_not_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s_max=inf\n")
        assert main(["liouville", "--config", str(cfg)]) == 1
        assert "bad value for s_max" in self.one_line_error(capsys)

    def test_zero_points_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--points", "0") == 1
        assert "--points" in self.one_line_error(capsys)
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--nx", "-1"),  # a numpy ValueError traceback, exit 1
            ("--nt", "0"),   # a header-only fields.csv, exit 0
            ("--nx", "0"),   # the same
            ("--rmax", "-1"),  # the same
            ("--rmax", "0"),   # 81 copies of the origin per time, exit 0
        ],
    )
    def test_non_positive_grid_size_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        monkeypatch.setattr(cli, "cmd_fields", self.must_not_run)
        assert run(tmp_path, "fields", flag, value) == 1
        assert flag in self.one_line_error(capsys)
        assert not (tmp_path / "fields.csv").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # each wrote a partial or header-only fields.csv and exited 0
            (("--family", "rotational", "--t0", "5", "--t1", "1"), "t=5.0"),
            (("--family", "rotational", "--t0", "-1"), "t=-1.0"),
            (("--family", "zz-inner", "--t0", "-1", "--t1", "1"), "t=-1.0"),
            (("--nx", "1", "--ny", "1"), "no point of the 1x1 grid"),
            # a time outside the domain on every family
            (("--family", "yuen", "--t0", "-1"), "t=-1.0"),
            (("--family", "zz-inner", "--t0", "0", "--t1", "1"), "t=0.0"),
            (("--family", "zz-outer", "--t0", "1", "--t1", "-1"), "t=-1.0"),
            (("--family", "gw", "--alpha", "1", "--lam", "0", "--t0", "-1"), "t=-1.0"),
            # each wrote a header-only fields.csv and exited 0: the interface circle
            # covers the disk at every time
            (("--family", "zz-outer", "--t0", "3", "--t1", "4"),
             "no point of the 9x9 grid lies in the zz-outer region at any time"),
            (("--family", "zz-outer", "--t0", "5", "--t1", "1"),
             "no point of the 9x9 grid lies in the zz-outer region at any time"),
            # each wrote non-finite cells and exited 0: t*t underflows to 0 at the
            # origin (rho = 0/0), and r*r overflows
            (("--family", "zz-inner", "--t0", "1e-300", "--t1", "1e-300"),
             "non-finite zz-inner sample at (t=1e-300, x=0.0, y=0.0)"),
            (("--family", "zz-outer", "--rmax", "1e300"),
             "non-finite zz-outer sample at (t=0.5, x=-1e+300, y=0.0)"),
        ],
    )
    def test_fields_drop_no_time_or_grid(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "fields", *argv) == 2
        assert message in self.one_line_error(capsys)
        assert not (tmp_path / "fields.csv").exists()

    @pytest.mark.parametrize("flag", ["--K", "--rho0", "--t0", "--t1", "--rmax"])
    @pytest.mark.parametrize("family", ["zz-inner", "zz-outer"])
    def test_zz_fields_flags_over_the_sweep_values(self, tmp_path, capsys, family, flag):
        # ROADMAP item 9's values; the solver families wait for a sweep with a stubbed solver
        values = ("1e300", "-1e300", "1e10", "-1e10", "-3", "1e-300", "-1e-300", "0",
                  "1e-8", "0.3", "1", "7", "700")
        for value in values:
            out = tmp_path / value
            code = run(out, "fields", "--family", family, flag, value)
            assert code in (0, 1, 2), value
            # a negative value in exponent form was read as an option
            assert "expected one argument" not in self.one_line_error(capsys), value
            csv = out / "fields.csv"
            assert csv.exists() == (code == 0), value
            if code == 0:
                rows = csv.read_text().splitlines()[1:]
                cells = [float(c) for row in rows for c in row.split(",") if c]
                assert rows and np.isfinite(cells).all(), value

    def test_config_boolean_must_be_a_boolean_word(self, tmp_path, capsys, monkeypatch):
        # 'ture' ran without the negative control and exited 0
        monkeypatch.setattr(cli, "cmd_verify", self.must_not_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inject_corruption=ture\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "bad value for inject_corruption" in self.one_line_error(capsys)

    @pytest.mark.parametrize("word,value", [("YES", True), ("1", True), ("False", False),
                                            ("no", False), ("0", False)])
    def test_config_boolean_words(self, tmp_path, word, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"inject_corruption={word}\n")
        assert cli._parse(["verify", "--config", str(cfg)]).inject_corruption is value

    def test_fields_config_rejects_an_unknown_family(self, tmp_path, capsys):
        # 'family=rotatonal' once wrote the gw family's fields.csv and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nfamily=bogus\n")
        assert main(["fields", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        assert f"{cfg}:2: bad value for family" in self.one_line_error(capsys)
        assert not (tmp_path / "fields.csv").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # was a numpy ValueError traceback, exit 1
        assert run(tmp_path, "verify", "--seed", "-1") == 2
        assert "seed must be >= 0" in self.one_line_error(capsys)
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # each was an OverflowError traceback, exit 1
            (("liouville", "--alpha", "710"), "alpha=710.0"),
            (("fields", "--family", "rotational", "--alpha", "710"), "alpha=710.0"),
            (("fields", "--family", "gw", "--alpha", "1e200"), "alpha_center=1e+200"),
            (("fields", "--family", "gw", "--alpha", "1", "--N", "400"), "N=400"),
            # each exited 2 with a message that named no parameter
            (("liouville", "--alpha", "709"), "alpha=709.0"),
            (("fields", "--family", "rotational", "--alpha", "709"), "alpha=709.0"),
            (("fields", "--family", "gw", "--alpha", "1e100"), "alpha_center=1e+100"),
            # each was a ZeroDivisionError or OverflowError traceback, exit 1: theta
            # overflows, xi^2 underflows, a turning point's cube overflows
            (("period", "--lam", "1", "--xi", "0.3", "--a0", "0.3", "--a1", "1e300"), "a1=1e+300"),
            (("emden", "--lam", "1e10", "--xi", "1e-300", "--a0", "1e10", "--a1", "700"),
             "xi=1e-300"),
            (("period", "--lam", "1e10", "--xi", "1e-300", "--a0", "1e10", "--a1", "700"),
             "xi=1e-300"),
            (("emden", "--lam", "1e-300", "--xi", "1e10", "--a0", "1e300", "--a1", "1e-300"),
             "a0=1e+300"),
            # each was a ZeroDivisionError traceback, exit 1: xi^2 is subnormal and
            # a^2 underflows to 0 in the potential near a_min of about 1e-166
            (("emden", "--lam", "1e10", "--xi", "1e-160", "--a0", "1e10", "--a1", "700"),
             "xi=1e-160"),
            (("period", "--lam", "1e10", "--xi", "1e-160", "--a0", "1e10", "--a1", "700"),
             "xi=1e-160"),
            # each exited 2 with "potential requires a > 0": the outward
            # turning-point bracket overflowed to a_max = inf
            (("period", "--lam", "1e-300"), "lam=1e-300"),
            (("emden", "--lam", "1e-300"), "lam=1e-300"),
            # each exited 2 with "turning-point bracket expansion failed" alone
            (("emden", "--a0", "1e300"), "a0=1e+300"),
            (("emden", "--lam", "1e-250", "--xi", "2"), "lam=1e-250"),
        ],
    )
    def test_overflowing_parameter_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 2
        assert message in self.one_line_error(capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # each was a ZeroDivisionError traceback, exit 1, where a turning point's
        # cube underflowed to 0, then exited 2 when the simulated period's step
        # underflowed in the bounce near a_min of about 1.9e-152
        ("period", "--lam", "4", "--xi", "1e-150", "--a0", "1", "--a1", "0.1"),
        # each exited 2 with a nameless "quadrature budget exhausted", then when
        # the simulated period's step underflowed on an orbit 8.8e22 wide
        ("emden", "--a1", "10"),
        ("period", "--a1", "10"),
    ])
    def test_an_orbit_once_out_of_reach_gets_both_periods(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 0
        report = json.loads(next(tmp_path.glob("*.json")).read_text())
        tq, ts = report["T_quadrature"], report["T_simulation"]
        assert abs(tq - ts) / tq <= 1e-6

    @pytest.mark.parametrize("argv,where", [
        (("--lam", "1e300", "--a1", "-1"), "EmdenParams(lam=1e+300, xi=0.0, a0=1.0, a1=-1.0)"),
        (("--a0", "1e-100", "--a1", "0"), "EmdenParams(lam=1.0, xi=0.0, a0=1e-100, a1=0.0)"),
    ])
    def test_a_collapse_halt_at_the_start_names_its_parameters(self, tmp_path, capsys, argv,
                                                              where):
        # each named no parameter: a halt at t = 0 with a still far from 0 is no touchdown
        assert run(tmp_path, "emden", "--xi", "0", *argv) == 2
        line = self.one_line_error(capsys)
        assert "underflowed at t=0.0" in line and line.endswith(f" in the scale factor of {where}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,where", [
        (("emden", "--xi", "0"), "EmdenParams(lam=1.0, xi=0.0, a0=1e-110, a1=0.0)"),
        (("fields", "--family", "gw", "--alpha", "1"),
         "GWParams(N=3, K=1.0, lam=1.0, alpha_center=1.0, a0=1e-110, a1=0.0)"),
    ])
    def test_a_scale_run_that_cannot_start_names_its_parameters(self, tmp_path, capsys, argv,
                                                                where):
        # a*a*a underflows to 0 in the first rhs call; each exited 2 naming no parameter
        assert run(tmp_path, *argv, "--a0", "1e-110", "--a1", "0") == 2
        line = self.one_line_error(capsys)
        assert "rhs is not finite at the initial state" in line
        assert line.endswith(f" in the scale factor of {where}")
        assert not any(tmp_path.iterdir())

    def test_a_rotating_orbit_takes_no_touchdown(self, tmp_path, capsys):
        # exited 0 as "periodic" with touchdown_time 0.652 and an emden.csv cut there,
        # where the step in t underflows in the bounce near a_min of about 1.9e-152
        argv = ("emden", "--lam", "4", "--xi", "1e-150", "--a0", "1", "--a1", "0.1")
        assert run(tmp_path, *argv) == 2
        line = self.one_line_error(capsys)
        assert "underflowed at t=0.65" in line
        assert line.endswith(" in the scale factor of "
                             "EmdenParams(lam=4.0, xi=1e-150, a0=1.0, a1=0.1)")
        assert not any(tmp_path.iterdir())

    def test_gw_at_defaults_fails_before_writing(self, tmp_path, capsys):
        # alpha defaults to 0, which the gw profile rejects
        assert run(tmp_path, "fields", "--family", "gw") == 2
        assert "alpha_center must be > 0" in self.one_line_error(capsys)
        assert not (tmp_path / "fields.csv").exists()

    @pytest.mark.parametrize("h_list,message", [
        # the Poisson stencils' r > 2h is checked before any field call
        ("0.5,0.2,0.1", "point too close to r=0 for h=0.5"),
        # steps this wide carry stencil arms across the region boundaries
        ("0.14,0.1,0.05", "crossed a validity boundary: t outside solved range"),
    ])
    def test_stencil_out_of_domain_exits_2(self, tmp_path, capsys, h_list, message):
        assert run(tmp_path, "verify", "--h-list", h_list) == 2
        assert message in self.one_line_error(capsys)
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("h_list", ["1e-300,5e-301,2.5e-301", "1e-2,1e-100,1e-300",
                                        "1e-2,1e-100,1e-160"])
    def test_unrepresentable_roundoff_floor_exits_2(self, tmp_path, capsys, h_list):
        # h^2 underflows to 0 in the floor test: a ZeroDivisionError traceback,
        # exit 1; at 1e-160 the floor was inf and every study sat at it, exit 3
        assert run(tmp_path, "verify", "--h-list", h_list) == 2
        assert f"smallest step h={h_list.split(',')[-1]}" in self.one_line_error(capsys)
        assert not (tmp_path / "verify.json").exists()

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(st.sampled_from([1e300, 3.0, 1e-2, 1e-100, 1e-160, 1e-300]),
                          min_size=3, max_size=3, unique=True),
           decreasing=st.booleans(),
           delta=st.sampled_from(["1e300", "0", "1e-300", "700"]))
    def test_verify_numeric_flags_at_extremes(self, tmp_path_factory, capsys, steps,
                                              decreasing, delta):
        # most unsorted triples stop at the h_list check, so sort about half
        if decreasing:
            steps = sorted(steps, reverse=True)
        capsys.readouterr()
        outdir = tmp_path_factory.mktemp("verify")
        code = run(outdir, "verify", "--points", "2", "--inject-corruption",
                   "--h-list", ",".join(map(repr, steps)), "--corruption-delta", delta)
        assert code in (0, 2, 3)
        if code == 2:
            self.one_line_error(capsys)
            assert not any(outdir.iterdir())
        else:
            assert "Traceback" not in capsys.readouterr().err

    def test_every_package_error_maps_to_exit_2(self):
        classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                   if c.__module__ == errors.__name__]
        assert errors.EulerPoissonError in classes
        for c in classes:
            assert issubclass(c, errors.EulerPoissonError)
            # each also keeps its ValueError or RuntimeError base
            assert c is errors.EulerPoissonError or issubclass(c, (ValueError, RuntimeError))


class TestIntegratorFlags:
    """Only emden, liouville and period take integrator flags, and each flag
    changes only its own field of the solver's default configuration."""

    def test_flags_are_the_config_fields(self):
        names = {f.name for f in dataclasses.fields(IntegratorConfig)}
        assert names == {"rtol", "atol", "max_steps"}
        for command, sp in cli.build_parser()[1].items():
            group = {a.dest for g in sp._action_groups if g.title == "integrator"
                     for a in g._group_actions}
            if command in ("emden", "liouville", "period"):
                assert group == names
            else:
                assert not group and names.isdisjoint(a.dest for a in sp._actions)

    def test_settable_value_count(self):
        # every option of every subcommand, --config and --outdir included
        settable = [a for sp in cli.build_parser()[1].values() for a in sp._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)]
        assert len(settable) == 53

    @pytest.mark.parametrize("flag,key", [("--h-max", "h_max"), ("--h-init", "h_init")])
    @pytest.mark.parametrize("command", ["emden", "liouville", "period"])
    def test_h_max_is_gone(self, tmp_path, capsys, monkeypatch, command, flag, key):
        monkeypatch.setattr(cli, f"cmd_{command}", TestRobustness.must_not_run)
        assert run(tmp_path, command, flag, "0.01") == 1
        assert flag in TestRobustness.one_line_error(capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=0.01\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert f"unknown key '{key}'" in TestRobustness.one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv", [("fields", "--rtol", "1e-6"), ("verify", "--max-steps", "1")]
    )
    def test_commands_without_an_integrator_reject_the_flags(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", TestRobustness.must_not_run)
        assert run(tmp_path, *argv) == 1
        assert argv[1] in TestRobustness.one_line_error(capsys)

    def test_fields_config_rejects_rtol(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_fields", TestRobustness.must_not_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rtol=1e-6\n")
        assert main(["fields", "--config", str(cfg)]) == 1
        assert "unknown key 'rtol'" in TestRobustness.one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv,flags,names",
        [
            (("liouville",), ("--rtol", "1e-12"),
             ("liouville.csv", "liouville_report.json")),
            (("period",), ("--rtol", "1e-10", "--atol", "1e-12"), ("period.json",)),
        ],
    )
    def test_default_valued_flags_keep_the_other_defaults(self, tmp_path, argv, flags, names):
        assert run(tmp_path / "plain", *argv) == 0
        assert run(tmp_path / "flagged", *argv, *flags) == 0
        for name in names:
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "flagged" / name).read_bytes() == plain

    def test_config_values_do_not_outlive_their_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi=0\n")
        assert main(["emden", "--config", str(cfg), "--outdir", str(tmp_path / "a")]) == 0
        assert main(["emden", "--outdir", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "emden_report.json").read_text())
        assert report["classification"] == "periodic"


class TestIntegratorCounters:
    @pytest.mark.parametrize(
        "argv,report_name",
        [(("emden",), "emden_report.json"),
         (("liouville", "--s-max", "2"), "liouville_report.json")],
    )
    def test_reports_carry_counts(self, tmp_path, argv, report_name):
        assert run(tmp_path / "a", *argv) == 0
        assert run(tmp_path / "b", *argv) == 0
        raw = (tmp_path / "a" / report_name).read_bytes()
        assert raw == (tmp_path / "b" / report_name).read_bytes()
        counts = json.loads(raw)["integrator"]
        assert counts["accepted"] > 0
        # no stage is ever non-finite on these runs: 11 rhs calls per
        # attempt and 4 more per accepted step
        attempts = counts["accepted"] + counts["rejected"]
        assert counts["rhs_calls"] == 1 + 11 * attempts + 4 * counts["accepted"]
