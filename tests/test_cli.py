import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from soliton2d import cli, make_params, variational, verify
from soliton2d.cli import _build_parser, _fmt, _UsageError, run
from soliton2d.geometry import WarpedMetric
from soliton2d.ode import _separatrix_time


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_cigar_json(self, capsys):
        code, out, err = run_capture(
            ["classify", "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "0",
             "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "G1_CIGAR"
        assert data["gamma"] == "inf"

    def test_snap_is_relative_to_gamma(self, capsys):
        # a0 = 1.5e36 gamma lies within 1e-13 of gamma = 2e-50, and printed FLAT_SEPARATRIX
        code, out, _ = run_capture(["classify", "--lambda", "1", "--mu", "1e-50", "--a0", "3e-14"], capsys)
        assert code == 0 and json.loads(out)["family"] == "G4_PLUS"

    def test_g7_with_estimate(self, capsys):
        code, out, _ = run_capture(
            ["classify", "--lambda", "-4", "--mu", "-1", "--a0", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "G7"
        assert data["t0_estimate"] < 0


class TestCatalogCommand:
    def test_g6_entry(self, capsys):
        code, out, _ = run_capture(
            ["catalog", "--family", "g6", "--nu", "3.14159", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "G6"
        assert data["report"]["outer_end"]["kind"] == "CONE_END"
        assert abs(data["report"]["outer_end"]["angle"] - 3.14159) < 1e-6

    def test_list(self, capsys):
        code, out, _ = run_capture(["catalog", "--list"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12

    def test_bad_range_exit_one(self, capsys):
        code, _, err = run_capture(["catalog", "--family", "g6", "--nu", "7"], capsys)
        assert code == 1
        assert "RANGE" in err

    @pytest.mark.parametrize("family,nu", [("g4_plus", "1.01"), ("g4_minus", "20")])
    def test_g4_outside_bracket_exit_one(self, family, nu, capsys):
        code, _, err = run_capture(["catalog", "--family", family, "--nu", nu], capsys)
        assert code == 1
        assert "RANGE" in err

    def test_samples_is_not_a_catalog_flag(self, capsys):
        # catalog samples nothing; the flag was accepted and ignored
        code, out, err = run_capture(["catalog", "--family", "g6", "--nu", "1", "--samples", "5"], capsys)
        assert (code, out) == (1, "")
        assert "--samples" in err

    def test_g11_large_nu_reports_cusp(self, capsys):
        code, out, _ = run_capture(["catalog", "--family", "g11", "--nu", "50"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "G11"
        assert data["report"]["inner_end"] == {"kind": "CUSP_END", "curvature": -1.0}


class TestIntegrateCommand:
    def test_missing_flag_usage(self, capsys):
        code, out, err = run_capture(["integrate", "--lambda", "0", "--mu", "1"], capsys)
        assert code == 1
        assert "--a0" in err
        assert out == ""

    def test_csv_output(self, capsys):
        code, out, _ = run_capture(
            ["integrate", "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "0",
             "--window", "0,0.2", "--samples", "9", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,a,dadt"
        assert len(lines) == 10
        t, a, _ = map(float, lines[-1].split(","))
        assert a == pytest.approx(1.0 / (1.0 - 4.0 * t), rel=1e-10)

    def test_determinism(self, capsys):
        argv = ["integrate", "--lambda", "-2", "--mu", "-1", "--a0", "0.5",
                "--t0", "0", "--window", "0,5", "--samples", "33", "--format", "csv"]
        _, out1, _ = run_capture(argv, capsys)
        _, out2, _ = run_capture(argv, capsys)
        assert out1 == out2


class TestMetricAndReport:
    def test_metric_csv_header(self, capsys):
        code, out, _ = run_capture(
            ["metric", "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "0",
             "--b0", "0", "--r-range", "0,3", "--samples", "51", "--format", "csv"],
            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,b,db_dr,K"
        r, b, _, _ = map(float, lines[25].split(","))
        assert b == pytest.approx(math.tanh(r), abs=1e-7)

    @pytest.mark.parametrize("argv", [
        ["classify", "--lambda", "0", "--mu", "-1", "--a0", "1"],
        ["report", "--lambda", "0", "--mu", "-1", "--a0", "1"],
        ["verify", "--lambda", "0", "--mu", "-1", "--a0", "1", "--b0", "0"],
        ["energy", "--lambda", "0", "--mu", "-1", "--a0", "1", "--b0", "0"],
        ["catalog", "--family", "g6", "--nu", "3"],
    ], ids=lambda argv: argv[0])
    def test_csv_only_for_sampled_output(self, argv, capsys):
        # integrate and metric export CSV; the reports are JSON only
        code, out, err = run_capture(argv + ["--format", "csv"], capsys)
        assert code == 1
        assert out == ""
        assert "--format" in err

    def test_report_json(self, capsys):
        code, out, _ = run_capture(
            ["report", "--lambda", "0", "--mu", "-1", "--a0", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["complete"] is True
        assert data["outer_end"]["kind"] == "CYLINDER_END"

    def test_verify_json(self, capsys):
        code, out, _ = run_capture(
            ["verify", "--lambda", "0", "--mu", "-1", "--a0", "1", "--b0", "0",
             "--r-range", "0.0,3.0", "--samples", "3001"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["max_tracefree"] <= 1e-4
        assert data["max_killing"] <= 1e-4

    def test_energy_json(self, capsys):
        code, out, _ = run_capture(
            ["energy", "--lambda", "0", "--mu", "-1", "--a0", "1", "--b0", "0",
             "--r-range", "0,3", "--samples", "6001", "--window", "0.2,2.8"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"analytic", "finite_difference", "eps",
                             "slope_estimate", "noether_defect", "energy"}


class TestIntegrateJson:
    def test_steady_smooth_origin(self, capsys):
        # JSON is the default format; gamma of a steady branch is written "inf"
        code, out, _ = run_capture(
            ["integrate", "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "0",
             "--window", "0,0.2", "--samples", "9"], capsys)
        assert code == 0
        data = json.loads(out)
        assert (data["gamma"], data["tag0"], data["tag1"]) == ("inf", "SMOOTH_ORIGIN", "TRUNCATED")
        assert len(data["samples"]) == 9
        assert data["samples"][-1] == {"t": 0.2, "a": pytest.approx(5.0, rel=1e-12)}

    def test_converging_end(self, capsys):
        code, out, _ = run_capture(
            ["integrate", "--lambda", "-2", "--mu", "-1", "--a0", "0.5", "--t0", "0",
             "--window", "0,inf", "--samples", "5"], capsys)
        assert code == 0
        data = json.loads(out)
        assert (data["gamma"], data["t1"], data["tag1"]) == (1.0, "inf", "CONVERGES(1)")
        assert len(data["samples"]) == 5


    def test_default_grid_toward_blow_up(self, capsys):
        # 201 samples geometric toward the blow-up at t = 1/4, up to a = A_BLOWUP
        code, out, _ = run_capture(
            ["integrate", "--lambda", "0", "--mu", "-1", "--a0", "1", "--window", "0,1"], capsys)
        assert code == 0
        data = json.loads(out)
        t = [row["t"] for row in data["samples"]]
        assert len(t) == 201 and all(x < y for x, y in zip(t, t[1:]))
        assert (t[0], t[-1]) == (0.0, pytest.approx(0.2499999975, rel=1e-12))
        assert data["samples"][-1]["a"] == pytest.approx(1e8, rel=1e-8)
        assert (data["tag0"], data["tag1"]) == ("SMOOTH_ORIGIN", "BLOW_UP")


class TestReportEnds:
    def test_cone_end_curvature_is_zero(self, capsys):
        # lambda - 2 mu / gamma rounded to -4.4e-16 here, against a POSITIVE sign
        code, out, _ = run_capture(
            ["report", "--lambda", "-3.4797432379500255", "--mu", "-0.3206639236865883",
             "--a0", "0.14166853450308778", "--t0", "0"], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["outer_end"]["kind"] == "CONE_END"
        assert rep["curvature_sign"] == "POSITIVE" and rep["K_inf"] == 0.0

    def test_flat_plane(self, capsys):
        # gamma = a0 = 1: the separatrix closes up smoothly, K = 0 throughout
        code, out, _ = run_capture(["report", "--lambda", "2", "--mu", "1", "--a0", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["inner_end"] == {"kind": "SMOOTH_POINT", "curvature": 0.0}
        assert data["outer_end"] == {"kind": "CONE_END", "angle": pytest.approx(2.0 * math.pi, rel=1e-15)}
        assert (data["K_inf"], data["K_sup"], data["complete"]) == (0.0, 0.0, True)

    def test_unresolved_blow_up_time(self, capsys):
        # the blow-up lands on t = 0 to rounding: cusp versus boundary is undecidable
        t0 = repr(_separatrix_time(make_params(-1.0, 1.0), 1.0))
        flags = ["--lambda", "-1", "--mu", "1", "--a0", "1", "--t0", t0]
        code, out, err = run_capture(["report", *flags], capsys)
        assert (code, out) == (2, "")
        assert "numerical failure UNRESOLVED_END" in err
        code, out, _ = run_capture(["classify", *flags], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "UNRESOLVED_T0_SIGN"
        assert abs(data["t0_estimate"]) <= data["t0_uncertainty"]


class TestNegativeValues:
    def test_exponent_value(self, capsys):
        # argparse alone reads -2e-3 as an unknown flag
        code, out, err = run_capture(
            ["classify", "--lambda", "-2e-3", "--mu", "1", "--a0", "1"], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["family"], data["lambda"], data["gamma"]) == ("G10", -2e-3, -1000.0)

    def test_pair_value(self, capsys):
        code, out, err = run_capture(
            ["integrate", "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "0",
             "--window", "-1,0.2", "--samples", "3"], capsys)
        assert (code, err) == (0, "")
        assert [row["t"] for row in json.loads(out)["samples"]] == [-1.0, -0.4, 0.2]

    def test_missing_value_still_an_error(self, capsys):
        code, out, err = run_capture(["classify", "--lambda", "--mu", "1", "--a0", "1"], capsys)
        assert (code, out) == (1, "")
        assert "argument --lambda: expected one argument" in err


# one bad value per kind of flag: (subcommand and other flags, flag, value)
BAD_VALUES = [
    (["classify", "--mu", "1", "--a0", "1"], "--lambda", "x"),
    (["classify", "--mu", "1", "--a0", "1"], "--lambda", "nan"),
    (["metric", "--lambda", "0", "--mu", "-1", "--a0", "1"], "--r-range", "1"),
    (["metric", "--lambda", "0", "--mu", "-1", "--a0", "1"], "--samples", "2.5"),
]


class TestValueErrors:
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("argv, flag, value", BAD_VALUES,
                             ids=["number", "nan", "pair", "samples"])
    def test_message_names_the_flag(self, tmp_path, capsys, argv, flag, value, via_config):
        if via_config:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + [flag, value]
        code, out, err = run_capture(argv, capsys)
        assert (code, out) == (1, "")
        assert f"argument {flag}: " in err and repr(value) in err
        assert not via_config or err.startswith(f"{cfg}: ")

    def test_every_value_flag_is_numeric(self):
        # a value flag either converts its text to numbers or is one of the
        # four text flags, so no raw string reaches the library
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        seen, flags, formats = set(), {}, {}
        for name, sp in sub.choices.items():
            flags[name] = {action.option_strings[-1] for action in sp._actions}
            formats[name] = next(action.choices for action in sp._actions if action.dest == "format")
            for action in sp._actions:
                if action.nargs == 0 or action.option_strings[-1] in (
                        "--family", "--format", "--out", "--config"):
                    continue
                flag = action.option_strings[-1]
                seen.add(flag)
                try:
                    value = vars(parser.parse_args([name, flag, "2"]))[action.dest]
                except _UsageError:
                    value = vars(parser.parse_args([name, flag, "2,3"]))[action.dest]
                for x in value if isinstance(value, tuple) else (value,):
                    assert type(x) in (int, float), (name, flag, value)
        assert seen == {"--lambda", "--mu", "--a0", "--t0", "--b0", "--r0", "--r-range",
                        "--window", "--samples", "--eps", "--nu"}
        # and each subcommand has exactly its own flags and --format choices
        common = {"--help", "--config", "--format", "--out"}
        anchor = common | {"--lambda", "--mu", "--a0", "--t0"}
        sampled = anchor | {"--b0", "--r0", "--r-range", "--samples"}
        assert flags == {
            "integrate": anchor | {"--window", "--samples"},
            "classify": anchor,
            "metric": sampled,
            "report": anchor,
            "verify": sampled,
            "energy": sampled | {"--window", "--eps"},
            "catalog": common | {"--family", "--nu", "--list"},
        }
        assert formats == {name: ("csv", "json") if name in ("integrate", "metric") else ("json",)
                           for name in flags}


_ANCHOR = {"--lambda": "-1", "--mu": "-1", "--a0": "1", "--t0": "0"}
_METRIC = {**_ANCHOR, "--b0": "0", "--r0": "0", "--r-range": "0,3", "--samples": "101"}
# a valid command line per subcommand, as {flag: value}
DEGENERATE_BASE = {
    "integrate": {**_ANCHOR, "--window": "-1,1", "--samples": "5"},
    "classify": _ANCHOR,
    "metric": _METRIC,
    "report": _ANCHOR,
    "verify": _METRIC,
    "energy": {**_METRIC, "--window": "0.2,2.8", "--eps": "1e-3"},
    **{f"catalog {tag}": {"--family": tag, "--nu": "1"} for tag in (
        "g1", "g2", "g3", "g4_plus", "g4_minus", "g5", "g6", "g7", "g8", "g9", "g10", "g11", "g12")},
}
# degenerate values by kind of flag: sample counts, pairs (reversed, empty) and reals
_DEGENERATE = {"--samples": ("0", "1", "-3", "100000000000000000000", "9223372036854775807"),
               "--window": ("1,-1", "1,1"), "--r-range": ("3,0", "1,1")}
_DEGENERATE_REAL = ("inf", "-inf", "1e308", "5e-324")
DEGENERATE_CASES = [(cmd, flag, value) for cmd, flags in DEGENERATE_BASE.items() for flag in flags
                    if flag != "--family" for value in _DEGENERATE.get(flag, _DEGENERATE_REAL)]


class TestDegenerateValues:
    @pytest.mark.parametrize("cmd, flag, value", DEGENERATE_CASES,
                             ids=[f"{cmd.replace(' ', '_')}{flag}={value}" for cmd, flag, value in DEGENERATE_CASES])
    def test_typed_outcome(self, capsys, cmd, flag, value):
        # no numeric flag value reaches an untyped error: metric, verify and energy with --samples 0 or -3
        # and energy with --eps 5e-324 printed "internal failure", as integrate, metric, verify and energy
        # did with --samples 100000000000000000000 or 9223372036854775807
        flags = {**DEGENERATE_BASE[cmd], flag: value}
        code, _, err = run_capture([cmd.split()[0], *(f"{k}={v}" for k, v in flags.items())], capsys)
        assert code in (0, 1, 2) and "internal failure" not in err, err

    @pytest.mark.parametrize("cmd", ["integrate", "metric", "verify", "energy"])
    @pytest.mark.parametrize("value", ["100000000000000000000", "9223372036854775807"])
    def test_sample_count_past_the_array_limit(self, capsys, cmd, value):
        flags = {**DEGENERATE_BASE[cmd], "--samples": value}
        code, out, err = run_capture([cmd, *(f"{k}={v}" for k, v in flags.items())], capsys)
        assert (code, out) == (1, "") and err.startswith("soliton: DOMAIN: ") and "array size limit" in err, err

    @pytest.mark.parametrize("cmd", ["integrate", "metric", "verify", "energy"])
    def test_unallocatable_sample_count(self, capsys, cmd):
        # 2^55 samples pass the array size limit, and numpy refuses them at once (256 PiB lies beyond any
        # 64-bit user address space); run printed "internal failure in '<cmd>': MemoryError(...)"
        flags = {**DEGENERATE_BASE[cmd], "--samples": str(2**55)}
        code, out, err = run_capture([cmd, *(f"{k}={v}" for k, v in flags.items())], capsys)
        assert (code, out) == (2, "") and err.startswith(f"soliton: out of memory in {cmd!r}: "), err


class TestFormat:
    @pytest.mark.parametrize("value, text", [(math.nan, '"nan"'), (None, "null")])
    def test_json_value(self, value, text):
        assert _fmt(value) == text

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            _fmt(object())


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0\nmu = -1\na0 = 2  # overridden below\nt0 = 0\n")
        code, out, _ = run_capture(
            ["classify", "--config", str(cfg), "--a0", "1"], capsys)
        assert code == 0
        assert json.loads(out)["family"] == "G1_CIGAR"

    def test_config_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = -1\nmu = -1\na0 = 1\nt0 = 0\n")
        code, out, _ = run_capture(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["family"] == "G6"

    def test_comment_only_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# the cone family G6\n\n   # indented comment = not a key\nlambda = -1\nmu = -1\na0 = 1\n")
        code, out, _ = run_capture(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["family"] == "G6"

    def test_config_cannot_name_another(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda = -1\nmu = -1\na0 = 1\nconfig = {cfg}\n")
        code, out, err = run_capture(["classify", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert "cannot name another" in err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambda 0\n")
        code, _, err = run_capture(["classify", "--config", str(cfg)], capsys)
        assert code == 1
        assert "key = value" in err

    @pytest.mark.parametrize("line, message", [
        ("tol = 1e-9", "--tol"),        # not a flag of any subcommand
        ("samples = 11", "--samples"),  # a flag of others, not of report
        ("format = csv", "invalid choice"),
    ])
    def test_key_outside_subcommand_flags(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"lambda = -1\nmu = -1\na0 = 1\n{line}\n")
        code, out, err = run_capture(["report", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert str(cfg) in err and message in err

    def test_config_with_pairs_and_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0\nmu = -1\na0 = 1\nb0 = 0\nr-range = 0,2\n"
                       "samples = 5\nformat = csv\n")
        code, out, _ = run_capture(["metric", "--config", str(cfg), "--samples", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,b,db_dr,K"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 1.0, 2.0]


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run_capture(["classify", "--nope", "1"], capsys)
        assert code == 1

    def test_unexpected_exception_is_an_internal_failure(self, capsys, monkeypatch):
        # a handler's bug exits 2 with one line on stderr, never a traceback
        def broken(opts):
            raise ZeroDivisionError("boom")

        monkeypatch.setitem(cli._COMMANDS, "classify", (*cli._COMMANDS["classify"][:-1], broken))
        code, out, err = run_capture(["classify", "--lambda", "0", "--mu", "-1", "--a0", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "soliton: internal failure in 'classify': ZeroDivisionError('boom')\n"

    def test_mu_zero_usage_error(self, capsys):
        code, _, err = run_capture(
            ["classify", "--lambda", "1", "--mu", "0", "--a0", "1"], capsys)
        assert code == 1
        assert "MU_ZERO" in err

    @pytest.mark.parametrize("argv", [
        ["catalog", "--family", "g5", "--nu", "1e154"],
        ["catalog", "--family", "g2", "--nu", "1e154"],
        ["report", "--lambda", "1e308", "--mu", "1e308", "--a0", "1", "--t0", "0"],
        ["report", "--lambda", "1.7e308", "--mu=-4e307", "--a0", "1", "--t0", "0"],
    ], ids=["catalog_g5", "catalog_g2", "report_mu", "report_curvature"])
    def test_overflowing_scale_usage_error(self, argv, capsys):
        # these printed a G3 family, gamma "inf" or K "nan"/"inf" with exit 0
        code, out, err = run_capture(argv, capsys)
        assert (code, out) == (1, "")
        assert "soliton: RANGE:" in err

    @pytest.mark.parametrize("family, nu", [
        ("g6", repr(math.nextafter(2.0 * math.pi, 0.0))),
        ("g6", repr(2.0 * math.pi * (1.0 - 1e-15))),
        ("g7", repr(2.0 * math.pi * (1.0 + 1e-13))),
    ])
    def test_catalog_of_another_family_usage_error(self, family, nu, capsys):
        # next to nu = 2 pi these printed a FLAT_SEPARATRIX entry with exit 0
        code, out, err = run_capture(["catalog", "--family", family, "--nu", nu], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("soliton: RANGE: ") and "FLAT_SEPARATRIX" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--lambda", "1e-300", "--mu", "-1e10", "--a0", "1"],
        ["report", "--lambda", "1e-300", "--mu", "-1e10", "--a0", "1"],
        ["classify", "--lambda", "1e300", "--mu", "1e-300", "--a0", "1"],
    ], ids=["classify_gamma_overflow", "report_gamma_overflow", "classify_gamma_underflow"])
    def test_gamma_outside_float_range_usage_error(self, argv, capsys):
        # these printed G1_CIGAR against a GEODESIC_BOUNDARY report, and an
        # internal ZeroDivisionError with exit 2
        code, out, err = run_capture(argv, capsys)
        assert (code, out) == (1, "")
        assert "soliton: RANGE:" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--lambda", "0", "--mu", "-6.4e-286", "--a0", "2.4e-159"],
        ["classify", "--lambda", "5.06e-144", "--mu", "3.63e138", "--a0", "1.7e-126"],
        ["report", "--lambda", "5.06e-144", "--mu", "3.63e138", "--a0", "1.7e-126"],
        ["classify", "--lambda", "0", "--mu", "1.1e169", "--a0", "3.8e169"],
        ["report", "--lambda", "0", "--mu", "1.1e169", "--a0", "3.8e169"],
        ["report", "--lambda", "0", "--mu", "-2.385431410574351e+197", "--a0", "4.336074798850423e-223",
         "--t0", "9.987123255918306e+220"],
    ], ids=["time_scale_underflow", "nan_C_classify", "nan_C_report", "C_sign_lost_classify",
            "C_sign_lost_report", "cone_angle_overflow"])
    def test_branch_time_outside_float_range(self, argv, capsys):
        # internal ZeroDivisionError / IndexError (exit 2), or G5 and G2_EXPLODING
        # against an IndexError and a CYLINDER_END of radius 0 from report
        code, out, err = run_capture(argv, capsys)
        assert (code, out) == (1, "")
        assert "soliton: RANGE:" in err

    def test_typed_error_without_numpy_warning(self, capsys):
        # 4 mu (t - C) overflows in a(t) on the steady branch; numpy's overflow
        # warning reached stderr ahead of the RANGE line
        code, out, err = run_capture(
            ["report", "--lambda", "0", "--mu", "-2.385431410574351e+197", "--a0", "4.336074798850423e-223",
             "--t0", "9.987123255918306e+220"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("soliton: RANGE:")

    def test_result_without_numpy_warning(self):
        # a' = 2 lambda a^3 - 4 mu a^2 overflows in the T0 bound; numpy's overflow warning reached
        # stderr ahead of the G7 result
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "soliton2d.cli", "classify", "--lambda", "-1", "--mu", "-1",
                               "--a0", "1e103", "--t0", "0"], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["family"] == "G7"

    def test_infinite_eps_domain_error_without_numpy_warning(self):
        # eps = inf made the perturbed metric inf * 0 = nan, and two numpy warnings reached stderr
        # ahead of the DOMAIN line
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "soliton2d.cli", *"energy --lambda 0 --mu -1 --a0 1 --b0 0 "
                               "--r-range 0,3 --window 0.2,2.8 --eps inf".split()],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == ["soliton: DOMAIN: eps must be positive and finite"]

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_infinite_anchor_time_domain_error(self, command, capsys):
        # classify printed G1_CIGAR from C = inf with exit 0, report a RANGE error
        code, out, err = run_capture([command, "--lambda", "0", "--mu", "-1", "--a0", "1", "--t0", "inf"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("soliton: DOMAIN:")

    def test_underflowing_slope_keeps_a_blow_up_bound(self, capsys):
        # a' = 2 lambda a^3 - 4 mu a^2 underflows to 0 at the anchor; the T0
        # bound divided by it and classify exited 2
        flags = ["--lambda", "-8.540649283685946e+44", "--mu", "14.380112391088037",
                 "--a0", "3.6517407237882324e-165", "--t0", "-4.068318887140987e-244"]
        code, out, _ = run_capture(["classify", *flags], capsys)
        label = json.loads(out)
        assert code == 0 and label["family"] == "G10"
        assert 0.0 < label["t0_uncertainty"] < abs(label["t0_estimate"])
        code, out, _ = run_capture(["report", *flags], capsys)
        rep = json.loads(out)
        assert code == 0
        assert (rep["inner_end"]["kind"], rep["outer_end"]["kind"]) == ("CONE_END", "EXPLODING_END")

    def test_metric_next_to_blowup_with_large_mu(self, capsys):
        # dr/dx underflows to 0 toward the blow-up at t = 1; the Newton step
        # of the inverse divided 0 by 0 there and printed "b": "nan"
        code, out, _ = run_capture(
            ["metric", "--lambda", "-1", "--mu", "1e20", "--a0", "1e6", "--t0", "1",
             "--b0", "2", "--r-range", "0,1", "--samples", "11"], capsys)
        assert code == 0
        assert "nan" not in out
        assert all(row["b"] == pytest.approx(2.0) for row in json.loads(out)["samples"])

    def test_no_subcommand(self, capsys):
        code, _, err = run_capture([], capsys)
        assert code == 1

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "prof.csv"
        code, out, err = run_capture(
            ["integrate", "--lambda", "0", "--mu", "1", "--a0", "1", "--t0", "0",
             "--window", "0,1", "--samples", "5", "--out", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("soliton: ") and str(target) in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "prof.csv"
        code, out, _ = run_capture(
            ["integrate", "--lambda", "0", "--mu", "1", "--a0", "1", "--t0", "0",
             "--window", "0,1", "--samples", "5", "--format", "csv",
             "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("t,a,dadt")


# CLI runs that build an arc table: a sampled metric and both G4 catalogs
ARC_TABLE_RUNS = [
    ["metric", "--lambda", "-1", "--mu", "-1", "--a0", "1", "--b0", "0",
     "--r-range", "0,3", "--samples", "51", "--format", "csv"],
    ["catalog", "--family", "g4_plus", "--nu", "1.3"],
    ["catalog", "--family", "g4_minus", "--nu", "2.2"],
]
ARC_TABLE_RUN_IDS = ["metric_csv", "catalog_g4_plus", "catalog_g4_minus"]


# the commands that compute nothing with arrays
SCALAR_RUNS = [
    ["classify", "--lambda", "-1", "--mu", "-1", "--a0", "3", "--t0", "1"],
    ["report", "--lambda", "0", "--mu", "1", "--a0", "1"],
    ["catalog", "--family", "G6", "--nu", "3"],
    ["catalog", "--family", "G9", "--nu", "0.91"],
    ["catalog", "--list"],
]
SCALAR_RUN_IDS = ["classify", "report", "catalog_g6", "catalog_g9", "catalog_list"]


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """code run with argv in a fresh interpreter with src on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)


class TestImportHygiene:
    @pytest.mark.parametrize("module", ["soliton2d", "soliton2d.cli"])
    def test_import_loads_no_numpy(self, module):
        # the package re-exports on first access, and cli imports each layer in the handler that uses it
        code = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
        assert _fresh(code).stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", SCALAR_RUNS, ids=SCALAR_RUN_IDS)
    def test_scalar_run_loads_no_numpy(self, argv):
        assert [m for m in _modules_after_run(argv) if m.split(".")[0] == "numpy"] == []

    def test_integrate_loads_no_geometry_or_taxonomy(self):
        argv = ["integrate", "--lambda", "-1", "--mu", "-1", "--a0", "1", "--window", "-1,1", "--samples", "5"]
        loaded = _modules_after_run(argv)
        assert "soliton2d.ode" in loaded
        assert [m for m in loaded if m in ("soliton2d.geometry", "soliton2d.taxonomy")] == []

    def test_lazy_exports_resolve(self):
        # every exported name resolves to the object its module defines, * binds them all, and the six
        # layer modules are attributes of the package (the tracing harness reads them with hasattr)
        out = _fresh(
            "import importlib, soliton2d as S\n"
            "wrong = [n for n in S.__all__ if n != '__version__' and getattr(S, n) is not getattr(\n"
            "    importlib.import_module('soliton2d.' + S._EXPORTS[n]), n)]\n"
            "ns = {}\n"
            "exec('from soliton2d import *', ns)\n"
            "print(wrong, sorted(set(S.__all__) - set(ns)), set(S.__all__) <= set(dir(S)),\n"
            "      all(hasattr(S, m) for m in ('cli', 'ode', 'geometry', 'taxonomy', 'verify', 'variational')))\n")
        assert out.stdout.strip() == "[] [] True True"

    def test_unknown_name_raises_attribute_error(self):
        import soliton2d
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            soliton2d.nonexistent
        assert not hasattr(soliton2d, "numpy")

    def test_submodule_on_first_access_and_dir(self):
        # a layer not yet imported is imported by its first access; dir lists the layers and every export
        out = _fresh("import sys, soliton2d as S\n"
                     "print('soliton2d.verify' in sys.modules, S.verify is sys.modules['soliton2d.verify'],\n"
                     "      dir(S) == sorted({*vars(S), *S.__all__, *S._MODULES}),\n"
                     "      {'cli', 'catalog'} <= set(dir(S)))\n")
        assert out.stdout.strip() == "False True True True"

    def test_max_samples_is_numpy_limit(self):
        from soliton2d import ode
        assert ode._MAX_SAMPLES == np.iinfo(np.intp).max // 8

    def test_cli_import_loads_no_scipy(self):
        # importing scipy would cost most of a CLI call's start-up
        code = "import sys, soliton2d.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert _fresh(code).stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["metric", "--lambda", "-1", "--mu", "-1", "--a0", "1", "--b0", "0",
         "--r-range", "0,3", "--samples", "51", "--format", "csv"],
        ["catalog", "--family", "G6", "--nu", "3"],
        ["catalog", "--family", "g4_plus", "--nu", "1.3"],
        ["catalog", "--family", "g4_minus", "--nu", "2.2"],
    ], ids=["metric_csv", "catalog_g6", "catalog_g4_plus", "catalog_g4_minus"])
    def test_cli_run_loads_no_scipy(self, argv):
        # the arc-length quadrature and the catalog, G4 root solve included,
        # stay on numpy alone
        assert [m for m in _modules_after_run(argv) if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("argv", ARC_TABLE_RUNS, ids=ARC_TABLE_RUN_IDS)
    def test_cli_run_loads_no_numpy_ma(self, argv):
        # np.unique imports numpy.ma (about 15 ms); the arc table and the
        # sample grid deduplicate without it
        loaded = _modules_after_run(argv)
        assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []

    @pytest.mark.parametrize("argv", ARC_TABLE_RUNS, ids=ARC_TABLE_RUN_IDS)
    def test_cli_run_loads_no_numpy_polynomial(self, argv):
        # numpy.polynomial costs about 6 ms of start-up; the quadrature
        # nodes and the psi series need none of it
        loaded = _modules_after_run(argv)
        assert [m for m in loaded if m.startswith("numpy.polynomial")] == []


def _modules_after_run(argv) -> list[str]:
    """The modules loaded by one successful CLI run in a fresh interpreter."""
    code = (
        "import sys\n"
        "from soliton2d import cli\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(' '.join(sys.modules), file=sys.stderr)\n"
    )
    proc = _fresh(code, *argv)
    assert proc.stdout
    return proc.stderr.strip().splitlines()[-1].split()


# The CLI output contract: the README's JSON examples, the steady closed-form
# catalog entries, a cone and a cusp entry, and `integrate` and `metric` in
# CSV and JSON, compared byte for byte with
# tests/data/cli_golden.txt (one "$ soliton <args>" line before each stdout).
GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
GOLDEN_COMMANDS = [
    "classify --lambda 0 --mu -1 --a0 1 --t0 0 --format json",
    "report --lambda -1 --mu -1 --a0 1",
    "verify --lambda 0 --mu -1 --a0 1 --b0 0 --r-range 0,3 --samples 3001",
    "energy --lambda 0 --mu -1 --a0 1 --b0 0 --r-range 0,3 --window 0.2,2.8",
    "catalog --family g6 --nu 3.14159",
    "catalog --list",
    *(f"catalog --family {fam} --nu {nu}" for fam in ("g1", "g2", "g3") for nu in ("0.7", "0.91")),
    "catalog --family g6 --nu 0.91",
    "catalog --family g8 --nu 0.91",
    "catalog --family g4_plus --nu 1.3",
    "catalog --family g4_minus --nu 2.2",
    # on explicit grids; the default integrate grid toward a blow-up is left unpinned, as it may change
    "integrate --lambda 0 --mu -1 --a0 1 --t0 0 --window 0,0.2 --samples 5 --format csv",
    "integrate --lambda -1 --mu -1 --a0 1 --window -1,1 --samples 5",
    "metric --lambda 0 --mu -1 --a0 1 --b0 0 --r-range 0,5 --samples 5 --format csv",
    "metric --lambda -1 --mu -1 --a0 1 --b0 0 --r-range 0,2 --samples 5",
    # the scalar paths: classify at one anchor per family kind, report at an exploding end and on the
    # separatrix, and catalog entries with cone, boundary, cusp and exploding ends
    *(f"classify {anchor}" for anchor in (
        "--lambda -1 --mu 1 --a0 1", "--lambda -1 --mu 1 --a0 1 --t0 1", "--lambda 1 --mu 1 --a0 3",
        "--lambda 1 --mu 1 --a0 1", "--lambda -1 --mu -1 --a0 3", "--lambda -1 --mu -1 --a0 3 --t0 1",
        "--lambda 0 --mu 1 --a0 1", "--lambda 1 --mu 1 --a0 2")),
    "report --lambda 0 --mu 1 --a0 1",
    "report --lambda 1 --mu 1 --a0 2",
    "catalog --family g7 --nu 7.5",
    *(f"catalog --family {fam} --nu 0.91" for fam in ("g5", "g9", "g10", "g11", "g12")),
]


def _golden_outputs() -> dict:
    chunks = GOLDEN.read_text(encoding="utf-8").split("$ soliton ")[1:]
    return dict(chunk.split("\n", 1) for chunk in chunks)


class TestGoldenOutput:
    @pytest.mark.parametrize("cmd", GOLDEN_COMMANDS)
    def test_stdout_matches_golden(self, cmd, capsys):
        code, out, err = run_capture(cmd.split(), capsys)
        assert code == 0, err
        assert out == _golden_outputs()[cmd]


def _tanh_metric(n: int) -> WarpedMetric:
    """The cigar b = tanh r on n samples over [0, 3] from 40-digit mpmath: b, b' = sech^2 r,
    K = 2 sech^2 r and t = b^2/4, each rounded once."""
    r = np.linspace(0.0, 3.0, n)
    with mpmath.workdps(40):
        th = [mpmath.tanh(x) for x in r.tolist()]
        s = [mpmath.sech(x) ** 2 for x in r.tolist()]
        b, bp, K, t = (np.array([float(y) for y in col])
                       for col in (th, s, [2 * y for y in s], [y * y / 4 for y in th]))
    return WarpedMetric(params=make_params(0.0, -1.0), r=r, b=b, b_prime=bp, K=K, t_of_r=t)


class TestGoldenCigarOracle:
    """The golden cigar `verify` and `energy` lines against the same code run on the 40-digit
    tanh metric over the same r-grid.  Fields taken by differencing agree within 1e-9, about the
    rounding floor 4.5 eps / h^2 of second differences at h = 1e-3; `energy`, which takes no
    differences, within 4 ulps."""

    def test_verify(self, capsys):
        code, out, err = run_capture(
            "verify --lambda 0 --mu -1 --a0 1 --b0 0 --r-range 0,3 --samples 3001".split(), capsys)
        assert code == 0, err
        got, ref = json.loads(out), verify.soliton_residual(_tanh_metric(3001)).to_json_dict()
        assert got.keys() == ref.keys()
        for key, val in ref.items():
            if key.startswith("max_"):
                assert abs(got[key] - val) <= 1e-9, key
            else:  # the grid
                assert got[key] == val, key

    def test_energy(self, capsys):
        code, out, err = run_capture(
            "energy --lambda 0 --mu -1 --a0 1 --b0 0 --r-range 0,3 --window 0.2,2.8".split(), capsys)
        assert code == 0, err
        metric, window = _tanh_metric(2001), (0.2, 2.8)
        pad = 0.05 * (window[1] - window[0])
        v = variational.bump_variation((window[0] + pad, window[1] - pad), psi_amp=0.1)
        got, ref = json.loads(out), variational.variation_report(metric, v, eps=1e-4)
        assert got.keys() == {*ref, "energy"} and got["eps"] == ref["eps"]
        for key in ("analytic", "finite_difference", "noether_defect"):
            assert abs(got[key] - ref[key]) <= 1e-9, key
        # the slope is fitted through errors |fd - analytic| of 1.6e-7 down to 2.8e-8 (eps / 4),
        # which 1e-9 on each moves by at most 2e-9 / 2.8e-8 / log 4 = 0.05
        assert abs(got["slope_estimate"] - ref["slope_estimate"]) <= 0.05
        ref_energy = variational.energy(metric, window)
        assert abs(got["energy"] - ref_energy) <= 4 * math.ulp(ref_energy)
