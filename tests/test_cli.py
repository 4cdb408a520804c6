import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycap import cli, montecarlo
from oracles import to_json_frozen
from relaycap.cli import (
    EXIT_MC_FAIL,
    EXIT_MC_INCONCLUSIVE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    OutputRecord,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsSweep:
    def test_row_count_and_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds-sweep", "--snr", "1", "--c0-min", "0.1",
            "--c0-max", "1.0", "--c0-steps", "4",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert len(doc["rows"]) == 4
        assert list(doc["rows"][0]) == ["snr", "c0", "cutset", "new_bound",
                                        "cf_rate", "c_infinity"]
        for row in doc["rows"]:
            assert row["new_bound"] < row["c_infinity"]

    def test_single_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds-sweep", "--snr", "2", "--c0-min", "0.5",
            "--c0-max", "3.0", "--c0-steps", "1",
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 1

    def test_default_snr_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds-sweep", "--c0-min", "0.5", "--c0-max", "1.0",
            "--c0-steps", "2",
        )
        assert code == EXIT_OK
        snrs = {row["snr"] for row in json.loads(out)["rows"]}
        assert snrs == {0.1, 1.0, 10.0}

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds-sweep", "--snr", "1", "--c0-min", "0.1",
            "--c0-max", "0.2", "--c0-steps", "2", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "snr,c0,cutset,new_bound,cf_rate,c_infinity"
        assert len(out.splitlines()) == 3

    def test_numerical_failure_names_point(self, capsys, monkeypatch):
        import relaycap.bounds as bmod

        def boom(params, c0):
            raise FloatingPointError("synthetic")

        monkeypatch.setattr(bmod, "capacity_upper_bound", boom)
        code, _, err = run_cli(
            capsys, "bounds-sweep", "--snr", "1", "--c0-min", "0.7",
            "--c0-max", "1.0", "--c0-steps", "1",
        )
        assert code == EXIT_NUMERICAL
        assert "0.7" in err


    @pytest.mark.parametrize("c0", ["40", "600", "1100", "1e300"])
    def test_large_c0_point_finite(self, capsys, c0):
        # 40 used to hit a math domain error in the omega search; at 600
        # sin^2(theta0) underflows, which the closed form must not divide by;
        # from ~1075 on 2^-C0 itself underflows, which the sup never forms
        code, out, err = run_cli(
            capsys, "bounds-sweep", "--c0-min", c0, "--c0-steps", "1",
        )
        assert code == EXIT_OK, err
        for row in json.loads(out)["rows"]:
            assert math.isfinite(row["new_bound"])
            assert row["new_bound"] <= row["cutset"] <= row["c_infinity"]


    def test_negative_c0_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "bounds-sweep", "--snr", "1", "--c0-min", "-1",
                                 "--c0-steps", "1")
        assert code == EXIT_USAGE
        assert not out
        assert "invalid input" in err and ">= 0" in err

    def test_zero_c0_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-sweep", "--snr", "1", "--c0-min", "0",
                               "--c0-steps", "1")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["c0"] == 0.0 and row["new_bound"] == row["cutset"]

    def test_tol_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds-sweep", "--snr", "1", "--c0-steps", "1", "--tol", "1e-7"])
        assert exc.value.code == EXIT_USAGE

    def test_params_have_no_tol(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-sweep", "--snr", "1", "--c0-steps", "1")
        assert code == EXIT_OK
        assert "tol" not in json.loads(out)["params"]

    # the paper's figure, 3 SNRs x 60 C0 points: its bytes must not move
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "c8abac9f5b9751c878f4d3c8c9ae7bc3cffba40621bbc553accfbe6078d69b59"),
        ("csv", "d376339896d0282ea8df842144c05c03342f227e081d2448038f787038db8cd9"),
    ])
    def test_default_sweep_bytes(self, capsys, fmt, digest):
        code, out, _ = run_cli(capsys, "bounds-sweep", "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["bounds-sweep", "--snr", "1e308", "--c0-min", "1", "--c0-steps", "1"],
        ["gap", "--snr", "1e308", "--c0", "1"],
    ], ids=["bounds-sweep", "gap"])
    def test_snr_beyond_float_range_is_numerical(self, capsys, argv):
        # 2P/N overflows: the rows would hold Infinity and NaN, and gap would
        # blame C0
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert not out
        assert "SNR 1e+308" in err


class TestGap:
    def test_columns_and_derivative(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--snr", "1", "--c0", "1")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert list(row) == ["theta0", "delta1", "derivative", "gap_lower_bound",
                             "certified_bound", "c_infinity"]
        assert abs(row["derivative"] - 1.0 / (3.0 * math.log(2))) <= 1e-15
        assert row["gap_lower_bound"] > 0

    def test_large_c0_still_positive(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--snr", "1", "--c0", "10")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["gap_lower_bound"] > 0

    def test_step_underflow_is_numerical(self, capsys):
        # a valid C0 whose certificate step is below float64 range is a
        # numerical limit (exit 3), not invalid input (exit 2)
        code, out, err = run_cli(capsys, "gap", "--snr", "1", "--c0", "1000")
        assert code == EXIT_NUMERICAL
        assert not out
        assert "float64" in err

    @pytest.mark.parametrize("bad", ["0", "-1", "inf", "nan"])
    def test_invalid_c0(self, capsys, bad):
        code, _, err = run_cli(capsys, "gap", "--snr", "1", "--c0", bad)
        assert code == EXIT_USAGE
        assert err


class TestGeom:
    def test_cap_area_hemisphere(self, capsys):
        code, out, _ = run_cli(
            capsys, "geom", "cap-area", "--m", "100", "--theta", "90", "--deg"
        )
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        from relaycap import CapSpec, log_cap_area, log_sphere_area

        sphere = log_sphere_area(100, math.sqrt(100)).log2_value
        assert row["log2_measure"] == pytest.approx(sphere - 1.0, abs=1e-12)

    def test_cap_intersect_gap_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "geom", "cap-intersect", "--m", "2000", "--theta", "70",
            "--theta2", "35", "--deg",
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["rows"][0]["per_dim_gap"]) <= 0.05

    def test_ball_intersect_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "geom", "ball-intersect", "--m", "100", "--r1", "1",
            "--r2", "1", "--d", "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["lambda"] == 1.5

    def test_shell_cap_with_omega(self, capsys):
        code, out, _ = run_cli(
            capsys, "geom", "shell-cap", "--m", "200", "--delta", "0.1",
            "--theta", "70", "--omega", "35", "--deg",
        )
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["lower_exponent"] <= row["log2_measure"] <= row["upper_exponent"]

    def test_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "geom", "exponent", "--theta", "90", "--omega", "90", "--deg"
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["exponent_per_two_dims"] == pytest.approx(
            math.log2(2 * math.pi * math.e), abs=1e-12
        )

    def test_precondition_violation_named(self, capsys):
        code, _, err = run_cli(
            capsys, "geom", "cap-intersect", "--m", "100", "--theta", "20",
            "--theta2", "20", "--deg",
        )
        assert code == EXIT_USAGE
        assert "pi/2" in err

    def test_cap_area_exponent_at_tiny_angle(self, capsys):
        # sin(theta)^2 underflows to 0 here; 2 log2 sin(theta) and the
        # small-angle form of the sin^98 integral do not.
        code, out, _ = run_cli(capsys, "geom", "cap-area", "--m", "100", "--theta", "1e-300")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["asymptotic_exponent"] == pytest.approx(
            50 * (math.log2(2 * math.pi * math.e) + 2 * math.log2(1e-300)), rel=1e-12
        )
        # 50-digit area of the cap: the (m-2)-sphere prefactor times
        # int_0^theta sin^(m-2) = 1/2 int_0^(sin^2 theta) t^((m-3)/2) (1-t)^(-1/2) dt
        with mp.workdps(50):
            m, theta = 100, mp.mpf(1e-300)
            half = mp.mpf(m - 1) / 2
            area = (2 * mp.pi ** half / mp.gamma(half) * mp.sqrt(m) ** (m - 1)
                    * mp.betainc(half, 0.5, 0, mp.sin(theta) ** 2) / 2)
            expected = float(mp.log(area, 2))
        assert row["log2_measure"] == pytest.approx(expected, rel=1e-15)

    def test_shell_cap_exponents_at_tiny_angle(self, capsys):
        # sin(theta)^2 underflows to 0 below theta ~ 1e-154; the exponent
        # columns take log2(n +- delta) + 2 log2 sin(theta) instead
        code, out, _ = run_cli(capsys, "geom", "shell-cap", "--m", "100", "--theta", "1e-170")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert all(math.isfinite(v) for v in row.values())
        for column, scale in (("lower_exponent", 0.9), ("upper_exponent", 1.1)):
            assert row[column] == pytest.approx(
                50 * (math.log2(2 * math.pi * math.e * scale) + 2 * math.log2(1e-170)),
                rel=1e-12,
            )
        assert row["lower_exponent"] < row["upper_exponent"]

    def test_ball_intersect_at_tiny_distance(self, capsys):
        # R1 = R2 = 1, D = 1e-300: the expanded numerator of lambda cancels
        # to 0; Heron's grouping gives the exact limit 2.
        code, out, _ = run_cli(
            capsys, "geom", "ball-intersect", "--m", "10", "--r1", "1",
            "--r2", "1", "--d", "1e-300",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["lambda"] == 2.0


class TestMc:
    def test_concentration_vacuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "concentration", "--m", "2", "--mu", "0.5",
            "--samples", "1000", "--seed", "3",
        )
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["verdict"] == "pass"
        assert row["threshold"] == 1.0
        assert row["seed"] == 3

    def test_concentration_threshold_at_tiny_mu(self, capsys):
        # m mu^2 underflows to 0: the threshold is the vacuous 1, not 1/0
        code, out, _ = run_cli(
            capsys, "mc", "concentration", "--m", "50", "--mu", "1e-300",
            "--samples", "1000", "--seed", "3",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["threshold"] == 1.0

    def test_blowup(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "blowup", "--m", "300", "--set", "cap", "--theta", "70",
            "--deg", "--samples", "5000", "--seed", "5",
        )
        assert code == EXIT_OK

    def test_isoperimetry_sphere_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "isoperimetry-sphere", "--m", "150", "--set", "twocaps",
            "--theta", "70", "--omega", "35", "--deg", "--trials", "40",
            "--samples", "2000", "--seed", "7",
        )
        assert code in (EXIT_OK, EXIT_MC_INCONCLUSIVE)
        row = json.loads(out)["rows"][0]
        assert row["n_used"] == 40

    def test_isoperimetry_shell_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "isoperimetry-shell", "--m", "100", "--delta", "0.1",
            "--set", "cap", "--theta", "70", "--omega", "35", "--deg",
            "--trials", "30", "--samples", "2000", "--seed", "7",
            "--extrude-lo", "0.0", "--extrude-hi", "0.1",
        )
        assert code in (EXIT_OK, EXIT_MC_INCONCLUSIVE)
        assert "radial_law" not in json.loads(out)["rows"][0]

    def test_radial_law_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "isoperimetry-shell", "--m", "100", "--theta", "70",
                  "--omega", "35", "--deg", "--radial-law", "power"])
        assert exc.value.code == EXIT_USAGE

    def test_verdict_exit_codes(self, capsys, monkeypatch):
        def fake_verify(m, mu, cfg):
            return montecarlo.McReport(
                estimate=1.0, std_error=0.0, n_used=1, threshold=0.0,
                verdict=montecarlo.Verdict.FAIL, seed=cfg.seed,
            )

        monkeypatch.setattr(montecarlo, "verify_concentration", fake_verify)
        code, _, _ = run_cli(
            capsys, "mc", "concentration", "--m", "10", "--mu", "0.5",
            "--samples", "10", "--seed", "0",
        )
        assert code == EXIT_MC_FAIL

        def fake_verify2(m, mu, cfg):
            return montecarlo.McReport(
                estimate=0.5, std_error=1.0, n_used=1, threshold=0.5,
                verdict=montecarlo.Verdict.INCONCLUSIVE, seed=cfg.seed,
            )

        monkeypatch.setattr(montecarlo, "verify_concentration", fake_verify2)
        code, _, _ = run_cli(
            capsys, "mc", "concentration", "--m", "10", "--mu", "0.5",
            "--samples", "10", "--seed", "0",
        )
        assert code == EXIT_MC_INCONCLUSIVE

    def test_geometry_precondition_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "isoperimetry-sphere", "--m", "50", "--set", "cap",
            "--theta", "40", "--omega", "45", "--deg", "--trials", "5",
            "--samples", "100", "--seed", "0",
        )
        assert code == EXIT_USAGE
        assert err


class TestOutput:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code, out, _ = run_cli(
            capsys, "mc", "concentration", "--m", "5", "--mu", "0.5",
            "--samples", "500", "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        assert path.read_text() == out

    def test_unwritable_out_is_usage(self, capsys, tmp_path):
        path = tmp_path / "missing" / "record.json"
        code, out, err = run_cli(capsys, "gap", "--snr", "1", "--c0", "1",
                                 "--out", str(path))
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("invalid input: ")
        assert not path.exists()

    def test_repeat_run_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mc", "isoperimetry-sphere", "--m", "60", "--set", "band",
                "--theta", "70", "--omega", "35", "--deg", "--trials", "10",
                "--samples", "500", "--seed", "11"]
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--snr", "1", "--c0", "1")
        # full float precision survives a JSON round trip
        row = json.loads(out)["rows"][0]
        assert row["c_infinity"] == 0.5 * math.log2(3.0)

    def test_non_finite_floats_round_trip(self):
        record = OutputRecord("test", {"x": math.inf},
                              [{"a": -math.inf, "b": math.nan, "c": 0.1, "d": [math.inf, 1.5]}])
        text = record.to_json()
        assert '"a": -Infinity, "b": NaN, "c": 0.10000000000000001' in text
        doc = json.loads(text)
        row = doc["rows"][0]
        assert doc["params"]["x"] == math.inf and row["a"] == -math.inf
        assert math.isnan(row["b"]) and row["d"] == [math.inf, 1.5]


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1e-308, math.inf, -math.inf, math.nan, 0.1, 1.0, 1e16, 1e17]),
)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.text(),
                     st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ☃ 𝄞", "\ud800"]))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                    st.tuples(_SCALARS, _SCALARS))


class TestJsonWriter:
    """The module-level writer gives the frozen closure's text byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(command=st.text(), params=st.dictionaries(st.text(), _VALUES, max_size=5),
           rows=st.lists(st.dictionaries(st.text(), _VALUES, max_size=6), max_size=3))
    @example(command="geom cap-area", params={"snr": [0.1, 1.0, 10.0], "m": 100},
             rows=[{"a": -0.0, "b": 5e-324, "c": math.nan, "d": -math.inf, "e": True,
                    "f": 'q"\\\n\u00e9', "g": 1e308}])
    def test_same_text_as_frozen(self, command, params, rows):
        record = OutputRecord(command, params, rows)
        assert record.to_json() == to_json_frozen(record)

    def test_non_string_keys_as_frozen(self):
        # keys print as str(key), as in the frozen copy; 1 and True hash
        # alike but print apart, whichever is written first
        for params in ({1: 0, 1.5: 1, None: 2}, {True: 0}):
            record = OutputRecord("x", params, [])
            assert record.to_json() == to_json_frozen(record)

    def test_unserializable_raises(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            OutputRecord("x", {"a": object()}, []).to_json()


class TestExitCodes:
    def test_internal_math_domain_error_is_numerical(self, capsys, monkeypatch):
        import relaycap.geometry as gmod

        def boom(*args):
            raise ValueError("math domain error")

        monkeypatch.setattr(gmod, "log_cap_intersection", boom)
        code, out, err = run_cli(
            capsys, "geom", "cap-intersect", "--m", "100", "--theta", "1.2",
            "--theta2", "0.7",
        )
        assert code == EXIT_NUMERICAL
        assert not out
        assert "math domain error" in err

    def test_internal_arithmetic_error_is_numerical(self, capsys, monkeypatch):
        import relaycap.geometry as gmod

        def boom(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(gmod, "log_ball_intersection", boom)
        code, _, _ = run_cli(
            capsys, "geom", "ball-intersect", "--m", "100", "--r1", "1",
            "--r2", "1", "--d", "1",
        )
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("snr", ["-1", "0", "nan", "inf"])
    def test_invalid_snr_is_usage(self, capsys, snr):
        code, out, err = run_cli(capsys, "bounds-sweep", "--snr", snr, "--c0-steps", "1")
        assert code == EXIT_USAGE
        assert not out
        assert "invalid input" in err

    @pytest.mark.parametrize("argv", [
        ["geom", "cap-area", "--m", "100", "--theta", "1", "--n-scale", "-1"],
        ["geom", "cap-area", "--m", "-5", "--theta", "1"],
        ["geom", "exponent", "--theta", "1.2", "--omega", "inf"],
    ])
    def test_invalid_geometry_input_is_usage(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "invalid input" in err


class TestNScale:
    """A non-finite --n-scale exits 2; a finite one whose m * N overflows
    float64 gives finite rows or exits 3, never non-finite rows at exit 0."""

    @pytest.mark.parametrize("argv, expected", [
        (["geom", "cap-area", "--m", "50", "--theta", "1", "--n-scale", "inf"], EXIT_USAGE),
        (["geom", "cap-intersect", "--m", "50", "--theta", "1.2", "--theta2", "0.7",
          "--n-scale", "inf"], EXIT_USAGE),
        (["geom", "shell-cap", "--m", "50", "--theta", "1.2", "--omega", "0.7",
          "--n-scale", "inf"], EXIT_USAGE),
        (["geom", "exponent", "--theta", "1.2", "--omega", "0.7", "--n-scale", "inf"],
         EXIT_USAGE),
        (["geom", "cap-area", "--m", "50", "--theta", "1", "--n-scale", "1e308"], EXIT_OK),
        (["geom", "cap-intersect", "--m", "50", "--theta", "1.2", "--theta2", "0.7",
          "--n-scale", "1e308"], EXIT_OK),
        (["geom", "shell-cap", "--m", "50", "--theta", "1.2", "--omega", "0.7",
          "--n-scale", "1e308"], EXIT_NUMERICAL),
    ], ids=["cap-area inf", "cap-intersect inf", "shell-cap --omega inf", "exponent inf",
            "cap-area 1e308", "cap-intersect 1e308", "shell-cap --omega 1e308"])
    def test_no_non_finite_rows(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected, err
        if code != EXIT_OK:
            assert not out
        for row in json.loads(out or '{"rows": []}')["rows"]:
            assert all(math.isfinite(v) for v in row.values()), row

    @pytest.mark.parametrize("argv", [
        ["--n-scale", "1e200"], ["--n-scale", "1e200", "--omega", "0.7"],
        ["--delta", "1e-320"], ["--delta", "1e-320", "--omega", "0.7"],
    ])
    def test_thin_shell_measure_finite(self, capsys, argv):
        # delta / N below ~1e-16 rounds the two radii to one float; the
        # measure is still finite, and only delta = 0 gives -inf
        code, out, err = run_cli(capsys, "geom", "shell-cap", "--m", "50", "--theta", "1", *argv)
        assert code == EXIT_OK, err
        row = json.loads(out)["rows"][0]
        assert all(math.isfinite(v) for v in row.values()), row
        code, out, _ = run_cli(capsys, "geom", "shell-cap", "--m", "50", "--theta", "1",
                               "--delta", "0")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["log2_measure"] == -math.inf

    def test_thin_shell_isoperimetry_gives_a_verdict(self, capsys):
        # at N = 1e300 the radii sqrt(m (N -+ delta)) round to one float; the
        # shell set is a slice of the shell height in fractions, so the
        # request is valid and ends in a verdict (it exited 2 when the slice
        # was stored as two float radii)
        code, out, err = run_cli(capsys, "mc", "isoperimetry-shell", "--m", "100",
                                 "--theta", "70", "--omega", "35", "--deg",
                                 "--n-scale", "1e300", "--trials", "50", "--samples", "2000")
        assert code in (EXIT_OK, EXIT_MC_FAIL, EXIT_MC_INCONCLUSIVE), err
        assert json.loads(out)["rows"][0]["n_used"] == 50

    def test_underflowing_slice_is_invalid_input(self, capsys):
        # the slice [0, 1e-323] of a delta = 0.1 shell: its fraction times
        # expm1(atanh delta) rounds to 0, yet its volume stays finite and so
        # small that the matching cap is far below pi/2 - omega
        code, _, err = run_cli(capsys, "mc", "isoperimetry-shell", "--m", "100",
                               "--theta", "70", "--omega", "35", "--deg", "--delta", "0.1",
                               "--extrude-lo", "0", "--extrude-hi", "1e-323")
        assert code == EXIT_USAGE
        assert err.startswith("invalid input: need theta + omega > pi/2")

    @pytest.mark.parametrize("query", [["cap-area", "--theta", "1"],
                                       ["cap-intersect", "--theta", "1.2", "--theta2", "0.7"]])
    def test_overflowing_scale_shifts_measure(self, capsys, query):
        # the measure scales as R^(m-1) = (m N)^((m-1)/2)
        def measure(n_scale):
            code, out, err = run_cli(capsys, "geom", *query, "--m", "50", "--n-scale", n_scale)
            assert code == EXIT_OK, err
            return json.loads(out)["rows"][0]["log2_measure"]

        shift = (49 / 2.0) * math.log2(1e308)
        assert measure("1e308") == pytest.approx(measure("1") + shift, rel=1e-12)


_OUTPUT = {"--out", "--format"}
_M_SCALE_THETA = {"--m", "--n-scale", "--theta", "--deg"}
_MC = {"--m", "--seed", "--samples"}
_MC_SET = _MC | {"--epsilon", "--set", "--theta", "--deg"}
_MC_ISO = _MC_SET | {"--omega", "--trials", "--angular-slack"}

# Every command's accepted options: the flags its handler reads plus the
# output flags, and --deg only beside an angle flag.
OPTIONS = {
    "bounds-sweep": {"--snr", "--c0-min", "--c0-max", "--c0-steps"},
    "gap": {"--snr", "--c0"},
    "geom cap-area": _M_SCALE_THETA,
    "geom cap-intersect": _M_SCALE_THETA | {"--theta2"},
    "geom shell-cap": _M_SCALE_THETA | {"--omega", "--delta"},
    "geom ball-intersect": {"--m", "--r1", "--r2", "--d"},
    "geom exponent": {"--n-scale", "--theta", "--omega", "--deg"},
    "mc concentration": _MC | {"--mu"},
    "mc blowup": _MC_SET,
    "mc isoperimetry-sphere": _MC_ISO,
    "mc isoperimetry-shell": _MC_ISO | {"--n-scale", "--delta", "--extrude-lo",
                                        "--extrude-hi"},
}


def _leaf_actions(parser, words=()):
    """{command words: that command's argparse actions} for every leaf under `parser`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {leaf: actions for name, sub in action.choices.items()
                    for leaf, actions in _leaf_actions(sub, words + (name,)).items()}
    return {words: [a for a in parser._actions if a.option_strings != ["-h", "--help"]]}


def _leaf_options(parser):
    """{command: option strings} for every leaf command under `parser`."""
    return {" ".join(words): {s for a in actions for s in a.option_strings}
            for words, actions in _leaf_actions(parser).items()}


class TestOptions:
    def test_each_command_takes_only_its_flags(self):
        expected = {name: flags | _OUTPUT for name, flags in OPTIONS.items()}
        assert _leaf_options(build_parser()) == expected
        assert sum(len(flags) for flags in expected.values()) == 86

    @pytest.mark.parametrize("argv", [
        ["bounds-sweep", "--snr", "1", "--c0-steps", "1", "--deg"],
        ["gap", "--snr", "1", "--c0", "1", "--deg"],
        ["geom", "ball-intersect", "--r1", "1", "--r2", "1", "--d", "1", "--deg"],
        ["geom", "ball-intersect", "--r1", "1", "--r2", "1", "--d", "1", "--n-scale", "2"],
        ["geom", "exponent", "--theta", "1.2", "--omega", "0.7", "--m", "100"],
        ["mc", "concentration", "--m", "10", "--mu", "0.5", "--deg"],
        ["mc", "concentration", "--m", "10", "--mu", "0.5", "--epsilon", "0.1"],
    ], ids=["bounds-sweep --deg", "gap --deg", "ball-intersect --deg",
            "ball-intersect --n-scale", "exponent --m", "concentration --deg",
            "concentration --epsilon"])
    def test_removed_flag_is_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParserReuse:
    """main() shares one parser per process; no state may carry between calls."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_append_starts_fresh(self, capsys):
        for snr in ("2", "3"):
            code, out, _ = run_cli(capsys, "bounds-sweep", "--snr", snr, "--c0-steps", "1")
            assert code == EXIT_OK
            doc = json.loads(out)
            assert doc["params"]["snr"] == [float(snr)]
            assert [row["snr"] for row in doc["rows"]] == [float(snr)]

    def test_default_snr_after_explicit_snr(self, capsys):
        run_cli(capsys, "bounds-sweep", "--snr", "2", "--c0-steps", "1")
        code, out, _ = run_cli(capsys, "bounds-sweep", "--c0-steps", "1")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["snr"] == [0.1, 1.0, 10.0]

    def test_deg_does_not_leak(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "exponent", "--theta", "90",
                               "--omega", "90", "--deg")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["theta"] == math.pi / 2.0
        code, out, _ = run_cli(capsys, "geom", "exponent", "--theta", "1.2",
                               "--omega", "0.7")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["theta"] == 1.2

    def test_parse_error_between_calls(self, capsys):
        argv = ["geom", "cap-intersect", "--m", "300", "--theta", "70",
                "--theta2", "35", "--deg"]
        first, _, _ = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["geom", "cap-intersect", "--m", "300", "--theta", "70",
                  "--bogus", "1"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *argv)
        assert first == code == EXIT_OK
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        fresh = subprocess.run([sys.executable, "-m", "relaycap", *argv],
                               capture_output=True, env=env, check=True)
        assert out.encode() == fresh.stdout


# One valid request per leaf command: (command words, its flags).
LEAF_REQUESTS = {
    "bounds-sweep": (["bounds-sweep"], [["--snr", "1"], ["--c0-min", "0.5"], ["--c0-max", "1"],
                                        ["--c0-steps", "2"], ["--format", "csv"]]),
    "gap": (["gap"], [["--snr", "1"], ["--c0", "1"]]),
    "geom cap-area": (["geom", "cap-area"], [["--m", "100"], ["--theta", "70"], ["--deg"],
                                             ["--n-scale", "2"]]),
    "geom cap-intersect": (["geom", "cap-intersect"], [["--m", "100"], ["--theta", "1.2"],
                                                       ["--theta2", "0.7"]]),
    "geom shell-cap": (["geom", "shell-cap"], [["--m", "100"], ["--theta", "1.2"],
                                               ["--delta", "0.2"]]),
    "geom ball-intersect": (["geom", "ball-intersect"], [["--m", "100"], ["--r1", "1"],
                                                         ["--r2", "1"], ["--d", "1"]]),
    "geom exponent": (["geom", "exponent"], [["--theta", "1.2"], ["--omega", "0.7"],
                                             ["--n-scale", "2"]]),
    "mc concentration": (["mc", "concentration"], [["--m", "50"], ["--mu", "0.5"],
                                                   ["--samples", "1000"], ["--seed", "1"]]),
    "mc blowup": (["mc", "blowup"], [["--m", "100"], ["--set", "band"], ["--theta", "70"],
                                     ["--deg"], ["--epsilon", "0.3"], ["--samples", "1000"],
                                     ["--seed", "1"]]),
    "mc isoperimetry-sphere": (["mc", "isoperimetry-sphere"], [
        ["--m", "100"], ["--set", "twocaps"], ["--theta", "70"], ["--omega", "35"], ["--deg"],
        ["--trials", "5"], ["--samples", "500"], ["--seed", "1"]]),
    "mc isoperimetry-shell": (["mc", "isoperimetry-shell"], [
        ["--m", "100"], ["--set", "band"], ["--theta", "70"], ["--omega", "35"], ["--deg"],
        ["--trials", "5"], ["--samples", "500"], ["--seed", "1"], ["--delta", "0.1"]]),
}


def _leaf_argv(command: str, seed: int) -> list:
    """The command's request with its flags in an order drawn from `seed`."""
    words, flags = LEAF_REQUESTS[command]
    flags = list(flags)
    random.Random(seed).shuffle(flags)
    return [*words, *(token for flag in flags for token in flag)]


_GAP = ["gap", "--snr", "1", "--c0", "1"]
# argv the dispatch must treat exactly as the parser tree does
DISPATCH_CORPUS = [
    *(_leaf_argv(command, seed) for command in LEAF_REQUESTS for seed in (1, 2)),
    # help at each level, no argv, unknown commands
    ["-h"], ["geom", "-h"], ["mc", "--help"], ["geom", "cap-area", "-h"], ["gap", "-h"],
    [], ["geom"], ["bogus"], ["geom", "bogus", "--theta", "1"], ["mc", "cap-area"],
    # options before the command words
    ["--format", "csv", *_GAP], ["-h", *_GAP], ["geom", "--m", "5", "cap-area", "--theta", "1"],
    # unknown, removed, abbreviated and ambiguous flags, and stray words
    [*_GAP, "--bogus"], [*_GAP, "extra", "--x", "1"], ["gap", "--bogus", "1", "--c0", "1"],
    ["bounds-sweep", "--c0-steps", "1", "--tol", "1e-7"],
    ["mc", "isoperimetry-sphere", "--m", "50", "--theta", "1", "--omega", "1", "--trials", "2",
     "--samples", "100", "--radial-law", "uniform"],
    ["gap", "--sn", "1", "--c0", "1"], ["bounds-sweep", "--c0", "1"],
    ["geom", "cap-area", "--theta", "1", "--he"],
    # bad values, a missing flag, a repeated flag, "--" and "=" forms
    ["gap", "--snr", "x", "--c0", "1"], ["geom", "cap-area", "--theta", "1", "--m", "4.5"],
    ["mc", "blowup", "--m", "50", "--theta", "1", "--set", "ring"],
    ["gap", "--snr", "1"], ["mc", "concentration", "--mu", "0.1"],
    ["gap", "--snr", "1", "--snr", "2", "--c0", "1"],
    [*_GAP, "--"], ["gap", "--", "--snr", "1", "--c0", "1"], ["--", *_GAP],
    ["geom", "--", "cap-area", "--theta", "1"], ["gap", "--snr=1", "--c0=1", "--format=csv"],
    # a valid parse whose command then fails
    ["gap", "--snr", "1", "--c0", "-1"],
    # negative and empty values, which the quick path leaves to argparse
    ["gap", "--snr", "-1e-3", "--c0", "1"], ["geom", "exponent", "--theta", "-.5", "--omega", "1"],
    ["bounds-sweep", "--c0-min", "-1", "--c0-steps", "1"], ["gap", "--snr", "", "--c0", "1"],
    ["geom", "cap-area", "--theta", "1", "--m", "-1"], ["gap", "--snr", "1", "--c0", "1", "--out", ""],
]


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestDispatch:
    """main parses a well-formed request from the flag table; every outcome
    must equal that of the parser tree (build_parser().parse_args)."""

    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
    def test_same_bytes_as_parser_tree(self, capsys, monkeypatch, argv):
        direct = _outcome(capsys, list(argv))
        monkeypatch.setattr(cli, "_parse", lambda args: build_parser().parse_args(args))
        assert direct == _outcome(capsys, list(argv))

    @pytest.mark.parametrize("command", LEAF_REQUESTS)
    def test_same_namespace_as_parser_tree(self, command):
        # the quick path builds no argparse.Namespace; the attributes must match
        argv = _leaf_argv(command, 3)
        assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))

    def test_leaf_commands_skip_the_parser_tree(self, capsys, monkeypatch):
        def tree_parse(*args, **kwargs):
            raise AssertionError("request went through the parser tree")

        monkeypatch.setattr(build_parser(), "parse_args", tree_parse)
        for command in LEAF_REQUESTS:
            code, out, err = _outcome(capsys, _leaf_argv(command, 4))
            assert code == EXIT_OK, (command, err)
            assert out and not err

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["relaycap", *_GAP])
        assert main() == EXIT_OK
        implicit = capsys.readouterr()
        assert (main(list(_GAP)), *capsys.readouterr()) == (EXIT_OK, *implicit)


_LEAF_ACTIONS = _leaf_actions(build_parser())
# values for each kind of flag: valid ones, then ones the parse must reject
# or leave to argparse (negative, empty, not a number, not a choice)
_GOOD_VALUES = {int: ["100", "7", "+5", " 5", "1_000"], float: ["1", "0.7", "1e-3", "70", "inf"],
                None: ["out.json", "a b"]}
_ODD_VALUES = {int: ["4.5", "x", "-3", "", "nan"], float: ["nan", "x", "-1", "-1e-3", "-.5", ""],
               None: ["", "-", "--x"]}
_NOISE = ["--", "-h", "--help", "--bogus", "extra", "-1", "-1e-3", "-.5", ""]


def _flag_tokens(action, draw) -> list:
    """One use of the flag: usually `option value`, sometimes an odd form."""
    option = draw(st.sampled_from(action.option_strings))
    if action.nargs == 0:
        return [option]
    odd = draw(st.integers(0, 5)) == 0
    if action.choices:
        value = draw(st.sampled_from(["ring"] if odd else list(action.choices)))
    else:
        value = draw(st.sampled_from((_ODD_VALUES if odd else _GOOD_VALUES)[action.type]))
    form = draw(st.sampled_from(["plain"] * 12 + ["equals", "abbrev", "bare"]))
    if form == "equals":
        return [f"{option}={value}"]
    if form == "abbrev":
        return [option[:draw(st.integers(min(3, len(option) - 1), len(option) - 1))], value]
    return [option] if form == "bare" else [option, value]


@st.composite
def leaf_argv(draw) -> list:
    """argv for a random leaf command: often well formed, often not."""
    words = draw(st.sampled_from(sorted(_LEAF_ACTIONS)))
    actions = _LEAF_ACTIONS[words]
    pieces = [_flag_tokens(a, draw) for a in actions if a.required and draw(st.integers(0, 19))]
    pieces += [_flag_tokens(draw(st.sampled_from(actions)), draw)
               for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 5)) == 0:
        pieces.append([draw(st.sampled_from(_NOISE))])
    return [*words, *(t for piece in draw(st.permutations(pieces)) for t in piece)]


def _attributes(ns) -> dict:
    """A namespace's attributes by repr, so that nan equals nan and -0.0 differs from 0.0."""
    return {name: repr(value) for name, value in vars(ns).items()}


def _parse_outcome(parse, argv) -> tuple:
    """(namespace attributes or exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = _attributes(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestQuickParse:
    """The table-driven parse must agree with argparse on every argv."""

    @settings(max_examples=600, deadline=None)
    @given(argv=leaf_argv())
    @example(argv=["gap", "--snr", "1", "--c0", "1", "--snr", "2"])
    @example(argv=["bounds-sweep", "--snr", "1", "--snr", "2", "--format", "csv"])
    @example(argv=["geom", "shell-cap", "--theta", "1", "--deg", "--deg", "--omega", "2"])
    @example(argv=["mc", "blowup", "--m", "5", "--theta", "1", "--set", "ring"])
    @example(argv=["geom", "cap-intersect", "--theta", "1", "--theta2", "1", "--theta", "2"])
    def test_same_outcome_as_argparse(self, argv):
        expected = _parse_outcome(build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse, argv) == expected
        quick = cli._quick_parse(list(argv))
        if quick is not None:
            assert _attributes(quick) == expected[0]

    @pytest.mark.parametrize("command", LEAF_REQUESTS)
    def test_well_formed_requests_take_the_quick_path(self, command):
        for seed in range(5):
            argv = _leaf_argv(command, seed)
            assert vars(cli._quick_parse(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["gap", "--snr", "1", "--c0", "1", "-h"], ["gap", "--snr=1", "--c0", "1"],
        ["gap", "--sn", "1", "--c0", "1"], ["gap", "--snr", "-1", "--c0", "1"],
        ["gap", "--snr", "1", "--c0", "1", "--"], ["gap", "--snr", "1"],
        ["gap", "--snr", "x", "--c0", "1"], ["mc", "blowup", "--m", "5", "--theta", "1",
                                             "--set", "ring"],
        ["geom", "cap-area", "--theta"], ["geom", "cap-area", "--theta", "1", "extra"],
        ["geom"], ["--format", "csv", "gap", "--snr", "1", "--c0", "1"], [],
    ])
    def test_other_argv_go_to_argparse(self, argv):
        assert cli._quick_parse(argv) is None


_IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    return ["numpy" in sys.modules, scipy]

import relaycap
seen = [[0, *loaded()]]
import relaycap.cli
seen.append([0, *loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([relaycap.cli.main(argv), *loaded()])
print(json.dumps(seen))
"""

# Commands that do no array work: they run on the standard library alone.
_STDLIB_ONLY = [
    ["gap", "--snr", "1", "--c0", "1"],
    ["bounds-sweep", "--c0-steps", "1"],
    ["geom", "cap-area", "--m", "100", "--theta", "70", "--deg"],
    ["geom", "exponent", "--theta", "70", "--omega", "35", "--deg"],
    ["geom", "ball-intersect", "--m", "100", "--r1", "1", "--r2", "1", "--d", "1"],
    ["geom", "shell-cap", "--m", "100", "--theta", "70", "--deg"],
]
# Monte Carlo commands whose sets and measures are closed forms: numpy alone.
_NUMPY_ONLY = [
    ["mc", "concentration", "--m", "50", "--mu", "0.1", "--samples", "1000", "--seed", "1"],
    *(["mc", "blowup", "--m", "100", "--set", s, "--theta", "70", "--deg", "--epsilon", "0.3",
       "--samples", "1000", "--seed", "1"] for s in ("cap", "band", "twocaps")),
]
# Commands that integrate a cap intersection and so load scipy.integrate.
_QUADRATURE = [
    ["geom", "cap-intersect", "--m", "100", "--theta", "70", "--theta2", "35", "--deg"],
    ["mc", "isoperimetry-sphere", "--m", "200", "--set", "twocaps", "--theta", "70",
     "--omega", "35", "--deg", "--trials", "20", "--samples", "1000", "--seed", "1"],
]


_ARGPARSE_PROBE = """
import contextlib, io, json, sys

import relaycap.cli
seen = ["argparse" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            relaycap.cli.main(argv)
        except SystemExit:
            pass
    seen.append("argparse" in sys.modules)
print(json.dumps(seen))
"""


def _probe_imports(commands: list, probe: str = _IMPORT_PROBE) -> list:
    """[exit code, numpy loaded, scipy modules] in one fresh interpreter after
    `import relaycap`, after `import relaycap.cli` and after each command
    (or what another `probe` script prints)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)],
        capture_output=True, env=env, check=True, text=True,
    )
    return json.loads(run.stdout)


class TestImportFootprint:
    """Which of numpy and scipy a fresh interpreter holds after each command.

    Set membership, not timing: importing the package or the CLI loads
    neither, the bounds and closed-form geometry commands run on the
    standard library, `mc` loads numpy, and a command loads scipy.integrate
    only when it runs quadrature (the cap-intersection integral).  No
    command loads scipy.interpolate.
    """

    @pytest.fixture(scope="class")
    def footprint(self):
        # the quadrature commands run in their own interpreter, so what the
        # first loads is not inherited from the mc commands
        return (_probe_imports(_STDLIB_ONLY + _NUMPY_ONLY),
                _probe_imports(_QUADRATURE)[2:])

    def test_scipy_loaded_only_for_quadrature(self, footprint):
        steps, quadrature_steps = footprint
        names = [["import relaycap"], ["import relaycap.cli"], *_STDLIB_ONLY, *_NUMPY_ONLY]
        for argv, (step_code, _, scipy) in zip(names, steps, strict=True):
            assert [step_code, scipy] == [EXIT_OK, []], argv
        for argv, (code, _, loaded) in zip(_QUADRATURE, quadrature_steps, strict=True):
            assert code == EXIT_OK, argv
            assert "scipy.integrate" in loaded, argv
            # scipy.integrate's own package imports scipy.optimize (its ODE
            # and BVP solvers), so only scipy.interpolate can be held out here
            assert "scipy.interpolate" not in loaded, argv

    def test_numpy_loaded_only_for_array_work(self, footprint):
        steps, quadrature_steps = footprint
        n_stdlib = 2 + len(_STDLIB_ONLY)
        names = [["import relaycap"], ["import relaycap.cli"], *_STDLIB_ONLY, *_NUMPY_ONLY]
        for i, (argv, (_, numpy, _)) in enumerate(zip(names, steps, strict=True)):
            assert numpy == (i >= n_stdlib), argv
        assert all(numpy for _, numpy, _ in quadrature_steps)

    def test_argparse_loaded_only_for_help_and_errors(self):
        # well-formed requests are parsed from the flag table; the quadrature
        # commands are left out, since scipy.integrate imports argparse itself
        well_formed = _STDLIB_ONLY + _NUMPY_ONLY
        seen = _probe_imports([*well_formed, ["-h"]], _ARGPARSE_PROBE)
        assert seen == [False] * (1 + len(well_formed)) + [True]
        bad_flag = ["gap", "--snr", "1", "--c0", "1", "--bogus"]
        assert _probe_imports([bad_flag], _ARGPARSE_PROBE) == [False, True]
