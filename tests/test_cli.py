from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regvar import cli
from regvar.cli import CsvFormatError, load_csv_function, main
from regvar.asymptotics import TableRangeError
from regvar.popa import DomainError

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The same request as ``python -m regvar.cli`` in a new interpreter, which loads only what the command runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "regvar.cli", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture()
def square_table(tmp_path):
    xs = np.geomspace(1.0, 1e8, 400)
    path = tmp_path / "square.csv"
    rows = "\n".join(f"{float(x)!r},{float(x * x)!r}" for x in xs)
    path.write_text("x,fx\n" + rows + "\n")
    return str(path)


@pytest.fixture()
def log_oscillation_table(tmp_path):
    xs = np.geomspace(1.0, 1e14, 2000)
    path = tmp_path / "osc.csv"
    rows = "\n".join(f"{float(x)!r},{2.0 + math.sin(math.log(x))!r}" for x in xs)
    path.write_text("x,fx\n" + rows + "\n")
    return str(path)


class TestGroupCommand:
    def test_circle(self, capsys):
        code, out, err = run_cli(capsys, "group", "circle", "--rho", "1", "1", "1")
        assert code == 0
        assert out == "3\n"
        assert err == ""

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "group", "inverse", "--rho", "1", "1")
        assert code == 0
        assert out == "-0.5\n"

    def test_norm(self, capsys):
        code, out, _ = run_cli(capsys, "group", "norm", "--rho", "1", "1")
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_power(self, capsys):
        code, out, _ = run_cli(capsys, "group", "power", "--rho", "1", "0.1", "3")
        assert code == 0
        assert float(out) == pytest.approx(1.1**3 - 1.0, rel=1e-14)

    def test_infinite_parameter_literal(self, capsys):
        code, out, _ = run_cli(capsys, "group", "circle", "--rho", "inf", "2", "3")
        assert code == 0
        assert out == "6\n"

    def test_negative_operand_after_separator(self, capsys):
        code, out, _ = run_cli(capsys, "group", "norm", "--rho", "1", "--", "-0.5")
        assert code == 0
        assert float(out) == pytest.approx(2.0 * abs(math.log(0.5)), rel=1e-14)

    def test_domain_violation_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "group", "circle", "--rho", "2", "--", "-0.5", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "violates" in err

    @pytest.mark.parametrize("rho, t", [("7", "1.7e308"), ("1e300", "1e10")])
    def test_inverse_where_rho_t_overflows_exits_2(self, capsys, rho, t):
        # the inverse rounds to the pole -1/rho, as at --rho 7 -- 2e307, and is not -0.0
        code, out, err = run_cli(capsys, "group", "inverse", "--rho", rho, "--", t)
        assert (code, out) == (2, "") and err.startswith("error: point -") and "violates" in err

    def test_wrong_arity_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "group", "circle", "--rho", "1", "1")
        assert code == 1
        assert "error" in err

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "norm", "--rho", "-1", "1")
        assert code == 2
        assert "error:" in err

    def test_power_where_rho_delta_overflows(self, capsys):
        assert run_cli(capsys, "group", "power", "--rho", "10", "--", "2e307", "0") == (0, "0\n", "")
        assert run_cli(capsys, "group", "power", "--rho", "1", "--", "1", "2000") == (
            2, "", "error: point must be finite, got inf\n")

    @pytest.mark.parametrize("rho", ["0", "1", "inf"])
    def test_power_of_an_n_past_the_float_range(self, capsys, rho):
        n = "1" + "0" * 309  # 10**309 > DBL_MAX
        want = (2, "", "error: point must be finite, got inf\n")
        assert run_cli(capsys, "group", "power", "--rho", rho, "--", "1.5", n) == want
        identity = "1" if rho == "inf" else "0"
        assert run_cli(capsys, "group", "power", "--rho", rho, "--", identity, n) == (0, identity + "\n", "")
        assert run_cli(capsys, "group", "power", "--rho", rho, "--", identity, "-" + n) == (0, identity + "\n", "")

    def test_power_of_an_n_past_the_float_range_at_the_pole_or_zero(self, capsys):
        n = "1" + "0" * 309
        assert run_cli(capsys, "group", "power", "--rho", "1", "--", "1.5", "-" + n) == (
            2, "", "error: point -1.0 violates 1 + 1.0*t > 0\n")
        assert run_cli(capsys, "group", "power", "--rho", "inf", "--", "0.5", n) == (
            2, "", "error: point 0.0 outside (0, inf)\n")
        # at rho = 0 the product n*delta is finite where |delta| < DBL_MAX/n
        assert run_cli(capsys, "group", "power", "--rho", "0", "--", "0.1", n) == (0, "1e+308\n", "")

    def test_non_integer_power_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "power", "--rho", "1", "0.1", "1.5")
        assert code == 2
        assert "integer" in err


class TestTinyMembersAtInf:
    """At rho = inf the carrier test 1 + rho*t > 0 admits points and results in (0, 1e-300]: these print, or stop at
    a refusal further on."""

    @pytest.mark.parametrize("argv, want", [
        (["group", "power", "--rho", "inf", "--", "0.5", "1000"], "9.33263618503219e-302"),
        (["group", "norm", "--rho", "inf", "--", "1e-310"], "713.801378828154"),
        (["transform", "measure", "--rho", "inf", "--lo", "1e-310", "--hi", "1"], "713.801378828154"),
        (["transform", "integrate", "--rho", "inf", "--f", "one", "--lo", "1e-310", "--hi", "1"], "713.801378828154"),
        (["kernel", "eval", "--rho", "inf", "--sigma", "0", "--kappa", "1", "--t", "1e-310"], "-713.801378828154"),
    ])
    def test_prints(self, capsys, argv, want):
        assert run_cli(capsys, *argv) == (0, want + "\n", "")

    @pytest.mark.parametrize("argv, error", [
        (["group", "inverse", "--rho", "inf", "--", "1e-310"], "point must be finite, got inf"),
        (["beck", "sum", "--rho", "inf", "--delta", "1e-310", "--u", "2"],
         "delta=1e-310 does not step away from the identity"),
    ])
    def test_refused_further_on(self, capsys, argv, error):
        assert run_cli(capsys, *argv) == (2, "", f"error: {error}\n")


class TestParsing:
    def test_unknown_command_exits_1(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli(capsys, "group", "circle", "--rho", "1", "--bogus", "1", "1")[0] == 1

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "transform", "integrate", "--rho", "1", "--lo", "0", "--hi", "1")
        assert code == 1
        assert "--f is required" in err

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,fx\n1,2\n10,20\n")
        f = load_csv_function(str(path))
        assert f(1.0) == pytest.approx(2.0)
        assert f(10.0) == pytest.approx(20.0)
        with pytest.raises(TableRangeError):
            f(11.0)

    def test_missing_header(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n10,20\n")
        code, _, err = run_cli(capsys, "transform", "integrate", "--rho", "1",
                               "--f", str(path), "--lo", "1", "--hi", "2")
        assert code == 2
        assert "line 1" in err and "header" in err

    def test_non_monotone_rows_carry_line_number(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,fx\n1,2\n3,4\n2,5\n")
        code, _, err = run_cli(capsys, "subadd", "check", "--s", str(path))
        assert code == 2
        assert "line 4" in err and "strictly increasing" in err

    def test_non_numeric_entry(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,fx\n1,2\nten,20\n")
        code, _, err = run_cli(capsys, "subadd", "check", "--s", str(path))
        assert code == 2
        assert "line 3" in err and "non-numeric" in err

    def test_too_few_rows(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,fx\n1,2\n")
        code, _, err = run_cli(capsys, "subadd", "check", "--s", str(path))
        assert code == 2
        assert "at least 2" in err

    def test_unreadable_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        with pytest.raises(CsvFormatError, match=f"^{missing}: cannot read: "):
            load_csv_function(str(missing))
        code, out, err = run_cli(capsys, "subadd", "check", "--s", str(tmp_path))  # a directory exists
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tmp_path}: cannot read: ")

    @pytest.mark.parametrize("text, message", [
        ("x,fx\n1,2,3\n2,4\n", "line 2: expected 2 columns, got 3"),
        ("x,fx\n1,2\n2,inf\n", "line 3: entries must be finite"),
        ("", "line 1: missing 'x,fx' header"),
        ("\n , \n\n", "line 1: missing 'x,fx' header"),
        ("\n1,2\n3,4\n", "line 2: header must be 'x,fx', got '1,2'"),  # the first non-blank row is the header
        ("x,fx\n1,2\n2,0\n", "table values must be positive"),  # refused by SampledFunction
    ], ids=["three-columns", "non-finite", "empty", "blank", "blank-first-line", "zero-value"])
    def test_table_errors_name_path_and_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^{path}: {message}$"):
            load_csv_function(str(path))
        code, out, err = run_cli(capsys, "transform", "integrate", "--rho", "1", "--f", str(path),
                                 "--lo", "1", "--hi", "2")
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    def test_unknown_name_lists_registry(self, capsys):
        code, _, err = run_cli(capsys, "subadd", "check", "--s", "nope.csv")
        assert code == 2
        assert "registry" in err and "gauss" in err


class TestTransformCommand:
    def test_measure(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "measure", "--rho", "1", "--lo", "0", "--hi", "1")
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_integrate_registry_function(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "integrate", "--rho", "0",
                               "--f", "x", "--lo", "0", "--hi", "2")
        assert code == 0
        assert float(out) == pytest.approx(2.0, rel=1e-10)

    def test_integrate_prints_the_same_bits_on_every_python(self, capsys):
        # the cells add left to right on every version: with the built-in sum, compensated from Python 3.12 on,
        # 3.12 and 3.13 printed -0.9966955
        argv = ["transform", "integrate", "--rho=0", "--f=x", "--lo=-3", "--hi=2.647"]
        assert run_cli(capsys, *argv) == (0, "-0.996695500000001\n", "")

    def test_fourier_output_is_complex_pair(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "fourier", "--rho", "1", "--f", "gauss", "--gamma", "2")
        assert code == 0
        re, im = map(float, out.strip().split(","))
        assert math.isfinite(re) and math.isfinite(im)

    def test_fourier_equals_mellin_on_imaginary_axis(self, capsys):
        code_f, out_f, _ = run_cli(capsys, "transform", "fourier", "--rho", "1",
                                   "--f", "gauss", "--gamma", "0.7")
        code_m, out_m, _ = run_cli(capsys, "transform", "mellin", "--rho", "1",
                                   "--f", "gauss", "--z-im", "0.7")
        assert code_f == code_m == 0
        assert out_f == out_m

    def test_mellin_rejects_zero_parameter(self, capsys):
        code, _, err = run_cli(capsys, "transform", "mellin", "--rho", "0", "--f", "gauss")
        assert code == 2
        assert "positive" in err

    def test_mellin_requires_its_parameter(self, capsys):
        # --rho has no default: the one it had, 0, is refused by every call
        code, out, err = run_cli(capsys, "transform", "mellin", "--f", "gauss")
        assert (code, out) == (1, "")
        assert err.endswith("regvar transform mellin: error: --rho is required for this operation\n")
        assert "--rho RHO --f F" in err.splitlines()[0]

    def test_mellin_pullback_table(self, tmp_path, capsys):
        # the table samples s * exp(-s); its Mellin transform at z = 0 is 1
        xs = np.geomspace(1e-6, 60.0, 4000)
        path = tmp_path / "pullback.csv"
        rows = "\n".join(f"{float(x)!r},{float(x) * math.exp(-float(x))!r}" for x in xs)
        path.write_text("x,fx\n" + rows + "\n")
        code, out, _ = run_cli(capsys, "transform", "mellin", "--rho", "inf", "--f", str(path))
        assert code == 0
        re, im = map(float, out.strip().split(","))
        assert re == pytest.approx(1.0, abs=1e-4)
        assert abs(im) <= 1e-9

    @pytest.mark.parametrize("op, flags", [("fourier", ["--gamma", "1"]), ("mellin", [])])
    def test_a_function_on_the_half_line_has_one_spelling(self, capsys, op, flags):
        # --rho inf transforms it; --pullback is an unknown flag like any other
        code, out, err = run_cli(capsys, "transform", op, "--rho", "1", "--pullback", "--f", "gauss", *flags)
        assert (code, out) == (1, "") and err.endswith("error: unrecognized arguments: --pullback\n")

    def test_beurling_conv_constant_flow(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "beurling-conv", "--f", "gauss",
                               "--h", "one", "--phi", "one", "--x", "5")
        assert code == 0
        # total mass of the standard normal bump
        assert float(out) == pytest.approx(1.0, abs=1e-8)

    def test_strict_nonconvergence_exits_3(self, capsys):
        # the pole of 1/t at 0 inside (-1, 2) keeps the error bound far above the tolerance
        args = ["transform", "integrate", "--rho", "0", "--f", "inv", "--lo", "-1", "--hi", "2"]
        code, out, err = run_cli(capsys, *args)
        assert code == 0  # non-strict: warn and print the best estimate
        assert "warning:" in err
        assert out.count("\n") == 1 and math.isfinite(float(out))
        code2, _, err2 = run_cli(capsys, *args, "--strict")
        assert code2 == 3
        assert "error:" in err2

    @pytest.mark.parametrize("gamma", ["1e4", "1e6"])
    def test_high_frequency_fourier_converges(self, capsys, gamma):
        # the Gaussian's transform exp(-gamma**2/2) underflows to 0 at these frequencies
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "0", "--f", "gauss",
                                 "--gamma", gamma, "--strict")
        assert code == 0 and err == ""
        re, im = (float(v) for v in out.split(","))
        assert abs(complex(re, im)) <= 1e-9


    @pytest.mark.parametrize("gamma,want", [
        # mpmath: the integral of 2 gauss(e^w - 1) exp(-i gamma w) over [-30, 30]
        ("3", complex(0.295506681138413, -0.0387025195179119)),
        ("3.35", complex(0.0853957133551514, -0.258618391190445)),
    ])
    def test_fourier_below_the_old_gate_converges(self, capsys, gamma, want):
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "1", "--f", "gauss", "--gamma", gamma,
                                 "--strict")
        assert (code, err) == (0, "")
        re, im = (float(v) for v in out.split(","))
        assert abs(complex(re, im) - want) <= 1e-9

    def test_fourier_at_small_rho_converges(self, capsys):
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "1e-12", "--f", "gauss", "--gamma", "1",
                                 "--strict")
        assert (code, err) == (0, "")
        assert out.split(",")[0] == "1.000000000001"

    def test_infinite_phase_span_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "1", "--f", "gauss", "--gamma", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: fourier_popa(gamma=1e+308): |z|*T = inf is not finite\n"

    def test_popa_conv_at_small_rho(self, capsys):
        argv = ["transform", "popa-conv", "--f", "gauss", "--g", "gauss", "--x", "0", "--strict"]
        code, out, err = run_cli(capsys, *argv, "--rho", "1e-12")
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(0.5 / math.sqrt(math.pi), abs=1e-9)
        # a spike 1e-15 wide in w is not resolved, and says so
        code, out, err = run_cli(capsys, *argv, "--rho", "1e-15")
        assert code == 3 and err.startswith("error: popa_convolution at x=0.0 did not converge")


class TestKernelCommand:
    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "eval", "--rho", "1", "--sigma", "1",
                               "--kappa", "2", "--t", "1")
        assert code == 0
        assert out == "3\n"

    def test_inverse_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "inverse", "--rho", "1", "--sigma", "1",
                               "--kappa", "2", "--z", "3")
        assert code == 0
        assert float(out) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_kappa_zero_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "inverse", "--rho", "1", "--sigma", "1",
                               "--kappa", "0", "--z", "3")
        assert code == 2
        assert "kappa" in err

    def test_goldie_g(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "goldie-g", "--rho", "1", "--gamma", "1", "--u", "1")
        assert code == 0
        assert out == "0.5\n"

    @pytest.mark.parametrize("gamma, u, value", [("-1000", "1e10", "inf"), ("1000", "-0.999999", "-inf")])
    def test_goldie_g_past_the_float_range_exits_2_naming_the_value(self, capsys, gamma, u, value):
        code, out, err = run_cli(capsys, "kernel", "goldie-g", "--rho", "1", "--gamma", gamma, f"--u={u}")
        assert (code, out, err) == (2, "", f"error: point must be finite, got {value}\n")  # G(u), a real number

    def test_goldie_fstar_past_the_float_range_is_outside_the_codomain(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "check", "--s", "goldie-fstar", "--rho", "1", "--gamma", "-1000",
                                 "--lo", "0.1", "--hi", "1e10")
        assert (code, out) == (2, "")
        assert err.endswith(" = inf is outside the codomain carrier\n") and err.startswith("error: S(")

    @pytest.mark.parametrize("argv, out", [
        # mpmath: 4.92805380304581e+153, exp acting on the rounding of w = log(7) + log(1.7e308) ~ 711.6
        (["eval", "--rho", "7", "--sigma", "7", "--kappa", "0.5", "--t", "1.7e308"], "4.92805380304569e+153\n"),
        (["inverse", "--rho", "7", "--sigma", "7", "--kappa", "2", "--z", "1.7e308"], "4.92805380304569e+153\n"),
        (["goldie-g", "--rho", "7", "--gamma", "0", "--u", "1.7e308"], "101.667535291755\n"),
        (["eval", "--rho", "1e300", "--sigma", "0", "--kappa", "1", "--t", "1e10"], "713.801378828154\n"),
    ])
    def test_past_rho_t_dbl_max_iso_log_is_finite(self, capsys, argv, out):
        assert run_cli(capsys, "kernel", *argv) == (0, out, "")

    def test_eval_near_and_past_the_float_range(self, capsys):
        # expm1(kappa*w) overflows where the kernel, exp(kappa*w - log(sigma)), does not: 203235701.0936063 (mpmath)
        argv = ["kernel", "eval", "--rho", "1e300", "--sigma", "1e300", "--kappa", "1.001", "--t", "1e8"]
        assert run_cli(capsys, *argv) == (0, "203235701.093613\n", "")
        argv = ["kernel", "eval", "--rho", "1", "--sigma", "inf", "--kappa", "1000", "--t", "10"]
        assert run_cli(capsys, *argv) == (2, "", "error: point must be finite, got inf\n")


class TestEstimateCommand:
    def test_every_curve_leaving_its_table_prints_nan_fit(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("x,fx\n1,1\n2,4\n4,16\n8,64\n")
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata", "--f", str(path), "--t", "2,3")
        assert (code, out, err) == (0, "t,value,converged\n2,nan,false\n3,nan,false\n", "kappa=nan rms=nan\n")

    @pytest.mark.parametrize("argv, out, err", [
        (["--mode", "karamata", "--f", "square", "--t", "1"], "1,1,true\n", "kappa=nan rms=nan\n"),  # all at 1
        (["--mode", "general", "--f", "x", "--t=-1,1", "--fit-sigma", "inf"], "-1,-1,true\n1,1,true\n",
         "kappa=0 rms=0\n"),  # -1 lies outside the fit-sigma group
    ])
    def test_rows_are_printed_whatever_the_fit(self, capsys, argv, out, err):
        assert run_cli(capsys, "estimate", "kernel", *argv) == (0, "t,value,converged\n" + out, err)

    @pytest.mark.parametrize("t", [",", " , ,"])
    def test_empty_t_list_exits_2(self, capsys, t):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata", "--f", "square", f"--t={t}")
        assert (code, out, err) == (2, "", "error: --t must be a comma-separated list of numbers\n")

    def test_karamata_from_table(self, square_table, capsys):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata",
                                 "--f", square_table, "--t", "2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,value,converged"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "3"]
        assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-3)
        assert float(rows[1][1]) == pytest.approx(9.0, abs=1e-3)
        assert all(r[2] == "true" for r in rows)
        kappa_line = [l for l in err.splitlines() if l.startswith("kappa=")][0]
        kappa = float(kappa_line.split()[0].split("=")[1])
        assert kappa == pytest.approx(2.0, abs=1e-3)

    def test_nonconvergent_table_flags_rows(self, log_oscillation_table, capsys):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata",
                                 "--f", log_oscillation_table, "--t", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "false"

    def test_strict_nonconvergence_exits_3(self, log_oscillation_table, capsys):
        code, _, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata",
                               "--f", log_oscillation_table, "--t", "2", "--strict")
        assert code == 3
        assert "error:" in err

    def test_beurling_mode_reports_kappa_alone(self, capsys):
        # phi's Popa parameter is estimate eta-rho's to print
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "beurling",
                                 "--f", "exp", "--phi", "one", "--t", "0.5,1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(math.exp(0.5), rel=1e-9)
        assert float(rows[1][1]) == pytest.approx(math.e, rel=1e-9)
        assert err == "kappa=2.83411397104729 rms=0.183146698418118\n"

    def test_beurling_rows_survive_an_auxiliary_table_past_its_range(self, tmp_path, capsys):
        # phi(x + phi(x)) lies past the table, but no row needs it
        path = tmp_path / "phi.csv"
        path.write_text("x,fx\n1,1\n10000,100\n")
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "beurling", "--f", "x", "--phi", str(path),
                                 "--t", "0.5,1", "--x0", "9990", "--max-steps", "1")
        assert (code, out, err) == (0, "t,value,converged\n0.5,1.00500250187656,false\n1,1.01000500375313,false\n",
                                    "kappa=1.21000500375313 rms=0.316227766016838\n")

    def test_two_point_consistent_with_warning(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "two-point",
                                 "--l1", "2", "--g1", "8", "--l2", "4", "--g2", "64")
        assert code == 0
        assert out == "rho=3 consistent\n"
        assert "warning:" in err and "dependent" in err

    def test_two_point_inconsistent(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "two-point",
                                 "--l1", "2", "--g1", "8", "--l2", "3", "--g2", "26")
        assert code == 0
        assert out.endswith("inconsistent\n")
        assert "warning:" not in err

    def test_eta_rho_linear(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "eta-rho", "--phi", "x")
        assert code == 0
        assert out.startswith("rho_hat=1 converged=true")
        assert "steps=3" in out

    def test_eta_rho_strict_flags_unsettled_estimates(self, capsys):
        # a logarithmic auxiliary needs more than 5 grid steps to settle
        argv = ["estimate", "eta-rho", "--phi", "log", "--x0", "100", "--max-steps", "5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "converged=false" in out
        code2, _, err = run_cli(capsys, *argv, "--strict")
        assert code2 == 3
        assert "error:" in err


class TestBeckCommand:
    def test_partition(self, capsys):
        code, out, _ = run_cli(capsys, "beck", "partition", "--rho", "0", "--delta", "0.25", "--u", "1")
        assert code == 0
        assert out.splitlines() == ["0", "0.25", "0.5", "0.75", "1", "1.25"]

    def test_sum_approximates_haar_weighted_integral(self, capsys):
        code, out, _ = run_cli(capsys, "beck", "sum", "--rho", "1", "--delta", "0.01",
                               "--u", "1", "--g", "one")
        assert code == 0
        assert out == "0.689721104754761\n"
        assert float(out) == pytest.approx(math.log(2.0), abs=0.01)

    def test_goldie_sum(self, capsys):
        code, out, _ = run_cli(capsys, "beck", "goldie-sum", "--rho", "1", "--delta", "0.1",
                               "--g", "one", "--k-delta", "0.5", "--i", "4")
        assert code == 0
        assert out == "2\n"

    @pytest.mark.parametrize("argv, want", [
        (["--rho", "inf", "--delta", "1e-200", "--i", "3", "--g", "one"], (0, "3\n", "")),
        (["--rho", "inf", "--delta", "2", "--i", "1100", "--g", "log"], (0, "inf\n", "")),
    ])
    def test_goldie_sum_hands_the_ends_of_the_float_range_to_g(self, capsys, argv, want):
        # delta**2 = 1e-400 is 0.0, the carrier's lower end at rho = inf, and 2**1024 on is inf: g gets each as is
        assert run_cli(capsys, "beck", "goldie-sum", *argv) == want

    def test_goldie_sum_with_a_negative_count_exits_2(self, capsys):
        argv = ["--rho", "1", "--delta", "0.1", "--i=-1"]
        assert run_cli(capsys, "beck", "goldie-sum", *argv) == (2, "", "error: i must be >= 0\n")

    def test_goldie_sum_with_g_undefined_at_an_end_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "beck", "goldie-sum", "--rho", "inf", "--delta", "1e-200", "--i", "3",
                                 "--g", "log")
        assert (code, out, err) == (2, "", "error: math domain error\n")

    @pytest.mark.parametrize("argv, out", [
        (["--rho", "inf", "--delta", "2", "--u", "1e308"], "511.601153432569\n"),  # 1023 cells of 0.5, then the clip
        (["--rho", "10", "--delta", "1e306", "--u", "1.5e307"], "0.193333333333333\n"),
        (["--rho", "0", "--delta", "1e308", "--u", "1.5e308"], "1.5e+308\n"),
    ])
    def test_sum_clips_an_overflowing_last_point(self, capsys, argv, out):
        assert run_cli(capsys, "beck", "sum", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv, out", [  # mpmath: the same digits, 0.201680672268908 for the second
        (["--rho", "7", "--delta", "1e307", "--u", "1.7e308"], "0.277310924369748\n"),
        (["--rho", "7", "--delta", "1e308", "--u", "1.7e308"], "0.201680672268906\n"),
        (["--rho", "7", "--delta", "1e307", "--u", "1e308"], "0.271428571428571\n"),
        (["--rho", "2", "--delta", "1e300", "--u", "1.7e308"], "0.999999997058824\n"),
    ])
    def test_sum_keeps_the_cells_past_rho_x_dbl_max(self, capsys, argv, out):
        assert run_cli(capsys, "beck", "sum", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ["--rho", "inf", "--delta", "2", "--u", "1e308"],
        ["--rho", "10", "--delta", "1e306", "--u", "1.5e307"],
        ["--rho", "0", "--delta", "1e308", "--u", "1.5e308"],
    ])
    def test_partition_exits_2_where_its_last_point_overflows(self, capsys, argv):
        assert run_cli(capsys, "beck", "partition", *argv) == (2, "", "error: point must be finite, got inf\n")

    def test_too_fine_partition_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "beck", "partition", "--rho", "0", "--delta", "1e-9", "--u", "1")
        assert code == 2
        assert "too many partition cells" in err


class TestSubaddCommand:
    def test_square_counterexample_frozen_line(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "check", "--s", "square", "--rho", "0",
                               "--sigma", "0", "--lo", "0.5", "--hi", "2", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "holds,worst_violation,worst_x,worst_y,pairs_checked,pairs_skipped"
        assert lines[1] == "false,2,1,1,6,10"

    def test_kappa_kernel_holds(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "check", "--s", "kappa-kernel", "--rho", "1",
                               "--sigma", "1", "--kappa", "2", "--lo", "0.1", "--hi", "5", "--n", "8")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("true,")

    def test_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "bounded", "--s", "sqrt", "--rho", "0",
                               "--sigma", "0", "--kappa", "1", "--points", "0.5,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "holds,worst_violation,worst_t,points_checked"
        assert lines[1].startswith("false,")  # sqrt(t) exceeds t below 1

    def test_bounded_reads_S_through_the_codomain_rule(self, capsys):
        # as check does: 1/5e-324 = inf is outside sigma 1's carrier
        want = (2, "", "error: S(5e-324) = inf is outside the codomain carrier\n")
        assert run_cli(capsys, "subadd", "bounded", "--s", "inv", "--sigma", "1", "--points", "2,7,5e-324") == want
        assert run_cli(capsys, "subadd", "check", "--s", "inv", "--sigma", "1", "--lo", "5e-324", "--hi", "1",
                       "--n", "3") == want

    def test_sandwich_reads_every_probe_through_the_codomain_rule(self, capsys):
        # square(0.0) = 0.0 lies outside (0, inf); the probe read as below the lower bound, holds=false
        assert run_cli(capsys, "subadd", "sandwich", "--s", "square", "--rho", "0", "--sigma", "inf", "--a", "0",
                       "--b", "4", "--delta", "0.5", "--m", "1") == (
            2, "", "error: S(0.0) = 0.0 is outside the codomain carrier\n")

    def test_hs_probe_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "hs-probe", "--s", "entropy", "--tol", "1e-4")
        assert code == 0
        line = out.strip()
        assert line.endswith("passes=true")
        estimate = float(line.split()[0].split("=")[1])
        assert estimate == pytest.approx(2.0**-21 * 21.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("kappa, value", [("1e308", "-inf"), ("-1e308", "inf")])
    def test_hs_probe_refuses_a_non_finite_s_value(self, capsys, kappa, value):
        # kappa*log(u) overflows on the whole tail: the first tail point is named, where the estimate was -inf
        # with passes=true
        assert run_cli(capsys, "subadd", "hs-probe", "--s", "kappa-kernel", "--rho", "inf", "--sigma", "0",
                       "--kappa", kappa) == (2, "", f"error: S(4.76837158203125e-07) must be finite, got {value}\n")

    def test_hs_probe_default_tol_is_stricter(self, capsys):
        # without an explicit tolerance the CLI default of 1e-6 applies
        code, out, _ = run_cli(capsys, "subadd", "hs-probe", "--s", "entropy")
        assert code == 0
        assert out.strip().endswith("passes=false")

    def test_sandwich(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "sandwich", "--s", "sqrt", "--rho", "0",
                                 "--sigma", "0", "--a", "1", "--b", "4", "--delta", "0.5",
                                 "--m", "1.3")
        assert code == 0
        assert out == "holds=true\n"


class TestCocycleCommand:
    def test_karamata_residual_is_tiny(self, capsys):
        code, out, _ = run_cli(capsys, "cocycle", "karamata", "--f", "square",
                               "--s", "2", "--t", "3", "--x", "10")
        assert code == 0
        assert abs(float(out)) <= 1e-12

    def test_general_residual_is_tiny(self, capsys):
        code, out, _ = run_cli(capsys, "cocycle", "general", "--f", "log", "--phi", "x",
                               "--h", "one", "--s", "0.5", "--t", "0.25", "--x", "50")
        assert code == 0
        assert abs(float(out)) <= 1e-12


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        cmd = [sys.executable, "-m", "regvar.cli", "transform", "fourier",
               "--rho", "1", "--f", "gauss", "--gamma", "2"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_estimation_pipeline_repeats(self, capsys):
        argv = ["estimate", "kernel", "--mode", "general", "--f", "log", "--phi", "x",
                "--h", "one", "--t", "0.5,1,2"]
        code1, out1, err1 = run_cli(capsys, *argv)
        code2, out2, err2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert err1 == err2


def readme_examples():
    """(argv, stdout, stderr) for every ``$ regvar ...`` example in README.md.

    Output lines prefixed ``warning:`` or ``error:`` are expected on stderr,
    all others on stdout.
    """
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    for k, line in enumerate(lines):
        if not line.startswith("$ regvar "):
            continue
        shown = []
        for follow in lines[k + 1:]:
            if follow.startswith("$ ") or follow.startswith("```"):
                break
            shown.append(follow + "\n")
        err = "".join(s for s in shown if s.startswith(("warning:", "error:")))
        out = "".join(s for s in shown if not s.startswith(("warning:", "error:")))
        examples.append(pytest.param(shlex.split(line[len("$ regvar "):]), out, err, id=line[len("$ regvar "):]))
    return examples


class TestReadmeGolden:
    @pytest.mark.parametrize("argv,out,err", readme_examples())
    def test_readme_example_is_byte_identical(self, capsys, argv, out, err):
        assert run_cli(capsys, *argv) == (0, out, err)

    def test_readme_has_examples(self):
        assert len(readme_examples()) >= 7

    def test_readme_has_an_example_of_every_command(self):
        from regvar.cli import _COMMANDS

        assert {example.values[0][0] for example in readme_examples()} == set(_COMMANDS)


class TestFreshProcess:
    """main imports a command's modules once it knows the command.  The tests above run it in a
    process that has imported every module already, so a lazy import that went wrong shows only here."""

    @pytest.mark.parametrize("argv,out,err", readme_examples())
    def test_readme_example(self, argv, out, err):
        assert run_fresh(*argv) == (0, out, err)

    @pytest.mark.parametrize("argv,code", [
        (["transform", "integrate", "--rho", "0", "--f", "inv", "--lo", "-1", "--hi", "2", "--strict"], 3),
        (["estimate", "eta-rho", "--phi", "entropy"], 2),  # a LimitEvaluationError
        (["subadd", "check", "--s", "square", "--lo", "0.1", "--hi", "5", "--n", "12", "--spacing", "geometric"], 0),
        (["subadd", "check", "--s", "goldie-fstar", "--rho", "1"], 0),
        (["transform", "beurling-conv", "--f", "gauss", "--h", "gauss", "--phi", "one", "--x=nan"], 2),
        (["kernel", "goldie-g", "--rho", "1", "--u", "2"], 0),
        (["group", "circle", "--rho", "1"], 1),
        (["bogus"], 1),
    ])
    def test_matches_in_process(self, capsys, argv, code):
        in_process = run_cli(capsys, *argv)
        assert in_process[0] == code
        assert run_fresh(*argv) == in_process

    def test_csv_table_estimate_matches_in_process(self, capsys, square_table):
        argv = ["estimate", "kernel", "--mode", "karamata", "--f", square_table, "--t", "2,3"]
        in_process = run_cli(capsys, *argv)
        assert in_process[0] == 0
        assert run_fresh(*argv) == in_process


class TestFlagTable:
    @pytest.mark.parametrize("argv", [
        ["transform", "measure", "--rho", "1", "--lo", "0", "--hi", "1", "--x0", "5"],
        ["transform", "fourier", "--f", "gauss", "--gamma", "1", "--tol", "1e-3"],
        ["transform", "integrate", "--f", "x", "--lo", "0", "--hi", "1", "--ratio", "3"],
        ["transform", "mellin", "--rho", "1", "--f", "gauss", "--max-steps", "5"],
        ["transform", "popa-conv", "--f", "gauss", "--g", "gauss", "--x", "0", "--stability-window", "4"],
        ["estimate", "kernel", "--mode", "karamata", "--f", "square", "--t", "2", "--truncation", "10"],
        ["estimate", "eta-rho", "--phi", "x", "--truncation", "10"],
    ])
    def test_dead_flag_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_every_missing_flag_is_reported_before_conversion(self, capsys):
        code, out, err = run_cli(capsys, "transform", "popa-conv", "--rho", "nope")
        assert code == 1
        assert out == ""
        assert err.endswith("regvar transform popa-conv: error: --f, --g, --x are required for this operation\n")

    def test_vacuous_sandwich_warning_is_prefixed(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "sandwich", "--s", "square", "--rho", "0", "--sigma", "0",
                                 "--a", "1", "--b", "4", "--delta", "0.5", "--m", "0.1")
        assert code == 0
        assert out == "holds=true\n"
        assert err == "warning: premise S <= 0.1 fails on B_0.5(1.0); sandwich passes vacuously\n"

    @pytest.mark.parametrize("argv", [
        ["group", "power", "--rho", "1", "--", "1", "2000"],
        ["kernel", "eval", "--rho", "1", "--sigma", "inf", "--kappa", "1000", "--t", "10"],
        # a result outside its group: 0 where the group is (0, inf), the pole -1/rho, or an infinity
        ["group", "power", "--rho", "inf", "--", "1e-10", "40"],
        ["group", "power", "--rho", "1", "--", "-0.5", "2000"],
        ["group", "power", "--rho", "0", "--", "-1e308", "10"],
        ["kernel", "eval", "--rho", "0", "--sigma", "0", "--kappa", "1e300", "--t", "1e300"],
        ["kernel", "eval", "--rho", "1", "--sigma", "inf", "--kappa", "-1000", "--t", "10"],
        ["kernel", "inverse", "--rho", "0", "--sigma", "0", "--kappa", "1e-300", "--z", "1e300"],
    ])
    def test_arithmetic_overflow_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_cocycle_flow_functions_default_to_one(self, capsys):
        argv = ["cocycle", "general", "--f", "log", "--s", "0.5", "--t", "0.25", "--x", "50"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--phi", "one", "--h", "one")

    @pytest.mark.parametrize("argv", [
        ["subadd", "check", "--s", "square", "--tol", "nan"],
        ["subadd", "hs-probe", "--s", "entropy", "--tol", "-1"],
        ["subadd", "hs-probe", "--s", "entropy", "--tol", "0"],
        ["subadd", "bounded", "--s", "sqrt", "--tol", "inf"],
        ["estimate", "two-point", "--l1", "2", "--g1", "4", "--l2", "3", "--g2", "9", "--tol", "-5"],
        ["estimate", "eta-rho", "--phi", "x", "--tol", "lots"],
    ])
    def test_explicit_tol_must_be_positive(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: --tol must be a number, got 'lots'\n" if argv[-1] == "lots" else
                       f"error: --tol must be positive and finite, got {float(argv[-1])!r}\n")

    @pytest.mark.parametrize("argv", [
        ["estimate", "kernel", "--mode", "karamata", "--f", "square", "--t", "2"],
        ["estimate", "eta-rho", "--phi", "x"],
        ["estimate", "two-point", "--l1", "2", "--g1", "4", "--l2", "3", "--g2", "9"],
        ["subadd", "check", "--s", "square", "--lo", "0.5", "--hi", "2", "--n", "4"],
        ["subadd", "check", "--s", "square", "--lo", "0.5", "--hi", "2", "--n", "4", "--tol", "1e-10"],
        ["subadd", "bounded", "--s", "sqrt"],
        ["subadd", "hs-probe", "--s", "entropy"],
    ])
    def test_command_ignores_the_environment(self, capsys, monkeypatch, argv):
        """A tolerance comes from --tol or its default 1e-6; the environment changes no output."""
        monkeypatch.delenv("REGVAR_TOL", raising=False)
        unset = run_cli(capsys, *argv)
        for raw in ("", "5", "lots"):
            monkeypatch.setenv("REGVAR_TOL", raw)
            assert run_cli(capsys, *argv) == unset
        if argv[:2] == ["subadd", "check"]:  # REGVAR_TOL=5 would let the square pass
            assert unset == (0, "holds,worst_violation,worst_x,worst_y,pairs_checked,pairs_skipped\n"
                                "false,2,1,1,6,10\n", "")

    def test_mode_bkdh_is_not_a_choice(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "bkdh", "--f", "log", "--t", "1")
        assert (code, out) == (1, "")
        assert "argument --mode: invalid choice: 'bkdh'" in err

    @pytest.mark.parametrize("argv,name", [
        (["transform", "fourier", "--f", "gauss", "--gamma", "nan"], "gamma=nan"),
        (["transform", "fourier", "--f", "gauss", "--gamma", "inf"], "gamma=inf"),
        (["transform", "mellin", "--rho", "1", "--f", "gauss", "--z-im", "nan"], "z=nanj"),
    ])
    def test_non_finite_frequency_exits_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_beurling_x_exits_2(self, capsys, x):
        code, out, err = run_cli(capsys, "transform", "beurling-conv", "--f", "gauss", "--h", "gauss", "--phi", "one",
                                 f"--x={x}")
        assert (code, out, err) == (2, "", f"error: x must be finite, got {float(x)!r}\n")

    def test_overflowing_truncation_span_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "1", "--f", "gauss", "--gamma", "1",
                                 "--truncation", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: truncation must be positive with a finite span 2*truncation, got 1e+308\n"

    @pytest.mark.parametrize("argv, E", [
        (["fourier", "--rho", "1", "--f", "gauss", "--gamma", "1"], "expm1"),
        (["fourier", "--rho", "inf", "--f", "gauss", "--gamma", "1"], "exp"),
        (["mellin", "--rho", "1", "--f", "gauss", "--z-re", "0.5"], "expm1"),
        (["popa-conv", "--rho", "1", "--f", "gauss", "--g", "gauss", "--x", "0"], "expm1"),
        (["popa-conv", "--rho", "inf", "--f", "gauss", "--g", "gauss", "--x", "1"], "exp"),
    ])
    def test_truncation_above_log_dbl_max_exits_2(self, capsys, argv, E):
        code, out, err = run_cli(capsys, "transform", *argv, "--truncation", "709.782712893384")
        assert (code, err) == (0, "") and out
        code, out, err = run_cli(capsys, "transform", *argv, "--truncation", "709.7827128933841")
        rho = argv[argv.index("--rho") + 1]
        assert (code, out, err) == (2, "", f"error: truncation=709.7827128933841 overflows {E}(truncation) at "
                                           f"rho={rho}: it must be at most log(DBL_MAX) = 709.782712893384\n")

    @pytest.mark.parametrize("rho, truncation, want", [
        ("1e-9", "700", "1.000000001,1.4999999909451e-18\n"),  # E(T)/rho is infinite, E(T) is not
        ("inf", "709.78", "-0.0533079522994724,-0.0614652360751396\n"),
    ])
    def test_truncation_below_the_bound_keeps_its_output(self, capsys, rho, truncation, want):
        argv = ["transform", "fourier", "--rho", rho, "--f", "gauss", "--gamma", "1", "--truncation", truncation]
        assert run_cli(capsys, *argv) == (0, want, "")

    def test_subnormal_rho_integrate_is_the_length(self, capsys):
        code, out, err = run_cli(capsys, "transform", "integrate", "--rho", "1e-320", "--f", "one", "--lo", "0",
                                 "--hi", "1")
        assert (code, out, err) == (0, "1\n", "")

    def test_integrate_over_an_infinite_chart_span_names_the_interval(self, capsys):
        argv = ["--rho", "0", "--lo=-1e308", "--hi", "1e308"]
        want = "error: haar_integrate over (-1e+308, 1e+308): the interval's span in popa's chart, inf, is not finite\n"
        assert run_cli(capsys, "transform", "integrate", *argv, "--f", "one") == (2, "", want)
        assert run_cli(capsys, "transform", "measure", *argv) == (0, "inf\n", "")

    @pytest.mark.parametrize("argv, want", [
        (["integrate", "--rho", "0", "--f", "x", "--lo", "0", "--hi", "1e200", "--strict"],
         "haar_integrate over (0.0, 1e+200) must be finite, got inf"),
        (["fourier", "--rho", "0", "--f", "square", "--gamma", "0", "--truncation", "1e200"],
         "fourier_popa(gamma=0.0) must be finite, got inf"),
    ])
    def test_a_result_that_is_not_finite_exits_2(self, capsys, argv, want):
        assert run_cli(capsys, "transform", *argv) == (2, "", f"error: {want}\n")

    def test_integrate_over_a_span_of_1e308(self, capsys):
        argv = ["transform", "integrate", "--rho", "0", "--f", "one", "--lo=-5e307", "--hi", "5e307"]
        assert run_cli(capsys, *argv) == (0, "1e+308\n", "")

    def test_max_steps_above_the_list_budget_exits_2_before_any_step(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._REGISTRY, "sqrt", lambda x: calls.append(x) or math.sqrt(x))
        code, out, err = run_cli(capsys, "estimate", "eta-rho", "--phi", "sqrt", "--max-steps", "3276801")
        assert (code, out, calls) == (2, "", [])
        assert err == "error: too many steps in max_steps: 3276801, more than 3276800, the budget of one call\n"

    def test_subnormal_rho_measure_is_the_length(self, capsys):
        code, out, err = run_cli(capsys, "transform", "measure", "--rho", "1e-320", "--lo", "0", "--hi", "1")
        assert (code, out, err) == (0, "1\n", "")


class TestGridDriverBounds:
    def test_huge_grid_exits_2_at_once(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "check", "--s", "square", "--lo", "0", "--hi", "1",
                                 "--n", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: too many unordered pairs of grid points: 5000000050000000, more than 3276800")

    def test_overflowing_span_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "check", "--s", "square", "--lo=-1e308", "--hi", "1e308",
                                 "--n", "5")
        assert (code, out) == (2, "")
        assert err == "error: the span hi - lo of (-1e+308, 1e+308) overflows\n"


class TestSubnormalRhoTransforms:
    def test_popa_conv_prints_the_rho_zero_value(self, capsys):
        argv = ["transform", "popa-conv", "--f", "gauss", "--g", "gauss", "--x", "0"]
        at_zero = run_cli(capsys, *argv, "--rho", "0")
        assert run_cli(capsys, *argv, "--rho", "1e-320") == at_zero
        code, out, err = at_zero
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["transform", "fourier", "--rho", "1e-320", "--f", "gauss", "--gamma", "1"],
        ["transform", "mellin", "--rho", "1e-320", "--f", "gauss"],
    ])
    def test_line_transforms_print_the_mass_of_f(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        re, im = (float(v) for v in out.strip().split(","))
        assert re == pytest.approx(1.0, rel=1e-9) and im == 0.0

    def test_popa_conv_far_from_the_identity_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "popa-conv", "--rho", "1e-320", "--f", "gauss",
                                 "--g", "gauss", "--x", "1e305")
        assert (code, out) == (2, "")
        assert "rho=1e-320" in err


class TestBlankCsvRows:
    """Blank rows, or rows of blank cells, are skipped wherever they stand."""

    @pytest.mark.parametrize("blank", ["\n", " , \n", ",\n"], ids=["empty", "blank-cells", "bare-comma"])
    def test_blank_rows_are_skipped(self, tmp_path, capsys, blank):
        clean, gappy = tmp_path / "clean.csv", tmp_path / "gappy.csv"
        clean.write_text("x,fx\n1,2\n10,20\n100,400\n")
        gappy.write_text(f"x,fx\n{blank}1,2\n{blank}{blank}10,20\n100,400\n{blank}")
        assert [load_csv_function(str(gappy))(x) for x in (1.0, 5.0, 50.0)] == \
               [load_csv_function(str(clean))(x) for x in (1.0, 5.0, 50.0)]
        argv = ["transform", "integrate", "--rho", "1", "--lo", "1", "--hi", "90", "--f"]
        assert run_cli(capsys, *argv, str(gappy)) == run_cli(capsys, *argv, str(clean))

    @pytest.mark.parametrize("blank", ["\n", " , \n", ",\n"], ids=["empty", "blank-cells", "bare-comma"])
    def test_the_header_is_the_first_non_blank_row(self, tmp_path, capsys, blank):
        clean, gappy = tmp_path / "clean.csv", tmp_path / "gappy.csv"
        clean.write_text("x,fx\n1,2\n10,20\n")
        gappy.write_text(f"{blank}{blank}x,fx\n1,2\n10,20\n")
        assert load_csv_function(str(gappy))(5.0) == load_csv_function(str(clean))(5.0)
        argv = ["transform", "integrate", "--rho", "1", "--lo", "1", "--hi", "9", "--f"]
        assert run_cli(capsys, *argv, str(gappy)) == run_cli(capsys, *argv, str(clean))

    def test_line_numbers_count_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,fx\n\n1,2\n\n1,3\n")
        with pytest.raises(CsvFormatError, match="line 5: x values must be strictly increasing"):
            load_csv_function(str(path))


class TestEstimateFlags:
    """--fit-rho and --fit-sigma choose the groups of the kappa fit; --t-probe the probe of eta-rho."""

    def test_fit_sigma_inf_reads_the_exponential_kernel(self, capsys):
        # K(t) = e^t: log K = 1 * t, so the (0, inf) fit is exact where the default (0, 0) fit is not
        argv = ["estimate", "kernel", "--mode", "beurling", "--f", "exp", "--phi", "one", "--t", "0.5,1"]
        code, out, err = run_cli(capsys, *argv, "--fit-sigma", "inf")
        assert (code, err) == (0, "kappa=1 rms=0\n")
        code, default_out, default_err = run_cli(capsys, *argv)  # kappa = (0.5*e**0.5 + e)/(0.5**2 + 1)
        assert (code, default_out) == (0, out)
        assert default_err == "kappa=2.83411397104729 rms=0.183146698418118\n"

    @pytest.mark.parametrize("flags, rho, sigma", [
        (["--fit-sigma", "0"], math.inf, 0.0),
        (["--fit-rho", "1", "--fit-sigma", "1"], 1.0, 1.0),
        (["--fit-rho", "0.5"], 0.5, math.inf),
    ])
    def test_fit_groups_match_the_library(self, capsys, flags, rho, sigma):
        from regvar.asymptotics import estimate_karamata, fit_kappa
        from regvar.cli import _fmt
        from regvar.popa import PopaParam

        sq = lambda x: x * x
        samples = [(t, r.value) for t, r in estimate_karamata(sq, [2.0, 3.0])]
        kappa, rms = fit_kappa(samples, PopaParam(rho), PopaParam(sigma))
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata", "--f", "square", "--t", "2,3",
                                 *flags)
        assert (code, out) == (0, "t,value,converged\n2,4,true\n3,9,true\n")
        assert err == f"kappa={_fmt(kappa)} rms={_fmt(rms)}\n"

    def test_bad_fit_group_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata", "--f", "square", "--t", "2",
                                 "--fit-rho=-1")
        assert (code, out, err) == (2, "", "error: group parameter must be 0, positive or inf, got -1.0\n")

    def test_t_probe_reaches_the_estimator(self, capsys):
        from regvar.asymptotics import LimitScheme, estimate_rho
        from regvar.cli import _fmt

        res = estimate_rho(math.sqrt, 0.5, LimitScheme())
        code, out, err = run_cli(capsys, "estimate", "eta-rho", "--phi", "sqrt", "--t-probe", "0.5")
        assert (code, err) == (0, "")
        assert out == (f"rho_hat={_fmt(res.value)} converged=true last_delta={_fmt(res.last_delta)} "
                       f"steps={res.steps_used}\n")
        assert out != run_cli(capsys, "estimate", "eta-rho", "--phi", "sqrt")[1]

    def test_linear_auxiliary_at_any_probe(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "eta-rho", "--phi", "x", "--t-probe", "2")
        assert (code, out) == (0, "rho_hat=1 converged=true last_delta=0 steps=3\n")

    @pytest.mark.parametrize("value, message", [
        ("0", "t_probe must be non-zero"),
        ("abc", "--t-probe must be a number, got 'abc'"),
    ])
    def test_bad_t_probe_exits_2(self, capsys, value, message):
        assert run_cli(capsys, "estimate", "eta-rho", "--phi", "x", "--t-probe", value) == (2, "", f"error: {message}\n")


class TestHaarLengths:
    """``transform measure`` and ``group norm`` are lengths in the group's chart: short intervals keep their digits."""

    @pytest.mark.parametrize("argv, out", [
        (["--rho", "inf", "--lo", "1e100", "--hi", "1.000000000001e100"], "9.99891678828083e-13\n"),
        (["--rho", "inf", "--lo", "3", "--hi", "3.000000000003"], "9.99940870845224e-13\n"),
        (["--rho", "0.001", "--lo", "100", "--hi", "100.0000001"], "9.09999945933596e-08\n"),
        (["--rho", "inf", "--lo", "2e-300", "--hi", "1e300"], "1380.85790861587\n"),
        (["--rho", "1e-310", "--lo", "1", "--hi", "1e307"], "9.99500333083533e+306\n"),
        (["--rho", "7", "--lo", "1", "--hi", "1.7e308"], "810.963777714976\n"),  # 7*hi overflows
        (["--rho", "1e300", "--lo", "1", "--hi", "1.0000000000000002"], "2.22044604925031e-16\n"),
    ])
    def test_measure(self, capsys, argv, out):
        assert run_cli(capsys, "transform", "measure", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv, out", [
        (["--rho", "1e300", "--lo", "1", "--hi", "1.0000000000000002"], "2.22044604925031e-16\n"),
        (["--rho", "inf", "--lo", "1e300", "--hi", "1.0000000000000002e300"], "1.48701690847778e-16\n"),
    ])
    def test_integrate_over_one_chart_float_is_the_measure(self, capsys, argv, out):
        assert run_cli(capsys, "transform", "integrate", "--f", "one", *argv) == (0, out, "")
        assert run_cli(capsys, "transform", "measure", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv, out", [
        (["--rho", "1e-310", "1e307"], "9.99500333083533e+306\n"),
        (["--rho", "inf", "0.5"], "0.693147180559945\n"),
        (["--rho", "0", "--", "-0"], "0\n"),
        (["--rho", "7", "1.7e308"], "813.340282334038\n"),
    ])
    def test_norm(self, capsys, argv, out):
        assert run_cli(capsys, "group", "norm", *argv) == (0, out, "")


class TestMellinOverflow:
    """An overflow of exp(-z*w) names z and the truncation; one inside f keeps its own message."""

    @pytest.mark.parametrize("flags, z, T", [
        (["--z-re", "24"], "(24+0j)", "30.0"),  # no factor overflows, their weighted sum does
        (["--z-re", "25"], "(25+0j)", "30.0"),
        (["--z-re", "30"], "(30+0j)", "30.0"),
        (["--z-re=-30"], "(-30+0j)", "30.0"),
        (["--z-re", "2", "--truncation", "700"], "(2+0j)", "700.0"),
    ])
    def test_kernel_overflow_exits_2_naming_z_and_truncation(self, capsys, flags, z, T):
        code, out, err = run_cli(capsys, "transform", "mellin", "--rho", "1", "--f", "gauss", *flags)
        assert (code, out) == (2, "")
        assert err == (f"error: exp(-z*w) overflows for z={z} and w in [-{T}, {T}] (truncation={T}): "
                       "lower |Re z| or the truncation\n")

    def test_below_the_overflow_prints_as_before(self, capsys):
        argv = ["transform", "mellin", "--rho", "1", "--f", "gauss", "--z-re", "23"]
        assert run_cli(capsys, *argv) == (0, "9.68852128600815e+297,0\n", "")

    def test_overflow_inside_f_keeps_its_message(self, capsys):
        code, out, err = run_cli(capsys, "transform", "fourier", "--rho", "inf", "--f", "exp", "--gamma", "1")
        assert (code, out, err) == (2, "", "error: math range error (OverflowError)\n")


_FUZZ_NUMBERS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["0", "-0", "1e-320", "1e308", "-1e308", "1e400", "nan", "inf", "-inf", "abc", "", "0x10"]),
)
_FUZZ_S = st.sampled_from(["kappa-kernel", "goldie-fstar", "one", "x", "square", "sqrt", "exp", "log", "inv",
                            "entropy", "gauss", "offset-sinc", "no-such.csv", ""])
_FUZZ_FLAGS = {
    "--rho": st.sampled_from(["0", "1", "0.5", "7", "inf", "1e-300", "1e300", "-1", "nan", "Inf", "x"]),
    "--sigma": st.sampled_from(["0", "1", "0.5", "7", "inf", "1e-300", "1e300", "-1", "nan", "Inf", "x"]),
    "--kappa": _FUZZ_NUMBERS,
    "--gamma": _FUZZ_NUMBERS,
    "--lo": _FUZZ_NUMBERS,
    "--hi": _FUZZ_NUMBERS,
    "--n": st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["10001", "1e3", "3.5", "x", ""])),
    "--spacing": st.sampled_from(["linear", "geometric", "cubic"]),
    "--tol": _FUZZ_NUMBERS,
}


class TestSubaddCheckFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_FUZZ_S, st.fixed_dictionaries({}, optional=_FUZZ_FLAGS))
    def test_exit_code_is_documented_and_no_traceback(self, s, flags):
        # every failure reaches the user as exit 1, 2 or 3, never as an exception out of main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["subadd", "check", f"--s={s}", *(f"{flag}={value}" for flag, value in flags.items())])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (out.getvalue().count("\n") == 2)


# Adversarial flag values by kind for every operation of the flag table.  Plain numbers have one decimal, so
# that `beck sum` (up to 3276800 streamed cells, about 0.8 us each) and the integer flags below stay small.
_ANY_NUMBER = st.one_of(
    st.integers(-50, 50).map(lambda k: repr(k / 10)),
    st.sampled_from(["0", "-0", "1e-320", "5e-324", "2.2250738585072014e-308", "1e308", "-1e308", "1e400", "nan",
                     "inf", "-inf", "abc", "", "0x10", "709.78", "1e100"]),
)
_ANY_PARAM = st.sampled_from(["0", "1", "0.5", "7", "inf", "1e-300", "1e-320", "1e300", "-1", "-0", "nan", "Inf", "x"])
_ANY_FUNCTION = st.sampled_from(["one", "x", "square", "sqrt", "exp", "log", "inv", "entropy", "gauss", "offset-sinc",
                                 "@table", "@bad-header", "@missing", "no-such-name", ""])
_ANY_VALUE = {
    "param": _ANY_PARAM,
    "number": _ANY_NUMBER,
    "tol": _ANY_NUMBER,
    "spec": _ANY_NUMBER,
    "function": _ANY_FUNCTION,
    "profile": _ANY_FUNCTION,
    "text": st.one_of(_ANY_FUNCTION, st.sampled_from(["kappa-kernel", "goldie-fstar"])),
    "numbers": st.one_of(st.lists(_ANY_NUMBER, max_size=4).map(",".join), st.just(",,")),
}
_ANY_INTEGER = {  # bounded, so that the suite stays fast; 99999999 probes exit 2 before any list is built
    "n": st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["2560", "1e3", "3.5", "x", ""])),
    "i": st.one_of(st.integers(-2, 200).map(str), st.sampled_from(["3276801", "1e3", "x"])),
    "probes": st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["99999999", "3276801", "x"])),
    "max-steps": st.one_of(st.integers(-1, 40).map(str), st.sampled_from(["x", ""])),
    "stability-window": st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["x", ""])),
}
_OPERATIONS = [(command, op, usage) for command, (_, _, ops) in cli._COMMANDS.items() for op, (usage, _) in ops.items()]


def _any_argv(usage: str):
    """Flags of a usage line, each present or not, with adversarial values; positional operands after ``--``."""
    optional, operands = {}, []
    for label, dest, kind, _ in cli._flags(usage):
        name = label.lstrip("-")
        if not label.startswith("-"):
            operands.append(_ANY_NUMBER)
        elif kind == "switch":
            optional[label] = st.just(None)
        elif isinstance(kind, tuple):
            optional[label] = st.sampled_from([*kind, "bogus"])
        else:
            optional[label] = _ANY_INTEGER[name] if kind == "integer" else _ANY_VALUE[kind]
    flags = st.fixed_dictionaries({}, optional=optional).map(
        lambda d: [label if v is None else f"{label}={v}" for label, v in d.items()])
    return st.tuples(flags, st.tuples(*operands).map(list)).map(lambda fo: fo[0] + (["--", *fo[1]] if fo[1] else []))


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "table.csv").write_text("x,fx\n" + "".join(f"{1.1**k!r},{1.1**k * math.exp(-1.1**k)!r}\n"
                                                       for k in range(-60, 40)))
    (base / "bad.csv").write_text("a,b\n1,2\n2,3\n")
    return {"@table": str(base / "table.csv"), "@bad-header": str(base / "bad.csv"), "@missing": str(base / "no.csv")}


class TestEveryOperationFuzz:
    @pytest.mark.parametrize("command,op,usage", _OPERATIONS, ids=[f"{c} {o}" for c, o, _ in _OPERATIONS])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_is_documented_and_no_traceback(self, fuzz_paths, command, op, usage, data):
        # every failure reaches the user as exit 1, 2 or 3, never as an exception out of main
        argv = [command, op, *data.draw(_any_argv(usage))]
        for token, path in fuzz_paths.items():
            argv = [a.replace(token, path) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        assert (code == 0) <= (out.getvalue() != ""), argv


class TestFlagKinds:
    def test_sandwich_probes_above_the_list_cap_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "sandwich", "--s", "square", "--probes", "99999999")
        assert (code, out) == (2, "")
        assert err == "error: too many probes: 99999999, more than 3276800, the budget of one call\n"

    @pytest.mark.parametrize("op,flags,want", [
        ("fourier", ["--gamma", "1"], 0.7167962514226688),  # integral of exp(-i t) over [1/8, 1], real part
        ("mellin", ["--rho", "1"], 2.0 * math.log(16.0 / 9.0)),  # Haar mass 2 dt/(1 + t) of [1/8, 1]
        ("popa-conv", ["--g", "gauss", "--x", "0"], None),
        ("beurling-conv", ["--h", "one", "--phi", "one", "--x", "0"], 0.875),
    ])
    def test_transform_tables_read_as_zero_outside_their_range(self, capsys, tmp_path, op, flags, want):
        # a table of 1 on [1/8, 1]: the transforms integrate it as 0 outside, where `integrate` exits 2
        path = tmp_path / "box.csv"
        path.write_text("x,fx\n" + "".join(f"{k / 8!r},1\n" for k in range(1, 9)))
        code, out, err = run_cli(capsys, "transform", op, "--f", str(path), *flags)
        assert code == 0 and err == ""
        assert float(out.split(",")[0]) == pytest.approx(want, abs=1e-8) if want else float(out) > 0.0
        code, out, err = run_cli(capsys, "transform", "integrate", "--f", str(path), "--lo", "0", "--hi", "1")
        assert (code, out, err) == (2, "", "error: table lookup needs x > 0, got 0.0\n")

    @pytest.mark.parametrize("op", ["fourier", "mellin"])
    def test_half_line_table_with_a_bad_truncation_names_the_truncation(self, capsys, tmp_path, op):
        path = tmp_path / "p.csv"
        path.write_text("x,fx\n1,1\n2,1\n")
        code, out, err = run_cli(capsys, "transform", op, "--rho", "inf", "--f", str(path),
                                 *(["--gamma", "1"] if op == "fourier" else []), "--truncation", "nan")
        assert (code, out) == (2, "")
        assert err == "error: truncation must be positive with a finite span 2*truncation, got nan\n"


# ---------------------------------------------------------------- the argparse reference ----
# The parser that cli._parse replaces, kept as it stood but for prefixes: an op's flags added to argparse from its
# usage line, every parser built with allow_abbrev=False, as cli._parse reads a flag by its full name only.


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser(command: str | None = None) -> _ArgparseParser:
    """The regvar parser; given a command, only that command's operations get parsers (and flags)."""
    parser = _ArgparseParser(prog="regvar", description=cli.__doc__, allow_abbrev=False,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, module, ops) in cli._COMMANDS.items():
        command_parser = commands.add_parser(name, help=summary, allow_abbrev=False)
        op_parsers = command_parser.add_subparsers(dest="op", required=True)
        for op, (usage, handler) in ops.items() if command in (None, name) else ():
            sp = op_parsers.add_parser(op, allow_abbrev=False)
            flags = cli._flags(usage)
            for label, dest, kind, default in flags:
                if not label.startswith("-"):
                    sp.add_argument(dest)
                elif kind == "switch":
                    sp.add_argument(label, dest=dest, action="store_true")
                else:
                    choices = kind if isinstance(kind, tuple) else None
                    sp.add_argument(label, dest=dest, default=default or None, choices=choices)
            sp.set_defaults(handler=handler, flags=flags, parser=sp, module=module)
    return parser


def _argparse_reads(argv):
    """("parsed", handler, flag texts) as the argparse parser read argv, missing flags an error; else ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
            missing = [label for label, dest, _, default in args.flags
                       if default is None and getattr(args, dest) is None]
            if missing:
                args.parser.error(f"{', '.join(missing)} are required for this operation")
        except SystemExit as exc:
            return "exit", exc.code or 0
    return "parsed", args.handler, {dest: getattr(args, dest) for _, dest, _, _ in args.flags}


def _parse_reads(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            _, handler, _, texts = cli._parse(argv)
        except SystemExit as exc:
            return "exit", exc.code
    return "parsed", handler, texts


_VALUES = st.sampled_from(["1", "0.5", "-1", "-.5", "inf", "x", "a b", "a=b"] * 3 + ["", "-", "-1e-3", "-inf", "-x"])
_NOISE = st.sampled_from(["--bogus", "--bogus=1", "-x", "-1", "-1e-3", "--help=x", "--=1", "--a b"])
_HELP = st.sampled_from(["-h", "--help", "--he", "--h"])


@st.composite
def _command_line(draw, command: str, op: str, usage: str):
    """An argv of one op: its flags spelled out or as prefixes, in = or split form, some repeated, some missing,
    with bad choices, unknown flags and help words, operands in any place or after a ``--``."""
    flags = cli._flags(usage)
    items = []
    for label, _, kind, _ in flags:
        if label[0] != "-":
            continue
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
            spellings = [label[:n] for n in range(3, len(label) + 1)]
            word = draw(st.sampled_from([label] * len(spellings) + spellings))
            if kind == "switch":
                items.append([word + draw(st.sampled_from([""] * 5 + ["=x"]))])
                continue
            value = draw(st.sampled_from([*kind, "bogus"]) if isinstance(kind, tuple) else _VALUES)
            items.append([f"{word}={value}"] if draw(st.booleans()) else [word, value])
    if draw(st.integers(0, 3)) == 0:
        items.append([draw(st.one_of(_NOISE, _HELP))])
    count = sum(label[0] != "-" for label, *_ in flags)
    operands = draw(st.lists(_VALUES, min_size=count, max_size=count) | st.lists(_VALUES, max_size=count + 1))
    after = draw(st.integers(0, len(operands)))  # the last ones follow a --, if any do
    items = draw(st.permutations(items + [[v] for v in operands[:len(operands) - after]]))
    before, between = ([draw(st.one_of(_NOISE, _HELP))] if draw(st.integers(0, 7)) == 0 else [] for _ in range(2))
    return [*before, command, *between, op, *(word for item in items for word in item),
            *(["--", *operands[-after:]] if after else [])]


class TestParserAgainstArgparse:
    """cli._parse reads every command line as argparse without prefixes does, but for words with one leading - such
    as -1e-3: argparse refuses those that its negative-number rule does not match, and here they are operands or
    values."""

    @pytest.mark.parametrize("command,op,usage", _OPERATIONS, ids=[f"{c} {o}" for c, o, _ in _OPERATIONS])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parse_matches_the_argparse_reference(self, command, op, usage, data):
        argv = data.draw(_command_line(command, op, usage))
        want, got = _argparse_reads(argv), _parse_reads(argv)
        if want[0] == "parsed":
            assert got == want, argv
            return
        flags_end = argv.index("--") if "--" in argv else len(argv)
        number = argparse.ArgumentParser()._negative_number_matcher
        refused = [w for w in argv[:flags_end] if w[:1] == "-" and w[:2] != "--" and w != "-h" and len(w) > 1
                   and not number.match(w)]
        if not refused:
            assert got == want, argv  # the same help (exit 0) or usage error (exit 1)

    @pytest.mark.parametrize("argv", [
        ["group", "circle", "--rho", "1", "--", "1", "1"],
        ["group", "circle", "1", "--rho=1", "--", "1"],
        ["estimate", "kernel", "--mode", "beurling", "--f", "x", "--phi=x", "--t", "1", "--fit-rho", "1", "--strict"],
        ["subadd", "check", "--s", "square", "--sigma", "1", "--s", "x", "--spacing=geometric", "--n=3"],
        ["transform", "fourier", "--f", "gauss", "--gamma", "1", "--strict", "--strict", "--rho=0"],
    ])
    def test_documented_forms_parse_as_before(self, argv):
        assert _parse_reads(argv) == _argparse_reads(argv)
        assert _parse_reads(argv)[0] == "parsed"

    @pytest.mark.parametrize("argv", [
        ["transform", "measure", "--h", "1"],  # neither --help nor --hi
        ["group", "circle", "--rho", "1", "1", "1", "--strict"],
        ["estimate", "kernel", "--mode", "bogus", "-h"],
        ["subadd", "check", "--s", "x", "--spacing=cubic"],
    ])
    def test_usage_errors_exit_1_as_before(self, argv):
        assert _parse_reads(argv) == _argparse_reads(argv) == ("exit", 1)

    @pytest.mark.parametrize("argv, texts", [
        (["transform", "measure", "--lo", "0", "--hi", "1", "--"], {"rho": "0", "lo": "0", "hi": "1"}),
        (["group", "circle", "1", "1", "--rho", "1", "--"], {"rho": "1", "x": "1", "y": "1"}),
    ])
    def test_a_final_separator_only_ends_the_flags(self, argv, texts):
        # argparse 3.10 to 3.13.0 refuses a final -- that follows no operand as a surplus argument
        assert _argparse_reads(argv) == ("exit", 1)
        assert _parse_reads(argv)[::2] == ("parsed", texts) == _argparse_reads(argv[:-1])[::2]

    @pytest.mark.parametrize("argv, code", [
        (["group", "circle", "--rho", "1", "1", "1", "--"], None),
        (["--", "group", "circle", "--rho", "1", "1", "1"], 1),
        (["group", "circle", "--rho", "--", "1", "1"], 1),  # -- is no value
    ])
    def test_lines_read_as_argparse_3_11_read_them(self, argv, code):
        # argparse in later Pythons (3.13) reads some of these otherwise: they keep what regvar did on 3.10 and 3.11
        assert _parse_reads(argv)[0] == "parsed" if code is None else _parse_reads(argv) == ("exit", code)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help", "group"], ["--bogus", "group", "-h"], ["group", "--help"],
        ["group", "circle", "-h", "--bogus"], ["transform", "fourier", "--help"], ["subadd", "check", "-h", "--he=x"],
        ["transform", "measure", "-h", "--h"],
    ])
    def test_help_exits_0_as_before(self, argv):
        assert _parse_reads(argv) == _argparse_reads(argv) == ("exit", 0)

    @pytest.mark.parametrize("argv, word", [
        (["transform", "integrate", "--f", "one", "--lo", "0", "--hi", "1", "--str"], "--str"),
        (["transform", "fourier", "--f", "gauss", "--gamma=1", "--pull"], "--pull"),
        (["group", "circle", "--rh=1", "--", "1", "1"], "--rh=1"),
    ])
    def test_a_cut_flag_is_unrecognized(self, capsys, argv, word):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f": error: unrecognized arguments: {word}\n")

    @pytest.mark.parametrize("argv, out", [
        (["group", "circle", "--rho", "1", "-1e-3", "2"], "1.997\n"),  # argparse: "... arguments are required: y"
        (["group", "inverse", "--rho", "0", "-2.5e0"], "2.5\n"),
        (["transform", "measure", "--lo", "-1e308", "--hi=1e308"], "inf\n"),
    ])
    def test_negative_operands_and_values_need_no_separator(self, capsys, argv, out):
        assert _argparse_reads(argv) == ("exit", 1)
        assert run_cli(capsys, *argv) == (0, out, "")
