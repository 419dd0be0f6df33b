from __future__ import annotations

import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_wrong_arity_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "group", "circle", "--rho", "1", "1")
        assert code == 1
        assert "error" in err

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "norm", "--rho", "-1", "1")
        assert code == 2
        assert "error:" in err

    def test_non_integer_power_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "power", "--rho", "1", "0.1", "1.5")
        assert code == 2
        assert "integer" in err


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
        ("x,fx\n1,2\n2,0\n", "table values must be positive"),  # refused by SampledFunction
    ], ids=["three-columns", "non-finite", "empty", "zero-value"])
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

    def test_mellin_rejects_infinite_parameter(self, capsys):
        code, _, err = run_cli(capsys, "transform", "mellin", "--rho", "inf", "--f", "gauss")
        assert code == 2
        assert "finite" in err

    def test_mellin_pullback_table(self, tmp_path, capsys):
        # the table samples s * exp(-s); its Mellin transform at z = 0 is 1
        xs = np.geomspace(1e-6, 60.0, 4000)
        path = tmp_path / "pullback.csv"
        rows = "\n".join(f"{float(x)!r},{float(x) * math.exp(-float(x))!r}" for x in xs)
        path.write_text("x,fx\n" + rows + "\n")
        code, out, _ = run_cli(capsys, "transform", "mellin", "--rho", "1",
                               "--pullback", "--f", str(path))
        assert code == 0
        re, im = map(float, out.strip().split(","))
        assert re == pytest.approx(1.0, abs=1e-4)
        assert abs(im) <= 1e-9

    def test_pullback_requires_finite_rho(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("x,fx\n1,1\n2,1\n")
        code, _, err = run_cli(capsys, "transform", "fourier", "--rho", "inf",
                               "--pullback", "--f", str(path), "--gamma", "1")
        assert code == 2
        assert "finite" in err

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


class TestEstimateCommand:
    def test_every_curve_leaving_its_table_prints_nan_fit(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("x,fx\n1,1\n2,4\n4,16\n8,64\n")
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "karamata", "--f", str(path), "--t", "2,3")
        assert (code, out, err) == (0, "t,value,converged\n2,nan,false\n3,nan,false\n", "kappa=nan rms=nan\n")

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

    def test_beurling_mode_reports_rho_hat(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "kernel", "--mode", "beurling",
                                 "--f", "exp", "--phi", "one", "--t", "0.5,1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(math.exp(0.5), rel=1e-9)
        assert float(rows[1][1]) == pytest.approx(math.e, rel=1e-9)
        rho_line = [l for l in err.splitlines() if l.startswith("rho_hat=")][0]
        assert "rho_hat=0 converged=true" == rho_line

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

    def test_too_fine_partition_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "beck", "partition", "--rho", "0", "--delta", "1e-9", "--u", "1")
        assert code == 2
        assert "too fine" in err


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

    def test_env_tol_flips_verdict(self, capsys, monkeypatch):
        argv = ["subadd", "check", "--s", "square", "--rho", "0", "--sigma", "0",
                "--lo", "0.5", "--hi", "2", "--n", "4"]
        monkeypatch.setenv("REGVAR_TOL", "5")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip().splitlines()[1].startswith("true,")
        monkeypatch.delenv("REGVAR_TOL")
        code, out, _ = run_cli(capsys, *argv)
        assert out.strip().splitlines()[1].startswith("false,")

    def test_env_tol_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("REGVAR_TOL", "lots")
        code, _, err = run_cli(capsys, "subadd", "check", "--s", "square")
        assert code == 2
        assert "REGVAR_TOL" in err

    def test_explicit_tol_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REGVAR_TOL", "5")
        code, out, _ = run_cli(capsys, "subadd", "check", "--s", "square", "--rho", "0",
                               "--sigma", "0", "--lo", "0.5", "--hi", "2", "--n", "4",
                               "--tol", "1e-10")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("false,")

    def test_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "bounded", "--s", "sqrt", "--rho", "0",
                               "--sigma", "0", "--kappa", "1", "--points", "0.5,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "holds,worst_violation,worst_t,points_checked"
        assert lines[1].startswith("false,")  # sqrt(t) exceeds t below 1

    def test_hs_probe_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "subadd", "hs-probe", "--s", "entropy", "--tol", "1e-4")
        assert code == 0
        line = out.strip()
        assert line.endswith("passes=true")
        estimate = float(line.split()[0].split("=")[1])
        assert estimate == pytest.approx(2.0**-21 * 21.0 * math.log(2.0), rel=1e-12)

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

    @pytest.mark.parametrize("raw", ["lots", "0", "-1", "inf", "nan"])
    def test_bad_env_tol_is_a_domain_error(self, capsys, monkeypatch, raw):
        from regvar.cli import _tol

        monkeypatch.setenv("REGVAR_TOL", raw)
        with pytest.raises(DomainError) as info:
            _tol("--tol", None)
        assert not isinstance(info.value, CsvFormatError)
        code, out, err = run_cli(capsys, "subadd", "hs-probe", "--s", "entropy")
        assert (code, out) == (2, "")
        assert err.startswith("error: REGVAR_TOL=")

    @pytest.mark.parametrize("argv", [
        ["group", "power", "--rho", "1", "--", "1", "2000"],
        ["kernel", "eval", "--rho", "1", "--sigma", "inf", "--kappa", "1000", "--t", "10"],
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
        ["estimate", "two-point", "--l1", "2", "--g1", "4", "--l2", "3", "--g2", "9", "--tol", "-5"],
    ])
    def test_explicit_tol_must_be_positive(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --tol must be a positive number\n"

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

    def test_subnormal_rho_measure_is_the_length(self, capsys):
        code, out, err = run_cli(capsys, "transform", "measure", "--rho", "1e-320", "--lo", "0", "--hi", "1")
        assert (code, out, err) == (0, "1\n", "")


class TestGridDriverBounds:
    def test_huge_grid_exits_2_at_once(self, capsys):
        code, out, err = run_cli(capsys, "subadd", "check", "--s", "square", "--lo", "0", "--hi", "1",
                                 "--n", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: grid of 100000000 points is too large")

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
