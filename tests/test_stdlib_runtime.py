"""regvar runs on the standard library alone; numpy is only the reference here.

The grids and the table lookup replay numpy's own arithmetic, so these tests
hold them to np.linspace, np.geomspace and np.interp on seeded inputs.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from decimal import Context, Decimal
from pathlib import Path

import numpy as np
import pytest

from regvar.asymptotics import SampledFunction
from regvar.subadd import GridSpec, _linspace, _log10

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, regvar, regvar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "[]\n"


# The regvar modules (beside the package and regvar.cli) that a CLI process loads, by command.
_GROUP = {"popa"}
_ESTIMATE = {"popa", "asymptotics"}
_COMMAND_MODULES = [
    (["group", "circle", "--rho", "1", "--", "1", "1"], _GROUP),
    (["group", "circle", "--rho", "1"], _GROUP),  # a usage error
    (["bogus"], _GROUP),
    (["--help"], _GROUP),
    (["group", "circle", "-h"], _GROUP),
    (["group", "circle", "--rho", "1", "-1e-3", "2"], _GROUP),
    (["kernel", "goldie-g", "--rho", "1", "--u", "2"], {"popa", "kernels"}),
    (["transform", "fourier", "--rho", "1", "--f", "gauss", "--gamma", "1"], {"popa", "haar", "quadrature"}),
    (["transform", "measure", "--rho", "1", "--lo", "0", "--hi", "1"], {"popa", "haar", "quadrature"}),
    (["estimate", "two-point", "--l1", "2", "--g1", "8", "--l2", "3", "--g2", "27"], _ESTIMATE),
    (["beck", "sum", "--rho", "1", "--delta", "0.01", "--u", "1"], _ESTIMATE),
    (["cocycle", "karamata", "--f", "log", "--s", "2", "--t", "3", "--x", "10"], _ESTIMATE),
    (["subadd", "check", "--s", "kappa-kernel", "--rho", "1", "--sigma", "1"], {"popa", "subadd", "kernels"}),
    (["subadd", "check", "--s", "square", "--lo", "0.1", "--hi", "5", "--spacing", "geometric"],
     {"popa", "subadd", "kernels"}),
    (["subadd", "hs-probe", "--s", "goldie-fstar", "--rho", "1"], {"popa", "subadd", "kernels"}),
]

# Runs regvar.cli.main(argv) quietly, then prints every loaded module name.
_PROBE = """
import contextlib, io, sys
import regvar.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    regvar.cli.main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
"""


def _child(code: str, *argv: str) -> str:
    """Standard output of ``python -c code argv...`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
                          check=True).stdout


def _modules_after(code: str, *argv: str) -> set[str]:
    return set(_child(code, *argv).split())


def _regvar_modules(loaded: set[str]) -> set[str]:
    return {m.removeprefix("regvar.") for m in loaded if m.startswith("regvar.")} - {"cli"}


@pytest.mark.parametrize("argv,modules", _COMMAND_MODULES, ids=[" ".join(a) for a, _ in _COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, modules):
    loaded = _modules_after(_PROBE, *argv)
    assert _regvar_modules(loaded) == modules
    assert "csv" not in loaded


# Modules no CLI process loads: dataclasses imports the next four; fractions and decimal serve one call each.
_HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}


@pytest.mark.parametrize("argv", [a for a, _ in _COMMAND_MODULES], ids=[" ".join(a) for a, _ in _COMMAND_MODULES])
def test_no_command_loads_dataclasses_fractions_or_decimal(argv):
    assert not _modules_after(_PROBE, *argv) & _HEAVY


@pytest.mark.parametrize("argv", [a for a, _ in _COMMAND_MODULES], ids=[" ".join(a) for a, _ in _COMMAND_MODULES])
def test_no_command_loads_argparse_or_gettext(argv):
    # cli._parse reads the command line against the usage table; argparse and the gettext it imports cost 6-10 ms
    assert not _modules_after(_PROBE, *argv) & {"argparse", "gettext"}


def test_a_negative_operand_needs_no_separator():
    done = subprocess.run([sys.executable, "-m", "regvar.cli", "group", "circle", "--rho", "1", "-1e-3", "2"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "1.997\n", "")


def test_import_regvar_loads_no_dataclasses_fractions_or_decimal():
    assert not _modules_after("import sys, regvar; print(' '.join(sys.modules))") & _HEAVY


def test_a_table_function_adds_asymptotics_and_csv(tmp_path):
    table = tmp_path / "one.csv"
    table.write_text("x,fx\n1,1\n2,1\n")
    loaded = _modules_after(_PROBE, "transform", "integrate", "--rho", "1", "--f", str(table), "--lo", "1", "--hi", "2")
    assert _regvar_modules(loaded) == {"popa", "haar", "quadrature", "asymptotics"}
    assert "csv" in loaded


def test_import_regvar_loads_no_submodule():
    # each name has one import path, its module's: the package re-exports none
    code = """
import sys, regvar
loaded = lambda: sorted(m for m in sys.modules if m.startswith("regvar."))
print(loaded())
for name in ("PopaParam", "power", "QuadratureSpec"):
    try:
        getattr(regvar, name)
    except AttributeError:
        print(name, loaded())
"""
    assert _child(code) == "[]\nPopaParam []\npower []\nQuadratureSpec []\n"


def test_package_getattr_raises_attribute_error():
    import regvar

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        regvar.nope  # noqa: B018


def _grids(seed: int, count: int = 300):
    rng = random.Random(seed)
    for _ in range(count):
        lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8, 8)
        hi = lo + rng.uniform(0.0, 1.0) * 10.0 ** rng.uniform(-8, 8)
        if lo < hi:
            yield lo, hi, rng.randint(2, 300)


@pytest.mark.parametrize("seed", range(3))
def test_linear_points_are_linspace_bitwise(seed):
    for lo, hi, n in _grids(seed):
        assert GridSpec(lo, hi, n).points() == np.linspace(lo, hi, n).tolist()


@pytest.mark.parametrize("lo,hi,n", [(0.0, 5e-324, 3), (0.0, 1e-320, 7), (-5e-324, 5e-324, 5)])
def test_subnormal_span_is_linspace_bitwise(lo, hi, n):
    assert GridSpec(lo, hi, n).points() == np.linspace(lo, hi, n).tolist()


@pytest.mark.parametrize("seed", range(3))
def test_sandwich_offsets_are_linspace_bitwise(seed):
    rng = random.Random(seed)
    for _ in range(300):
        delta, probes = rng.uniform(0.0, 10.0) * 10.0 ** rng.uniform(-10, 10), rng.randint(2, 100)
        assert _linspace(-delta, delta, probes + 2)[1:-1] == np.linspace(-delta, delta, probes + 2)[1:-1].tolist()


@pytest.mark.parametrize("seed", range(3))
def test_log10_is_correctly_rounded(seed):
    rng = random.Random(seed)
    log10 = Context(prec=34).log10
    xs = [10.0 ** rng.uniform(-300, 300) for _ in range(3000)] + [rng.uniform(0.5, 2.0) for _ in range(1000)]
    xs += [10.0**k for k in range(-22, 23)] + [5e-324, 2.2250738585072014e-308, sys.float_info.max, 1.0, 2.0]
    for x in xs:
        assert _log10(x) == float(log10(Decimal(x))), x


def _within_one_ulp(got, ref) -> bool:
    return all(abs(a - b) <= math.ulp(b) for a, b in zip(got, ref, strict=True))


@pytest.mark.parametrize("seed", range(3))
def test_geometric_points_are_geomspace_within_one_ulp(seed):
    # np.geomspace is 10**np.linspace(np.log10(lo), np.log10(hi), n) with exact endpoints.  10**w
    # may differ by an ulp from np.power.  np.log10 is off by an ulp for about 1 input in 10^4, which
    # moves every inner point, so the reference takes correctly rounded logarithms.
    rng = random.Random(seed)
    log10 = Context(prec=34).log10
    for _ in range(300):
        lo = 10.0 ** rng.uniform(-300, 300)
        hi = lo * 10.0 ** rng.uniform(1e-9, 8)
        n = rng.randint(2, 300)
        if not (lo < hi < math.inf):
            continue
        pts = GridSpec(lo, hi, n, "geometric").points()
        assert pts[0] == lo and pts[-1] == hi
        logs = [float(log10(Decimal(v))) for v in (lo, hi)]
        ref = np.power(10.0, np.linspace(*logs, n))
        ref[0], ref[-1] = lo, hi
        assert _within_one_ulp(pts, ref.tolist())
        if logs == np.log10([lo, hi]).tolist():
            assert _within_one_ulp(pts, np.geomspace(lo, hi, n).tolist())


@pytest.mark.parametrize("seed", range(3))
def test_table_lookup_is_the_parent_interp(seed):
    rng = random.Random(seed)
    for _ in range(40):
        xs = sorted({10.0 ** rng.uniform(-5, 8) for _ in range(rng.randint(2, 60))})
        if len(xs) < 2:
            continue
        vs = [10.0 ** rng.uniform(-6, 6) for _ in xs]
        f = SampledFunction(xs, vs)
        log_xs, log_vs = [math.log(x) for x in xs], [math.log(v) for v in vs]
        # an ulp of difference between np.log and math.log in a table entry moves the result by
        # about that ulp of |log v|, relative
        rel = 4.0 * 2.0**-52 * max(1.0, *map(abs, log_vs))
        queries = xs + [min(max(10.0 ** rng.uniform(-5, 8), xs[0]), xs[-1]) for _ in range(100)]
        for q in queries:
            got = f(q)
            assert got == math.exp(np.interp(math.log(q), log_xs, log_vs))
            assert got == pytest.approx(math.exp(np.interp(math.log(q), np.log(xs), np.log(vs))), rel=rel)


@pytest.mark.parametrize("xs,values", [
    ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
    (5.0, [1.0]),
    ([1.0, 2.0], None),
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    ([1.0, math.nan], [1.0, 2.0]),
])
def test_bad_table_shapes_raise_value_error(xs, values):
    with pytest.raises(ValueError):
        SampledFunction(xs, values)
