from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
import random
import sys
import warnings
from fractions import Fraction
from operator import add, attrgetter, mul

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import regvar.haar as haar
import regvar.quadrature as quadrature
from regvar.asymptotics import SampledFunction
from regvar.cli import _zero_extend
from regvar.popa import INFINITY, ZERO, DomainError, PopaParam
from regvar.quadrature import (QuadratureResult, QuadratureSpec, _cc_integral, _cc_tables, _cc_weights, _dot17,
                               adaptive_integral)

SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults(self):
        assert SPEC.abs_tol == 1e-9
        assert SPEC.max_subdivisions == 4000
        assert SPEC.truncation == 30.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"rel_tol": -1.0},
            {"max_subdivisions": 0},
            {"truncation": 0.0},
            {"truncation": math.inf},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_max_subdivisions_is_an_int_within_the_list_budget(self):
        assert QuadratureSpec(max_subdivisions=3276800).max_subdivisions == 3276800
        # read by operator.index: what stands for an integer is stored as the int
        seven = type("Seven", (), {"__index__": lambda self: 7})()
        assert type(QuadratureSpec(max_subdivisions=seven).max_subdivisions) is int

    @pytest.mark.parametrize("truncation", [1e308, math.ldexp(1.0, 1023)])
    def test_rejects_a_truncation_whose_span_overflows(self, truncation):
        # 2T is the span of [-T, T]; an infinite span reached math.ceil in _refine as nan
        with pytest.raises(ValueError, match="truncation must be positive with a finite span"):
            QuadratureSpec(truncation=truncation)

    def test_largest_truncation_with_a_finite_span(self):
        T = math.nextafter(math.ldexp(1.0, 1023), 0.0)
        assert math.isfinite(2.0 * QuadratureSpec(truncation=T).truncation)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_tolerances_by_name(self, field, value):
        # an infinite tolerance would accept any error bound as converged; abs_tol is read by popa._positive
        kind = "positive and " if field == "abs_tol" else ""
        with pytest.raises(ValueError, match=rf"^{field} must be {kind}finite, got {value!r}$"):
            QuadratureSpec(**{field: value})


class TestSmoothIntegrands:
    def test_cubic_is_exact(self):
        res = adaptive_integral(lambda x: x**3, 0.0, 1.0, SPEC)
        assert res.converged
        assert res.value == pytest.approx(0.25, abs=1e-14)

    def test_sine_half_period(self):
        res = adaptive_integral(math.sin, 0.0, math.pi, SPEC)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-11)

    def test_error_bound_honest_on_smooth(self):
        res = adaptive_integral(lambda x: math.exp(-x * x), -5.0, 5.0, SPEC)
        exact = math.sqrt(math.pi) * math.erf(5.0)
        assert abs(res.value - exact) <= max(res.error, 1e-12)

    def test_matches_scipy_on_wiggly_function(self):
        fn = lambda x: math.sin(7.0 * x) * math.exp(-0.3 * x) + 1.0 / (1.0 + x * x)
        res = adaptive_integral(fn, 0.0, 12.0, SPEC)
        ref, _ = integrate.quad(fn, 0.0, 12.0, epsabs=1e-12, epsrel=1e-12, limit=400)
        assert res.converged
        assert res.value == pytest.approx(ref, abs=5e-9)

    def test_rejects_degenerate_intervals(self):
        with pytest.raises(ValueError):
            adaptive_integral(lambda x: x, 2.0, 0.0, SPEC)
        with pytest.raises(ValueError):
            adaptive_integral(math.sin, 1.0, 1.0, SPEC)
        with pytest.raises(ValueError):
            adaptive_integral(math.sin, 0.0, math.inf, SPEC)


class TestHardIntegrands:
    def test_jump_indicator(self):
        fn = lambda x: 1.0 if 0.3 <= x <= 0.7 else 0.0
        res = adaptive_integral(fn, 0.0, 1.0, SPEC)
        assert abs(res.value - 0.4) <= max(res.error, 1e-8)

    def test_budget_exhaustion_reports_nonconvergence(self):
        tiny = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8)
        fn = lambda x: math.sin(200.0 * x) ** 2
        res = adaptive_integral(fn, 0.0, 10.0, tiny)
        assert not res.converged
        assert math.isfinite(res.value)
        assert res.error > tiny.abs_tol

    def test_integrable_spike(self):
        fn = lambda x: 1.0 / math.sqrt(x) if x > 1e-14 else 0.0
        res = adaptive_integral(fn, 1e-12, 1.0, SPEC)
        assert res.value == pytest.approx(2.0, abs=5e-4)

    def test_kinked_table_meets_its_bound_with_its_nodes_as_breakpoints(self):
        # the 4000-row log-log table of s*exp(-s) over w = log s is piecewise exponential in w with a kink at every
        # node; the Simpson gauge is not calibrated on kinks (without breakpoints: bound 1.0e-9, true error 1.3e-7),
        # but with the nodes as breakpoints every cell is smooth
        xs = [float(x) for x in np.geomspace(1e-6, 60.0, 4000)]
        table = SampledFunction(xs, [x * math.exp(-x) for x in xs])
        ws = [math.log(x) for x in xs]
        ys = [math.log(x * math.exp(-x)) for x in xs]
        exact = math.fsum(math.exp(y0) * (w1 - w0) * (math.expm1(y1 - y0) / (y1 - y0) if y1 != y0 else 1.0)
                          for w0, w1, y0, y1 in zip(ws, ws[1:], ys, ys[1:]))
        fn = lambda w: table(min(max(math.exp(w), xs[0]), xs[-1]))  # exp(log s) may leave the table by an ulp
        res = adaptive_integral(fn, ws[0], ws[-1], breakpoints=ws)
        assert res.converged and abs(res.value - exact) <= res.error <= 1e-11


class TestWideSpans:
    """A finite span above DBL_MAX/k: span*k of the first grid overflowed, and so did a + b of a cell's centre."""

    def test_zero_over_a_span_of_1e308_converges_on_the_first_grid(self):
        res = _cc_integral(lambda w: 0.0, -5e307, 5e307, SPEC)
        assert (res.value, res.error, res.converged, res.evaluations) == (0.0, 0.0, True, 385)

    @pytest.mark.parametrize("rule", ["cc", "simpson"])
    @pytest.mark.parametrize("lo, hi, breakpoints", [(-5e307, 5e307, ()), (-5e307, 5e307, (1.0,)), (-1e308, 7e307, ()),
                                                     (-1e308, 7e307, (-5e307, 0.0, 5e307)), (-1e307, 1e307, ())])
    def test_every_node_is_finite(self, rule, lo, hi, breakpoints):
        nodes = []
        fn = lambda w: nodes.append(w) or 1.0
        res = _cc_integral(fn, lo, hi, SPEC) if rule == "cc" else adaptive_integral(fn, lo, hi, SPEC,
                                                                                      breakpoints=breakpoints)
        assert all(map(math.isfinite, nodes)) and min(nodes) == lo and max(nodes) == hi
        assert res.converged and res.value == pytest.approx(hi - lo, rel=1e-15)
        # the first grid is evaluated first: on a segment of width w and n cells, node k is left + w*k/n, or
        # left + w/n*k where w*k overflows, and the last node is hi
        cells, edges = (24, [lo, hi]) if rule == "cc" else (64, sorted({lo, hi, *breakpoints}))
        grid, overflows = [lo], 0
        for left, right in zip(edges, edges[1:]):
            w = right - left
            n = math.ceil(w / (hi - lo) * cells)
            grid += [left + (w * k / n if w * k < math.inf else w / n * k) for k in range(1, n + 1)]
            overflows += sum(w * k == math.inf for k in range(1, n + 1))
        grid[-1] = hi
        assert nodes[:len(grid)] == grid and overflows > 0

    @pytest.mark.parametrize("integrate", [
        lambda fn: _cc_integral(fn, -1e308, 1e308, SPEC),
        lambda fn: adaptive_integral(fn, -1e308, 1e308, SPEC),
        lambda fn: adaptive_integral(fn, -1e308, 1e308, SPEC, breakpoints=(1.0,)),
    ], ids=["cc", "simpson", "simpson-breakpoints"])
    def test_a_span_that_overflows_is_refused_before_any_evaluation(self, integrate):
        nodes = []
        with pytest.raises(ValueError, match=r"^bad integration interval \[-1e\+308, 1e\+308\]$"):
            integrate(lambda w: nodes.append(w) or 1.0)
        assert nodes == []


class TestSubnormalSpans:
    """A span of a few subnormals: the first grid repeats its nodes, and T/12 underflows to 0."""

    @pytest.mark.parametrize("lo, hi", [(-5e-324, 5e-324), (0.0, 2e-323), (0.0, 5e-324)])
    @pytest.mark.parametrize("rule", ["simpson", "simpson-breakpoints"])
    def test_simpson_integrates_a_constant_exactly(self, rule, lo, hi):
        # each of the 64 cells of subnormal width adds (12/12 + 1) subnormal units to the bound
        spec = QuadratureSpec(truncation=5e-324)
        res = adaptive_integral(lambda w: 1.0, lo, hi, spec, breakpoints=(0.5 * lo + 0.5 * hi,) * (rule != "simpson"))
        assert (res.value, res.error, res.converged) == (hi - lo, 128 * 5e-324, True)

    @pytest.mark.parametrize("lo, hi", [(-5e-324, 5e-324), (0.0, 2e-323), (0.0, 5e-324)])
    def test_clenshaw_curtis_converges_within_the_tolerance(self, lo, hi):
        # a cell's half-width of half a subnormal rounds to 0, so the value may lose the span, which is below abs_tol
        spec = QuadratureSpec(truncation=5e-324)
        res = _cc_integral(lambda w: 1.0, lo, hi, spec)
        assert res.converged and abs(res.value - (hi - lo)) <= spec.abs_tol

    @pytest.mark.parametrize("z", [0.0, 2j, 1 + 3j])
    @pytest.mark.parametrize("c, slope", [(1.0, 0.0), (1.0, 1.0), (1e300, 0.0), (1e-10, 0.0)])
    def test_clenshaw_curtis_bound_holds(self, z, c, slope):
        """Spans of 1 to 39 subnormal units from 0, 1, 7 and 1000 units: the bound covers the exact error.  On them
        exp(-z*w) = 1 - z*w + R, |R| <= |z*w|**2, so the exact integral is known up to a remainder added to the
        bound."""
        unit, cf, sf, zr, zi = (Fraction(v) for v in (5e-324, c, slope, z.real, z.imag))
        zabs = abs(zr) + abs(zi)  # at least |z|
        specs = (SPEC, QuadratureSpec(truncation=5e-324))
        for start, n, spec in itertools.product((0, 1, 7, 1000), range(1, 40), specs):
            lo, hi = start * unit, (start + n) * unit
            res = _cc_integral(lambda w: c + slope * w, float(lo), float(hi), spec, z)
            half_squares = (hi * hi - lo * lo) / 2
            re, im = cf * n * unit + (sf - cf * zr) * half_squares, -cf * zi * half_squares
            rest = (abs(sf) * zabs + (abs(cf) + abs(sf) * hi) * zabs * zabs) * hi * hi * n * unit
            value = complex(res.value)
            miss = (Fraction(value.real) - re) ** 2 + (Fraction(value.imag) - im) ** 2
            assert miss <= (Fraction(res.error) + rest) ** 2, (start, n, spec.truncation, value, res.error)

    @pytest.mark.parametrize("c, slope", [(1.0, 0.0), (1.0, 1.0), (1e300, 0.0), (1e-10, 0.0)])
    def test_simpson_bound_holds(self, c, slope):
        """The probe set of the Clenshaw-Curtis bound above: the Simpson bound covers the exact error too."""
        unit, cf, sf = Fraction(5e-324), Fraction(c), Fraction(slope)
        specs = (SPEC, QuadratureSpec(truncation=5e-324))
        for start, n, spec in itertools.product((0, 1, 7, 1000), range(1, 40), specs):
            lo, hi = start * unit, (start + n) * unit
            res = adaptive_integral(lambda w: c + slope * w, float(lo), float(hi), spec)
            exact = cf * n * unit + sf * (hi * hi - lo * lo) / 2
            assert abs(Fraction(res.value) - exact) <= Fraction(res.error), (start, n, spec.truncation, res)

    def test_zero_width_cells_that_tie_are_split_in_a_fixed_order(self):
        spec = QuadratureSpec(abs_tol=5e-324, rel_tol=0.0, max_subdivisions=50, truncation=5e-324)
        runs = [adaptive_integral(lambda w: 1.0 if w > 0.0 else 0.5, -5e-324, 5e-324, spec) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0].evaluations > 0

    def test_cli_transform_at_the_least_truncation(self, capsys):
        from regvar.cli import main

        for argv, out in [(["transform", "fourier", "--rho=0", "--f=one", "--gamma=0.0"], "9.88131291682493e-324,0"),
                          (["transform", "mellin", "--rho=1", "--f=one", "--z-re=0.5"], None)]:
            assert main([*argv, "--strict", "--truncation=5e-324"]) == 0
            text = capsys.readouterr().out.strip()
            assert out is None or text == out


class TestComplex:
    def test_complex_exponential(self):
        res = adaptive_integral(lambda x: complex(math.cos(x), math.sin(x)), 0.0, 1.0, SPEC)
        exact = complex(math.sin(1.0), 1.0 - math.cos(1.0))
        assert isinstance(res.value, complex)
        assert abs(res.value - exact) <= 1e-11

    def test_real_integrand_returns_float(self):
        res = adaptive_integral(lambda x: x * x, 0.0, 1.0, SPEC)
        assert isinstance(res.value, float)

    def test_a_complex_integrand_with_zero_imaginary_part_returns_float(self):
        res = adaptive_integral(lambda x: complex(x, 0.0), 0.0, 1.0, SPEC)
        assert isinstance(res.value, float) and res.value == pytest.approx(0.5, abs=1e-12)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        fn = lambda x: math.sin(3.0 * x) / (1.0 + x * x)
        a = adaptive_integral(fn, -4.0, 9.0, SPEC)
        b = adaptive_integral(fn, -4.0, 9.0, SPEC)
        assert a.value == b.value
        assert a.error == b.error
        assert a.evaluations == b.evaluations

    def test_breakpoints_change_grid_not_answer(self):
        fn = lambda x: math.cos(5.0 * x)
        plain = adaptive_integral(fn, 0.0, 6.0, SPEC)
        seeded = adaptive_integral(fn, 0.0, 6.0, SPEC, breakpoints=(1.0, 2.5, 4.0))
        exact = math.sin(30.0) / 5.0
        assert plain.value == pytest.approx(exact, abs=1e-10)
        assert seeded.value == pytest.approx(exact, abs=1e-10)

    def test_breakpoints_help_on_jump(self):
        fn = lambda x: 1.0 if x < 0.333333333 else 0.0
        res = adaptive_integral(fn, 0.0, 1.0, SPEC, breakpoints=(0.333333333,))
        assert abs(res.value - 0.333333333) <= max(res.error, 1e-8)

    def test_result_dataclass_fields(self):
        res = adaptive_integral(lambda x: x, 0.0, 1.0, SPEC)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations > 0
        assert res.error >= 0.0


def test_cauchy_bump_family_against_quad():
    # sweep a family of shifted Cauchy bumps against the scipy oracle
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.2, 1.5))
        fn = lambda x, c=c, s=s: s / ((x - c) ** 2 + s * s)
        res = adaptive_integral(fn, -8.0, 8.0, SPEC)
        ref, _ = integrate.quad(fn, -8.0, 8.0, epsabs=1e-12, limit=300)
        assert res.value == pytest.approx(ref, abs=1e-9)


NODES = [math.cos(k * math.pi / 16) for k in range(17)]


def _cc_closed_form(n: int) -> list:
    """Clenshaw-Curtis weights on cos(k*pi/n), n even, from the cosine series, in mpmath."""
    with mp.workdps(30):
        return [float((1 if k in (0, n) else 2) * (1 - mp.fsum(
            (1 if j == n // 2 else 2) * mp.cos(2 * j * k * mp.pi / n) / (4 * j * j - 1)
            for j in range(1, n // 2 + 1))) / n) for k in range(n + 1)]


def _lagrange_weights_by_mpmath(theta: complex, nodes: list) -> list:
    """Integrals of exp(-theta*s) times the Lagrange basis over [-1, 1] in mpmath: by quadrature
    below |theta| = 1, else by integrating by parts, exact for the polynomial basis."""
    with mp.workdps(40):
        th, xs, out = mp.mpc(theta), [mp.mpf(x) for x in nodes], []
        for i, xi in enumerate(xs):
            coeffs = [mp.mpf(1)]  # ascending powers of the basis polynomial of node i
            for j, x in enumerate(xs):
                if j != i:
                    coeffs = [(coeffs[k - 1] if k else 0) - x * (coeffs[k] if k < len(coeffs) else 0)
                              for k in range(len(coeffs) + 1)]
                    coeffs = [c / (xi - x) for c in coeffs]
            poly = coeffs[::-1]
            if abs(theta) < 1.0:
                out.append(mp.quad(lambda s: mp.polyval(poly, s) * mp.exp(-th * s), [-1, 1]))
                continue
            derivs = [poly]
            while len(derivs[-1]) > 1:
                d = derivs[-1]
                derivs.append([c * (len(d) - 1 - k) for k, c in enumerate(d[:-1])])
            F = lambda s: -mp.exp(-th * s) * mp.fsum(mp.polyval(d, s) / th ** (j + 1) for j, d in enumerate(derivs))
            out.append(F(1) - F(-1))
        return [complex(w) for w in out]


def _nested_weights(theta: complex) -> tuple:
    """(W17, W9): the 17-node weights, and those of the nested rule that integrates the
    interpolant through the 9 even nodes, which the cells use through that interpolant."""
    w17 = _cc_weights(theta)
    interp = _cc_tables()[2]
    w9 = [w17[2 * j] + sum(w17[2 * i + 1] * row[j] for i, row in enumerate(interp)) for j in range(9)]
    return w17, w9


class TestClenshawCurtisWeights:
    def test_nodes_are_the_chebyshev_extrema(self):
        nodes = _cc_tables()[0]
        assert max(abs(x - y) for x, y in zip(nodes, NODES)) <= 4e-16
        assert all(x == -y for x, y in zip(nodes, reversed(nodes)))

    def test_zero_frequency_weights_are_clenshaw_curtis(self):
        assert _cc_tables()[3][0] == _cc_weights(0j)
        w17, w9 = _nested_weights(0j)
        assert max(abs(x - y) for x, y in zip(w17, _cc_closed_form(16))) <= 1e-15
        assert max(abs(x - y) for x, y in zip(w9, _cc_closed_form(8))) <= 1e-15

    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.5, 1.0, 3.0, 16.9, 17.0, 40.0, 1e3])
    @pytest.mark.parametrize("angle", [0.9, math.pi / 2, 2.2, -1.3])
    def test_weights_integrate_the_lagrange_basis(self, r, angle):
        # 16.9 and 17 sit either side of the switch from Miller's backward recurrence to the forward one
        theta = cmath.rect(r, angle)
        for got, nodes in zip(_nested_weights(theta), (NODES, NODES[::2])):
            want = _lagrange_weights_by_mpmath(theta, nodes)
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * max(map(abs, want))

    @pytest.mark.parametrize("z", [8j, -300j, 0.5 + 40j, -1.0 + 1e5j])
    def test_degree_8_profile_is_exact_without_a_split(self, z):
        # degree 8 is exact for both C17 and C9: no refinement, exact value
        coeffs = [0.3, -1.0, 0.5, 0.25, -0.2, 0.1, 0.05, -0.02, 0.01]
        derivs = [coeffs]
        while len(derivs[-1]) > 1:
            d = derivs[-1]
            derivs.append([k * c for k, c in enumerate(d)][1:])
        poly = lambda c, w: sum(ck * w**k for k, ck in enumerate(c))
        # closed form by repeated integration by parts of p(w) exp(-z w)
        F = lambda w: -cmath.exp(-z * w) * sum(poly(d, w) / z ** (j + 1) for j, d in enumerate(derivs))
        want = F(2.0) - F(-1.0)
        res = _cc_integral(lambda w: poly(coeffs, w), -1.0, 2.0, SPEC, z)
        assert res.converged and res.evaluations == 2 * 16 + 1  # ceil(3 / (T/12)) = 2 panels, none split
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))

    def test_evaluations_do_not_grow_with_the_frequency(self):
        gauss = lambda w: math.exp(-0.5 * w * w)
        evals = [_cc_integral(gauss, -30.0, 30.0, SPEC, complex(0.0, g)).evaluations for g in (1e4, 1e6, 1e9)]
        assert max(evals) <= 600


def _calibration_case(family: str, rng: random.Random):
    """(integrand, lo, hi, exact value) of one seeded member of a family."""
    lo = rng.uniform(-2.0, 1.0)
    hi = lo + rng.uniform(0.5, 4.0)
    c = rng.uniform(lo, hi)
    if family == "smooth":
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
        F = lambda x: mp.exp(a * x) * (a * mp.cos(b * x) + b * mp.sin(b * x)) / (a * a + b * b)
        return lambda x: math.exp(a * x) * math.cos(b * x), lo, hi, F(hi) - F(lo)
    if family == "peaked":
        eps = 1e-2
        return lambda x: eps / ((x - c) ** 2 + eps * eps), lo, hi, mp.atan((hi - c) / eps) - mp.atan((lo - c) / eps)
    if family == "kinked":
        return lambda x: abs(x - c), lo, hi, ((hi - c) ** 2 + (c - lo) ** 2) / 2
    if family == "jump":
        return lambda x: 1.0 if x < c else 0.0, lo, hi, mp.mpf(c) - lo
    if family == "sqrt":
        return lambda x: math.sqrt(abs(x - c)), lo, hi, (mp.mpf(hi - c) ** 1.5 + mp.mpf(c - lo) ** 1.5) * 2 / 3
    # near-singular endpoints: the singularity sits delta to the left of lo
    s = lo - 10.0 ** rng.uniform(-6.0, -2.0)
    if family == "inv_sqrt":
        return lambda x: 1.0 / math.sqrt(x - s), lo, hi, 2 * (mp.sqrt(mp.mpf(hi) - s) - mp.sqrt(mp.mpf(lo) - s))
    if family == "log":
        F = lambda x: (x - s) * mp.log(x - s) - x
        return lambda x: math.log(x - s), lo, hi, F(mp.mpf(hi)) - F(mp.mpf(lo))
    lo, hi = rng.uniform(-1.0, 1.0), rng.uniform(9.0, 10.0)  # sin(50x): about 80 periods
    return lambda x: math.sin(50.0 * x), lo, hi, (mp.cos(50 * mp.mpf(lo)) - mp.cos(50 * mp.mpf(hi))) / 50


class TestClenshawCurtisCalibration:
    """The reported bound of a converged call bounds its true error, against mpmath."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("family", ["smooth", "peaked", "kinked", "jump", "sqrt", "inv_sqrt", "log", "sin50"])
    def test_converged_bounds_hold(self, family, tol):
        rng = random.Random(f"{family}-{tol}")
        spec = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        converged = 0
        for _ in range(20):
            fn, lo, hi, exact = _calibration_case(family, rng)
            res = _cc_integral(fn, lo, hi, spec)
            if res.converged:
                converged += 1
                assert abs(res.value - float(exact)) <= res.error
        assert converged >= 10

    @pytest.mark.parametrize("s", [0.5, 0.1, 0.05, 0.02])
    def test_whole_line_gaussians_are_never_missed_silently(self, s):
        rng = random.Random(s)
        for _ in range(200):
            c = rng.uniform(-5.0, 5.0)
            res = _cc_integral(lambda w: math.exp(-0.5 * ((w - c) / s) ** 2), -30.0, 30.0, SPEC)
            assert not res.converged or abs(res.value - s * math.sqrt(2.0 * math.pi)) <= res.error


# ----------------------------------------------------------------------------------------------------
# The engine as it stood before its per-call and per-cell work was trimmed, kept as the reference for
# every bit of its results: its cells are records, where the engine's are tuples, a one-panel call builds
# its grid and a one-cell call that meets its tolerance at once still goes through the heap, the floor sum
# is always taken, the grid is always sorted, the Filon weights are built with accumulate and per-column
# slices, and every sum of a cell is a loop over its terms, where the engine writes them out.  It includes
# the re-sum of a drifted running error sum.


class _RefCell:
    """A reference cell: its ends and centre with their values, estimate and gauge, and Simpson's quarter points."""
    __slots__ = ("a", "b", "fa", "fm", "fb", "value", "err", "fq1", "fq3")

    def __init__(self, a, b, fa, fm, fb, value, err, fq1=None, fq3=None):
        self.a, self.b, self.fa, self.fm, self.fb, self.value, self.err = a, b, fa, fm, fb, value, err
        self.fq1, self.fq3 = fq1, fq3


def _left_sum(terms):
    """The terms added left to right from 0.0, as the built-in sum did before Python 3.12 (it compensates since)."""
    return functools.reduce(add, terms, 0.0)


def _ref_simpson_cell(fn, a, b, fa, fm, fb, nev):
    if fm is None:
        fm = fn(0.5 * (a + b))
        nev[0] += 1
    fq1, fq3 = fn(a + 0.25 * (b - a)), fn(a + 0.75 * (b - a))
    nev[0] += 2
    h = b - a
    s1 = h * (fa + 4.0 * fm + fb) / 6.0
    s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
    return _RefCell(a, b, fa, fm, fb, s2 + (s2 - s1) / 15.0, abs(s2 - s1), fq1, fq3)


def _ref_adaptive_integral(fn, lo, hi, spec=SPEC, *, breakpoints=()):
    nev = [0]
    cell = functools.partial(_ref_simpson_cell, fn, nev=nev)
    return _ref_refine(fn, lo, hi, spec, breakpoints, 64, lambda a, b, fa, fb: cell(a, b, fa, None, fb),
                       lambda c, m: (cell(c.a, m, c.fa, c.fq1, c.fm), cell(m, c.b, c.fm, c.fq3, c.fb)), nev)


def _ref_legendre_moments(theta):
    if abs(theta) >= 17.0:
        mu = [m0 := 2.0 * cmath.sinh(theta) / theta, (m0 - 2.0 * cmath.cosh(theta)) / theta]
        for k in range(1, 16):
            mu.append(mu[k - 1] + (2 * k + 1) / theta * mu[k])
        return mu
    ratios = itertools.accumulate(range(60, 0, -1), lambda r, k: theta / (theta * r - (2 * k + 1)), initial=0.0)
    mu = list(itertools.accumulate(reversed(list(ratios)[1:]), mul, initial=1.0))
    sign = -1.0 if theta.real >= 0.0 else 1.0
    scale = cmath.exp(-sign * theta) / _left_sum((k + 0.5) * sign**k * m for k, m in enumerate(mu))
    return [scale * m for m in mu[:17]]


def _ref_cc_weights(theta):
    mu = _ref_legendre_moments(theta)
    w = [0j] * 17
    for k, (col_even, col_odd) in enumerate(_cc_tables()[1]):  # col[0::2], col[1::2] of A's column k
        e, o = _left_sum(map(mul, col_even, mu[0::2])), _left_sum(map(mul, col_odd, mu[1::2]))
        w[k], w[16 - k] = e + o, e - o
    return w


def _ref_cc_rule(w, interp):
    """w and, per mirror pair (k, 16-k) of odd nodes, (k, w_k, w_16-k, the weighted 9-point interpolant there)."""
    return w, [(k, w[k], w[16 - k], [w[k] * u + w[16 - k] * v for u, v in zip(interp[k // 2], interp[7 - k // 2])])
               for k in (1, 3, 5, 7)]


def _ref_cc_integral(fn, lo, hi, spec=SPEC, z=0.0):
    nodes, _, interp, (w0, _) = _cc_tables()
    plain = _ref_cc_rule(w0, interp)
    inner = nodes[1:16]
    rules, nev = {}, [0]

    def make(a, b, fa, fb):
        c, r = 0.5 * a + 0.5 * b, 0.5 * (b - a)
        p = [fb, *[fn(c + r * s) for s in inner], fa]
        nev[0] += 15
        plain_value = _left_sum(map(mul, w0, p))
        try:
            if z and r not in rules:
                rules[r] = _ref_cc_rule(_ref_cc_weights(z * r), interp)
            e = r * cmath.exp(-z * c) if z else r
            w, pairs = rules[r] if z else plain
            value = e * _left_sum(map(mul, w, p)) if z else r * plain_value
            if z and not cmath.isfinite(value) and all(map(cmath.isfinite, p)):
                raise OverflowError
        except OverflowError:
            raise DomainError(f"exp(-z*w) overflows for z={z} and w in [{lo!r}, {hi!r}] (truncation="
                              f"{spec.truncation!r}): lower |Re z| or the truncation") from None
        coarse = p[0::2]
        d = _left_sum(abs(wk * p[k] + wl * p[16 - k] - _left_sum(map(mul, row, coarse))) for k, wk, wl, row in pairs)
        scale = abs(e)
        mean = 0.5 * plain_value
        resasc = scale * _left_sum(map(mul, w0, [abs(v - mean) for v in p]))
        d *= scale
        err = min(d, resasc * (200.0 * d / resasc) ** 1.5) if resasc else d
        err = max(err, 50.0 * 2.0**-52 * scale * _left_sum(map(mul, w0, map(abs, p))))
        if r < 2.0**-1022:
            err += (_left_sum(map(mul, w0, map(abs, p))) * math.exp(-z.real * c) + 1.0) * 2.0**-1074
        return _RefCell(a, b, fa, p[8], fb, value, err)

    panels = math.ceil(min(24.0, (hi - lo) / (spec.truncation / 12.0))) if lo < hi else 1
    split = lambda c, m: (make(c.a, m, c.fa, c.fm), make(m, c.b, c.fm, c.fb))
    return _ref_refine(fn, lo, hi, spec, (), panels, make, split, nev)


def _ref_refine(fn, lo, hi, spec, breakpoints, min_cells, first, split, nev):
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and hi - lo < math.inf):
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    span = hi - lo
    edges = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
    grid = [lo]
    for left, right in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((right - left) / span * max(1, min_cells)))
        for k in range(1, pieces + 1):
            grid.append(left + (right - left) * k / pieces)
    grid[-1] = hi
    fvals = [fn(x) for x in grid]
    nev[0] += len(grid)
    cells = [first(grid[i], grid[i + 1], fvals[i], fvals[i + 1]) for i in range(len(grid) - 1)]
    serial = itertools.count()  # breaks the ties of cells alike in error and start, of zero width
    heap = [(-c.err, c.a, next(serial), c) for c in cells]
    heapq.heapify(heap)
    frozen = []
    width_floor = span * 2.0**-48
    run_value, run_err = _left_sum(c.value for c in cells), _left_sum(c.err for c in cells)
    peak = run_err
    splits = 0
    while splits < spec.max_subdivisions and heap:
        if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)) or run_err < peak * 2.0**-40:
            active = [c for (*_, c) in heap] + frozen
            run_value, run_err = _left_sum(c.value for c in active), math.fsum(c.err for c in active)
            peak = run_err
            if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)):
                break
        *_, worst = heapq.heappop(heap)
        if worst.b - worst.a <= width_floor:
            frozen.append(worst)
            continue
        left, right = split(worst, 0.5 * worst.a + 0.5 * worst.b)
        heapq.heappush(heap, (-left.err, left.a, next(serial), left))
        heapq.heappush(heap, (-right.err, right.a, next(serial), right))
        run_value += left.value + right.value - worst.value
        run_err += left.err + right.err - worst.err
        peak = max(peak, run_err)
        splits += 1
    active = [c for (*_, c) in heap] + frozen
    active.sort(key=lambda c: c.a)
    re, im = math.fsum(c.value.real for c in active), math.fsum(c.value.imag for c in active)
    total = complex(re, im) if im != 0.0 else re
    err = math.fsum(c.err for c in active)
    converged = err <= max(spec.abs_tol, spec.rel_tol * abs(total))
    return QuadratureResult(value=total, error=err, converged=converged, evaluations=nev[0])


def _bits(call, *args, **kwargs):
    """A result as exact text: the type and float.hex of its value, float.hex of its error, converged and
    evaluations; or the type and message of the exception it raised."""
    try:
        res = call(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    value = complex(res.value)
    return (type(res.value).__name__, value.real.hex(), value.imag.hex(), res.error.hex(), res.converged,
            res.evaluations)


EDGE_INTEGRANDS = {
    "zeros": lambda w: 0.0 if w < 0.3 else math.sin(w),
    "all zero": lambda w: 0.0,
    "subnormal": lambda w: 5e-324 * (1 + (w > 0.1)),
    "subnormal ramp": lambda w: 2.2e-308 * w,
    "+-1e300": lambda w: 1e300 if w > 0.05 else -1e300,
    "1e300 cos": lambda w: 1e300 * math.cos(w),
    "nan": lambda w: math.nan if abs(w - 0.1) < 0.05 else 1.0,
    "inf": lambda w: math.inf if abs(w - 0.1) < 0.05 else 1.0,
    "-inf": lambda w: -math.inf if w > 0.2 else 1.0,
    "nan everywhere": lambda w: math.nan,
    "complex inf": lambda w: complex(math.inf, -1.0) if w > 0.3 else 1j,
    "constant": lambda w: 2.5,
    "kink": lambda w: abs(w - 0.37),
    "jump": lambda w: 1.0 if w < 0.21 else -2.0,
    "complex": lambda w: complex(math.cos(w), math.sin(3.0 * w)),
    "gauss": lambda w: math.exp(-0.5 * w * w),
}
# one cell, a narrow one, 24 panels, 9 panels, and a span that overflows
EDGE_INTERVALS = [(-0.4, 0.6), (0.0, 1e-3), (-30.0, 30.0), (-5.0, 17.0), (-1e308, 1e308)]
FREQUENCIES = [0.0, 0.1j, 1j, 10j, 100j, 1e3j, 1e4j, 1e5j, 1e6j, 0.3 + 2j, -0.7 + 40j, 1.5 - 0.2j, -0.01 + 1e3j]


# the 17 samples of a cell in node order, every one zero; where signs mix, the centre's differs from the ends'
ZERO_SAMPLES = {
    "+0.0": [0.0] * 17,
    "mixed -0.0": [-0.0 if k in (2, 3, 5, 8, 13) else 0.0 for k in range(17)],
    "int 0": [0] * 17,
    "complex 0j": [complex(-0.0 if k % 3 == 2 else 0.0, -0.0 if k % 5 == 3 else 0.0) for k in range(17)],
}


def _cell_makers(monkeypatch, z):
    """The engine's and the reference's cell makers at z, taken from their calls into the refinement loop on a span of
    two panels, as one function of (c, r, p): each maker fed the 17 samples p in node order, on the cell of centre c
    and half-width r, gives its cell as exact text or the exception it raised."""
    makers, values = [], [iter(())]
    monkeypatch.setattr(quadrature, "_refine", lambda fn, lo, hi, spec, bps, n, first, *_: makers.append(first))
    monkeypatch.setattr(sys.modules[__name__], "_ref_refine", lambda fn, lo, hi, spec, bps, n, first, *_:
                        makers.append(first))
    for integral in (_cc_integral, _ref_cc_integral):
        integral(lambda w: next(values[0]), 0.0, 5.0, SPEC, z)
    assert len(makers) == 2

    def cells(c, r, p):
        out = []
        # the engine's cell is the tuple (a, b, fa, fm, fb, value, err), the reference's a record
        for make, read in zip(makers, (tuple, attrgetter(*_RefCell.__slots__[:7]))):
            values[0] = iter(p[1:16])
            try:
                cell = make(c - r, c + r, p[16], p[0])
            except (ArithmeticError, ValueError) as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
            a, b, fa, fm, fb, value, err = read(cell)
            parts = [x.hex() for v in (value, fm) for x in (complex(v).real, complex(v).imag)]
            out.append((a.hex(), b.hex(), repr(fa), repr(fb), type(value).__name__, err.hex(), *parts))
        return out

    return cells


SPECIAL_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf, math.nan, 1e16, -1e16, 1.0]


def _term(rng):
    """A float of any magnitude, or one of the special terms."""
    if rng.random() < 0.3:
        return rng.choice(SPECIAL_TERMS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 308.0)


class TestFixedOrderSums:
    """The cell kernel's 17-term dot product, of the Filon value and the floor sums, adds left to right from 0.0 on
    every supported Python (the sums written out in the kernel are held to the reference by
    TestBitForBitAgainstTheReference)."""

    @pytest.mark.parametrize("kind", ["float", "complex w", "complex both"])
    def test_dot17_is_the_left_to_right_reduction(self, kind):
        rng = random.Random(f"dot-17-{kind}")
        cplx = lambda: complex(_term(rng), _term(rng))
        for _ in range(4000):
            w = [cplx() if kind != "float" else _term(rng) for _ in range(17)]
            p = [cplx() if kind == "complex both" else _term(rng) for _ in range(17)]
            got, want = _dot17(w, p), _left_sum(map(mul, w, p))
            assert type(got) is type(want)
            assert (complex(got).real.hex(), complex(got).imag.hex()) == \
                (complex(want).real.hex(), complex(want).imag.hex()), (w, p)

    def test_no_compensation(self):
        # 1e16 + 1 rounds to 1e16 before -1e16 cancels it, where a compensated sum gives 1.0; and the sum starts at
        # 0.0, so terms that are all -0.0 add up to 0.0
        assert _dot17([1.0] * 17, [1e16, 1.0, -1e16] + [0.0] * 14) == 0.0
        assert math.copysign(1.0, _dot17([-1.0] * 17, [0.0] * 17)) == 1.0


class TestBitForBitAgainstTheReference:
    """The trimmed engine returns the reference's value, error, converged flag and evaluation count, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("family", ["smooth", "peaked", "kinked", "jump", "sqrt", "inv_sqrt", "log", "sin50"])
    def test_calibration_families(self, family, tol):
        rng = random.Random(f"bits-{family}-{tol}")
        spec = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        for _ in range(6):
            fn, lo, hi, _ = _calibration_case(family, rng)
            assert _bits(_cc_integral, fn, lo, hi, spec) == _bits(_ref_cc_integral, fn, lo, hi, spec)
            assert _bits(adaptive_integral, fn, lo, hi, spec) == _bits(_ref_adaptive_integral, fn, lo, hi, spec)

    @pytest.mark.parametrize("name", list(EDGE_INTEGRANDS))
    @pytest.mark.parametrize("tol,budget", [(1e-6, 300), (1e-12, 40)])
    def test_edge_integrands_at_every_frequency(self, name, tol, budget):
        fn, spec = EDGE_INTEGRANDS[name], QuadratureSpec(abs_tol=tol, rel_tol=tol, max_subdivisions=budget)
        for lo, hi in EDGE_INTERVALS:
            for z in FREQUENCIES:
                assert _bits(_cc_integral, fn, lo, hi, spec, z) == _bits(_ref_cc_integral, fn, lo, hi, spec, z)

    @pytest.mark.parametrize("z, eps0", [(0.0, 2e-10), (2j, 6.5e-11)])
    def test_cells_whose_gauge_sits_at_the_floor(self, z, eps0):
        # p = 1 + eps*sin(7w) on one cell: err/floor rises through 1 near eps = 2.2e-10 at z = 0 and 7.2e-11 at
        # z = 2j, in steps of 2e-4, so that some err falls inside the margin of the bound under which the floor sum
        # is still taken
        for k in range(1000):
            fn = lambda w, eps=eps0 * (1.0 + 2e-4 * k): 1.0 + eps * math.sin(7.0 * w)
            assert _bits(_cc_integral, fn, -0.4, 0.6, SPEC, z) == _bits(_ref_cc_integral, fn, -0.4, 0.6, SPEC, z)

    @pytest.mark.parametrize("name", list(EDGE_INTEGRANDS))
    def test_subnormal_half_widths(self, name):
        # cells whose half-width r is subnormal or 0 add a bound of their own; the strict spec splits them
        fn = EDGE_INTEGRANDS[name]
        for spec in (QuadratureSpec(max_subdivisions=40),
                     QuadratureSpec(abs_tol=5e-324, rel_tol=0.0, max_subdivisions=40)):
            for lo, hi in [(0.0, 2e-323), (-5e-324, 1e-322), (1e-310, 1.00001e-310), (0.0, 4e-308)]:
                for z in FREQUENCIES:
                    assert _bits(_cc_integral, fn, lo, hi, spec, z) == _bits(_ref_cc_integral, fn, lo, hi, spec, z)

    @pytest.mark.parametrize("truncation", [30.0, 1.0])
    @pytest.mark.parametrize("name", ["gauss", "kink", "jump", "complex", "+-1e300", "nan"])
    def test_spans_at_the_one_panel_boundary(self, name, truncation):
        # a span of at most T/12 is one panel, whose cell the engine makes from the ends without a grid; an ulp
        # more is two panels
        fn = EDGE_INTEGRANDS[name]
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=40, truncation=truncation)
        step = truncation / 12.0
        for span in (step * (1.0 - 2.0**-52), step, step * (1.0 + 2.0**-52)):
            for lo in (0.0, -0.3, 7.1):
                for z in FREQUENCIES:
                    assert _bits(_cc_integral, fn, lo, lo + span, spec, z) == \
                        _bits(_ref_cc_integral, fn, lo, lo + span, spec, z), (span, lo, z)

    def test_one_panel_up_to_t_over_12(self):
        # at lo = 0 the spans are exact: T/12 is one cell of 17 evaluations, the next float above it two panels
        for truncation in (30.0, 1.0):
            spec, step = QuadratureSpec(truncation=truncation), truncation / 12.0
            assert _cc_integral(lambda w: 1.0, 0.0, step, spec).evaluations == 17
            assert _cc_integral(lambda w: 1.0, 0.0, math.nextafter(step, math.inf), spec).evaluations == 33

    @pytest.mark.parametrize("z", [0.0, 1j, -0.7 + 40j])
    @pytest.mark.parametrize("name, fn", [("gauss", EDGE_INTEGRANDS["gauss"]), ("kink", EDGE_INTEGRANDS["kink"]),
                                          ("jump", EDGE_INTEGRANDS["jump"]), ("nan", EDGE_INTEGRANDS["nan"])])
    def test_one_panel_calls_the_integrand_evaluations_times(self, name, fn, z):
        # within its tolerance the lone cell is the result; beyond it the refinement starts from that cell, which is
        # not made again
        args = []
        count = lambda w: args.append(w) or fn(w)
        res = _cc_integral(count, 0.0, 1.0, SPEC, z)
        assert res.evaluations == len(args) == _ref_cc_integral(fn, 0.0, 1.0, SPEC, z).evaluations
        assert (res.evaluations == 17) is (name == "gauss")
        assert args[:2] == [0.0, 1.0] and len(set(args)) == len(args)  # the ends first, and no node twice

    @pytest.mark.parametrize("value", [-0.0, complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0), -5e-324,
                                       math.inf, -math.inf, math.nan, complex(math.nan, -0.0)])
    @pytest.mark.parametrize("err", [0.0, -0.0, 5e-324, 1e-9])
    def test_a_lone_cell_within_its_tolerance(self, value, err, monkeypatch):
        # the engine's cell maker replaced by one that makes the given cell on the one panel of [-0.4, 0.6]; the
        # engine's cell is the tuple (a, b, fa, fm, fb, value, err), the reference's a record
        nev = [0]

        def ref_first(a, b, fa, fb):
            nev[0] += 15
            return _RefCell(a, b, fa, 0.0, fb, value, err)

        no_split = lambda c, m: pytest.fail("a lone cell within its tolerance is not split")
        monkeypatch.setattr(quadrature, "_cc_engine", lambda: lambda fn, lo, hi, spec, z:
                            lambda a, b, fa, fb: (a, b, fa, 0.0, fb, value, err))
        monkeypatch.setattr(quadrature, "_refine", lambda *a: pytest.fail("a lone cell within its tolerance is done"))
        got = _bits(_cc_integral, math.sin, -0.4, 0.6, SPEC)
        assert got == _bits(_ref_refine, math.sin, -0.4, 0.6, SPEC, (), 1, ref_first, no_split, nev)

    @pytest.mark.parametrize("z", FREQUENCIES)
    def test_a_lone_cell_of_value_minus_zero(self, z):
        # at z = 0 the cell's value, its half-width 0.5e-4 times a plain sum of -1e-320, underflows to -0.0; the
        # result is fsum's +0.0
        assert math.copysign(1.0, 0.5e-4 * _dot17(_cc_tables()[3][0], [-1e-320] * 17)) == -1.0
        fn = lambda w: -1e-320
        got = _bits(_cc_integral, fn, 0.0, 1e-4, SPEC, z)
        assert got == _bits(_ref_cc_integral, fn, 0.0, 1e-4, SPEC, z)
        assert got[1:] == ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", True, 17)

    def test_cells_are_summed_in_position_order(self):
        # plateaus of +-1.4e307, the positive ones with the larger gauges: in the order of the queue fsum meets
        # 14 of them in a row and overflows on the way
        f = lambda w: 1.4e307 * math.tanh(20.0 * math.sin(math.pi * w)) * (
            1.0 - 0.05 * math.sin(40.0 * w) ** 2 if math.sin(math.pi * w) > 0.0 else 1.0)
        spec = QuadratureSpec(max_subdivisions=3)
        got = _bits(adaptive_integral, f, 0.0, 64.0, spec)
        assert got == _bits(_ref_adaptive_integral, f, 0.0, 64.0, spec) and got[0] == "float"

    @pytest.mark.parametrize("name", list(EDGE_INTEGRANDS))
    @pytest.mark.parametrize("breakpoints", [(), (0.1, 0.37, -0.2, 5.0, 99.0)])
    def test_simpson_cells_with_and_without_breakpoints(self, name, breakpoints):
        fn, spec = EDGE_INTEGRANDS[name], QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=400)
        for lo, hi in EDGE_INTERVALS:
            got = _bits(adaptive_integral, fn, lo, hi, spec, breakpoints=breakpoints)
            assert got == _bits(_ref_adaptive_integral, fn, lo, hi, spec, breakpoints=breakpoints)

    @pytest.mark.parametrize("z", [0.0, 1j, 0.3 + 2j, -0.7 + 40j])
    def test_cells_on_random_profiles(self, z, monkeypatch):
        cells = _cell_makers(monkeypatch, z)
        rng = random.Random(f"cells-{z}")
        for i in range(2000):
            r = rng.choice((0.5, 1e-3, 3.0, 1e-310))  # the last a subnormal half-width
            c = rng.uniform(-3.0, 3.0) * r
            if i % 4 == 0:  # values of any magnitude, special ones among them
                p = [_term(rng) for _ in range(17)]
            elif i % 4 == 1:
                p = [complex(_term(rng), _term(rng)) for _ in range(17)]
            else:  # a smooth profile at the nodes, the common case, whose misses are small
                base, eps, freq = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-16.0, 0.0), rng.uniform(0.1, 3.0)
                p = [base + eps * math.cos(freq * x + 1.0) for x in _cc_tables()[0]]
            got, want = cells(c, r, p)
            assert got == want, (c, r, p)

    @pytest.mark.parametrize("z", [0.0, 1j, 0.3 + 2j, -0.7 + 40j])
    @pytest.mark.parametrize("kind", list(ZERO_SAMPLES))
    def test_cells_of_zeros(self, kind, z, monkeypatch):
        # the engine returns such a cell before its misses are taken, with the gauge 0.0 that they sum to; a
        # subnormal half-width (1e-310, or 0 where c +- r rounds to c) keeps its underflow term
        cells = _cell_makers(monkeypatch, z)
        for r in (0.5, 1e-3, 3.0, 1e-310):
            for c in (0.0, -1.7 * r, 2.9 * r, 0.37):
                got, want = cells(c, r, ZERO_SAMPLES[kind])
                assert got == want, (c, r)
                assert (got[5] == "0x0.0p+0") is (r >= 2.0**-1022), (c, r)

    @pytest.mark.parametrize("z, c, r, error", [
        (-1.0 + 0j, 800.0, 0.5, "DomainError"),  # exp(-z*c) overflows
        (complex(-1.0, math.pi / 4.0 / 709.5), 709.5, 1.5, "OverflowError"),  # finite parts, |r*exp(-z*c)| not
    ])
    def test_a_cell_of_zeros_whose_exponential_overflows(self, z, c, r, error, monkeypatch):
        got, want = _cell_makers(monkeypatch, z)(c, r, [0.0] * 17)
        assert got == want and got[0] == error

    @pytest.mark.parametrize("z", [0.0, 1j, 0.3 + 2j, -0.7 + 40j])
    def test_a_plain_sum_that_cancels_to_zero(self, z, monkeypatch):
        # w_0 = w_16, so the plain sum of these non-zero samples is 0.0; they take the general path
        p = [1.0] + [0.0] * 15 + [-1.0]
        assert _dot17(_cc_tables()[3][0], p) == 0.0
        got, want = _cell_makers(monkeypatch, z)(0.3, 0.5, p)
        assert got == want and got[5] != "0x0.0p+0"

    def test_filon_weights_on_2000_seeded_frequencies(self):
        rng = random.Random(2000)
        for i in range(2000):
            # a third of them about |theta| = 17, where Miller's recurrence gives way to the forward one
            r = rng.uniform(16.5, 17.5) if i % 3 == 0 else 10.0 ** rng.uniform(-4.0, 2.5)
            theta = cmath.rect(r, rng.uniform(-math.pi, math.pi)) if i % 5 else complex(0.0, rng.choice((-r, r)))
            assert [w.hex() for v in _cc_weights(theta) for w in (v.real, v.imag)] == \
                [w.hex() for v in _ref_cc_weights(theta) for w in (v.real, v.imag)], theta


# whole-line integrals and a Haar integral whose integrand vanishes on many of the cells: the flow convolution of the
# Tauberian study (perfbench's tauberian_settling inputs), compactly supported profiles, and the transforms of a
# table that the CLI reads as 0 outside its range
TABLE = _zero_extend(SampledFunction([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25, 0.125]))
TAUBERIAN_SPEC = QuadratureSpec(abs_tol=1e-4, rel_tol=1e-4)
BUMP = lambda t: (1.0 - t * t) ** 2 if abs(t) < 1.0 else 0.0
HUMP = lambda t: (t - 0.5) * (2.0 - t) if 0.5 < t < 2.0 else 0.0
ZERO_CELL_CALLS = {
    **{f"tauberian x=1e{k}": lambda x=10.0**k: haar.beurling_convolution(
        lambda t: 0.5 if abs(t) <= 1.0 else 0.0, lambda u: 2.0 + math.sin(u) / (1.0 + u), lambda y: y, x,
        TAUBERIAN_SPEC) for k in range(1, 8)},
    "haar_integrate rho=0": lambda: haar.haar_integrate(BUMP, haar.Interval(ZERO, -5.0, 5.0)),
    "haar_integrate rho=1": lambda: haar.haar_integrate(HUMP, haar.Interval(PopaParam(1.0), -0.5, 20.0)),
    "haar_integrate rho=inf": lambda: haar.haar_integrate(HUMP, haar.Interval(INFINITY, 1e-3, 1e3)),
    "fourier_popa rho=inf": lambda: haar.fourier_popa(TABLE, INFINITY, 1.0),
    "fourier_popa rho=1": lambda: haar.fourier_popa(TABLE, PopaParam(1.0), -2.5),
    "mellin_popa rho=1": lambda: haar.mellin_popa(TABLE, PopaParam(1.0), 0.5),
}


class TestZeroCellsEndToEnd:
    """Through the public functions, the engine's Haar integrals are the reference's, bit for bit."""

    @pytest.mark.parametrize("name", list(ZERO_CELL_CALLS))
    def test_every_integral_is_the_reference(self, name, monkeypatch):
        engine, zero_cells = quadrature._cc_engine(), [0]

        def counting(*args):  # the engine's cell maker, counting the cells of gauge 0.0 that it makes
            make = engine(*args)

            def counted(*ends):
                cell = make(*ends)
                zero_cells[0] += cell[6] == 0.0
                return cell

            return counted

        monkeypatch.setattr(quadrature, "_cc_engine", lambda: counting)
        runs = []
        for integral in (_cc_integral, _ref_cc_integral):
            seen = []

            def recording(*args, integral=integral, seen=seen):
                seen.append(integral(*args))
                return seen[-1]

            monkeypatch.setattr(haar, "_cc_integral", recording)
            value = complex(ZERO_CELL_CALLS[name]())
            runs.append((value.real.hex(), value.imag.hex(), [_bits(lambda: res) for res in seen]))
        assert runs[0] == runs[1]
        assert runs[0][2] and zero_cells[0] > 0
