from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
import random
import warnings
from fractions import Fraction
from operator import mul

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from regvar.asymptotics import SampledFunction
from regvar.popa import DomainError
from regvar.quadrature import (QuadratureResult, QuadratureSpec, _cc_integral, _cc_rule, _cc_tables, _cc_weights, _Cell,
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
        # an infinite tolerance would accept any error bound as converged
        with pytest.raises(ValueError, match=f"{field} must be finite"):
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
    @pytest.mark.parametrize("lo, hi, breakpoints", [(-5e307, 5e307, ()), (-5e307, 5e307, (1.0,)), (-1e308, 7e307, ())])
    def test_every_node_is_finite(self, rule, lo, hi, breakpoints):
        nodes = []
        fn = lambda w: nodes.append(w) or 1.0
        res = _cc_integral(fn, lo, hi, SPEC) if rule == "cc" else adaptive_integral(fn, lo, hi, SPEC,
                                                                                      breakpoints=breakpoints)
        assert all(map(math.isfinite, nodes)) and min(nodes) == lo and max(nodes) == hi
        assert res.converged and res.value == pytest.approx(hi - lo, rel=1e-15)

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
        spec = QuadratureSpec(truncation=5e-324)
        res = adaptive_integral(lambda w: 1.0, lo, hi, spec, breakpoints=(0.5 * lo + 0.5 * hi,) * (rule != "simpson"))
        assert (res.value, res.error, res.converged) == (hi - lo, 0.0, True)

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

    def test_real_property(self):
        res = adaptive_integral(lambda x: complex(x, 0.0), 0.0, 1.0, SPEC)
        assert res.real == pytest.approx(0.5, abs=1e-12)


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
# every bit of its results: a one-cell call that meets its tolerance at once still goes through the heap,
# the floor sum is always taken, the grid is always sorted, and the Filon weights are built with
# accumulate and per-column slices.  It includes the re-sum of a drifted running error sum.


def _ref_simpson_cell(fn, a, b, fa, fm, fb, nev):
    if fm is None:
        fm = fn(0.5 * (a + b))
        nev[0] += 1
    fq1, fq3 = fn(a + 0.25 * (b - a)), fn(a + 0.75 * (b - a))
    nev[0] += 2
    h = b - a
    s1 = h * (fa + 4.0 * fm + fb) / 6.0
    s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
    return _Cell(a, b, fa, fm, fb, s2 + (s2 - s1) / 15.0, abs(s2 - s1), fq1, fq3)


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
    scale = cmath.exp(-sign * theta) / sum((k + 0.5) * sign**k * m for k, m in enumerate(mu))
    return [scale * m for m in mu[:17]]


def _ref_cc_weights(theta):
    mu = _ref_legendre_moments(theta)
    w = [0j] * 17
    for k, (col_even, col_odd) in enumerate(_cc_tables()[1]):  # col[0::2], col[1::2] of A's column k
        e, o = sum(map(mul, col_even, mu[0::2])), sum(map(mul, col_odd, mu[1::2]))
        w[k], w[16 - k] = e + o, e - o
    return w


def _ref_cc_integral(fn, lo, hi, spec=SPEC, z=0.0):
    nodes, _, interp, plain = _cc_tables()
    inner, w0 = nodes[1:16], plain[0]
    rules, nev = {}, [0]

    def make(a, b, fa, fb):
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        p = [fb, *[fn(c + r * s) for s in inner], fa]
        nev[0] += 15
        plain_value = sum(map(mul, w0, p))
        try:
            if z and r not in rules:
                rules[r] = _cc_rule(_ref_cc_weights(z * r), interp)
            e = r * cmath.exp(-z * c) if z else r
            w, pairs = rules[r] if z else plain
            value = e * sum(map(mul, w, p)) if z else r * plain_value
            if z and not cmath.isfinite(value) and all(map(cmath.isfinite, p)):
                raise OverflowError
        except OverflowError:
            raise DomainError(f"exp(-z*w) overflows for z={z} and w in [{lo!r}, {hi!r}] (truncation="
                              f"{spec.truncation!r}): lower |Re z| or the truncation") from None
        coarse = p[0::2]
        d = sum(abs(wk * p[k] + wl * p[16 - k] - sum(map(mul, row, coarse))) for k, wk, wl, row in pairs)
        scale = abs(e)
        mean = 0.5 * plain_value
        resasc = scale * sum(map(mul, w0, [abs(v - mean) for v in p]))
        d *= scale
        err = min(d, resasc * (200.0 * d / resasc) ** 1.5) if resasc else d
        err = max(err, 50.0 * 2.0**-52 * scale * sum(map(mul, w0, map(abs, p))))
        return _Cell(a, b, fa, p[8], fb, value, err)

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
    heap = [(-c.err, c.a, c) for c in cells]
    heapq.heapify(heap)
    frozen = []
    width_floor = span * 2.0**-48
    run_value, run_err = sum(c.value for c in cells), sum(c.err for c in cells)
    peak = run_err
    splits = 0
    while splits < spec.max_subdivisions and heap:
        if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)) or run_err < peak * 2.0**-40:
            active = [c for (_, _, c) in heap] + frozen
            run_value, run_err = sum(c.value for c in active), math.fsum(c.err for c in active)
            peak = run_err
            if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)):
                break
        _, _, worst = heapq.heappop(heap)
        if worst.b - worst.a <= width_floor:
            frozen.append(worst)
            continue
        left, right = split(worst, 0.5 * (worst.a + worst.b))
        heapq.heappush(heap, (-left.err, left.a, left))
        heapq.heappush(heap, (-right.err, right.a, right))
        run_value += left.value + right.value - worst.value
        run_err += left.err + right.err - worst.err
        peak = max(peak, run_err)
        splits += 1
    active = [c for (_, _, c) in heap] + frozen
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
    "constant": lambda w: 2.5,
    "kink": lambda w: abs(w - 0.37),
    "jump": lambda w: 1.0 if w < 0.21 else -2.0,
    "complex": lambda w: complex(math.cos(w), math.sin(3.0 * w)),
    "gauss": lambda w: math.exp(-0.5 * w * w),
}
# one cell, a narrow one, 24 panels, 9 panels, and a span that overflows
EDGE_INTERVALS = [(-0.4, 0.6), (0.0, 1e-3), (-30.0, 30.0), (-5.0, 17.0), (-1e308, 1e308)]
FREQUENCIES = [0.0, 0.1j, 1j, 10j, 100j, 1e3j, 1e4j, 1e5j, 1e6j, 0.3 + 2j, -0.7 + 40j, 1.5 - 0.2j, -0.01 + 1e3j]


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

    def test_cells_whose_gauge_sits_at_the_floor(self):
        # p = 1 + eps*sin(7w) on one cell: err/floor rises through 1 near eps = 2.2e-10, in steps of 2e-4, so
        # that some err falls inside the margin of the bound under which the floor sum is still taken
        for k in range(1000):
            fn = lambda w, eps=2e-10 * (1.0 + 2e-4 * k): 1.0 + eps * math.sin(7.0 * w)
            assert _bits(_cc_integral, fn, -0.4, 0.6) == _bits(_ref_cc_integral, fn, -0.4, 0.6)

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

    def test_filon_weights_on_2000_seeded_frequencies(self):
        rng = random.Random(2000)
        for i in range(2000):
            # a third of them about |theta| = 17, where Miller's recurrence gives way to the forward one
            r = rng.uniform(16.5, 17.5) if i % 3 == 0 else 10.0 ** rng.uniform(-4.0, 2.5)
            theta = cmath.rect(r, rng.uniform(-math.pi, math.pi)) if i % 5 else complex(0.0, rng.choice((-r, r)))
            assert [w.hex() for v in _cc_weights(theta) for w in (v.real, v.imag)] == \
                [w.hex() for v in _ref_cc_weights(theta) for w in (v.real, v.imag)], theta
