from __future__ import annotations

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from regvar.asymptotics import SampledFunction
from regvar.quadrature import QuadratureResult, QuadratureSpec, _cc_integral, _cc_tables, _cc_weights, adaptive_integral

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
        table = SampledFunction.from_table(xs, [x * math.exp(-x) for x in xs])
        ws = [math.log(x) for x in xs]
        ys = [math.log(x * math.exp(-x)) for x in xs]
        exact = math.fsum(math.exp(y0) * (w1 - w0) * (math.expm1(y1 - y0) / (y1 - y0) if y1 != y0 else 1.0)
                          for w0, w1, y0, y1 in zip(ws, ws[1:], ys, ys[1:]))
        fn = lambda w: table(min(max(math.exp(w), xs[0]), xs[-1]))  # exp(log s) may leave the table by an ulp
        res = adaptive_integral(fn, ws[0], ws[-1], breakpoints=ws)
        assert res.converged and abs(res.value - exact) <= res.error <= 1e-11


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
