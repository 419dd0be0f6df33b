from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from regvar.quadrature import QuadratureResult, QuadratureSpec, _filon_integral, _filon_weights, adaptive_integral

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


def _lagrange_weights_by_quadrature(theta: complex) -> list[complex]:
    """The three Filon weights integrated by the Simpson rule itself."""
    basis = (lambda s: 0.5 * s * (s - 1.0), lambda s: 1.0 - s * s, lambda s: 0.5 * s * (s + 1.0))
    tight = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=20000)
    return [adaptive_integral(lambda s, L=L: L(s) * cmath.exp(-theta * s), -1.0, 1.0, tight).value for L in basis]


class TestFilon:
    ANGLES = [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2, 2.0, 2.9, math.pi, -math.pi / 2]

    @pytest.mark.parametrize("angle", ANGLES)
    def test_series_and_closed_forms_agree_at_the_switch(self, angle):
        # |theta| < 1 takes the Taylor series, |theta| >= 1 the closed forms
        below = _filon_weights(cmath.rect(math.nextafter(1.0, 0.0), angle))
        at = _filon_weights(cmath.rect(1.0, angle))
        scale = max(abs(w) for w in at)
        assert max(abs(x - y) for x, y in zip(below, at)) <= 2e-15 * scale

    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.5, 0.99, 1.0, 3.0, 40.0])
    @pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2, -2.5])
    def test_weights_integrate_the_lagrange_basis(self, r, angle):
        theta = cmath.rect(r, angle)
        want = _lagrange_weights_by_quadrature(theta)
        got = _filon_weights(theta)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12 * max(1.0, *map(abs, want))

    def test_zero_frequency_weights_are_simpson(self):
        assert _filon_weights(0j) == pytest.approx((1 / 3, 4 / 3, 1 / 3), rel=1e-15)

    @pytest.mark.parametrize("z", [8j, -300j, 0.5 + 40j, -1.0 + 1e5j])
    def test_quadratic_profile_is_exact(self, z):
        # the rule integrates its own interpolant exactly: no refinement, exact value
        p = lambda w: 1.0 - 0.5 * w + 0.25 * w * w
        res = _filon_integral(p, -1.0, 2.0, SPEC, z)
        # closed form by repeated integration by parts of p(w) exp(-z w)
        F = lambda w: -cmath.exp(-z * w) * (p(w) / z + (-0.5 + 0.5 * w) / z**2 + 0.5 / z**3)
        want = F(2.0) - F(-1.0)
        assert res.converged and res.evaluations == 257  # 64 initial cells, none split
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))

    def test_evaluations_do_not_grow_with_the_frequency(self):
        gauss = lambda w: math.exp(-0.5 * w * w)
        evals = [_filon_integral(gauss, -30.0, 30.0, SPEC, complex(0.0, g)).evaluations for g in (1e4, 1e6, 1e9)]
        assert max(evals) <= 300
