from __future__ import annotations

import cmath
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from helpers import PARAM_SET, point_from_w, rel_residual
from regvar.haar import (
    Interval,
    beurling_convolution,
    character_eval,
    fourier_popa,
    haar_integrate,
    haar_interval_measure,
    mellin_popa,
    popa_convolution,
)
from regvar.popa import (
    INFINITY,
    ZERO,
    DomainError,
    PopaParam,
    PopaPoint,
    circle,
    iso_exp,
    iso_log,
)
from regvar import haar
from regvar.quadrature import QuadratureSpec, QuadratureWarning, _cc_integral, adaptive_integral

P1 = PopaParam(1.0)
SPEC = QuadratureSpec()


class TestInterval:
    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(P1, 2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(P1, -1.5, 1.0)
        with pytest.raises(DomainError):
            Interval(INFINITY, 0.0, 1.0)

    def test_construction(self):
        iv = Interval(P1, 0.0, 1.0)
        assert iv.lo == 0.0 and iv.hi == 1.0


class TestIntervalMeasure:
    def test_closed_forms(self):
        # rho=1 on (0,1): 2*(log 2 - log 1) = 2 log 2
        assert haar_interval_measure(Interval(P1, 0.0, 1.0)) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        # rho=0 reduces to Lebesgue length
        assert haar_interval_measure(Interval(ZERO, -3.0, 4.5)) == 7.5
        # rho=inf reduces to the multiplicative measure dt/t
        assert haar_interval_measure(Interval(INFINITY, 1.0, math.e)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("param", PARAM_SET)
    def test_translation_invariance(self, param):
        rng = np.random.default_rng(42)
        for _ in range(50):
            w_lo, w_hi = sorted(rng.uniform(-2.0, 2.0, size=2))
            if w_hi - w_lo < 1e-6:
                continue
            lo, hi = iso_exp(param, w_lo), iso_exp(param, w_hi)
            g = point_from_w(param, float(rng.uniform(-1.5, 1.5)))
            shifted_lo = circle(PopaPoint(param, lo), g).value
            shifted_hi = circle(PopaPoint(param, hi), g).value
            m0 = haar_interval_measure(Interval(param, lo, hi))
            m1 = haar_interval_measure(Interval(param, shifted_lo, shifted_hi))
            assert rel_residual(m0, m1) <= 1e-12

    def test_small_rho_limit_is_length(self):
        p = PopaParam(1e-6)
        m = haar_interval_measure(Interval(p, 0.2, 1.7))
        assert m == pytest.approx(1.5, rel=1e-4)

    @pytest.mark.parametrize("rho", [1e-320, 1e-310])
    def test_subnormal_rho_is_length(self, rho):
        m = haar_interval_measure(Interval(PopaParam(rho), 0.2, 1.7))
        assert m == pytest.approx(haar_interval_measure(Interval(ZERO, 0.2, 1.7)), rel=1e-12)

    def test_a_few_ulps_far_from_the_identity_keep_their_digits(self):
        # (b - a)/eta(a) = 2.2e-16/1e300 is subnormal
        m = haar_interval_measure(Interval(PopaParam(1e300), 1.0, 1.0000000000000002))
        assert m == pytest.approx(2.220446049250313e-16, rel=1e-15, abs=0.0)

    def test_large_rho_limit_is_log_ratio(self):
        p = PopaParam(1e6)
        m = haar_interval_measure(Interval(p, 0.2, 1.7))
        assert m == pytest.approx(math.log(1.7 / 0.2), rel=1e-3)


class TestHaarIntegrate:
    def test_constant_recovers_measure(self):
        iv = Interval(P1, 0.0, 1.0)
        v = haar_integrate(lambda t: 1.0, iv, SPEC)
        assert v == pytest.approx(haar_interval_measure(iv), rel=1e-10)

    def test_weight_cancellation(self):
        # (1+t) cancels the 1/(1+t) density at rho=1, leaving 2*length
        v = haar_integrate(lambda t: 1.0 + t, Interval(P1, 0.0, 1.0), SPEC)
        assert v == pytest.approx(2.0, rel=1e-10)

    def test_scipy_oracle(self):
        fn = lambda t: math.sin(t) + t * t
        v = haar_integrate(fn, Interval(P1, 0.1, 3.0), SPEC)
        ref, _ = integrate.quad(lambda t: 2.0 * fn(t) / (1.0 + t), 0.1, 3.0, epsabs=1e-12)
        assert v == pytest.approx(ref, abs=1e-9)

    def test_zero_param_is_lebesgue(self):
        v = haar_integrate(lambda t: t, Interval(ZERO, 0.0, 2.0), SPEC)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_infinite_param_is_multiplicative(self):
        v = haar_integrate(lambda t: t, Interval(INFINITY, 1.0, math.e), SPEC)
        assert v == pytest.approx(math.e - 1.0, rel=1e-10)

    @pytest.mark.parametrize("rho", [1e-320, 1e-310, 1e-300])
    @pytest.mark.parametrize("name", ["one", "gauss"])
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 2.0)])
    def test_subnormal_rho_matches_rho_zero(self, rho, name, lo, hi):
        # (1+rho)/rho overflows here; the density is 1+rho to working precision
        f = {"one": lambda t: 1.0, "gauss": lambda t: math.exp(-0.5 * t * t)}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = haar_integrate(f, Interval(PopaParam(rho), lo, hi), SPEC)
        assert v == pytest.approx(haar_integrate(f, Interval(ZERO, lo, hi), SPEC), rel=1e-12)

    @pytest.mark.parametrize("param,lo,hi", [
        (ZERO, -1e308, 1e308),  # hi - lo overflows
    ])
    def test_an_infinite_chart_span_is_a_domain_error(self, param, lo, hi):
        span = re.escape(f"haar_integrate over ({lo}, {hi}): the interval's span in popa's chart, inf, is not finite")
        with pytest.raises(DomainError, match=f"^{span}$"):
            haar_integrate(lambda t: 1.0, Interval(param, lo, hi), SPEC)

    def test_a_span_whose_chart_end_overflows_integrates(self):
        # 7*hi overflows, and iso_log(hi) is log(7) + log(hi), while the translate to the identity spans
        # log1p(7*(hi - 1)/8) = 709.6
        iv = Interval(PopaParam(7.0), 1.0, 1.7e308)
        m = haar_interval_measure(iv)
        assert m == pytest.approx(810.963777714976, rel=1e-15)
        assert haar_integrate(lambda t: 1.0, iv, SPEC) == m

    @staticmethod
    def _interval_table():
        """rho from 0 to inf, lo from the identity up to 1e300 and near the pole, widths 1e-12 to 1e5 relative to
        max(|lo|, 1), with the two intervals where rho*hi overflows or which are one chart float."""
        for rho in (0.0, 1e-9, 1.0, 7.0, 1e300, math.inf):
            lows = (0.0, 0.5, 3.0, 1e100, 1e300) + ((-0.9 / rho,) if 0.0 < rho < math.inf else ())
            for lo in lows:
                for width in (1e-12, 1e-3, 1.0, 1e5):
                    if rho < math.inf or lo > 0.0:
                        yield Interval(PopaParam(rho), lo, lo + width * max(abs(lo), 1.0))
        yield Interval(PopaParam(7.0), 1.0, 1.7e308)
        yield Interval(PopaParam(1e300), 1.0, 1.0000000000000002)

    def test_the_integral_of_one_is_the_measure_on_every_interval(self):
        # both read the interval's span in popa's chart: far from the identity iso_log(hi) - iso_log(lo) lost up to 2.3%
        ivs = list(self._interval_table())
        assert len(ivs) == 134
        for iv in ivs:
            m = haar_interval_measure(iv)
            assert abs(haar_integrate(lambda t: 1.0, iv, SPEC) - m) <= 4 * math.ulp(m), iv

    @pytest.mark.parametrize("param,lo,hi", [
        (INFINITY, 1e300, 1.000000000001e300),  # far from the identity
        (P1, 1e300, 1.000000000001e300),
        (PopaParam(7.0), 1e100, 1.001e100),
        (PopaParam(1e300), 1.0, 1.0000000000000002),  # one chart float
        (INFINITY, 1e300, 1.0000000000000002e300),
        (P1, -0.9999999, 1.0),  # near the pole
        (PopaParam(4.0), -0.25 + 2.0**-40, 0.0),  # 1 + rho*lo exact: its rounding is the group arithmetic's
        (PopaParam(7.0), 1.0, 1.7e308),  # rho*hi overflows
        (PopaParam(7.0), 0.0, 1.7e308),  # so does d*(hi - lo)/eta(lo): the span is iso_log(hi) - iso_log(lo)
        (PopaParam(1e300), -9.999e-301, 1e8),  # d*(hi - lo)/eta(lo) overflows near the pole
    ], ids=str)
    def test_a_smooth_f_against_mpmath(self, param, lo, hi):
        # exp(-t/s) against (1+rho)/(1+rho*t) dt, as c*exp(-t/s) dw at 40 digits, t = expm1(w)/rho (e^w at inf)
        s = max(abs(lo), abs(hi))
        got = haar_integrate(lambda t: math.exp(-t / s), Interval(param, lo, hi), SPEC)
        with mpmath.workdps(40):
            rho, a, b = mpmath.mpf(param.rho), mpmath.mpf(lo), mpmath.mpf(hi)
            if param.is_infinite:
                want = mpmath.quad(lambda w: mpmath.exp(-mpmath.exp(w) / s), [mpmath.log(a), mpmath.log(b)])
            else:
                want = (1 + rho) / rho * mpmath.quad(lambda w: mpmath.exp(-mpmath.expm1(w) / rho / s),
                                                     [mpmath.log1p(rho * a), mpmath.log1p(rho * b)])
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_a_finite_chart_span_up_to_dbl_max_integrates(self):
        # span 1e308: span*k of the first grid overflowed for k >= 2, and the cell sums met -inf + inf
        calls = []
        assert haar_integrate(lambda t: calls.append(t) or 0.0, Interval(ZERO, -5e307, 5e307), SPEC) == 0.0
        assert len(calls) == 385
        assert haar_integrate(lambda t: 1.0, Interval(ZERO, -1e308, 7e307), SPEC) == pytest.approx(1.7e308, rel=1e-15)

    @pytest.mark.parametrize("param,lo,hi", [
        (PopaParam(1e300), 1.0, 1.0000000000000002),
        (INFINITY, 1e300, 1.0000000000000002e300),
    ])
    def test_an_interval_of_one_chart_float_integrates_in_t(self, param, lo, hi):
        # both ends map to one float w = iso_log(t): the integral of the density over [lo, hi] is the measure
        iv = Interval(param, lo, hi)
        m = haar_interval_measure(iv)
        assert haar_integrate(lambda t: 1.0, iv, SPEC) == pytest.approx(m, rel=1e-15, abs=0.0)
        assert haar_integrate(lambda t: t, iv, SPEC) == pytest.approx(lo * m, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("param,lo,hi", [(ZERO, 0.1, 0.6), (P1, 0.2, 0.7), (INFINITY, 1.1, 1.6)], ids=str)
    @pytest.mark.parametrize("name", ["gauss", "kink"])
    def test_one_panel_calls_f_evaluations_times(self, param, lo, hi, name, cc_results):
        # one chart panel, its lone cell within its tolerance (gauss) or refined from (kink): f is called once a node
        f = {"gauss": lambda t: math.exp(-0.5 * t * t), "kink": lambda t: abs(t - lo - 0.37)}[name]
        calls = []
        haar_integrate(lambda t: calls.append(t) or f(t), Interval(param, lo, hi), SPEC)
        (res,) = cc_results
        assert len(calls) == res.evaluations and (res.evaluations == 17) is (name == "gauss")

    def test_a_gaussian_over_a_span_of_1e308_is_not_missed_silently(self):
        with pytest.warns(QuadratureWarning, match=r"haar_integrate over \(-5e\+307, 5e\+307\) did not converge"):
            haar_integrate(lambda t: math.exp(-0.5 * t * t), Interval(ZERO, -5e307, 5e307), SPEC)


class TestCharacters:
    @pytest.mark.parametrize("param", PARAM_SET)
    def test_unit_modulus(self, param):
        rng = np.random.default_rng(3)
        for w in rng.uniform(-2.0, 2.0, size=25):
            u = iso_exp(param, float(w))
            assert abs(abs(character_eval(param, 1.7, u)) - 1.0) <= 1e-14

    @pytest.mark.parametrize("param", PARAM_SET)
    def test_multiplicative_in_the_group(self, param):
        rng = np.random.default_rng(4)
        for w1, w2 in rng.uniform(-1.5, 1.5, size=(25, 2)):
            x, y = point_from_w(param, float(w1)), point_from_w(param, float(w2))
            lhs = character_eval(param, 2.3, circle(x, y).value)
            rhs = character_eval(param, 2.3, x.value) * character_eval(param, 2.3, y.value)
            assert abs(lhs - rhs) <= 1e-12

    def test_zero_frequency_is_one(self):
        assert character_eval(P1, 0.0, 0.7) == 1.0 + 0.0j


def transport(f, rho):
    """f on G_rho, finite rho > 0, carried to (0, inf) by t = 1 + rho*u: (1+rho)/rho * f((t-1)/rho)."""
    return lambda t: (1.0 + rho) / rho * f((t - 1.0) / rho)


class TestPullback:
    def test_transports_haar_integral(self):
        # integral over the rho=1 group equals dt/t integral of the transport
        fn = lambda t: math.exp(-abs(math.log1p(t)))
        lhs = haar_integrate(fn, Interval(P1, 0.05, 10.0), SPEC)
        g = transport(fn, 1.0)
        rhs, _ = integrate.quad(lambda s: g(s) / s, 1.05, 11.0, epsabs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def _indicator_norm_ball(param: PopaParam, radius_w: float):
    """Indicator of the additive-coordinate window [-radius_w, radius_w]."""

    def f(t: float) -> float:
        return 1.0 if abs(iso_log(param, t)) <= radius_w else 0.0

    return f


class TestFourier:
    @pytest.mark.parametrize("param", [ZERO, P1, INFINITY])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 5.0, 50.0])
    def test_indicator_closed_form(self, param, gamma):
        # profile is weight * 1_{|w|<=1}; transform is weight * 2 sin(gamma)/gamma
        a = 1.0
        weight = 2.0 if param is P1 else 1.0
        f = _indicator_norm_ball(param, a)
        got = fourier_popa(f, param, gamma, SPEC)
        expected = weight * (2.0 * a if gamma == 0.0 else 2.0 * math.sin(gamma * a) / gamma)
        assert abs(got - expected) <= 1e-6

    def test_conjugate_symmetry(self):
        f = lambda t: math.exp(-(math.log1p(t) ** 2))
        plus = fourier_popa(f, P1, 1.3, SPEC)
        minus = fourier_popa(f, P1, -1.3, SPEC)
        assert abs(plus - minus.conjugate()) <= 1e-10

    def test_gaussian_profile_oracle(self):
        # rho=0 reduces to the ordinary Fourier transform on the line
        f = lambda w: math.exp(-w * w / 2.0)
        got = fourier_popa(f, ZERO, 2.0, SPEC)
        expected = math.sqrt(2.0 * math.pi) * math.exp(-2.0)
        assert abs(got - expected) <= 1e-9

    def test_transport_between_parameters(self):
        # the same additive profile gives the same transform at every parameter
        prof = lambda w: math.exp(-abs(w))
        f0 = lambda t: prof(t)
        f1 = lambda t: prof(math.log1p(t)) / 2.0  # divide out the rho=1 weight
        finf = lambda t: prof(math.log(t))
        g = 1.5
        v0 = fourier_popa(f0, ZERO, g, SPEC)
        v1 = fourier_popa(f1, P1, g, SPEC)
        vinf = fourier_popa(finf, INFINITY, g, SPEC)
        assert abs(v0 - v1) <= 1e-9
        assert abs(v0 - vinf) <= 1e-9


    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_a_domain_error(self, gamma):
        def f(t):
            raise AssertionError("no quadrature may start")

        with pytest.raises(DomainError, match="gamma="):
            fourier_popa(f, P1, gamma, SPEC)


class TestMellin:
    @pytest.mark.parametrize("z", [complex(0.0, math.nan), complex(math.nan, 1.0), complex(math.inf, 0.0),
                                   complex(0.5, -math.inf)])
    def test_non_finite_argument_is_a_domain_error(self, z):
        def f(t):
            raise AssertionError("no quadrature may start")

        with pytest.raises(DomainError, match="z="):
            mellin_popa(f, P1, z, SPEC)

    def test_refuses_zero_param(self):
        with pytest.raises(DomainError, match="positive parameter"):
            mellin_popa(lambda t: 1.0, ZERO, 0.5, SPEC)

    @pytest.mark.parametrize("z", [-2.0, complex(-1.5, 2.0)])
    def test_classical_mellin_transform_at_rho_inf(self, z):
        # integral of exp(-t) t^-z dt/t over (0, inf) is Gamma(-z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mellin_popa(lambda t: math.exp(-t), INFINITY, z, SPEC)
        assert abs(got - complex(mpmath.gamma(-mpmath.mpc(z)))) <= 1e-9

    @pytest.mark.parametrize("rho", [0.5, 1.0, 7.0, 1e6])
    def test_transforms_are_those_of_the_pullback_at_rho_inf(self, rho):
        # the chart of G_rho maps onto that of G_inf, where the transport of f is f on (0, inf)
        p, f = PopaParam(rho), lambda t: math.exp(-0.5 * t * t)
        g = transport(f, rho)
        for z in (-2.0, complex(-0.5, 1.0), complex(0.25, 3.0), 2j):
            want = mellin_popa(f, p, z, SPEC)
            assert abs(mellin_popa(g, INFINITY, z, SPEC) - want) <= 1e-12 * abs(want), z
        for gamma in (0.1, 1.0, 3.35, 10.0):
            want = fourier_popa(f, p, gamma, SPEC)
            assert abs(fourier_popa(g, INFINITY, gamma, SPEC) - want) <= 1e-12 * abs(want), gamma

    def test_agrees_with_fourier_on_imaginary_axis(self):
        f = lambda t: math.exp(-(math.log1p(t) ** 2))
        for g in (0.0, 0.7, 2.1):
            a = mellin_popa(f, P1, complex(0.0, g), SPEC)
            b = fourier_popa(f, P1, g, SPEC)
            assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0])
    def test_gamma_function_oracle(self, z):
        # profile exp(w) * exp(-exp(w)) has mellin transform Gamma(1 - z)
        f = lambda t: 0.5 * (1.0 + t) * math.exp(-(1.0 + t))
        got = mellin_popa(f, P1, complex(z, 0.0), SPEC)
        expected = gamma_fn(1.0 - z)
        assert abs(got - expected) <= 1e-5

    def test_complex_argument(self):
        f = lambda t: 0.5 * (1.0 + t) * math.exp(-(1.0 + t))
        z = complex(-0.5, 1.0)
        got = mellin_popa(f, P1, z, SPEC)
        # Gamma(1-z) via the scipy complex gamma
        from scipy.special import gamma as cgamma

        assert abs(got - complex(cgamma(1.0 - z))) <= 1e-5


class TestPopaConvolution:
    def test_indicator_mass_at_identity(self):
        # f, g supported on additive window [-1,1]; (f*g)(identity) integrates overlap
        f = _indicator_norm_ball(P1, 1.0)
        v = popa_convolution(f, f, PopaPoint(P1, 0.0), SPEC)
        # on the additive scale: weight * int 1_{|w|<=1} 1_{|w|<=1} dw = 2 * 2
        assert v == pytest.approx(4.0, abs=1e-6)

    def test_disjoint_supports_vanish(self):
        f = _indicator_norm_ball(P1, 0.5)

        def g(t):
            w = iso_log(P1, t)
            return 1.0 if 4.0 <= w <= 5.0 else 0.0

        v = popa_convolution(f, g, PopaPoint(P1, 0.0), SPEC)
        assert abs(v) <= 1e-9

    def test_commutative(self):
        f = lambda t: math.exp(-(iso_log(P1, t) ** 2))
        g = lambda t: math.exp(-abs(iso_log(P1, t)))
        x = PopaPoint(P1, 0.4)
        a = popa_convolution(f, g, x, SPEC)
        b = popa_convolution(g, f, x, SPEC)
        assert a == pytest.approx(b, rel=1e-8)

    def test_scipy_oracle_multiplicative_form(self):
        # transport to (0,inf): (f*g)(x) = int f(1/s) g(eta_x * s) * 2 ds/s
        f = lambda t: math.exp(-(math.log1p(t) ** 2))
        g = lambda t: math.exp(-2.0 * abs(math.log1p(t)))
        x = PopaPoint(P1, 0.7)
        got = popa_convolution(f, g, x, SPEC)

        def integrand(w):
            s = math.exp(w)
            return 2.0 * f(1.0 / s - 1.0) * g(2.0 * 0.85 * s - 1.0)

        # eta(x) = 1 + 0.7 = 1.7; rewrite g(((1+x) e^w) - 1)
        def integrand(w):
            return 2.0 * f(math.expm1(-w)) * g(1.7 * math.exp(w) - 1.0)

        ref, _ = integrate.quad(integrand, -30.0, 30.0, epsabs=1e-12, limit=400)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_zero_param_is_ordinary_convolution(self):
        f = lambda t: math.exp(-t * t)
        g = lambda t: math.exp(-((t - 0.5) ** 2))
        x = PopaPoint(ZERO, 0.3)
        got = popa_convolution(f, g, x, SPEC)

        ref, _ = integrate.quad(lambda t: f(-t) * g(0.3 + t), -30.0, 30.0, epsabs=1e-12)
        assert got == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("x", [0.25, 1.0, 3.0])
    def test_infinite_param_gaussians_in_log_t(self, x):
        # in w = log t the measure is dw and x o t = x*t: the convolution of two Gaussians at log x
        (c1, s1), (c2, s2) = (0.4, 0.7), (-0.2, 1.3)
        f = lambda t: math.exp(-0.5 * ((math.log(t) - c1) / s1) ** 2)
        g = lambda t: math.exp(-0.5 * ((math.log(t) - c2) / s2) ** 2)
        var = s1 * s1 + s2 * s2
        y = math.log(x) - c1 - c2
        want = math.sqrt(2.0 * math.pi) * s1 * s2 / math.sqrt(var) * math.exp(-y * y / (2.0 * var))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = popa_convolution(f, g, PopaPoint(INFINITY, x), SPEC)
        assert abs(got - want) <= max(SPEC.abs_tol, SPEC.rel_tol * want)


class TestBeurlingConvolution:
    def test_constant_flow_is_ordinary_convolution(self):
        F = lambda t: math.exp(-t * t) if abs(t) <= 6.0 else 0.0
        H = lambda u: 1.0 / (1.0 + u * u)
        phi = lambda x: 1.0
        x = 0.8
        got = beurling_convolution(F, H, phi, x, SPEC)
        ref, _ = integrate.quad(lambda t: F(-t) * H(x + t), -30.0, 30.0, epsabs=1e-12)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_constant_target_scales_by_mass(self):
        F = lambda t: 1.0 if 0.0 <= t <= 2.5 else 0.0
        H = lambda u: 3.0
        got = beurling_convolution(F, H, lambda x: 1.0 + x / 2.0, 10.0, SPEC)
        assert got == pytest.approx(3.0 * 2.5, abs=1e-8)

    def test_h_not_evaluated_outside_support(self):
        F = lambda t: 1.0 if -1.0 <= t <= 1.0 else 0.0
        calls = []

        def H(u):
            calls.append(u)
            if abs(u - 5.0) > 1.3:
                raise AssertionError(f"H probed outside reachable window: {u}")
            return 1.0

        got = beurling_convolution(F, H, lambda x: 1.0, 5.0, SPEC)
        assert got == pytest.approx(2.0, abs=1e-8)
        assert calls

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_a_domain_error(self, x):
        # popa_convolution rejects such an x through PopaPoint; phi(x) = 1 would let nan through
        F = lambda t: math.exp(-t * t)
        with pytest.raises(DomainError, match=f"x must be finite, got {x!r}"):
            beurling_convolution(F, F, lambda s: 1.0, x, SPEC)

    @pytest.mark.parametrize("px", [0.0, -1.0, math.nan, math.inf])
    def test_phi_must_be_positive_and_finite(self, px, monkeypatch):
        monkeypatch.setattr(haar, "_cc_integral", lambda *a: pytest.fail("no quadrature may start"))
        F = lambda t: math.exp(-t * t)
        with pytest.raises(DomainError, match=f"phi\\(x\\) must be positive and finite, got {px!r}"):
            beurling_convolution(F, F, lambda s: px, 1.0, SPEC)

    def test_slowly_varying_flow_localizes(self):
        # density F integrating to 1, target 2 + sin(u)/(1+u): the convolution
        # approaches the constant 2 along the flow of phi(x) = x
        F = lambda t: 0.5 if abs(t) <= 1.0 else 0.0
        H = lambda u: 2.0 + math.sin(u) / (1.0 + u)
        loose = QuadratureSpec(abs_tol=1e-4, rel_tol=1e-4)
        for x in (1e2, 1e4, 1e6):
            v = beurling_convolution(F, H, lambda s: s, x, loose)
            assert abs(v - 2.0) <= 0.05


class TestConvolutionTheorem:
    @staticmethod
    def _log_gauss(scale):
        def fn(t):
            v = 1.0 + t
            if v <= 0.0:
                return 0.0  # continuous limit of the bump at the group boundary
            w = math.log(v)
            return math.exp(-scale * w * w)

        return fn

    def test_fourier_factorizes_convolution(self):
        f = self._log_gauss(1.0)
        g = self._log_gauss(2.0)
        gamma = 1.1

        conv = lambda t: popa_convolution(f, g, PopaPoint(P1, t), QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
        lhs = fourier_popa(conv, P1, gamma, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6, truncation=12.0))
        rhs = fourier_popa(f, P1, gamma, SPEC) * fourier_popa(g, P1, gamma, SPEC)
        assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs))


WIGGLE = lambda t: math.sin(1e6 * t)


class TestNonConvergenceWarning:
    @pytest.mark.parametrize("fn,args", [
        (haar_integrate, (WIGGLE, Interval(P1, 0.25, 1.0))),
        (fourier_popa, (WIGGLE, ZERO, 1.0)),
        (fourier_popa, (WIGGLE, P1, 1.0)),
        (mellin_popa, (WIGGLE, P1, 0.5j)),
        (popa_convolution, (WIGGLE, WIGGLE, PopaPoint(P1, 0.5))),
        (beurling_convolution, (WIGGLE, WIGGLE, lambda x: 1.0, 0.5)),
    ], ids=["haar_integrate", "fourier_popa-simpson", "fourier_popa-cc", "mellin_popa", "popa_convolution",
            "beurling_convolution"])
    def test_one_warning_reported_at_the_caller(self, fn, args):
        # called in this frame, whose caller lies in pytest: a warning one frame off lands in regvar or in pytest
        with pytest.warns(QuadratureWarning) as caught:
            fn(*args, QuadratureSpec(max_subdivisions=2))
        assert [(type(w.message), w.filename) for w in caught] == [(QuadratureWarning, __file__)]
        assert str(caught[0].message).startswith(fn.__name__)

    def test_warns_and_returns_best_estimate(self):
        f = lambda t: math.sin(1e6 * t)
        tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=16)
        with pytest.warns(QuadratureWarning):
            v = haar_integrate(f, Interval(P1, 0.0, 1.0), tight)
        assert math.isfinite(v)

    def test_fourier_warns_too(self):
        f = lambda t: math.sin(1e7 * t) if t > -1.0 else 0.0
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
        with pytest.warns(QuadratureWarning):
            fourier_popa(f, P1, 1.0, tight)

    def test_haar_integrate_names_its_interval_estimate_and_bound(self, cc_results):
        tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=16)
        with pytest.warns(QuadratureWarning) as caught:
            haar_integrate(lambda t: math.sin(1e6 * t), Interval(P1, 0.25, 1.0), tight)
        (res,) = cc_results
        assert [str(w.message) for w in caught] == [f"haar_integrate over (0.25, 1.0) did not converge: best "
                                                    f"estimate {res.value!r}, error bound {res.error:.3e}"]
        assert caught[0].filename == __file__  # reported at the caller


GAUSS = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
NAN = lambda t: math.nan


class TestNonFiniteResult:
    """A Haar result that is not finite is a DomainError naming the call, before any non-convergence warning."""

    @pytest.mark.parametrize("fn,args,text", [
        (haar_integrate, (lambda t: t, Interval(ZERO, 0.0, 1e200)), "haar_integrate over (0.0, 1e+200)"),
        (haar_integrate, (NAN, Interval(P1, 0.25, 1.0)), "haar_integrate over (0.25, 1.0)"),
        (fourier_popa, (lambda t: t * t, ZERO, 0.0, QuadratureSpec(truncation=1e200)), "fourier_popa(gamma=0.0)"),
        (fourier_popa, (NAN, ZERO, 1.0), "fourier_popa(gamma=1.0)"),
        (fourier_popa, (NAN, ZERO, 10.0), "fourier_popa(gamma=10.0)"),
        (fourier_popa, (NAN, P1, 1.0), "fourier_popa(gamma=1.0)"),
        (mellin_popa, (NAN, P1, 0.5j), "mellin_popa(z=0.5j)"),
        (popa_convolution, (NAN, GAUSS, PopaPoint(P1, 0.5)), "popa_convolution at x=0.5"),
        (beurling_convolution, (NAN, GAUSS, lambda x: 1.0, 0.5), "beurling_convolution at x=0.5"),
    ], ids=["haar_integrate-overflow", "haar_integrate-nan", "fourier_popa-simpson-overflow", "fourier_popa-simpson-nan",
            "fourier_popa-cells-nan", "fourier_popa-chart-nan", "mellin_popa-nan", "popa_convolution-nan",
            "beurling_convolution-nan"])
    def test_is_a_domain_error_that_names_the_call(self, fn, args, text):
        # converged or not: an inf or nan is no estimate
        with pytest.raises(DomainError, match=rf"^{re.escape(text)} must be finite, got "):
            fn(*args)


def _on_group(param: PopaParam, prof):
    """f whose profile in w = log(1+rho*t), density included, is ``prof``."""
    if param.is_zero:
        return prof
    if param.is_infinite:
        return lambda t: prof(math.log(t))
    return lambda t: prof(math.log1p(param.rho * t)) * param.rho / (1.0 + param.rho)


@pytest.fixture
def cc_results(monkeypatch):
    """The QuadratureResult of every Clenshaw-Curtis call, in order."""
    results = []
    cc = haar._cc_integral

    def record(*args):
        results.append(cc(*args))
        return results[-1]

    monkeypatch.setattr(haar, "_cc_integral", record)
    return results


class TestFilonTransforms:
    """The line transforms use Filon-Clenshaw-Curtis cells, except at rho = 0 up to
    2T|Im z|/pi = 64 (|Im z| <= 3.351 at T = 30): the profile exp(-w**2/2) has
    transform sqrt(2 pi) exp(z**2/2)."""

    @staticmethod
    def _check(call, z, results):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call()
        want = math.sqrt(2.0 * math.pi) * cmath.exp(0.5 * z * z)
        (res,) = results
        assert res.converged
        assert abs(got - want) <= 1e-9
        assert abs(got - want) <= res.error

    @pytest.mark.parametrize("param", PARAM_SET, ids=str)
    @pytest.mark.parametrize("gamma", [3.4, 5.0, 50.0, 1e3, 1e4, 1e6])
    def test_fourier_gaussian_oracle(self, param, gamma, cc_results):
        f = _on_group(param, lambda w: math.exp(-0.5 * w * w))
        self._check(lambda: fourier_popa(f, param, gamma, SPEC), complex(0.0, gamma), cc_results)

    @pytest.mark.parametrize("im", [5.0, 74.0])
    @pytest.mark.parametrize("re", [-1.0, 0.25, 1.0])
    def test_mellin_gaussian_oracle(self, re, im, cc_results):
        f = _on_group(P1, lambda w: math.exp(-0.5 * w * w))
        z = complex(re, im)
        self._check(lambda: mellin_popa(f, P1, z, SPEC), z, cc_results)

    @pytest.mark.parametrize("rho", [0.5, 1e3])
    @pytest.mark.parametrize("z", [0.25 + 3.3j, -0.5 + 1j, 0.75])
    def test_mellin_below_the_old_gate(self, rho, z, cc_results):
        # every z at rho != 0 takes the Filon-CC cells, also below 2T|Im z|/pi = 64
        p = PopaParam(rho)
        f = _on_group(p, lambda w: math.exp(-0.5 * w * w))
        self._check(lambda: mellin_popa(f, p, z, SPEC), z, cc_results)

    @pytest.mark.parametrize("gamma", [3.0, 3.35, 32.0 * math.pi / 30.0])
    def test_simpson_misses_go_to_the_cells(self, gamma, cc_results):
        # the Simpson cells miss 1e-9 on this slowly decaying profile just below the gate; the Filon-CC cells do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fourier_popa(lambda t: 1.0 / (1.0 + t * t), ZERO, gamma, SPEC)
        (res,) = cc_results
        assert res.converged and res.evaluations < 1000
        with mpmath.workdps(30):
            want = mpmath.quad(lambda t: mpmath.cos(gamma * t) / (1 + t * t), mpmath.linspace(-30, 30, 121))
        assert abs(got - complex(want)) <= 1e-12

    def test_continuous_across_the_gate(self, cc_results):
        f = lambda w: math.exp(-0.5 * w * w)
        err = {}
        for gamma in (3.35, 3.36):
            got = fourier_popa(f, ZERO, gamma, SPEC)
            err[gamma] = got - math.sqrt(2.0 * math.pi) * math.exp(-0.5 * gamma * gamma)
        assert len(cc_results) == 1  # only 3.36 is above the gate of the rho = 0 path
        assert abs(err[3.35]) <= 1e-9 and abs(err[3.36]) <= 1e-9
        assert abs(err[3.35] - err[3.36]) <= 1e-9
        # the two floats either side of the gate itself
        T = SPEC.truncation
        above = 32.0 * math.pi / T
        while not 2.0 * T / (math.pi / above) > 64:
            above = math.nextafter(above, math.inf)
        below = math.nextafter(above, 0.0)
        assert abs(fourier_popa(f, ZERO, above, SPEC) - fourier_popa(f, ZERO, below, SPEC)) <= 1e-9
        assert len(cc_results) == 2


class TestLineTransformBounds:
    @pytest.mark.parametrize("param", [ZERO, P1, INFINITY], ids=str)
    def test_infinite_phase_span_is_a_domain_error(self, param, monkeypatch):
        monkeypatch.setattr(haar, "_cc_integral", lambda *a: pytest.fail("no quadrature may start"))
        monkeypatch.setattr(haar, "adaptive_integral", lambda *a: pytest.fail("no quadrature may start"))
        with pytest.raises(DomainError, match=r"fourier_popa\(gamma=1e\+308\): \|z\|\*T = inf"):
            fourier_popa(GAUSS, param, 1e308, SPEC)

    def test_mellin_names_z(self):
        with pytest.raises(DomainError, match=r"mellin_popa\(z=.*\): \|z\|\*T = inf"):
            mellin_popa(GAUSS, P1, complex(1e308, 1e308), SPEC)

    def test_largest_finite_phase_span_still_integrates(self):
        # |z|*T finite: the transform of the Gaussian profile is 0 to working precision
        assert abs(fourier_popa(GAUSS, P1, 1e306, SPEC)) <= 1e-9


class TestPopaConvolutionTolerance:
    """The density (1+rho)/rho is inside the integrand, so the tolerances bound
    the convolution itself and not the integral before the density."""

    @staticmethod
    def _gauss_profiles(rho: float, x: float):
        # f and g are Gaussians in w = log(1+rho*t) of width ~rho, Gaussians in t of width ~1
        p = PopaParam(rho)
        (c1, s1), (c2, s2) = (0.3 * rho, 0.8 * rho), (-0.5 * rho, 1.1 * rho)
        f = lambda t: math.exp(-0.5 * ((iso_log(p, t) - c1) / s1) ** 2)
        g = lambda t: math.exp(-0.5 * ((iso_log(p, t) - c2) / s2) ** 2)
        var = s1 * s1 + s2 * s2
        y = math.log1p(rho * x) - c1 - c2
        want = (1.0 + rho) / rho * math.sqrt(2.0 * math.pi) * s1 * s2 / math.sqrt(var) * math.exp(-y * y / (2.0 * var))
        return f, g, PopaPoint(p, x), want

    @pytest.mark.parametrize("rho", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_gaussian_profiles_within_tolerance(self, rho, x):
        f, g, px, want = self._gauss_profiles(rho, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = popa_convolution(f, g, px, SPEC)
        assert abs(got - want) <= max(SPEC.abs_tol, SPEC.rel_tol * abs(want))

    @pytest.mark.parametrize("rho", [1e-12, 1e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_narrow_in_w_is_right_or_warns(self, rho, x):
        # at small rho the standard Gaussian is a spike ~rho wide in w: never a silent wrong answer
        want = math.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = popa_convolution(GAUSS, GAUSS, PopaPoint(PopaParam(rho), x), SPEC)
        if not any(issubclass(w.category, QuadratureWarning) for w in caught):
            assert abs(got - want) <= max(SPEC.abs_tol, SPEC.rel_tol * want)

    def test_rho_1e12_is_right_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = popa_convolution(GAUSS, GAUSS, PopaPoint(PopaParam(1e-12), 0.0), SPEC)
        assert got == pytest.approx(0.5 / math.sqrt(math.pi), abs=1e-9)


class TestSubnormalRhoTransforms:
    """Below rho*scale < 2**-53 the w-coordinate's density (1+rho)/rho
    overflows; the rho -> 0 forms are used instead, with weight 1+rho."""

    @pytest.mark.parametrize("rho", [1e-320, 1e-310])
    @pytest.mark.parametrize("x", [0.0, 0.7, -2.0])
    def test_convolution_matches_rho_zero(self, rho, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = popa_convolution(GAUSS, GAUSS, PopaPoint(PopaParam(rho), x), SPEC)
        assert got == popa_convolution(GAUSS, GAUSS, PopaPoint(ZERO, x), SPEC)
        assert got == pytest.approx(math.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi)), rel=1e-10)

    @pytest.mark.parametrize("rho", [1e-320, 1e-310])
    @pytest.mark.parametrize("z", [1j, 10j, 0.5 + 3j, 1e280j])
    def test_line_transforms_are_the_haar_integral(self, rho, z):
        # the character exp(-z*log(1+rho*t)) is 1 to working precision on [-T, T]
        T = SPEC.truncation
        want = complex(haar_integrate(GAUSS, Interval(ZERO, -T, T), SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mellin_popa(GAUSS, PopaParam(rho), z, SPEC)
            assert got == want
            if z.real == 0.0:
                assert fourier_popa(GAUSS, PopaParam(rho), z.imag, SPEC) == want
        assert got.real == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("call", [
        lambda p: popa_convolution(GAUSS, GAUSS, PopaPoint(p, 1e305), SPEC),
        lambda p: fourier_popa(GAUSS, p, 1e308, SPEC),
        lambda p: mellin_popa(GAUSS, p, 1e308j, SPEC),
        lambda p: haar_integrate(GAUSS, Interval(p, 0.0, 1e305), SPEC),
    ])
    def test_no_silent_inf_or_nan_when_rho_is_not_negligible(self, call):
        with pytest.raises(DomainError, match="rho=1e-320"):
            call(PopaParam(1e-320))

    def test_small_normal_rho_keeps_the_w_coordinate(self):
        # (1+rho)/rho is finite: the transform is computed in w as before
        got = fourier_popa(GAUSS, PopaParam(1e-300), 1.0, SPEC)
        assert cmath.isfinite(got)


class TestChart:
    """One chart (E, d, c), w = iso_log(t), t = E(w)/d, measure c*dw, picks the coordinate and the density of every integral."""

    BOUND = math.log(sys.float_info.max)
    ABOVE = math.nextafter(BOUND, math.inf)

    @pytest.mark.parametrize("rho, want", [
        (0.5, (math.expm1, 0.5, 3.0)),
        (math.inf, (math.exp, 1.0, 1.0)),
    ])
    def test_the_two_coordinates_off_the_t_line(self, rho, want):
        assert haar._chart(PopaParam(rho), 1.0, T=30.0) == want

    @pytest.mark.parametrize("rho", [0.0, 1e-20, 1e-320])
    def test_the_t_line(self, rho):
        E, d, c = haar._chart(PopaParam(rho), 1.0, T=30.0)
        assert (E(-0.75), d, c) == (-0.75, 1.0, 1.0 + rho)

    def test_t_line_below_two_to_the_minus_53(self):
        # rho*s = 2**-53 exactly takes expm1; one ulp of s below it, the t-line; the largest scale decides
        rho, s = 2.0**-60, 2.0**7
        below = math.nextafter(s, 0.0)
        assert haar._chart(PopaParam(rho), s)[0] is math.expm1
        assert haar._chart(PopaParam(rho), below)[2] == 1.0 + rho
        assert haar._chart(PopaParam(rho), below, T=below)[2] == 1.0 + rho
        assert haar._chart(PopaParam(rho), below, T=s)[0] is math.expm1

    def test_density_overflow_names_rho(self):
        for rho, scale in ((1e-320, 1e305), (1e-310, math.inf), (5e-324, math.inf)):
            with pytest.raises(DomainError, match=rf"rho={rho!r} is too small for the coordinate log\(1\+rho\*t\)"):
                haar._chart(PopaParam(rho), scale)
        # haar_integrate reads the density off the interval's span, and refuses it before any quadrature
        with pytest.raises(DomainError, match=r"^rho=1e-320 is too small for the coordinate log\(1\+rho\*t\)$"):
            haar_integrate(lambda t: pytest.fail("f is not called"), Interval(PopaParam(1e-320), 0.0, 1e305))

    @pytest.mark.parametrize("param", [P1, PopaParam(1e-9), INFINITY], ids=str)
    @pytest.mark.parametrize("call", [
        lambda p, spec: fourier_popa(GAUSS, p, 1.0, spec),
        lambda p, spec: popa_convolution(GAUSS, GAUSS, PopaPoint(p, 1.0), spec),
    ], ids=["fourier", "convolution"])
    def test_truncation_bound_is_log_dbl_max(self, param, call, monkeypatch):
        assert math.isfinite(math.exp(self.BOUND)) and math.isfinite(math.expm1(self.BOUND))
        assert cmath.isfinite(call(param, QuadratureSpec(truncation=self.BOUND)))
        monkeypatch.setattr(haar, "_cc_integral", lambda *a: pytest.fail("no quadrature may start"))
        E = "exp" if param.is_infinite else "expm1"
        with pytest.raises(DomainError, match=rf"^truncation=709.7827128933841 overflows {E}\(truncation\) at "
                                              rf"rho={param}: it must be at most log\(DBL_MAX\) = 709.782712893384$"):
            call(param, QuadratureSpec(truncation=self.ABOVE))

    def test_mellin_truncation_bound(self):
        assert cmath.isfinite(mellin_popa(GAUSS, P1, 0.5, QuadratureSpec(truncation=self.BOUND)))
        with pytest.raises(DomainError, match="truncation=709.7827128933841 overflows expm1"):
            mellin_popa(GAUSS, P1, 0.5, QuadratureSpec(truncation=self.ABOVE))

    @pytest.mark.parametrize("rho", [0.0, 1e-300])
    def test_t_line_has_no_truncation_bound(self, rho):
        # rho*T < 2**-53: the integral is taken in t, where nothing overflows
        assert haar._chart(PopaParam(rho), T=1e200)[2] == 1.0 + rho

    def test_infinite_phase_span_is_reported_before_the_truncation(self):
        with pytest.raises(DomainError, match=r"\|z\|\*T = inf is not finite"):
            fourier_popa(GAUSS, P1, 1e306, QuadratureSpec(truncation=1000.0))


class TestGroupChart:
    """The chart is the group's description of its Haar measure: it lives in regvar.popa, and haar uses it."""

    def test_haar_uses_the_chart_of_popa(self):
        from regvar import popa

        assert haar._chart is popa._chart
        assert not hasattr(popa, "_log_eta_over_rho")


class TestMellinKernelOverflow:
    """exp(-z*w) past DBL_MAX is a DomainError naming z and the truncation, raised before any value is formed."""

    @pytest.mark.parametrize("z, T", [(25.0, 30.0), (30.0, 30.0), (-30.0, 30.0), (2.0, 700.0)])
    def test_overflow_names_z_and_truncation(self, z, T):
        message = f"exp(-z*w) overflows for z={complex(z)} and w in [{-T!r}, {T!r}] (truncation={T!r}): " \
                  "lower |Re z| or the truncation"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            mellin_popa(GAUSS, P1, z, QuadratureSpec(truncation=T))

    def test_values_below_the_overflow_are_unchanged(self):
        got = mellin_popa(GAUSS, P1, 23.0, SPEC)
        assert format(got.real, ".15g") == "9.68852128600815e+297" and got.imag == 0.0

    def test_overflow_inside_f_is_not_renamed(self):
        with pytest.raises(OverflowError):
            fourier_popa(math.exp, INFINITY, 1.0, SPEC)


class TestDriftedRunningSum:
    """At rho near 1e-9 the first cells of fourier_popa carry error estimates near 1e8.  Once they are split,
    the running error sum keeps a residue of their rounding above the tolerance, and refinement ran to its
    budget of 4000 splits (120385 evaluations) unless that sum was made afresh."""

    @pytest.mark.parametrize("rho", [1e-11, 1e-10, 1e-9, 1e-8, 1e-7])
    def test_converges_well_inside_the_budget(self, rho, cc_results):
        for T in (30.0, 100.0, 300.0, 500.0, 700.0):
            calls = [0]

            def f(t):
                calls[0] += 1
                return GAUSS(t)

            fourier_popa(f, PopaParam(rho), 1.0, QuadratureSpec(truncation=T))
            assert cc_results[-1].converged and calls[0] == cc_results[-1].evaluations <= 4000, T


class TestSameBitsOnEveryPython:
    """Results whose last bits came out differently from Python 3.12 on, while the built-in sum of the cells was
    compensated there: the cells now add left to right on every version, so each is pinned to the bit."""

    BELL = staticmethod(lambda t: math.exp(-0.5 * t * t))
    LORENTZ = staticmethod(lambda t: 1.0 / (1.0 + t * t))
    XEXP = staticmethod(lambda t: t * math.exp(-t) if t > 0.0 else 0.0)
    SECH = staticmethod(lambda t: 1.0 / math.cosh(t) if abs(t) < 700.0 else 0.0)

    def test_fourier_popa_at_gamma_0(self):
        assert fourier_popa(self.BELL, PopaParam(0.5), 0.0).real.hex() == "0x1.028022f4c7168p+4"
        assert fourier_popa(self.XEXP, P1, 0.0).real.hex() == "0x1.9d571df710675p-1"

    def test_mellin_popa_at_z_0(self):
        assert mellin_popa(self.XEXP, INFINITY, 0).real.hex() == "0x1.ffffffffffcb4p-1"
        assert mellin_popa(self.SECH, PopaParam(7.0), 0).real.hex() == "0x1.249d3a1ae7158p+5"

    def test_popa_convolution(self):
        assert popa_convolution(self.BELL, self.BELL, PopaPoint(ZERO, 0.5)).hex() == "0x1.aa41c8fb7fbe2p+0"
        assert popa_convolution(self.LORENTZ, self.XEXP, PopaPoint(PopaParam(7.0), 2.0)).hex() == "0x1.8c4e814e97800p-1"
        assert popa_convolution(self.BELL, self.LORENTZ, PopaPoint(INFINITY, 1.0)).hex() == "0x1.d887be0f4bedcp-2"


class TestOneIntegrandOnEveryChart:
    """The pulled integrand ``c*f(E(w)/d)`` is built by one expression on every chart.  On the t-line (E the
    identity, d = 1) it gives, bit for bit, the forms written there before: f itself where c = 1, and
    ``f(-w)*g(w + x)`` in the convolution, where eta(x) is 1 to working precision and x o 0 is x."""

    BELL = staticmethod(lambda t: math.exp(-0.5 * t * t))
    WIDE = staticmethod(lambda t: 1.0 / (1.0 + (1e-3 * t) ** 2))  # not 0 at t = -1e4 +- 30
    T = SPEC.truncation

    @pytest.mark.parametrize("rho", [0.0, 1e-20])
    @pytest.mark.parametrize("x", [0.0, 3.5, -1e4])
    def test_convolution_on_the_t_line(self, rho, x):
        f, g, c = self.BELL, self.WIDE, 1.0 + rho
        want = _cc_integral(lambda w: c * f(-w) * g(w + x), -self.T, self.T, SPEC).value.real
        got = popa_convolution(f, g, PopaPoint(PopaParam(rho), x), SPEC)
        assert want != 0.0 and got.hex() == want.hex()

    def test_fourier_at_rho_0_on_the_simpson_path(self):
        z = 0.5j
        want = adaptive_integral(lambda w: self.BELL(w) * cmath.exp(-z * w), -self.T, self.T, SPEC)
        assert want.converged
        got = fourier_popa(self.BELL, ZERO, 0.5, SPEC)
        assert (got.real.hex(), got.imag.hex()) == (want.value.real.hex(), want.value.imag.hex())

    @pytest.mark.parametrize("rho, gamma", [(0.0, 40.0), (math.inf, 40.0), (math.inf, 0.5)])
    def test_fourier_on_the_cells(self, rho, gamma):
        f, E = (self.BELL, lambda w: w) if rho == 0.0 else (lambda t: math.exp(-0.5 * math.log(t) ** 2), math.exp)
        want = _cc_integral(lambda w: f(E(w)), -self.T, self.T, SPEC, complex(0.0, gamma)).value
        got = fourier_popa(f, PopaParam(rho), gamma, SPEC)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_haar_integrate_at_rho_0(self):
        want = _cc_integral(self.BELL, -2.0, 3.0, SPEC).value.real
        assert haar_integrate(self.BELL, Interval(ZERO, -2.0, 3.0), SPEC).hex() == want.hex()

    def test_haar_integrate_on_the_t_line_of_rho_1(self):
        # rho*2e-17 < 2**-53: the t-line, with c = 1 + rho = 2
        f = lambda t: 1.0 + 1e16 * t
        want = _cc_integral(lambda v: 2.0 * f(v), 1e-17, 2e-17, SPEC).value.real
        assert haar_integrate(f, Interval(P1, 1e-17, 2e-17), SPEC).hex() == want.hex()

    def test_haar_has_no_second_form(self):
        assert not hasattr(haar, "_pull") and not hasattr(haar, "_t")
