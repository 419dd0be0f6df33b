from __future__ import annotations

import cmath
import math
import sys
import warnings

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
    pullback_multiplicative,
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
from regvar.quadrature import QuadratureSpec, QuadratureWarning

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


class TestPullback:
    def test_constant_maps_to_weighted_constant(self):
        g = pullback_multiplicative(lambda t: 1.0, P1)
        assert g(1.0) == 2.0
        assert g(5.0) == 2.0

    def test_requires_positive_argument(self):
        g = pullback_multiplicative(lambda t: 1.0, P1)
        with pytest.raises(DomainError):
            g(0.0)

    def test_requires_finite_param(self):
        with pytest.raises(DomainError):
            pullback_multiplicative(lambda t: 1.0, INFINITY)
        with pytest.raises(DomainError):
            pullback_multiplicative(lambda t: 1.0, ZERO)

    def test_transports_haar_integral(self):
        # integral over the rho=1 group equals dt/t integral of the pullback
        fn = lambda t: math.exp(-abs(math.log1p(t)))
        lhs = haar_integrate(fn, Interval(P1, 0.05, 10.0), SPEC)
        g = pullback_multiplicative(fn, P1)
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

    def test_requires_finite_param(self):
        with pytest.raises(DomainError):
            mellin_popa(lambda t: 1.0, ZERO, 0.5, SPEC)
        with pytest.raises(DomainError):
            mellin_popa(lambda t: 1.0, INFINITY, 0.5, SPEC)

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


class TestNonConvergenceWarning:
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


GAUSS = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


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
    """One chart w = L(d*t), t = E(w)/d, measure c*dw, picks the coordinate and the density of every integral."""

    BOUND = math.log(sys.float_info.max)
    ABOVE = math.nextafter(BOUND, math.inf)

    @pytest.mark.parametrize("rho, want", [
        (0.5, (math.log1p, math.expm1, 0.5, 3.0)),
        (math.inf, (math.log, math.exp, 1.0, 1.0)),
    ])
    def test_the_two_coordinates_off_the_t_line(self, rho, want):
        assert haar._chart(PopaParam(rho), 1.0, T=30.0) == want

    @pytest.mark.parametrize("rho", [0.0, 1e-20, 1e-320])
    def test_the_t_line(self, rho):
        L, E, d, c = haar._chart(PopaParam(rho), 1.0, T=30.0)
        assert (L(0.25), E(-0.75), d, c) == (0.25, -0.75, 1.0, 1.0 + rho)

    def test_t_line_below_two_to_the_minus_53(self):
        # rho*s = 2**-53 exactly takes log1p; one ulp of s below it, the t-line; the largest scale decides
        rho, s = 2.0**-60, 2.0**7
        below = math.nextafter(s, 0.0)
        assert haar._chart(PopaParam(rho), s)[0] is math.log1p
        assert haar._chart(PopaParam(rho), below)[3] == 1.0 + rho
        assert haar._chart(PopaParam(rho), below, T=below)[3] == 1.0 + rho
        assert haar._chart(PopaParam(rho), below, T=s)[0] is math.log1p

    def test_density_overflow_names_rho(self):
        with pytest.raises(DomainError, match=r"rho=1e-320 is too small for the coordinate log\(1\+rho\*t\)"):
            haar._chart(PopaParam(1e-320), 1e305)

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
        assert haar._chart(PopaParam(rho), T=1e200)[3] == 1.0 + rho

    def test_infinite_phase_span_is_reported_before_the_truncation(self):
        with pytest.raises(DomainError, match=r"\|z\|\*T = inf is not finite"):
            fourier_popa(GAUSS, P1, 1e306, QuadratureSpec(truncation=1000.0))
