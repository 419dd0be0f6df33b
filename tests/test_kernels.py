from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from helpers import PARAM_SET, point_from_w, rel_residual
from regvar.haar import Interval, character_eval, haar_integrate
from regvar.kernels import (
    GoldieAux,
    KernelParams,
    bg_residual,
    cj_residual,
    goldie_integral,
    goldie_ode_residual,
    k_from_multiplier,
    kernel_eval,
    kernel_inverse,
)
from regvar.popa import (
    INFINITY,
    ZERO,
    DomainError,
    PopaParam,
    PopaPoint,
    circle,
    identity,
    iso_exp,
    iso_log,
)
from regvar.quadrature import QuadratureSpec, QuadratureWarning

P1 = PopaParam(1.0)
THREE_CORNERS = [ZERO, P1, INFINITY]


def haar_twin(aux: GoldieAux, u: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """goldie_integral by quadrature: the Haar integral of g between 0 and u, divided by 1+rho, signed as u."""
    value = haar_integrate(aux.g, Interval(aux.rho, min(0.0, u), max(0.0, u)), spec) / (1.0 + aux.rho.rho)
    return -value if u < 0.0 else value


cell_st = st.tuples(st.sampled_from(PARAM_SET), st.sampled_from(PARAM_SET))
w_st = st.floats(-2.0, 2.0, allow_nan=False)


class TestKernelParams:
    def test_rejects_nonfinite_kappa(self):
        with pytest.raises(DomainError):
            KernelParams(P1, P1, math.inf)
        with pytest.raises(DomainError):
            KernelParams(P1, P1, math.nan)

    def test_fields(self):
        kp = KernelParams(ZERO, INFINITY, -1.5)
        assert kp.rho is ZERO and kp.sigma is INFINITY and kp.kappa == -1.5


class TestKernelEval:
    # the nine corner cells at t = 0.5, kappa = 2
    NINE = {
        (0, 0): 1.0,
        (0, 1): math.e - 1.0,
        (0, 2): math.e,
        (1, 0): 2.0 * math.log(1.5),
        (1, 1): 1.25,
        (1, 2): 2.25,
        (2, 0): 2.0 * math.log(0.5),
        (2, 1): -0.75,
        (2, 2): 0.25,
    }

    @pytest.mark.parametrize("i", range(3))
    @pytest.mark.parametrize("j", range(3))
    def test_nine_cells_frozen(self, i, j):
        kp = KernelParams(THREE_CORNERS[i], THREE_CORNERS[j], 2.0)
        assert kernel_eval(kp, 0.5) == pytest.approx(self.NINE[(i, j)], rel=1e-14)

    def test_square_on_the_unit_cell(self):
        kp = KernelParams(P1, P1, 2.0)
        assert kernel_eval(kp, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_square_root_multiplicative(self):
        kp = KernelParams(INFINITY, INFINITY, 0.5)
        assert kernel_eval(kp, 4.0) == pytest.approx(2.0, rel=1e-15)

    @settings(max_examples=100)
    @given(cell_st)
    def test_kappa_zero_is_constant_identity(self, cell):
        rho, sigma = cell
        kp = KernelParams(rho, sigma, 0.0)
        e_out = identity(sigma).value
        for w in (-1.5, 0.0, 0.9):
            assert kernel_eval(kp, iso_exp(rho, w)) == e_out

    def test_maps_identity_to_identity(self):
        for rho in PARAM_SET:
            for sigma in PARAM_SET:
                kp = KernelParams(rho, sigma, 1.7)
                assert kernel_eval(kp, identity(rho).value) == pytest.approx(
                    identity(sigma).value, abs=1e-15
                )

    @settings(max_examples=300)
    @given(cell_st, st.floats(-3.0, 3.0), w_st, w_st)
    def test_additivity(self, cell, kappa, w1, w2):
        rho, sigma = cell
        kp = KernelParams(rho, sigma, kappa)
        u, v = point_from_w(rho, w1), point_from_w(rho, w2)
        uv = circle(u, v).value
        lhs = kernel_eval(kp, uv)
        rhs = circle(
            PopaPoint(sigma, kernel_eval(kp, u.value)),
            PopaPoint(sigma, kernel_eval(kp, v.value)),
        ).value
        assert rel_residual(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("kappa,increasing", [(1.5, True), (-0.5, False)])
    def test_monotonicity(self, kappa, increasing):
        kp = KernelParams(P1, INFINITY, kappa)
        ts = [iso_exp(P1, w) for w in np.linspace(-2.0, 2.0, 9)]
        vals = [kernel_eval(kp, t) for t in ts]
        diffs = np.diff(vals)
        assert all(d > 0 for d in diffs) if increasing else all(d < 0 for d in diffs)

    @settings(max_examples=200)
    @given(cell_st, st.floats(-3.0, 3.0), w_st)
    def test_inverse_round_trip(self, cell, kappa, w):
        rho, sigma = cell
        if abs(kappa) < 1e-3:
            return
        kp = KernelParams(rho, sigma, kappa)
        t = iso_exp(rho, w)
        z = kernel_eval(kp, t)
        back = kernel_inverse(kp, z)
        assert rel_residual(back, t) <= 1e-9

    def test_inverse_rejects_kappa_zero(self):
        with pytest.raises(DomainError):
            kernel_inverse(KernelParams(P1, P1, 0.0), 1.0)

    def test_sigma_cells_share_one_multiplicative_image(self):
        # 1 + sigma*K_sigma(t) equals the sigma=inf kernel for every finite sigma,
        # and the sigma=0 kernel is its logarithm
        mult = KernelParams(P1, INFINITY, 2.0)
        flat = KernelParams(P1, ZERO, 2.0)
        for t in (0.3, 1.0, 4.2):
            target = kernel_eval(mult, t)
            for s in (1e-6, 0.5, 1.0, 40.0):
                kp = KernelParams(P1, PopaParam(s), 2.0)
                assert 1.0 + s * kernel_eval(kp, t) == pytest.approx(target, rel=1e-12)
            assert kernel_eval(flat, t) == pytest.approx(math.log(target), rel=1e-12)

    @pytest.mark.parametrize("rho, sigma, kappa, t", [
        (1e300, 1e300, 1.001, 1e8),  # w = 709.9 > log(DBL_MAX), K = 2.03e8
        (1e300, 1e300, 1.9, 1e8),  # w = 1347.5, K = 1.6e285
        (1.0, 1e300, 1.0, 1e307),  # w = log1p(1e307) < log(DBL_MAX): expm1(w)/sigma in range
        (1.0, 1e300, 2.0, 1e150),  # w = 690.8
        (1.0, 1.0, 1000.0, 10.0),  # past the float range
        (1.0, INFINITY.rho, 1000.0, 10.0),
        (1e300, 0.5, 1.0005, 1e8),  # expm1(w) is finite, expm1(w)/sigma is not
    ])
    def test_near_and_past_the_float_range(self, rho, sigma, kappa, t):
        import mpmath

        with mpmath.workdps(40):
            w = kappa * mpmath.log1p(mpmath.mpf(rho) * t)
            exact = mpmath.exp(w) if math.isinf(sigma) else mpmath.expm1(w) / mpmath.mpf(sigma)
        got = kernel_eval(KernelParams(PopaParam(rho), PopaParam(sigma), kappa), t)
        if exact > 1.7976931348623157e308:
            assert got == math.inf
        else:
            assert abs(got - exact) <= 1e-12 * exact


class TestCocycles:
    def test_affine_pair_from_multiplier(self):
        g = lambda t: math.exp(2.0 * math.log1p(t))  # (1+t)^2, multiplicative at rho=1
        K = k_from_multiplier(g, 3.0)
        rng = np.random.default_rng(11)
        for w1, w2 in rng.uniform(-1.5, 1.5, size=(50, 2)):
            u, v = iso_exp(P1, float(w1)), iso_exp(P1, float(w2))
            assert abs(bg_residual(K, g, P1, u, v)) <= 1e-10 * max(1.0, abs(K(u)), abs(K(v)))

    def test_affine_pair_from_finite_sigma_kernel(self):
        # a kernel into a finite-sigma group satisfies the affine equation with
        # multiplier g = 1 + sigma * K
        kp = KernelParams(P1, PopaParam(0.5), 1.3)
        K = lambda t: kernel_eval(kp, t)
        g = lambda t: 1.0 + 0.5 * K(t)
        rng = np.random.default_rng(12)
        for w1, w2 in rng.uniform(-1.5, 1.5, size=(50, 2)):
            u, v = iso_exp(P1, float(w1)), iso_exp(P1, float(w2))
            assert abs(bg_residual(K, g, P1, u, v)) <= 1e-10 * max(1.0, abs(K(u)), abs(K(v)))

    def test_mismatched_multiplier_detected(self):
        g = lambda t: math.exp(2.0 * math.log1p(t))
        K = k_from_multiplier(g, 3.0)
        wrong = lambda t: math.exp(0.5 * math.log1p(t))
        assert abs(bg_residual(K, wrong, P1, 1.0, 1.0)) > 1e-3

    def test_multiplicative_residual(self):
        good = lambda t: math.exp(-0.7 * math.log1p(t))
        rng = np.random.default_rng(13)
        for w1, w2 in rng.uniform(-1.5, 1.5, size=(50, 2)):
            u, v = iso_exp(P1, float(w1)), iso_exp(P1, float(w2))
            assert abs(cj_residual(good, P1, u, v)) <= 1e-12 * max(1.0, abs(good(u) * good(v)))
        bad = lambda t: 2.0 + t
        assert abs(cj_residual(bad, P1, 1.0, 1.0)) > 0.5

    def test_multiplier_normalisation_enforced(self):
        with pytest.raises(DomainError):
            k_from_multiplier(lambda t: 2.0 + t, 1.0)


class TestGoldieAux:
    def test_requires_finite_positive_rho(self):
        with pytest.raises(DomainError):
            GoldieAux(ZERO, 1.0)
        with pytest.raises(DomainError):
            GoldieAux(INFINITY, 1.0)
        with pytest.raises(DomainError):
            GoldieAux(P1, math.inf)

    def test_g_values(self):
        aux = GoldieAux(P1, 2.0)
        assert aux.g(0.0) == 1.0
        assert aux.g(1.0) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("gamma", [-1.0, 0.5, 2.0])
    def test_g_prime_matches_central_difference(self, gamma):
        aux = GoldieAux(P1, gamma)
        for u in (0.1, 1.0, 5.0):
            h = 1e-6 * (1.0 + abs(u))
            numeric = (aux.g(u + h) - aux.g(u - h)) / (2.0 * h)
            assert aux.g_prime(u) == pytest.approx(numeric, rel=1e-8)


class TestGoldieIntegral:
    def test_closed_forms(self):
        assert goldie_integral(GoldieAux(P1, 1.0), 1.0) == pytest.approx(0.5, rel=1e-15)
        assert goldie_integral(GoldieAux(P1, 0.0), 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        aux = GoldieAux(PopaParam(2.0), 1.0)
        # (1 - 1/(1+2u)) / 2 at u = 1 -> (1 - 1/3)/2 = 1/3
        assert goldie_integral(aux, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_vanishes_at_identity(self):
        assert goldie_integral(GoldieAux(P1, 0.7), 0.0) == 0.0

    @pytest.mark.parametrize("gamma", [-1.0, 0.5, 2.0])
    @pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
    def test_quadrature_twin(self, gamma, u):
        aux = GoldieAux(P1, gamma)
        exact = goldie_integral(aux, u)
        quad = haar_twin(aux, u)
        assert quad == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_quadrature_twin_negative_u(self):
        aux = GoldieAux(P1, 0.5)
        u = -0.5
        assert haar_twin(aux, u) == pytest.approx(goldie_integral(aux, u), rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_scipy_oracle(self, gamma):
        aux = GoldieAux(P1, gamma)
        for u in (0.3, 2.0):
            ref, _ = integrate.quad(lambda t: aux.g(t) / (1.0 + t), 0.0, u, epsabs=1e-13)
            assert goldie_integral(aux, u) == pytest.approx(ref, rel=1e-10)

    def test_haar_integral_cross_check(self):
        # G(u) is the Haar integral of g over (0, u) divided by (1+rho)
        aux = GoldieAux(P1, 0.8)
        u = 2.5
        via_haar = haar_integrate(aux.g, Interval(P1, 0.0, u)) / 2.0
        assert goldie_integral(aux, u) == pytest.approx(via_haar, rel=1e-9)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 7.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.8, -1.3])
    @pytest.mark.parametrize("u", [-0.1, 0.3, 2.5, 10.0])
    def test_quadrature_twin_is_tight(self, rho, gamma, u):
        aux = GoldieAux(PopaParam(rho), gamma)
        assert haar_twin(aux, u) == pytest.approx(goldie_integral(aux, u), rel=1e-13)

    def test_quadrature_twin_warns_on_non_convergence(self):
        tight = QuadratureSpec(abs_tol=1e-300, rel_tol=0.0, max_subdivisions=3)
        with pytest.warns(QuadratureWarning, match="did not converge"):
            v = haar_twin(GoldieAux(P1, 0.8), 2.5, tight)
        assert v == pytest.approx(goldie_integral(GoldieAux(P1, 0.8), 2.5), rel=1e-6)


class TestPastTheFloatRange:
    """Where (1+rho*t)^-gamma passes the float range, g, g_prime and G are +-inf with the sign of the true value, or
    finite where their factor gamma*rho or 1/(gamma*rho) brings them back into range."""

    @pytest.mark.parametrize("gamma, t, sign", [(-1000.0, 1e10, 1.0), (1000.0, -0.999999, -1.0)])
    def test_signed_inf(self, gamma, t, sign):
        aux = GoldieAux(P1, gamma)
        assert goldie_integral(aux, t) == sign * math.inf
        assert aux.g(t) == math.inf
        assert aux.g_prime(t) == -math.copysign(math.inf, gamma)

    def test_integral_near_the_edge(self):
        # gamma = -100, rho = 1: expm1(100*w) overflows from w = log1p(u) = 7.0978 on, while G(u) ~ exp(100*w)/100
        # stays finite up to w = 7.1438
        aux = GoldieAux(P1, -100.0)
        for w in (7.0, 7.09, 7.0978):  # below the edge: the closed form, unchanged
            u = math.expm1(w)
            assert goldie_integral(aux, u) == -math.expm1(100.0 * math.log1p(u)) / -100.0 < math.inf
        for w in (7.0979, 7.12, 7.1437):  # past it: exp(100*w - log(100)), against mpmath
            u = math.expm1(w)
            want = (1 - (1 + mpmath.mpf(u)) ** 100) / -100
            assert goldie_integral(aux, u) == pytest.approx(float(want), rel=1e-12)
        assert goldie_integral(aux, math.expm1(7.144)) == math.inf

    def test_g_prime_past_the_edge_of_exp(self):
        # gamma = -100, rho = 1e-3: exp(99*log1p(rho*t)) overflows, and 0.1 times it is finite up to 712.08
        aux = GoldieAux(PopaParam(1e-3), -100.0)
        for w in (709.0, 710.5, 712.0):
            t = math.expm1(w / 99.0) / 1e-3
            want = 100 * mpmath.mpf(1e-3) * (1 + mpmath.mpf(1e-3) * mpmath.mpf(t)) ** 99
            assert aux.g_prime(t) == pytest.approx(float(want), rel=1e-12)
        assert aux.g_prime(math.expm1(712.1 / 99.0) / 1e-3) == math.inf


def _past_rho_t_max():
    """(rho, t) on both sides of rho*t = DBL_MAX, t = DBL_MAX/rho times 0.5, 1 -+ 2**-52 and 2 where finite, and
    t = 1.7e308."""
    for rho in (1.5, 7.0, 1e10, 1e300):
        ts = [sys.float_info.max / rho * f for f in (0.5, 1.0 - 2.0**-52, 1.0 + 2.0**-52, 2.0)]
        yield from ((rho, t) for t in [*filter(math.isfinite, ts), 1.7e308])


class TestPastRhoTDblMax:
    """iso_log is log1p(rho*t) where rho*t is finite and log(rho) + log(t) where it overflows, and the maps that read
    it are finite there, against mpmath at 40 digits.  A map whose value is exp(k*w), w = iso_log(t) ~ 700 to 1400,
    turns the rounding of w into a relative error of |k*w|*2**-53: k is at most 1/2 here."""

    @pytest.mark.parametrize("rho, t", list(_past_rho_t_max()), ids=str)
    def test_against_mpmath(self, rho, t):
        p = PopaParam(rho)
        w = iso_log(p, t)
        if rho * t < math.inf:
            assert w.hex() == math.log1p(rho * t).hex()
        with mpmath.workdps(40):
            r, L = mpmath.mpf(rho), mpmath.log1p(mpmath.mpf(rho) * mpmath.mpf(t))
            back = iso_exp(p, w)
            assert abs(back - t) <= abs(w) * 2.0**-52 * t  # the round trip reads w's rounding
            cases = [
                ("iso_log", w, L),
                ("iso_exp(iso_log(t))", back, mpmath.expm1(mpmath.mpf(w)) / r),
                ("kernel_eval", kernel_eval(KernelParams(p, p, 0.5), t), mpmath.expm1(L / 2) / r),
                ("kernel_eval sigma=0", kernel_eval(KernelParams(p, ZERO, 1.0), t), L),
                ("kernel_inverse", kernel_inverse(KernelParams(p, p, 2.0), t), mpmath.expm1(L / 2) / r),
                ("goldie_integral gamma=0", goldie_integral(GoldieAux(p, 0.0), t), L / r),
                ("goldie_integral gamma=1/2", goldie_integral(GoldieAux(p, 0.5), t), -mpmath.expm1(-L / 2) / (r / 2)),
                ("goldie_integral gamma=-1/2", goldie_integral(GoldieAux(p, -0.5), t), mpmath.expm1(L / 2) / (r / 2)),
                ("character_eval", character_eval(p, 0.5, t), mpmath.exp(0.5j * L)),
            ]
            for name, got, want in cases:
                assert abs(got - want) <= 1e-13 * abs(want), name


class TestTinyGammaAndRho:
    """Where gamma*rho or gamma*w is subnormal or 0, G is (w/rho)*(-expm1(-x)/x), x = gamma*w, the factor 1 where
    x is subnormal or 0, where dividing by gamma*rho would lose its digits or divide by 0.  The grid holds G(1) = 1 at
    (gamma, rho) = (1e-30, 1e-300), G(5) = 5 at (1e-200, 1e-200) and G(5) = log 6 at (1e-320, 1)."""

    @pytest.mark.parametrize("gamma", [1e-320, -1e-320, 1e-310, 1e-300, -1e-200, 1e-200, 1e-30, -1e-30, 1e-10])
    @pytest.mark.parametrize("rho", [1e-310, 1e-300, 1e-200, 1e-30, 1.0])
    def test_against_mpmath(self, gamma, rho):
        aux = GoldieAux(PopaParam(rho), gamma)
        for u in (-0.5, 1.0, 5.0, 1e10, 1e300):
            if abs(rho * u) < sys.float_info.min:  # a subnormal rho*u: log1p(rho*u) has lost digits before G is formed
                continue
            with mpmath.workdps(60):
                g, r = mpmath.mpf(gamma), mpmath.mpf(rho)
                want = -mpmath.expm1(-g * mpmath.log1p(r * u)) / (g * r)
            assert goldie_integral(aux, u) == pytest.approx(float(want), rel=1e-15, abs=0.0), u


class TestOutsideTheCarrier:
    @pytest.mark.parametrize("call", [
        lambda aux: aux.g(-2.0),
        lambda aux: aux.g_prime(-2.0),
        lambda aux: goldie_integral(aux, -2.0),
    ], ids=["g", "g_prime", "goldie_integral"])
    def test_a_point_outside_names_it(self, call):
        # iso_log checks the point, where log1p raised a bare "math domain error"
        with pytest.raises(DomainError, match=r"^point -2\.0 violates 1 \+ 1\.0\*t > 0$"):
            call(GoldieAux(P1, 1.0))


class TestGoldieOde:
    def test_zero_exactly_at_matching_gamma(self):
        c1, kappa = -3.0, 2.0
        gamma = -c1 / (kappa * 1.0)
        aux = GoldieAux(P1, gamma)
        for u in (0.0, 0.4, 3.0):
            assert abs(goldie_ode_residual(aux, c1, kappa, u)) <= 1e-14

    def test_nonzero_off_the_matching_gamma(self):
        aux = GoldieAux(P1, 1.0)
        assert abs(goldie_ode_residual(aux, -3.0, 2.0, 1.0)) > 1e-3

    def test_rejects_zero_kappa(self):
        with pytest.raises(DomainError):
            goldie_ode_residual(GoldieAux(P1, 1.0), 1.0, 0.0, 1.0)
