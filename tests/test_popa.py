from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAM_SET, point_from_w, rel_residual
from regvar.haar import Interval, haar_interval_measure
from regvar.popa import (
    _BLOCK,
    INFINITY,
    ZERO,
    DomainError,
    ParameterMismatchError,
    PopaParam,
    PopaPoint,
    _chart,
    _is_member,
    _powers,
    _t,
    circle,
    eta,
    identity,
    inverse,
    iso_exp,
    iso_log,
    leq,
    norm,
    power,
)

P_HALF = PopaParam(0.5)
P1 = PopaParam(1.0)

params_st = st.sampled_from(PARAM_SET)
w_st = st.floats(-2.0, 2.0, allow_nan=False)


class TestParam:
    def test_variants(self):
        assert ZERO.is_zero and not ZERO.is_finite
        assert INFINITY.is_infinite
        assert P1.is_finite

    def test_negative_and_nan_rejected(self):
        with pytest.raises(DomainError):
            PopaParam(-0.5)
        with pytest.raises(DomainError):
            PopaParam(float("nan"))

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        with pytest.raises(DomainError):
            PopaParam(flag)

    def test_centre(self):
        assert PopaParam(2.0).centre == -0.5
        assert ZERO.centre == -math.inf
        assert INFINITY.centre == 0.0

    def test_parse_round_trip(self):
        for text in ("0", "inf", "0.5", "1e6"):
            assert str(PopaParam.parse(text)) == str(PopaParam.parse(str(PopaParam.parse(text))))
        assert PopaParam.parse("0") == ZERO
        assert PopaParam.parse("inf") == INFINITY
        assert PopaParam.parse("0.5").rho == 0.5

    def test_parse_rejects_junk(self):
        for text in ("-1", "nan", "abc", "Infinity", ""):
            with pytest.raises(DomainError):
                PopaParam.parse(text)

    @pytest.mark.parametrize("make", [lambda: PopaParam(-0.0), lambda: PopaParam.parse("-0")])
    def test_negative_zero_is_zero(self, make):
        p = make()
        assert repr(p) == "PopaParam(rho=0.0)" and str(p) == "0" and math.copysign(1.0, p.rho) == 1.0
        assert p == ZERO and hash(p) == hash(ZERO)
        assert (p.centre, identity(p).value, eta(p, 5.0), iso_exp(p, 2.0)) == (-math.inf, 0.0, 1.0, 2.0)


class TestDomain:
    def test_guard_band(self):
        # the pole -1/rho is refused, and so is 1e300 * -1e-300, which rounds to -1; the float above the pole is a member
        with pytest.raises(DomainError):
            PopaPoint(P1, -1.0)
        with pytest.raises(DomainError):
            PopaPoint(PopaParam(1e300), -1e-300)
        edge = math.nextafter(-1.0, 0.0)
        assert PopaPoint(P1, edge).value == edge

    def test_multiplicative_carrier(self):
        with pytest.raises(DomainError):
            PopaPoint(INFINITY, 0.0)
        with pytest.raises(DomainError):
            PopaPoint(INFINITY, -3.0)

    def test_nonfinite_value(self):
        with pytest.raises(DomainError):
            PopaPoint(ZERO, math.inf)
        with pytest.raises(DomainError):
            PopaPoint(ZERO, math.nan)

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatchError):
            circle(PopaPoint(ZERO, 1.0), PopaPoint(P1, 1.0))


def _floor_rule(rho: float, t: float) -> bool:
    """The carrier test as it was with a floor: finite t, 1 + rho*t above 1e-300, and t above 1e-300 at rho = inf."""
    if not math.isfinite(t):
        return False
    if rho == math.inf:
        return t > 1e-300
    return rho == 0.0 or 1.0 + rho * t > 1e-300


def _passes(param: PopaParam, t: float) -> bool:
    try:
        PopaPoint(param, t)
    except DomainError:
        return False
    return True


class TestCarrierTest:
    """``1 + rho*t > 0`` against :func:`_floor_rule`: at finite rho a positive 1 + fl(rho*t) is at least 2**-53 (for
    -1 < fl(rho*t) < -1/2 the sum is exact), so the floor never acted; at rho = inf it refused (0, 1e-300]."""

    FINITE = [0.0, 5e-324, 1e-320, 3e-300, 1e-20, 0.1, 1.0, 7.0, 1e20, 1e300, sys.float_info.max]

    @staticmethod
    def doubles(seed: int, n: int = 20000) -> list[float]:
        """n doubles of uniform random bits (every sign and exponent, infinities and nans among them), and n
        uniform in (0, 1e-300], the stretch that the floor refused at rho = inf."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        tiny = rng.integers(1, np.float64(1e-300).view(np.uint64), size=n, dtype=np.uint64, endpoint=True)
        return [*bits.tolist(), *tiny.view(np.float64).tolist()]

    @staticmethod
    def sweep(t: float, steps: int = 40) -> list[float]:
        """t and the ``steps`` floats on either side of it."""
        out = [t]
        for toward in (-math.inf, math.inf):
            x = t
            for _ in range(steps):
                x = math.nextafter(x, toward)
                out.append(x)
        return out

    @pytest.mark.parametrize("rho", FINITE)
    @pytest.mark.parametrize("seed", [29, 30])
    def test_random_doubles_at_finite_rho(self, rho, seed):
        p = PopaParam(rho)
        for t in self.doubles(seed):
            assert _is_member(p, t) == _passes(p, t) == _floor_rule(rho, t), t

    @pytest.mark.parametrize("rho", [1e-320, 3e-300, 0.1, 1.0, 7.0, 1e300])
    def test_around_the_pole(self, rho):
        p = PopaParam(rho)
        ts = self.sweep(max(p.centre, -sys.float_info.max))  # -1/1e-320 overflows to -inf
        assert any(map(_floor_rule, [rho] * len(ts), ts)) and not all(map(_floor_rule, [rho] * len(ts), ts))
        for t in ts:
            assert _is_member(p, t) == _passes(p, t) == _floor_rule(rho, t), t

    @pytest.mark.parametrize("seed", [29, 30])
    def test_at_rho_inf_exactly_the_floor_moves(self, seed):
        ts = [*self.doubles(seed), *self.sweep(0.0), *self.sweep(1e-300), *self.sweep(-1e-300), 5e-324, 1e-310]
        for t in ts:
            assert _is_member(INFINITY, t) == _passes(INFINITY, t), t
            assert (_is_member(INFINITY, t) != _floor_rule(math.inf, t)) == (0.0 < t <= 1e-300), t

    def test_every_kind_of_input(self):
        for p in (ZERO, P1, INFINITY):
            assert [_is_member(p, t) for t in (math.nan, math.inf, -math.inf)] == [False] * 3
            assert _is_member(p, True) and _is_member(p, 1) and _is_member(p, np.float32(0.5))
        assert not _is_member(INFINITY, -0.0) and not _is_member(INFINITY, 0.0) and _is_member(INFINITY, 5e-324)
        with pytest.raises(ValueError):
            _is_member(P1, "x")


class TestArithmetic:
    def test_circle_values(self):
        assert circle(PopaPoint(P1, 1.0), PopaPoint(P1, 1.0)).value == 3.0
        assert circle(PopaPoint(ZERO, 2.0), PopaPoint(ZERO, 3.0)).value == 5.0
        assert circle(PopaPoint(INFINITY, 2.0), PopaPoint(INFINITY, 3.0)).value == 6.0

    def test_inverse_values(self):
        assert inverse(PopaPoint(P1, 1.0)).value == -0.5
        assert inverse(PopaPoint(ZERO, 2.0)).value == -2.0
        assert inverse(PopaPoint(INFINITY, 4.0)).value == 0.25

    def test_eta(self):
        assert eta(P1, 0.5) == 1.5
        assert eta(ZERO, 123.0) == 1.0
        assert eta(INFINITY, 0.25) == 0.25

    def test_identity(self):
        assert identity(ZERO).value == 0.0
        assert identity(P1).value == 0.0
        assert identity(INFINITY).value == 1.0

    def test_power_closed_forms(self):
        assert power(P1, 0.1, 3) == pytest.approx(1.1**3 - 1.0, rel=1e-15)
        assert power(ZERO, 0.25, 4) == 1.0
        assert power(INFINITY, 2.0, 5) == 32.0
        assert power(P1, 0.1, 0) == 0.0

    @pytest.mark.parametrize("param", PARAM_SET)
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    def test_power_matches_iteration(self, param, n):
        delta = point_from_w(param, 0.03)
        acc = identity(param)
        for _ in range(n):
            acc = circle(acc, delta)
        direct = power(param, delta.value, n)
        assert rel_residual(direct, acc.value) <= 1e-10

    @pytest.mark.parametrize("rho, t", [(7.0, 1.7e308), (1e300, 1e10)])
    def test_inverse_where_rho_t_overflows_rounds_to_the_pole(self, rho, t):
        # the true inverse, -1/rho + 1/(rho*(1 + rho*t)), is far less than an ulp from the pole -1/rho, outside the
        # carrier at these rho; -t/(1 + rho*t) would be -0.0, a group member
        p = PopaParam(rho)
        assert p._row.inverse(t) == -1.0 / rho
        with pytest.raises(DomainError, match="violates"):
            inverse(PopaPoint(p, t))

    @pytest.mark.parametrize("param", PARAM_SET)
    def test_negative_power_is_inverse_iterate(self, param):
        delta = point_from_w(param, 0.4)
        inv = inverse(delta)
        assert power(param, delta.value, -3) == pytest.approx(power(param, inv.value, 3), rel=1e-12)

    def test_power_past_the_float_range_is_inf_at_every_rho(self):
        assert power(PopaParam(10.0), 2e307, 0) == 0.0  # 10*2e307 overflows: the step is log(10) + log(2e307)
        assert power(PopaParam(10.0), 2e307, 1) == pytest.approx(2e307, rel=1e-13)
        assert power(PopaParam(1.0), 1.0, 2000) == math.inf
        assert power(INFINITY, 1e10, 40) == math.inf
        assert power(ZERO, -1e308, 10) == -math.inf

    def test_below_the_float_range_an_iterate_is_the_carriers_lower_end(self):
        # -inf at rho = 0, the pole -1/rho at a finite rho, 0.0 at rho = inf: each the group's centre
        assert power(ZERO, -1e300, 10**10) == -math.inf == ZERO.centre
        assert power(PopaParam(1.0), 1.0, -2000) == -1.0 == P1.centre
        assert power(INFINITY, 1e-310, 3) == 0.0 == INFINITY.centre
        assert iso_exp(PopaParam(2.0), -800.0) == -0.5 == PopaParam(2.0).centre
        assert iso_exp(INFINITY, -800.0) == 0.0

    @pytest.mark.parametrize("param", [ZERO, P1, INFINITY])
    def test_power_of_an_n_past_the_float_range(self, param):
        n, identity = 10**309, 1.0 if param.is_infinite else 0.0
        assert power(param, 1.5, n) == math.inf
        assert power(param, identity, n) == power(param, identity, -n) == identity  # no 0*inf nan
        assert power(param, 1.5, -n) == {0.0: -math.inf, 1.0: -1.0, math.inf: 0.0}[param.rho]  # -1.0: the pole -1/rho
        assert power(param, 1.5, 2**1100) == power(param, 1.5, 10**400) == math.inf
        assert list(_powers(param, 1.5, [n, -n, 3])) == [power(param, 1.5, k) for k in (n, -n, 3)]  # Beck's stream

    def test_power_of_an_n_past_the_float_range_is_n_delta_rounded_once(self):
        assert power(ZERO, 0.1, 10**309) == 1e308 and power(ZERO, -0.1, 10**309) == -1e308
        assert power(ZERO, 2.0**-1074, 2**1100) == 2.0**26
        # n*delta rounds to inf from 2**1024 - 2**970, halfway between DBL_MAX and 2**1024, on
        assert power(ZERO, 0.5, 2**1025 - 2**971 - 1) == sys.float_info.max
        assert power(ZERO, 0.5, 2**1025 - 2**971) == math.inf and power(ZERO, -0.5, 2**1025 - 2**971) == -math.inf
        # at finite rho, n*log1p(rho*delta) is finite for tiny delta: (1 + 1e-307)**(10**309) - 1 is about e**100 - 1,
        # the rounding of 1e-307 amplified 100 times
        assert power(P1, 1e-307, 10**309) == pytest.approx(math.expm1(100.0), rel=1e-13)
        assert power(INFINITY, 0.5, 10**309) == 0.0 and power(INFINITY, 0.5, -10**309) == math.inf


class TestGroupLaws:
    @settings(max_examples=200)
    @given(params_st, w_st, w_st, w_st)
    def test_associativity(self, param, w1, w2, w3):
        x, y, z = (point_from_w(param, w) for w in (w1, w2, w3))
        lhs = circle(circle(x, y), z).value
        rhs = circle(x, circle(y, z)).value
        assert rel_residual(lhs, rhs) <= 1e-12

    @settings(max_examples=200)
    @given(params_st, w_st, w_st)
    def test_commutativity(self, param, w1, w2):
        x, y = point_from_w(param, w1), point_from_w(param, w2)
        assert circle(x, y).value == circle(y, x).value

    @settings(max_examples=200)
    @given(params_st, w_st)
    def test_identity_and_inverse(self, param, w):
        x = point_from_w(param, w)
        e = identity(param)
        assert circle(x, e).value == pytest.approx(x.value, abs=1e-12 * (1 + abs(x.value)))
        back = circle(x, inverse(x)).value
        assert abs(back - e.value) <= 1e-12 * (1.0 + abs(x.value))

    @settings(max_examples=200)
    @given(params_st, w_st, w_st)
    def test_iso_log_is_a_homomorphism(self, param, w1, w2):
        x, y = point_from_w(param, w1), point_from_w(param, w2)
        lhs = iso_log(param, circle(x, y).value)
        rhs = iso_log(param, x.value) + iso_log(param, y.value)
        assert rel_residual(lhs, rhs) <= 1e-12

    @settings(max_examples=200)
    @given(params_st, w_st)
    def test_iso_exp_inverts_iso_log(self, param, w):
        x = point_from_w(param, w)
        back = iso_exp(param, iso_log(param, x.value))
        assert back == pytest.approx(x.value, rel=1e-12, abs=1e-15)


class TestNorm:
    def test_closed_forms(self):
        assert norm(PopaPoint(P1, 1.0)) == pytest.approx(1.3862943611198906, rel=1e-15)
        assert norm(PopaPoint(ZERO, -2.0)) == 2.0
        assert norm(PopaPoint(INFINITY, math.e)) == pytest.approx(1.0, abs=1e-12)
        assert norm(identity(P_HALF)) == 0.0

    @settings(max_examples=200)
    @given(params_st, w_st)
    def test_nonnegative_and_definite(self, param, w):
        x = point_from_w(param, w)
        n = norm(x)
        assert n >= 0.0
        if x.value == identity(param).value:
            assert n == 0.0
        else:
            assert n > 0.0

    @settings(max_examples=200)
    @given(params_st, w_st)
    def test_symmetry(self, param, w):
        x = point_from_w(param, w)
        assert norm(inverse(x)) == pytest.approx(norm(x), rel=1e-12, abs=1e-15)

    @settings(max_examples=300)
    @given(params_st, w_st, w_st)
    def test_subadditive(self, param, w1, w2):
        x, y = point_from_w(param, w1), point_from_w(param, w2)
        slack = 1e-12 * (1.0 + norm(x) + norm(y))
        assert norm(circle(x, y)) <= norm(x) + norm(y) + slack

    def test_small_rho_limit_matches_absolute_value(self):
        p = PopaParam(1e-6)
        for t in (0.3, 1.0, 2.5, -0.7):
            assert norm(PopaPoint(p, t)) == pytest.approx(abs(t), rel=1e-4)

    @pytest.mark.parametrize("rho", [1e-320, 1e-310])
    @pytest.mark.parametrize("t", [0.7, -0.3, 2.5])
    def test_subnormal_rho_matches_absolute_value(self, rho, t):
        assert norm(PopaPoint(PopaParam(rho), t)) == pytest.approx(norm(PopaPoint(ZERO, t)), rel=1e-12)

    def test_large_rho_limit_matches_log(self):
        # rescaled distance from the point 1, which converges to |log t|
        p = PopaParam(1e6)
        one = PopaPoint(p, 1.0)
        for t in (0.5, math.e, 7.0):
            d = norm(circle(PopaPoint(p, t), inverse(one)))
            assert d == pytest.approx(abs(math.log(t)), rel=1e-4)


class TestOrder:
    def test_numeric_order(self):
        assert leq(PopaPoint(P1, 0.2), PopaPoint(P1, 0.5))
        assert not leq(PopaPoint(P1, 0.5), PopaPoint(P1, 0.2))

    @settings(max_examples=200)
    @given(params_st, w_st, w_st)
    def test_matches_group_theoretic_order(self, param, w1, w2):
        x, y = point_from_w(param, w1), point_from_w(param, w2)
        gap = abs(x.value - y.value)
        if gap <= 1e-9 * (1.0 + abs(x.value) + abs(y.value)):
            return  # too close to decide robustly in floating point
        cone = circle(y, inverse(x)).value >= identity(param).value
        assert leq(x, y) == cone

    @settings(max_examples=200)
    @given(params_st, w_st, w_st, w_st)
    def test_translation_invariance(self, param, w1, w2, wg):
        x, y = point_from_w(param, w1), point_from_w(param, w2)
        g = point_from_w(param, wg)
        if leq(x, y):
            xg, yg = circle(x, g), circle(y, g)
            slack = 1e-12 * (1.0 + abs(xg.value) + abs(yg.value))
            assert xg.value <= yg.value + slack


class TestIso:
    @settings(max_examples=200)
    @given(params_st, w_st)
    def test_iso_round_trip(self, param, w):
        t = iso_exp(param, w)
        assert iso_log(param, t) == pytest.approx(w, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 7.0, 1e300, math.inf])
    def test_iso_exp_near_and_past_the_float_range(self, rho):
        # expm1(w) overflows from w = log(DBL_MAX) on, while expm1(w)/rho is finite up to w = log(DBL_MAX*rho)
        import mpmath

        for w in (700.0, 709.0, 709.78, 709.8, 710.0, 1000.0, 1400.0, 1400.5, 1401.0, 2000.0):
            with mpmath.workdps(40):
                exact = mpmath.exp(w) if math.isinf(rho) else mpmath.expm1(w) / mpmath.mpf(rho)
            got = iso_exp(PopaParam(rho), w)
            if exact > sys.float_info.max:
                assert got == math.inf, w
            else:
                assert abs(got - exact) <= 1e-12 * exact, w

    def test_iso_log_small_argument_precision(self):
        p = PopaParam(1e-8)
        t = 3.0
        # log1p keeps full precision where naive log(1 + rho*t) would not
        assert iso_log(p, t) == pytest.approx(math.log1p(1e-8 * 3.0), rel=1e-15)


def test_random_axiom_sweep_all_params():
    rng = np.random.default_rng(12345)
    for param in PARAM_SET:
        ws = rng.uniform(-2, 2, size=(200, 3))
        for w1, w2, w3 in ws:
            x, y, z = (point_from_w(param, w) for w in (w1, w2, w3))
            assert rel_residual(circle(circle(x, y), z).value, circle(x, circle(y, z)).value) <= 1e-12


class TestHaarLength:
    """One function computes every Haar length: c*log1p(d*(b - a)/eta(a)) in the group's chart."""

    @staticmethod
    def exact(rho: float, a: float, b: float):
        import mpmath

        with mpmath.workdps(40):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            if rho == 0.0:
                return b - a
            if math.isinf(rho):
                return mpmath.log(b) - mpmath.log(a)
            r = mpmath.mpf(rho)
            return (1 + r) / r * (mpmath.log1p(r * b) - mpmath.log1p(r * a))

    def test_short_intervals_keep_their_digits(self):
        # subtracting two logarithms lost up to 85% of the measure of [lo, lo + width]
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(1500):
            kind = rng.random()
            rho = 0.0 if kind < 0.1 else math.inf if kind < 0.3 else 10.0 ** rng.uniform(-15, 12)
            if math.isinf(rho):
                lo = 10.0 ** rng.uniform(-300, 300)
            elif rho == 0.0:
                lo = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, 10)
            else:
                lo = (10.0 ** rng.uniform(-3, 3) - 1.0) / rho  # eta(lo) >= 1e-3: a well-conditioned input
            hi = lo + 10.0 ** rng.uniform(-13, 1) * max(abs(lo), 1e-300)
            if not (hi > lo and (rho in (0.0, math.inf) or 1.0 + rho * lo >= 1e-3)):
                continue
            got = haar_interval_measure(Interval(PopaParam(rho), lo, hi))
            want = self.exact(rho, lo, hi)
            worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-13

    @pytest.mark.parametrize("rho, lo, hi, want", [
        (math.inf, 1e100, 1.000000000001e100, 9.99891678828083e-13),
        (math.inf, 3.0, 3.000000000003, 9.99940870845224e-13),
        (0.001, 100.0, 100.0000001, 9.09999945933596e-08),
    ])
    def test_examples_to_fifteen_digits(self, rho, lo, hi, want):
        assert format(haar_interval_measure(Interval(PopaParam(rho), lo, hi)), ".15g") == format(want, ".15g")
        assert float(self.exact(rho, lo, hi)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("rho, lo, hi, want", [
        (math.inf, 2e-300, 1e300, 1380.8579086158675),
        (math.inf, 1e-290, 1.7e308, 1377.4765138615014),
        (1.0, -1.0 + 2.0**-53, 1e300, 1455.0246569357816),
        (1e300, -9.999999999e-301, 1e8, 732.2220594893662),
        (1e-310, 1.0, 1e307, 9.995003330835332e306),  # (1+rho)/rho overflows, the length does not
    ])
    def test_eta_ratio_past_dbl_max_stays_finite(self, rho, lo, hi, want):
        assert haar_interval_measure(Interval(PopaParam(rho), lo, hi)) == pytest.approx(want, rel=4 * 2.0**-52)

    @pytest.mark.parametrize("rho", [1.5, 7.0, 1e3, 1e300])
    def test_rho_times_hi_past_dbl_max_stays_finite(self, rho):
        # eta(hi) = 1 + rho*hi overflows, and so does d*(hi - lo)/eta(lo); eta(lo) >= 1e-3 keeps lo well-conditioned
        top = sys.float_info.max
        his = [min(top / rho * 1.5, top), 1.8e8, top / 3.0, 1.7e308, top]
        los = [-0.999 / rho, -0.5 / rho, 0.0, 1.0, 1e7, 1e10]
        for hi in his:
            assert norm(PopaPoint(PopaParam(rho), hi)) == pytest.approx(float(self.exact(rho, 0.0, hi)), rel=1e-14)
            for lo in (lo for lo in los if lo < hi):
                got = haar_interval_measure(Interval(PopaParam(rho), lo, hi))
                assert got == pytest.approx(float(self.exact(rho, lo, hi)), rel=1e-14)

    def test_eta_of_lo_past_dbl_max(self):
        # 1 + 7*lo overflows; the ratio eta(hi)/eta(lo) is hi/lo to working precision
        lo, hi = 1.7e308, sys.float_info.max
        got = haar_interval_measure(Interval(PopaParam(7.0), lo, hi))
        assert got == pytest.approx(8.0 / 7.0 * math.log(hi / lo), rel=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 1e-300, 1e-20, 0.5, 1.0, 7.0, 1e300, math.inf])
    @pytest.mark.parametrize("w", [-3.0, -1e-9, 0.0, 0.25, 5.0])
    def test_norm_is_the_length_from_the_identity(self, rho, w):
        p = PopaParam(rho)
        x, e = point_from_w(p, w), identity(p)
        if x.value == e.value:
            assert norm(x) == 0.0 and math.copysign(1.0, norm(x)) == 1.0
            return
        iv = Interval(p, min(x.value, e.value), max(x.value, e.value))
        assert norm(x) == haar_interval_measure(iv)

    def test_norm_of_negative_zero_is_positive_zero(self):
        assert math.copysign(1.0, norm(PopaPoint(ZERO, -0.0))) == 1.0

    def test_norm_at_subnormal_rho(self):
        # c = (1+rho)/rho overflows at rho = 1e-310; the norm is (1+rho)*log1p(rho*x)/rho
        assert norm(PopaPoint(PopaParam(1e-310), 1e307)) == pytest.approx(9.995003330835332e306, rel=4 * 2.0**-52)

    @pytest.mark.parametrize("param", PARAM_SET, ids=str)
    def test_lengths_add_up(self, param):
        a, b, c = (point_from_w(param, w).value for w in (-1.0, 0.3, 2.0))
        m = lambda lo, hi: haar_interval_measure(Interval(param, lo, hi))
        assert m(a, b) + m(b, c) == pytest.approx(m(a, c), rel=1e-14)


class TestRowParity:
    """Each group's row gives, bit for bit, the per-case formulas it replaced, which are written out here."""

    RHOS = [0.0, 1e-300, 1e-17, 0.5, 1.0, 1e300, math.inf]

    @staticmethod
    def case(rho, additive, finite, multiplicative):
        return additive() if rho == 0.0 else multiplicative() if math.isinf(rho) else finite()

    def points(self, rho):
        """Seeded points of the carrier, with pairs on both sides of the t-line threshold rho*|t| = 2**-53."""
        rng = np.random.default_rng(20261019)
        ts = [iso_exp(PopaParam(rho), w) for w in rng.uniform(-3.0, 3.0, 12)]
        if 0.0 < rho < math.inf:
            edge = 2.0**-53 / rho
            ts += [s * f * edge for s in (1.0, -1.0) for f in (0.5, 0.999, 1.001, 2.0) if math.isfinite(f * edge)]
        return ts

    @staticmethod
    def same(got, want):
        assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize("rho", RHOS)
    def test_centre_identity_eta_inverse_and_iso_log(self, rho):
        p = PopaParam(rho)
        self.same(p.centre, self.case(rho, lambda: -math.inf, lambda: -1.0 / rho, lambda: 0.0))
        self.same(identity(p).value, self.case(rho, lambda: 0.0, lambda: 0.0, lambda: 1.0))
        for t in self.points(rho):
            self.same(eta(p, t), self.case(rho, lambda: 1.0, lambda: 1.0 + rho * t, lambda: t))
            self.same(iso_log(p, t), self.case(rho, lambda: t, lambda: math.log1p(rho * t), lambda: math.log(t)))
            want = self.case(rho, lambda: -t, lambda: -t / (1.0 + rho * t), lambda: 1.0 / t)
            if _is_member(p, want):
                self.same(inverse(PopaPoint(p, t)).value, want)

    @pytest.mark.parametrize("rho", RHOS)
    def test_circle_and_norm(self, rho):
        p = PopaParam(rho)
        ts = self.points(rho)
        for x, y in zip(ts, ts[::-1]):
            want = self.case(rho, lambda: x + y, lambda: (x + y) + rho * (x * y), lambda: x * y)
            if _is_member(p, want):
                self.same(circle(PopaPoint(p, x), PopaPoint(p, y)).value, want)
            else:
                with pytest.raises(DomainError):
                    circle(PopaPoint(p, x), PopaPoint(p, y))
        for t in ts:
            e = 1.0 if math.isinf(rho) else 0.0
            a, b = min(e, t), max(e, t)
            if rho == 0.0 or rho * max(abs(a), abs(b)) < 2.0**-53:
                want = (1.0 + rho) * (b - a)
            else:  # c*log1p(d*(b - a)/eta(a)), the quotient taken after d where (b - a)/eta(a) is subnormal
                e, d, c = (a, 1.0, 1.0) if math.isinf(rho) else (1.0 + rho * a, rho, (1.0 + rho) / rho)
                q = (b - a) / e
                want = c * math.log1p(q * d if q >= sys.float_info.min else (b - a) * (d / e))
            self.same(norm(PopaPoint(p, t)), want)

    @pytest.mark.parametrize("rho", RHOS)
    def test_iso_exp_and_power_in_range(self, rho):
        p = PopaParam(rho)
        for w in np.random.default_rng(7).uniform(-3.0, 3.0, 12):
            self.same(iso_exp(p, w), self.case(rho, lambda: w, lambda: math.expm1(w) / rho, lambda: math.exp(w)))
        for delta in self.points(rho):
            for n in (-3, -1, 0, 1, 2, 5):
                want = self.case(rho, lambda: n * delta, lambda: math.expm1(n * math.log1p(rho * delta)) / rho,
                                 lambda: delta**n)
                self.same(power(p, delta, n), want)

    @pytest.mark.parametrize("rho", RHOS)
    def test_ops_is_op_for_each_y(self, rho):
        row = PopaParam(rho)._row
        tiny = sys.float_info.min
        ts = self.points(rho) + [0.0, -0.0, 5e-324, -5e-324, tiny / 3, 1e200, -1e200, 1e-200, 3e307, 1.0, -1.0]
        for x in ts:  # products over- and underflow at 1e200*1e200 and 1e-200*1e-200; -0.0 + -0.0 stays -0.0
            assert [z.hex() for z in row.ops(x, ts)] == [row.op(x, y).hex() for y in ts], x

    @pytest.mark.parametrize("rho, delta, ns", [
        (math.inf, 2.0, range(1000, 1100)),  # 2**1024 overflows inside the block
        (math.inf, 2.0, range(-5, 2 * _BLOCK + 9)),  # ... inside the second of three blocks
        (math.inf, 0.5, range(-1100, 3)),  # negative n: 0.5**-1024 overflows
        (0.5, 1.0, range(3 * _BLOCK)),  # expm1(n*log1p(0.5)) overflows from n = 1751 on, inside the second block
        (0.5, 1.0, range(-3000, 5)),  # down to the pole -1/rho
        (1e300, 1e10, range(-3, 2 * _BLOCK)),  # rho*delta overflows: the step is log(rho) + log(delta)
        (1e-300, 1e-10, range(_BLOCK - 2, _BLOCK + 2)),
        (0.0, 1e305, range(-2 * _BLOCK, 10)),  # n*delta overflows to -inf without an exception
        (0.0, 1.5, range(10**309 - 2, 10**309 + 3)),  # n past the float range: float(n) overflows
        (0.0, 1.5, [3, 10**309, -(10**309), 4]),
        (1.0, 1.5, range(10**309 - 2, 10**309 + 3)),
    ], ids=str)
    def test_streamed_powers_are_power_for_each_n(self, rho, delta, ns):
        p = PopaParam(rho)
        assert [v.hex() for v in _powers(p, delta, ns)] == [power(p, delta, n).hex() for n in ns]

    @pytest.mark.parametrize("rho, delta, crossing", [(math.inf, 2.0, 1024), (0.5, 1.0, 1749)])
    def test_a_saturated_block_is_filled_at_once(self, rho, delta, crossing):
        # past the crossing every iterate is inf: a block whose first and last are inf costs two power calls, where
        # each of its terms cost a call and an OverflowError; the block the crossing falls in goes a term at a time
        p, calls = PopaParam(rho), []
        row = p._row
        object.__setattr__(p, "_row", row._replace(power=lambda step, n: calls.append(n) or row.power(step, n)))
        ns = range(10 * _BLOCK)
        got = list(_powers(p, delta, ns))
        assert got[crossing - 1] < math.inf and got[crossing:] == [math.inf] * (len(ns) - crossing)
        assert [v.hex() for v in got] == [power(PopaParam(rho), delta, n).hex() for n in ns]
        term_by_term = _BLOCK + 1 if crossing % _BLOCK else 0
        saturated = len(ns) // _BLOCK - crossing // _BLOCK - (term_by_term > 0)
        assert len(calls) == 2 * saturated + term_by_term

    @pytest.mark.parametrize("rho", RHOS)
    def test_chart_on_and_off_the_t_line(self, rho):
        p = PopaParam(rho)
        for s in map(abs, self.points(rho)):
            if rho == 0.0 or rho * s < 2.0**-53:
                want = (_t, 1.0, 1.0 + rho)
            elif math.isinf(rho):
                want = (math.exp, 1.0, 1.0)
            else:
                want = (math.expm1, rho, (1.0 + rho) / rho)
            assert _chart(p, s) == want, s
