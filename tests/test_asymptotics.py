from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regvar.asymptotics as asymptotics
from helpers import rel_residual
from regvar.asymptotics import (
    EstimationResult,
    LimitEvaluationError,
    LimitScheme,
    RationalRatioWarning,
    SampledFunction,
    TableRangeError,
    beck_partition,
    beck_riemann_sum,
    beurling_op,
    cocycle_residual_beurling,
    cocycle_residual_general,
    cocycle_residual_karamata,
    estimate_beurling,
    estimate_karamata,
    estimate_kernel,
    estimate_limit,
    estimate_rho,
    eta_local,
    fit_kappa,
    general_op,
    goldie_sum,
    _nearest_fraction,
    karamata_op,
    two_point_index,
)
from regvar.cli import main
from regvar.kernels import KernelParams, cj_residual, kernel_eval
from regvar.popa import INFINITY, ZERO, DomainError, PopaParam, eta, iso_exp, iso_log, power

P1 = PopaParam(1.0)


class TestSampledFunction:
    def test_table_loglog_exact_on_powers(self):
        xs = np.geomspace(1.0, 1e4, 9)
        f = SampledFunction(xs, xs**2.5)
        # log-log interpolation reproduces a pure power everywhere in range
        for x in (1.7, 31.6, 999.0):
            assert f(x) == pytest.approx(x**2.5, rel=1e-12)

    def test_refuses_extrapolation(self):
        f = SampledFunction([1.0, 10.0, 100.0], [1.0, 2.0, 3.0])
        assert f.x_min == 1.0 and f.x_max == 100.0
        with pytest.raises(TableRangeError):
            f(0.5)
        with pytest.raises(TableRangeError):
            f(101.0)
        with pytest.raises(TableRangeError):
            f(-3.0)

    @pytest.mark.parametrize(
        "xs,values",
        [
            ([1.0], [2.0]),
            ([1.0, 1.0], [2.0, 3.0]),
            ([2.0, 1.0], [2.0, 3.0]),
            ([-1.0, 2.0], [2.0, 3.0]),
            ([1.0, 2.0], [0.0, 3.0]),
            ([1.0, 2.0], [2.0, -3.0]),
            ([1.0, 2.0], [2.0, math.inf]),
        ],
    )
    def test_rejects_bad_tables(self, xs, values):
        with pytest.raises(ValueError):
            SampledFunction(xs, values)


class TestOperators:
    def test_karamata_power(self):
        assert karamata_op(lambda x: x * x, 3.0, 7.0) == pytest.approx(9.0, rel=1e-14)

    def test_beurling_exponential(self):
        v = beurling_op(lambda x: math.exp(x), lambda x: 1.0, 0.7, 5.0)
        assert v == pytest.approx(math.exp(0.7), rel=1e-13)

    def test_general_log_flattens(self):
        one = lambda x: 1.0
        v = general_op(math.log, one, one, 1.0, 1e8)
        assert abs(v) <= 1e-7

    def test_eta_local_linear_flow(self):
        assert eta_local(lambda x: x, 0.5, 40.0) == pytest.approx(1.5, rel=1e-14)

    def test_positivity_guards(self):
        with pytest.raises(DomainError):
            karamata_op(lambda x: -1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            karamata_op(lambda x: x, -2.0, 3.0)
        with pytest.raises(DomainError):
            beurling_op(lambda x: 0.0, lambda x: 1.0, 0.5, 3.0)
        with pytest.raises(DomainError):
            beurling_op(lambda x: x, lambda x: -1.0, 0.5, 3.0)
        with pytest.raises(DomainError):
            eta_local(lambda x: 0.0, 0.5, 3.0)
        with pytest.raises(DomainError):
            general_op(lambda x: x, lambda x: 1.0, lambda x: 0.0, 0.5, 3.0)


def _oscillating_power(a: float, b: float):
    return lambda x: x**a * (2.0 + math.sin(b * math.log(x)))


class TestCocycleResiduals:
    @settings(max_examples=300)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 3.0),
        st.floats(0.5, 3.0),
        st.floats(0.5, 3.0),
        st.floats(2.0, 500.0),
    )
    def test_karamata_identity(self, a, b, s, t, x):
        f = _oscillating_power(a, b)
        scale = 1.0 + abs(karamata_op(f, s * t, x))
        assert abs(cocycle_residual_karamata(f, s, t, x)) <= 1e-10 * scale

    @settings(max_examples=300)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 3.0),
        st.floats(0.5, 2.0),
        st.floats(0.0, 1.0),
        st.floats(-0.4, 1.5),
        st.floats(-0.4, 1.5),
        st.floats(2.0, 500.0),
    )
    def test_beurling_identity(self, a, b, c, p, s, t, x):
        f = _oscillating_power(a, b)
        phi = lambda x: c * x**p
        ts = t + s * eta_local(phi, t, x)
        scale = 1.0 + abs(beurling_op(f, phi, ts, x))
        assert abs(cocycle_residual_beurling(f, phi, s, t, x)) <= 1e-10 * scale

    @settings(max_examples=300)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 3.0),
        st.floats(0.5, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.5, 2.0),
        st.floats(-1.0, 1.0),
        st.floats(-0.4, 1.5),
        st.floats(-0.4, 1.5),
        st.floats(2.0, 500.0),
    )
    def test_general_identity(self, a, b, c, p, d, q, s, t, x):
        f = _oscillating_power(a, b)
        phi = lambda x: c * x**p
        h = lambda x: d * x**q
        ts = t + s * eta_local(phi, t, x)
        # the normalised difference cancels catastrophically when f barely
        # moves, so the error scale carries f(x)/h(x) explicitly
        scale = 1.0 + abs(general_op(f, phi, h, ts, x)) + abs(f(x) / h(x))
        assert abs(cocycle_residual_general(f, phi, h, s, t, x)) <= 1e-10 * scale


class TestLimitScheme:
    def test_defaults(self):
        s = LimitScheme()
        assert s.x0 == 10.0 and s.ratio == 2.0 and s.max_steps == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x0": 0.0},
            {"x0": -1.0},
            {"ratio": 1.0},
            {"ratio": math.inf},
            {"max_steps": 0},
            {"tol": 0.0},
            {"stability_window": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LimitScheme(**kwargs)

    def test_max_steps_is_bounded_by_the_list_budget(self):
        # estimate_limit keeps every value it visits: 10**9 steps would ask for about 34 GB
        assert LimitScheme(max_steps=asymptotics._MAX_LISTED).max_steps == 3276800
        with pytest.raises(ValueError, match="at most 3276800"):
            LimitScheme(max_steps=asymptotics._MAX_LISTED + 1)

    def test_limit_evaluation_error_is_a_value_error(self):
        err = LimitEvaluationError(0, 10.0, ZeroDivisionError("x"))
        assert isinstance(err, ValueError) and isinstance(err, RuntimeError)


class TestEstimateLimit:
    def test_constant_converges_in_window_steps(self):
        res = estimate_limit(lambda x: 4.25, LimitScheme())
        assert res.converged
        assert res.value == 4.25
        assert res.steps_used == 3
        assert res.last_delta == 0.0

    def test_oscillation_never_converges(self):
        res = estimate_limit(lambda x: math.sin(math.log(x)), LimitScheme())
        assert not res.converged
        assert res.steps_used == 40

    def test_slow_log_decay_converges_at_loose_tol(self):
        c = 2.0
        res = estimate_limit(lambda x: c + 1.0 / math.log(x), LimitScheme(tol=1e-3))
        assert res.converged
        assert 0.0 < res.value - c < 0.1

    def test_window_never_fills(self):
        res = estimate_limit(lambda x: 1.0, LimitScheme(max_steps=2))
        assert not res.converged
        assert res.steps_used == 2
        assert res.last_delta == math.inf

    def test_failure_annotated_with_grid_position(self):
        def curve(x):
            if x > 30.0:
                raise ValueError("boom")
            return 1.0

        with pytest.raises(LimitEvaluationError) as exc_info:
            estimate_limit(curve, LimitScheme())
        assert exc_info.value.step == 2
        assert exc_info.value.x == 40.0
        assert isinstance(exc_info.value.cause, ValueError)

    def test_stop_test_matches_the_sliced_window_on_seeded_sequences(self):
        # signed zeros, infinities, nans, ties and a tiny value: max() and min() of the sliced window keep the first
        # of equal values, and return a nan only when it is the window's first value
        rng = random.Random(20000)
        pool = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-300]
        for _ in range(20000):
            seq = []
            for _ in range(rng.randint(1, 40)):
                roll = rng.random()
                seq.append(rng.choice(pool) if roll < 0.5 else seq[-1] if roll < 0.7 and seq else rng.uniform(-2, 2))
            scheme = LimitScheme(max_steps=len(seq), tol=rng.choice([1e-12, 1e-3, 0.5, 3.0]),
                                 stability_window=rng.randint(2, 8))
            got, want = (run(lambda x, it=iter(seq): next(it), scheme) for run in (estimate_limit, _sliced_limit))
            assert (repr(got.value), got.converged, repr(got.last_delta), got.steps_used) == \
                (repr(want.value), want.converged, repr(want.last_delta), want.steps_used), (seq, scheme)

    def test_stop_test_is_linear_in_the_window(self):
        # slicing the window took 16-17 s on a 2-vCPU host: 40000 steps, each slicing 20000 values
        scheme = LimitScheme(tol=1e-300, ratio=1.0000001, max_steps=40000, stability_window=20000)
        start = time.perf_counter()
        res = estimate_limit(math.sqrt, scheme)
        assert time.perf_counter() - start < 2.0
        assert (res.value.hex(), res.converged, res.last_delta.hex(), res.steps_used) == \
            ("0x1.9594f5a6d14e7p+1", False, "0x1.8e4c62268adb6p-11", 40000)


def _sliced_limit(op_curve, scheme):
    """estimate_limit's stop test by slicing the window at every step, its time quadratic in the window."""
    values, delta = [], math.inf
    for n in range(scheme.max_steps):
        values.append(float(op_curve(scheme.x0 * scheme.ratio**n)))
        if n + 1 >= scheme.stability_window:
            window = values[-scheme.stability_window:]
            delta = (max(window) - min(window)) / (1.0 + abs(values[-1]))
            if delta <= scheme.tol:
                return EstimationResult(values[-1], True, delta, n + 1)
    return EstimationResult(values[-1], False, delta, len(values))


class TestEstimateRho:
    def test_linear_flow(self):
        res = estimate_rho(lambda x: x, 0.5)
        assert res.converged and res.value == pytest.approx(1.0, abs=1e-12)
        assert res.steps_used == 3

    def test_constant_flow(self):
        res = estimate_rho(lambda x: 1.0, 0.5)
        assert res.converged and res.value == 0.0

    def test_affine_flow(self):
        res = estimate_rho(lambda x: 1.0 + x / 2.0, 0.5)
        assert res.converged and res.value == pytest.approx(0.5, abs=1e-12)

    def test_sublinear_flow_is_flagged(self):
        res = estimate_rho(lambda x: x / (1.0 + math.log(x)), 0.5)
        assert not res.converged

    def test_rejects_zero_probe(self):
        with pytest.raises(DomainError):
            estimate_rho(lambda x: x, 0.0)

    def test_estimated_eta_is_multiplicative(self):
        # close the loop: the fitted 1 + rho*t must satisfy the group product rule
        scheme = LimitScheme()
        res = estimate_rho(lambda x: 1.0 + x / 2.0, 0.5, scheme)
        rho_hat = PopaParam(res.value)
        eta_hat = lambda t: 1.0 + res.value * t
        rng = np.random.default_rng(5)
        for w1, w2 in rng.uniform(-1.0, 1.0, size=(25, 2)):
            u, v = iso_exp(rho_hat, float(w1)), iso_exp(rho_hat, float(w2))
            assert abs(cj_residual(eta_hat, rho_hat, u, v)) <= 5.0 * scheme.tol


class TestEstimateKernel:
    def test_exponential_flow_immediate(self):
        f = lambda x: math.exp(x)
        one = lambda x: 1.0
        out = estimate_kernel(f, one, f, [0.5, 1.0, -0.3])
        for t, res in out:
            assert res.converged
            assert res.steps_used == 3
            assert res.value == pytest.approx(math.expm1(t), rel=1e-12)

    def test_failure_becomes_flag_not_error(self):
        # h is only positive on a bounded window, so large grid steps fail
        f = lambda x: x
        one = lambda x: 1.0
        h = lambda x: 1.0 if x < 30.0 else 0.0
        out = estimate_kernel(f, one, h, [1.0])
        (t, res), = out
        assert t == 1.0
        assert not res.converged
        assert math.isnan(res.value)
        assert res.steps_used == 2

    def test_beurling_exponential(self):
        f = lambda x: math.exp(x)
        out = estimate_beurling(f, lambda x: 1.0, [0.3, 1.2])
        for t, res in out:
            assert res.converged
            assert res.value == pytest.approx(math.exp(t), rel=1e-12)


class TestGridBudget:
    """A grid walks once per point, so its points times ``max_steps`` are held to the budget of one call."""

    @pytest.mark.parametrize("estimate", [
        lambda fn, grid, scheme: estimate_kernel(fn, fn, fn, grid, scheme),
        lambda fn, grid, scheme: estimate_beurling(fn, fn, grid, scheme),
        lambda fn, grid, scheme: estimate_karamata(fn, grid, scheme),
    ], ids=["kernel", "beurling", "karamata"])
    def test_a_grid_above_the_budget_is_refused_before_any_call(self, estimate):
        calls = []

        def fn(x):
            calls.append(x)
            raise AssertionError("a user function was called")

        scheme = LimitScheme(max_steps=asymptotics._MAX_LISTED // 4)
        with pytest.raises(DomainError, match=r"^grid of 5 points times 819200 steps is more than 3276800 steps"):
            estimate(fn, [1.0, 2.0, 3.0, 4.0, 5.0], scheme)
        assert calls == []
        out = estimate(fn, [1.0, 2.0, 3.0, 4.0], scheme)  # at the budget: each walk fails at its first step
        assert [(t, res.converged, res.steps_used) for t, res in out] == [(t, False, 0) for t in (1.0, 2.0, 3.0, 4.0)]
        assert len(calls) == 4

    def test_cli_exits_2(self, capsys):
        code = main(["estimate", "kernel", "--mode", "karamata", "--f", "square", "--t", "2,3",
                     "--max-steps", "3276800"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: grid of 2 points times 3276800 steps is more than 3276800 steps, "
                                "the budget of one call\n")


class TestEstimateKaramata:
    def test_pure_power_is_exact(self):
        out = estimate_karamata(lambda x: x * x, [0.5, 2.0, 3.0])
        for lam, res in out:
            assert res.converged
            assert res.value == pytest.approx(lam * lam, rel=1e-12)

    def test_slow_variation_converges_to_power(self):
        f = lambda x: x**1.5 * (1.0 + 1.0 / math.log(x))
        out = estimate_karamata(f, [2.0], LimitScheme(tol=1e-3, max_steps=60))
        (lam, res), = out
        assert res.converged
        assert res.value == pytest.approx(2.0**1.5, rel=0.05)

    def test_log_oscillation_is_flagged(self):
        f = lambda x: 2.0 + math.sin(math.log(x))
        out = estimate_karamata(f, [2.0])
        (_, res), = out
        assert not res.converged

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            estimate_karamata(lambda x: x, [-2.0])


class TestEstimateKaramataThroughKaramataOp:
    """Each step is log(karamata_op(f, lambda, x)): f is called at x and x*lambda, not at exp(log x + log lambda)."""

    def test_f_sees_the_grid_and_its_multiples(self):
        calls = []
        f = lambda x: calls.append(x) or x**1.5
        scheme = LimitScheme()
        (lam, res), = estimate_karamata(f, [3.0], scheme)
        xs = [scheme.x0 * scheme.ratio**n for n in range(res.steps_used)]
        assert calls == [v for x in xs for v in (x, x * 3.0)]  # karamata_op takes f(x) first

    def test_the_value_is_exp_of_the_stabilised_log_ratio(self):
        f = lambda x: x**0.5 * (1.0 + 1.0 / x)
        scheme = LimitScheme(tol=1e-9)
        (lam, res), = estimate_karamata(f, [0.25], scheme)
        x = scheme.x0 * scheme.ratio ** (res.steps_used - 1)
        assert res.converged
        assert res.value == math.exp(math.log(karamata_op(f, 0.25, x)))

    def test_a_failing_curve_is_an_unconverged_nan(self):
        (_, res), = estimate_karamata(lambda x: 1.0 if x < 50.0 else -1.0, [2.0])
        assert math.isnan(res.value) and not res.converged


class TestFitKappa:
    def test_exact_kernel_samples(self):
        kp = KernelParams(P1, P1, 2.0)
        ts = [0.5, 1.0, 2.0]
        samples = [(t, kernel_eval(kp, t)) for t in ts]
        kappa, rms = fit_kappa(samples, P1, P1)
        assert kappa == pytest.approx(2.0, rel=1e-14)
        assert rms <= 1e-14

    def test_identity_valued_samples_give_zero(self):
        samples = [(0.5, 0.0), (1.0, 0.0)]
        kappa, rms = fit_kappa(samples, P1, P1)
        assert kappa == 0.0 and rms == 0.0

    def test_noisy_samples_seeded(self):
        rng = np.random.default_rng(99)
        kp = KernelParams(P1, P1, 2.0)
        ts = [0.5, 1.0, 2.0]
        worst = 0.0
        for _ in range(20):
            samples = [
                (t, kernel_eval(kp, t) * (1.0 + float(rng.uniform(-1e-3, 1e-3))))
                for t in ts
            ]
            kappa, _ = fit_kappa(samples, P1, P1)
            worst = max(worst, abs(kappa - 2.0))
        assert worst <= 5e-3

    def test_any_parameter_pair(self):
        kp = KernelParams(INFINITY, ZERO, -1.3)
        samples = [(t, kernel_eval(kp, t)) for t in (0.5, 1.0, 4.0)]
        kappa, rms = fit_kappa(samples, INFINITY, ZERO)
        assert kappa == pytest.approx(-1.3, rel=1e-13)
        assert rms <= 1e-13

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_kappa([], P1, P1)
        with pytest.raises(ValueError):
            fit_kappa([(0.0, 0.0)], P1, P1)


class TestTwoPointIndex:
    def test_consistent_pair(self):
        with pytest.warns(RationalRatioWarning):
            value, ok = two_point_index(2.0, 8.0, 4.0, 64.0)
        assert value == pytest.approx(3.0, rel=1e-14)
        assert ok

    def test_inconsistent_pair(self):
        value, ok = two_point_index(2.0, 8.0, 3.0, 26.0)
        assert not ok
        assert value == pytest.approx(0.5 * (3.0 + math.log(26.0) / math.log(3.0)), rel=1e-12)

    @pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
    def test_power_recovery_is_exact(self, a):
        value, ok = two_point_index(2.0, 2.0**a, math.e, math.exp(a))
        assert ok
        assert value == pytest.approx(a, rel=1e-14)

    def test_independent_probes_do_not_warn(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", RationalRatioWarning)
            two_point_index(2.0, 4.0, 3.0, 9.0)

    def test_rejects_unit_ratio(self):
        with pytest.raises(DomainError):
            two_point_index(1.0, 2.0, 3.0, 9.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            two_point_index(2.0, -8.0, 3.0, 9.0)

    def test_warning_names_the_fraction(self):
        with pytest.warns(RationalRatioWarning, match=r"log\(8\.0\)/log\(4\.0\) is close to 3/2; "):
            two_point_index(8.0, 27.0, 4.0, 9.0)
        with pytest.warns(RationalRatioWarning, match=r"is close to -2/3; "):
            two_point_index(0.25, 2.0, 8.0, 3.0)


def _ratios(seed: int):
    """Exact small-denominator rationals, their 1-ulp neighbours, midpoints of consecutive Farey fractions of
    order 16 (k +- 1/32 among them, the ties), and log-uniform ratios, all of both signs."""
    from fractions import Fraction

    rng = random.Random(seed)
    farey = sorted({Fraction(p, q) for q in range(1, 17) for p in range(-40 * q, 40 * q + 1)})
    for _ in range(400):
        k = rng.randrange(len(farey) - 1)
        exact, mid = float(farey[k]), float((farey[k] + farey[k + 1]) / 2)
        for x in (exact, mid):
            yield from (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))
        yield rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20, 20)
    for k in range(-40, 40):
        yield from (k + 1 / 32, k - 1 / 32)


@pytest.mark.parametrize("seed", range(3))
def test_nearest_fraction_is_limit_denominator(seed):
    from fractions import Fraction

    for x in _ratios(seed):
        want = Fraction(x).limit_denominator(16)
        assert _nearest_fraction(x) == (want.numerator, want.denominator), x


class TestBeckPartition:
    def test_additive_quarters(self):
        pts = beck_partition(ZERO, 0.25, 1.0)
        assert pts == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]

    def test_finite_rho(self):
        pts = beck_partition(P1, 0.1, 0.2)
        assert pts == [0.0, 0.1, 0.21000000000000002]

    def test_multiplicative_doubling(self):
        pts = beck_partition(INFINITY, 2.0, 10.0)
        assert pts == [1.0, 2.0, 4.0, 8.0, 16.0]

    @pytest.mark.parametrize("param", [ZERO, P1, INFINITY])
    @pytest.mark.parametrize("u_w", [0.05, 1.0, 3.7])
    def test_sandwich_property(self, param, u_w):
        u = iso_exp(param, u_w)
        pts = beck_partition(param, iso_exp(param, 0.3), u)
        assert pts[-2] <= u < pts[-1]

    def test_cell_widths_follow_the_flow(self):
        # x_m - x_{m-1} = delta * eta(x_{m-1}) for finite rho
        delta = 0.05
        pts = beck_partition(P1, delta, 2.0)
        for prev, nxt in zip(pts, pts[1:]):
            assert nxt - prev == pytest.approx(delta * eta(P1, prev), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            beck_partition(P1, 0.0, 1.0)
        with pytest.raises(DomainError):
            beck_partition(P1, -0.1, 1.0)
        with pytest.raises(DomainError):
            beck_partition(INFINITY, 0.5, 10.0)
        with pytest.raises(DomainError):
            beck_partition(P1, 0.1, -0.5)

    def test_refuses_huge_partitions(self):
        with pytest.raises(DomainError):
            beck_partition(ZERO, 1e-9, 1.0)

    def test_list_is_capped_near_100_mb_before_any_point_is_made(self, monkeypatch):
        cap, seen = asymptotics._MAX_LISTED, []
        assert cap * 32 <= 100 * 2**20 < (cap + 1) * 32  # 8-byte slot and 24-byte float per point
        monkeypatch.setattr(asymptotics, "_powers", lambda param, delta, ns: seen.append(ns) or iter(()))
        assert beck_partition(ZERO, 1.0, cap - 2.0) == [] and seen == [range(cap)]  # index cap - 1: cap points
        with pytest.raises(DomainError, match="too long to list"):
            beck_partition(ZERO, 1.0, cap - 1.0)  # cap + 1 points
        assert len(seen) == 1

    def test_riemann_sum_streams_past_the_list_cap(self, monkeypatch):
        # the budget of cells is the list cap, and the cap + 1 nodes of its cells are streamed, not listed
        cap, seen = asymptotics._MAX_LISTED, []
        monkeypatch.setattr(asymptotics, "_powers", lambda param, delta, ns: seen.append(ns) or iter(()))
        assert beck_riemann_sum(lambda t: 1.0, ZERO, 1.0, cap - 1.0) == 0.0 and seen == [range(cap + 1)]

    def test_cli_partition_above_the_cap_exits_2(self, capsys):
        assert main(["beck", "partition", "--rho", "0", "--delta", "1", "--u", "3276799"]) == 2
        assert "error: partition of 3276801 points is too long to list" in capsys.readouterr().err


class TestBeckRiemannSum:
    def test_flow_weight_telescopes_exactly(self):
        # g = eta makes every term the plain cell width; the sum telescopes to u
        for param, u in ((ZERO, 1.7), (P1, 2.3), (INFINITY, 9.0)):
            delta = iso_exp(param, 0.01)
            total = beck_riemann_sum(lambda t, p=param: eta(p, t), param, delta, u)
            ident = 1.0 if param.is_infinite else 0.0
            assert total == pytest.approx(u - ident, rel=1e-12)

    def test_converges_to_haar_weighted_integral(self):
        # g = 1: the limit is integral du/(1+u) = log 2 on (0, 1]
        for delta in (0.02, 0.01):
            s = beck_riemann_sum(lambda t: 1.0, P1, delta, 1.0)
            assert abs(s - math.log(2.0)) <= 2.0 * delta

    def test_single_clipped_cell(self):
        # u below the first partition point: one term, clipped at u
        s = beck_riemann_sum(lambda t: 1.0, P1, 0.5, 0.3)
        assert s == pytest.approx(0.3 / 1.3, rel=1e-14)

    def test_error_halves_with_delta(self):
        exact = math.log(2.0)
        e1 = abs(beck_riemann_sum(lambda t: 1.0, P1, 0.02, 1.0) - exact)
        e2 = abs(beck_riemann_sum(lambda t: 1.0, P1, 0.01, 1.0) - exact)
        assert 1.6 <= e1 / e2 <= 2.4


class TestGoldieSum:
    def test_zero_terms(self):
        assert goldie_sum(0.7, lambda t: 1.0, P1, 0.1, 0) == 0.0

    def test_constant_multiplier(self):
        assert goldie_sum(0.7, lambda t: 1.0, P1, 0.1, 5) == pytest.approx(3.5, rel=1e-14)

    def test_power_multiplier_telescopes(self):
        # K = c*(g - 1) with multiplicative g: the sum collapses to c*(g(u_i) - 1)
        c, gamma, delta = 1.7, -2.0, 0.05
        g = lambda t: math.exp(-gamma * math.log1p(t))
        K_delta = c * (g(delta) - 1.0)
        for i in (1, 7, 40):
            got = goldie_sum(K_delta, g, P1, delta, i)
            want = c * (g(power(P1, delta, i)) - 1.0)
            assert rel_residual(got, want) <= 1e-10

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError):
            goldie_sum(1.0, lambda t: 1.0, P1, 0.1, -1)

    def test_rejects_more_than_the_budget_of_terms_before_any_term(self, monkeypatch):
        cap, seen = asymptotics._MAX_LISTED, []
        g = lambda t: pytest.fail("no term may be evaluated")
        with pytest.raises(DomainError, match=rf"^sum is too long: {cap + 1} terms, more than {cap}, the budget"):
            goldie_sum(1.0, g, P1, 0.1, cap + 1)
        monkeypatch.setattr(asymptotics, "_powers", lambda param, delta, ns: seen.append(ns) or iter(()))
        assert goldie_sum(1.0, g, P1, 0.1, cap) == 0.0 and seen == [range(cap)]  # the budget itself is accepted


STREAM_PARAMS = [ZERO, PopaParam(0.5), P1, PopaParam(7.0), INFINITY]


class TestStreamedIterates:
    """beck_partition, beck_riemann_sum and goldie_sum against per-term
    power()/eta() references, bit for bit."""

    @staticmethod
    def _case(param, seed):
        rng = np.random.default_rng(seed)
        delta = iso_exp(param, 10.0 ** rng.uniform(-3.0, -0.5))
        u = iso_exp(param, rng.uniform(0.0, 3.0))
        a = rng.uniform(-1.0, 1.0)
        return delta, u, lambda t: math.exp(a * iso_log(param, t))

    @pytest.mark.parametrize("param", STREAM_PARAMS)
    def test_partition_is_the_power_list(self, param):
        for seed in range(5):
            delta, u, _ = self._case(param, seed)
            pts = beck_partition(param, delta, u)
            assert [p.hex() for p in pts] == [power(param, delta, m).hex() for m in range(len(pts))]

    @pytest.mark.parametrize("param", STREAM_PARAMS)
    def test_riemann_sum_is_the_per_cell_eta_sum(self, param):
        for seed in range(5):
            delta, u, g = self._case(param, seed)
            pts = [power(param, delta, m) for m in range(len(beck_partition(param, delta, u)))]
            terms, prev = [], pts[0]
            for p in pts[1:]:
                node = min(p, u)
                if node <= prev:
                    break
                terms.append(g(node) / eta(param, node) * (node - prev))
                prev = node
            assert beck_riemann_sum(g, param, delta, u).hex() == math.fsum(terms).hex()

    @pytest.mark.parametrize("param", STREAM_PARAMS)
    def test_goldie_sum_is_the_per_term_power_sum(self, param):
        for seed in range(5):
            delta, _, g = self._case(param, seed)
            for i in (1, 2, 17, 3000):
                want = 1.3 * math.fsum(g(power(param, delta, m)) for m in range(i))
                assert goldie_sum(1.3, g, param, delta, i).hex() == want.hex()

    def test_empty_goldie_sum_never_checks_delta(self):
        assert goldie_sum(0.7, lambda t: 1.0, P1, -5.0, 0) == 0.0
        with pytest.raises(DomainError):
            goldie_sum(0.7, lambda t: 1.0, P1, -5.0, 1)

    @pytest.mark.parametrize("rho, delta, u, candidate, index", [
        (0.0, 0.1, 133.1, 1331, 1332),  # delta^(1331 o) <= u already: corrected up
        (0.5, 0.07, 1.7277354178764865e+26, 1737, 1736),  # delta^(1736 o) > u: corrected down
    ])
    def test_boundary_corrections_of_the_candidate_index(self, rho, delta, u, candidate, index):
        param = PopaParam(rho)
        assert math.floor(iso_log(param, u) / iso_log(param, delta)) + 1 == candidate
        pts = beck_partition(param, delta, u)
        assert len(pts) == index + 1
        assert power(param, delta, index - 1) <= u < power(param, delta, index)

    @pytest.mark.parametrize("param,delta", [(ZERO, 2.0**-20), (PopaParam(0.5), 2.0**-20), (INFINITY, 1.0 + 2.0**-20)],
                             ids=str)
    def test_budget_of_cells_is_exact(self, param, delta):
        # delta^((cap-1) o) <= u < delta^(cap o): cap cells, the budget; one more iterate of delta is over it
        cap = asymptotics._MAX_LISTED
        assert asymptotics._beck_index(param, delta, power(param, delta, cap - 1)) == cap
        with pytest.raises(DomainError, match=f"^partition is too fine: more than {cap} cells, the budget"):
            asymptotics._beck_index(param, delta, power(param, delta, cap))

    def test_sum_over_the_budget_is_refused_before_any_cell(self, capsys):
        g = lambda t: pytest.fail("no cell may be evaluated")
        with pytest.raises(DomainError, match="more than 3276800 cells"):
            beck_riemann_sum(g, ZERO, 1e-8, 0.99)  # 99000000 cells
        assert main(["beck", "sum", "--rho", "0", "--delta", "1e-8", "--u", "0.99"]) == 2
        assert capsys.readouterr().err == \
            "error: partition is too fine: more than 3276800 cells, the budget of one call\n"

    @pytest.mark.parametrize("delta", [5e-324, 1e-320])
    def test_subnormal_step_is_refused_as_too_fine(self, delta):
        # u/delta overflows to inf; the candidate index is clamped before math.floor sees it
        with pytest.raises(DomainError, match="too fine"):
            beck_riemann_sum(lambda t: pytest.fail("no cell may be evaluated"), ZERO, delta, 1.0)

    def test_far_candidate_index_is_refused_at_once(self):
        # u/delta = 3e300: the downward boundary correction used to step one index at a time
        with pytest.raises(DomainError, match="too fine"):
            beck_partition(ZERO, 1e-300, 3.0)
        with pytest.raises(DomainError, match="too fine"):
            beck_riemann_sum(lambda t: 1.0, ZERO, 1e-300, 3.0)
