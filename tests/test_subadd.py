from __future__ import annotations

import math
import random
import re
import warnings

import numpy as np
import pytest

from regvar import popa, subadd
from regvar.kernels import GoldieAux, KernelParams, goldie_integral, kernel_eval
from regvar.popa import INFINITY, ZERO, DomainError, PopaParam, PopaPoint, circle, inverse, iso_exp, iso_log
from regvar.subadd import (
    GridSpec,
    SubaddReport,
    VacuousPremiseWarning,
    additively_bounded_check,
    heiberg_seneta_probe,
    sandwich_bound_check,
    subadditivity_check,
)

P1 = PopaParam(1.0)


class TestGridSpec:
    def test_linear_points(self):
        g = GridSpec(0.5, 2.0, 4)
        assert list(g.points()) == [0.5, 1.0, 1.5, 2.0]

    def test_geometric_points(self):
        g = GridSpec(1.0, 8.0, 4, spacing="geometric")
        assert np.allclose(g.points(), [1.0, 2.0, 4.0, 8.0])

    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    def test_points_stay_sorted_inside_tiny_relative_spans(self, spacing):
        # 10**w errs by about |w| ulps, which can exceed a span of a few ulps: such geometric grids held points
        # above hi and out of order, and subadditivity_check bisects its windows over sorted points
        rng = random.Random(spacing)
        cases = [(2.056541519646834e253, 2.0565415196469636e253, 10000)]
        for _ in range(300):
            lo = 10.0 ** rng.uniform(-300.0, 300.0) * (rng.choice((-1.0, 1.0)) if spacing == "linear" else 1.0)
            cases.append((lo, lo + abs(lo) * 10.0 ** rng.uniform(-15.5, -8.0), rng.choice((3, 50, 1000))))
        for lo, hi, n in cases:
            if lo < hi < math.inf:
                pts = GridSpec(lo, hi, n, spacing).points()
                assert pts[0] == lo and pts[-1] == hi and all(a <= b for a, b in zip(pts, pts[1:])), (lo, hi, n)

    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    def test_points_are_capped_near_100_mb_before_any_list_is_made(self, monkeypatch, spacing):
        cap, seen = popa._MAX_LISTED, []
        monkeypatch.setattr(subadd, "_linspace", lambda lo, hi, n: seen.append(n) or [lo, hi])
        with pytest.raises(DomainError, match=f"^too many grid points: {cap + 1}, more than {cap}"):
            GridSpec(1.0, 2.0, cap + 1, spacing).points()
        assert seen == []
        GridSpec(1.0, 2.0, cap, spacing).points()
        assert seen == [cap]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": 2.0, "hi": 1.0, "n": 4},
            {"lo": 1.0, "hi": 1.0, "n": 4},
            {"lo": math.nan, "hi": 1.0, "n": 4},
            {"lo": 0.5, "hi": 2.0, "n": 1},
            {"lo": 0.5, "hi": 2.0, "n": 4, "spacing": "cubic"},
            {"lo": 0.0, "hi": 2.0, "n": 4, "spacing": "geometric"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestSubadditivityCheck:
    def test_sqrt_holds_additively(self):
        report = subadditivity_check(math.sqrt, ZERO, ZERO, GridSpec(0.5, 2.0, 8))
        assert report.holds
        assert report.worst_violation == 0.0
        assert math.isnan(report.worst_pair[0])
        assert report.pairs_checked > 0

    def test_square_fails_with_known_worst_pair(self):
        report = subadditivity_check(lambda u: u * u, ZERO, ZERO, GridSpec(0.5, 2.0, 4))
        assert not report.holds
        assert report.worst_violation == pytest.approx(2.0, rel=1e-14)
        assert report.worst_pair == (1.0, 1.0)
        assert report.pairs_checked == 6
        assert report.pairs_skipped == 10
        assert report.pairs_checked + report.pairs_skipped == 16

    def test_refinement_never_shrinks_the_worst_violation(self):
        coarse = subadditivity_check(lambda u: u * u, ZERO, ZERO, GridSpec(0.5, 2.0, 4))
        fine = subadditivity_check(lambda u: u * u, ZERO, ZERO, GridSpec(0.5, 2.0, 7))
        assert fine.worst_violation >= coarse.worst_violation

    @pytest.mark.parametrize(
        "rho,sigma",
        [(ZERO, ZERO), (P1, P1), (P1, INFINITY), (INFINITY, ZERO), (INFINITY, INFINITY)],
    )
    def test_canonical_kernels_are_exactly_subadditive(self, rho, sigma):
        kp = KernelParams(rho, sigma, 1.7)
        S = lambda t: kernel_eval(kp, t)
        lo = 1.0 if rho.is_infinite else 0.1
        report = subadditivity_check(S, rho, sigma, GridSpec(lo, 5.0, 12))
        assert report.holds
        assert report.worst_violation <= 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_goldie_integral_is_subadditive_for_nonnegative_gamma(self, gamma):
        aux = GoldieAux(P1, gamma)
        S = lambda u: goldie_integral(aux, u)
        report = subadditivity_check(S, P1, ZERO, GridSpec(0.01, 5.0, 16))
        assert report.holds

    def test_goldie_integral_fails_for_negative_gamma(self):
        aux = GoldieAux(P1, -1.0)
        S = lambda u: goldie_integral(aux, u)  # reduces to S(u) = u
        report = subadditivity_check(S, P1, ZERO, GridSpec(0.01, 5.0, 16))
        assert not report.holds
        x, y = report.worst_pair
        assert report.worst_violation == pytest.approx(x * y, rel=1e-10)

    def test_codomain_violation_is_reported_with_location(self):
        S = lambda u: -5.0
        with pytest.raises(DomainError, match="outside the codomain"):
            subadditivity_check(S, ZERO, P1, GridSpec(0.5, 2.0, 4))


class TestAdditivelyBounded:
    def test_exact_kernel_bound_holds(self):
        kp = KernelParams(P1, ZERO, 2.0)
        S = lambda t: 2.0 * math.log1p(t)
        report = additively_bounded_check(S, kp, [0.5, 1.0, 2.0])
        assert report.holds
        assert report.pairs_checked == 3

    def test_excess_growth_fails_at_the_right_point(self):
        kp = KernelParams(P1, ZERO, 2.0)
        S = lambda t: 2.1 * math.log1p(t)
        report = additively_bounded_check(S, kp, [0.5, 1.0, 2.0])
        assert not report.holds
        assert report.worst_pair == (2.0, 2.0)
        assert report.worst_violation == pytest.approx(0.1 * math.log(3.0), rel=1e-12)

    @pytest.mark.parametrize("sigma,bad", [(ZERO, math.inf), (ZERO, math.nan), (P1, -2.0), (P1, math.inf),
                                           (INFINITY, 0.0), (INFINITY, -1.0), (INFINITY, math.nan)])
    def test_a_value_outside_the_codomain_carrier_is_refused(self, sigma, bad):
        # S is read through the codomain rule, as subadditivity_check reads it, before any excess is taken
        kp = KernelParams(P1, sigma, 1.0)
        S = lambda t: bad if t == 7.0 else kernel_eval(kp, t)
        with pytest.raises(DomainError, match=rf"^S\(7\.0\) = {bad!r} is outside the codomain carrier$"):
            additively_bounded_check(S, kp, [2.0, 7.0, 0.5])


class TestHeibergSenetaProbe:
    def test_default_sequence_is_dyadic(self):
        probes = []
        heiberg_seneta_probe(lambda u: probes.append(u) or 0.0)
        assert probes == [2.0**-k for k in range(21, 41)]

    def test_entropy_function_passes(self):
        S = lambda u: -u * math.log(u)
        estimate, passes = heiberg_seneta_probe(S)
        assert passes
        assert estimate == pytest.approx(2.0**-21 * 21.0 * math.log(2.0), rel=1e-12)

    def test_constant_fails(self):
        estimate, passes = heiberg_seneta_probe(lambda u: 0.5)
        assert not passes
        assert estimate == 0.5

    def test_custom_sequence(self):
        seq = [1.0 / k for k in range(1, 17)]
        S = lambda u: u * u
        estimate, passes = heiberg_seneta_probe(S, seq, tol=0.05)
        assert passes
        assert estimate == pytest.approx((1.0 / 9.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [21, 30, 40])  # the first, a middle and the last point of the tail
    def test_a_non_finite_value_is_refused_wherever_it_falls(self, bad, k):
        # max() dropped a nan after the first tail point, so the estimate depended on where it fell
        u = 2.0**-k
        with pytest.raises(DomainError, match=rf"^S\({re.escape(repr(u))}\) must be finite, got {bad!r}$"):
            heiberg_seneta_probe(lambda v: bad if v == u else v)

    def test_the_first_non_finite_value_is_named(self):
        S = lambda u: math.inf if u < 2.0**-35 else (math.nan if u < 2.0**-25 else u)
        with pytest.raises(DomainError, match=rf"^S\({re.escape(repr(2.0**-26))}\) must be finite, got nan$"):
            heiberg_seneta_probe(S)

    def test_finite_values_whose_sum_overflows_pass(self):
        # each value is read on its own, so a sum past DBL_MAX refuses nothing
        probes = []
        assert heiberg_seneta_probe(lambda u: probes.append(u) or 1e308) == (1e308, False)
        assert probes == [2.0**-k for k in range(21, 41)]

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            heiberg_seneta_probe(lambda u: u, [0.5, 0.25])
        with pytest.raises(ValueError):
            heiberg_seneta_probe(lambda u: u, [0.5] * 10)
        with pytest.raises(ValueError):
            heiberg_seneta_probe(lambda u: u, [-(2.0**-k) for k in range(1, 12)])


class TestSandwichBound:
    def test_sqrt_propagates(self):
        ok = sandwich_bound_check(math.sqrt, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=math.sqrt(1.5))
        assert ok is True

    def test_square_escapes_the_sandwich(self):
        ok = sandwich_bound_check(lambda u: u * u, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=2.25)
        assert ok is False

    def test_vacuous_premise_warns_and_passes(self):
        with pytest.warns(VacuousPremiseWarning):
            ok = sandwich_bound_check(lambda u: u * u, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=1.0)
        assert ok is True

    def test_multiplicative_codomain(self):
        # S = identity map into the multiplicative group: bounds become ratios
        S = lambda u: math.exp(u)
        ok = sandwich_bound_check(S, ZERO, INFINITY, a=0.0, b=2.0, delta=0.25, M=math.exp(0.25))
        assert ok is True

    def test_input_validation(self):
        with pytest.raises(DomainError):
            sandwich_bound_check(math.sqrt, ZERO, ZERO, a=1.0, b=0.0, delta=0.5, M=2.0)
        with pytest.raises(DomainError):
            sandwich_bound_check(math.sqrt, ZERO, ZERO, a=1.0, b=4.0, delta=0.0, M=2.0)
        with pytest.raises(ValueError):
            sandwich_bound_check(math.sqrt, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=2.0, probes=1)

    def test_probes_are_capped_near_100_mb_before_any_list_is_made(self, monkeypatch):
        cap, seen = popa._MAX_LISTED, []
        monkeypatch.setattr(subadd, "_linspace", lambda lo, hi, n: seen.append(n) or [0.0, 0.0])
        calls = []
        S = lambda u: calls.append(u) or 1.0
        with pytest.raises(DomainError, match=f"^too many probes: {cap + 1}, more than {cap}"):
            sandwich_bound_check(S, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=2.0, probes=cap + 1)
        assert seen == calls == []
        assert sandwich_bound_check(S, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=2.0, probes=cap) is True
        assert seen == [cap + 2] and calls == [5.0, 3.0]  # the stub's ball has no probes: S sees b o a, b o inv(a)


    @pytest.mark.parametrize("ball, first", [("premise", 0.7058823529411764), ("bound", 3.7058823529411766)])
    def test_a_nan_probe_is_outside_the_codomain_carrier(self, ball, first):
        # nan compares false with M and with both bounds, so it passed every test of its ball
        centre = 1.0 if ball == "premise" else 4.0
        S = lambda u: math.nan if abs(u - centre) < 0.3 else math.sqrt(u)
        with pytest.raises(DomainError, match=rf"^S\({first!r}\) = nan is outside the codomain carrier$"):
            sandwich_bound_check(S, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=1.3)

    @pytest.mark.parametrize("ball, first", [("premise", -0.08823529411764705), ("bound", 1.911764705882353)])
    def test_a_zero_probe_at_sigma_inf_is_outside_the_codomain_carrier(self, ball, first):
        # 0.0 lies outside (0, inf): below the lower bound it read as a failed sandwich, in the premise as a pass;
        # S(b o a) = S(b o inv(a)) = S(2.0) is a member
        centre = 0.0 if ball == "premise" else 2.0
        S = lambda u: 0.0 if 0.05 < abs(u - centre) < 0.1 else math.exp(u)
        with pytest.raises(DomainError, match=rf"^S\({first!r}\) = 0\.0 is outside the codomain carrier$"):
            sandwich_bound_check(S, ZERO, INFINITY, a=0.0, b=2.0, delta=0.25, M=math.exp(0.25))

    def test_S_sees_every_premise_probe_of_a_vacuous_premise(self):
        calls = []
        S = lambda u: calls.append(u) or u * u
        with pytest.warns(VacuousPremiseWarning):
            assert sandwich_bound_check(S, ZERO, ZERO, a=1.0, b=4.0, delta=0.5, M=1.0) is True
        assert calls == [1.0 + o for o in subadd._linspace(-0.5, 0.5, 35)[1:-1]]

    @pytest.mark.parametrize("rho", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, math.inf])
    def test_same_outcome_as_the_point_records(self, rho, sigma):
        # against the check on PopaPoint records and circle/inverse, where every probe value is a member: the result,
        # the warning or the refusal text, on valid and invalid a, b and M
        r, g = PopaParam(rho), PopaParam(sigma)
        families = [lambda u: abs(u) ** 0.5 + 1.0, lambda u: u * u + 0.5, lambda u: math.exp(min(u, 700.0)),
                    lambda u: 2.0]
        rng = random.Random(f"sandwich-{rho}-{sigma}")
        ends = [0.5, 1.0, 3.0, 0.0, -0.5, -1.0, -2.0, 1e308, math.inf, math.nan]
        compared = 0
        for _ in range(300):
            S, a, b, M = rng.choice(families), rng.choice(ends), rng.choice(ends), rng.choice(ends + [2.0, 50.0])
            delta = rng.choice([0.1, 0.25])
            offsets = subadd._linspace(-delta, delta, 35)[1:-1]
            if not all(popa._is_member(g, S(c + o)) for c in (a, b) if math.isfinite(c) for o in offsets):
                continue
            compared += 1
            assert _sandwich_outcome(sandwich_bound_check, S, r, g, a, b, delta, M) == \
                _sandwich_outcome(_sandwich_by_records, S, r, g, a, b, delta, M), (S, a, b, M, delta)
        assert compared >= 150


def _sandwich_by_records(S, rho, sigma, a, b, delta, M, probes=33):
    """sandwich_bound_check on PopaPoint records, as it was before its probe values were read through the
    codomain rule, kept as the reference where every probe value is a member."""
    probes = popa._count("probes", probes, 2, "probes")
    popa._positive("delta", delta)
    pa, pb = PopaPoint(rho, a), PopaPoint(rho, b)
    popa._positive("b", pb.value)
    Mpt = PopaPoint(sigma, M)
    offsets = subadd._linspace(-delta, delta, probes + 2)[1:-1]
    eps = 1e-12 * (1.0 + abs(M))
    if any(S(pa.value + o) > M + eps for o in offsets):
        warnings.warn(f"premise S <= {M} fails on B_{delta}({a}); sandwich passes vacuously", VacuousPremiseWarning)
        return True
    ba = circle(pb, pa).value
    s_ba = PopaPoint(sigma, subadd._codomain_value(sigma, ba, S(ba)))
    bainv = circle(pb, inverse(pa)).value
    s_bainv = PopaPoint(sigma, subadd._codomain_value(sigma, bainv, S(bainv)))
    lower, upper = circle(s_ba, inverse(Mpt)).value, circle(s_bainv, Mpt).value
    slack = 1e-12 * (1.0 + abs(lower) + abs(upper))
    return not any(v < lower - slack or v > upper + slack for v in (S(pb.value + o) for o in offsets))


def _sandwich_outcome(check, *args):
    """The result and the warning texts of a sandwich check, or the type and text of its refusal."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return check(*args), [str(w.message) for w in caught]
        except (ArithmeticError, ValueError) as exc:
            return type(exc).__name__, str(exc)


def _all_pairs_report(S, rho, sigma, grid, tol=1e-10):
    """The all-pairs loop over validated PopaPoints that subadditivity_check
    used before its float-only rewrite, kept as the reference."""

    def image(x):
        v = S(x)
        try:
            return PopaPoint(sigma, v)
        except DomainError as exc:
            raise DomainError(f"S({x!r}) = {v!r} is outside the codomain carrier") from exc

    gpts = [PopaPoint(rho, float(p)) for p in grid.points()]
    svals = [image(p.value) for p in gpts]
    worst, worst_pair, checked, skipped = 0.0, (math.nan, math.nan), 0, 0
    for i, x in enumerate(gpts):
        for j, y in enumerate(gpts):
            z = circle(x, y).value
            if z < grid.lo or z > grid.hi:
                skipped += 1
                continue
            bound = circle(svals[i], svals[j]).value
            violation = image(z).value - bound
            checked += 1
            if violation > worst:
                worst, worst_pair = violation, (x.value, y.value)
    return SubaddReport(worst <= tol, worst, worst_pair, checked, skipped)


def _bits(report):
    """Every field of a report, floats as hex strings (nan equals nan)."""
    return (report.holds, report.worst_violation.hex(), tuple(v.hex() for v in report.worst_pair),
            report.pairs_checked, report.pairs_skipped)


def _seeded_case(rho, sigma, spacing, violates, seed):
    """A grid and a map S in the style of the benchmark's grids workload:
    the canonical kernel (an exact homomorphism), or one bent by eps*w**2."""
    rng = random.Random(f"{rho}:{sigma}:{spacing}:{violates}:{seed}")
    r, s = PopaParam(rho), PopaParam(sigma)
    w_lo = rng.uniform(0.05, 0.5) if spacing == "geometric" else rng.uniform(-1.0, 0.0)
    grid = GridSpec(iso_exp(r, w_lo), iso_exp(r, rng.uniform(1.0, 2.0)), rng.randint(8, 40), spacing)
    kappa, eps = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.5) if violates else 0.0
    S = lambda t: iso_exp(s, kappa * iso_log(r, t) + eps * iso_log(r, t) ** 2)
    return S, r, s, grid


CORNER_PAIRS = [(rho, sigma) for rho in (0.0, 1.0, math.inf) for sigma in (0.0, 1.0, math.inf)]


class TestFloatOnlyDriver:
    @pytest.mark.parametrize("rho,sigma", CORNER_PAIRS)
    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    @pytest.mark.parametrize("violates", [False, True])
    def test_report_equals_the_all_pairs_loop_bitwise(self, rho, sigma, spacing, violates):
        for seed in range(3):
            S, r, s, grid = _seeded_case(rho, sigma, spacing, violates, seed)
            want = _all_pairs_report(S, r, s, grid)
            report = subadditivity_check(S, r, s, grid)
            assert _bits(report) == _bits(want)
            assert want.pairs_checked > 0
            assert report.pairs_checked + report.pairs_skipped == grid.n * grid.n

    @pytest.mark.parametrize("rho,sigma", CORNER_PAIRS)
    def test_S_is_called_once_per_point_and_unordered_pair(self, rho, sigma):
        S, r, s, grid = _seeded_case(rho, sigma, "linear", True, 0)
        calls = []
        subadditivity_check(lambda t: calls.append(t) or S(t), r, s, grid)
        pts = [PopaPoint(r, p) for p in grid.points()]
        in_window = sum(
            grid.lo <= circle(x, y).value <= grid.hi for i, x in enumerate(pts) for y in pts[i:]
        )
        assert len(calls) == grid.n + in_window

    def test_underflowing_pair_is_skipped(self):
        # 1e-200 * 1e-200 underflows to 0.0, outside (0, inf): it used to raise
        report = subadditivity_check(lambda t: t, INFINITY, INFINITY, GridSpec(1e-200, 1.0, 5))
        assert _bits(report) == _bits(SubaddReport(True, 0.0, (math.nan, math.nan), 18, 7))

    @pytest.mark.parametrize("param,grid", [
        (INFINITY, GridSpec(1.0, 1e300, 5)),  # products of the large points overflow to inf
        (ZERO, GridSpec(1e307, 1.5e308, 5)),  # every sum overflows to inf
    ])
    def test_overflowing_pair_is_skipped(self, param, grid):
        report = subadditivity_check(lambda t: t, param, param, grid)
        assert report.holds
        assert report.pairs_checked + report.pairs_skipped == 25
        assert report.pairs_skipped > 0

    def test_grid_size_is_bounded_before_any_point_is_made(self, monkeypatch):
        def no_points(self):
            raise AssertionError("points() called")

        S = lambda t: pytest.fail("S may not be called")
        monkeypatch.setattr(GridSpec, "points", no_points)
        with pytest.raises(DomainError, match="the budget of one call"):
            subadditivity_check(S, ZERO, ZERO, GridSpec(0.0, 1.0, 10**8))
        # 2560*2561/2 unordered pairs are over the budget of 3276800; 2559*2560/2 = 3275520 are within it
        with pytest.raises(DomainError, match="^too many unordered pairs of grid points: 3278080, more than 3276800"):
            subadditivity_check(S, ZERO, ZERO, GridSpec(0.0, 1.0, 2560))
        with pytest.raises(AssertionError, match="points"):
            subadditivity_check(S, ZERO, ZERO, GridSpec(0.0, 1.0, 2559))

    def test_span_must_not_overflow(self):
        with pytest.raises(ValueError, match="span"):
            GridSpec(-1e308, 1e308, 5)
        pts = GridSpec(-1e308, 7e307, 3).points()  # a wide span that stays finite is kept
        assert (pts[0], pts[-1]) == (-1e308, 7e307) and all(map(math.isfinite, pts))


def _parent_driver(S, rho, sigma, grid, tol=1e-10):
    """The per-pair row loop that subadditivity_check ran before it bisected its windows, kept as the
    reference for the order of S's calls, for the report where z leaves the carrier, and for errors."""

    def image(x):
        v = S(x)
        try:
            return popa._check_value(sigma, v)
        except DomainError as exc:
            raise DomainError(f"S({x!r}) = {v!r} is outside the codomain carrier") from exc

    pts = [popa._check_value(rho, p) for p in grid.points()]
    svals = [image(p) for p in pts]
    rho_op, sigma_op = rho._row.op, sigma._row.op
    worst, worst_pair, checked, skipped = 0.0, (math.nan, math.nan), 0, 0
    for i, x in enumerate(pts):
        weight = 1
        for y, sy in zip(pts[i:], svals[i:]):
            z = rho_op(x, y)
            if not grid.lo <= z <= grid.hi:
                skipped += weight
            else:
                bound = popa._check_value(sigma, sigma_op(svals[i], sy))
                violation = image(z) - bound
                checked += weight
                if violation > worst:
                    worst, worst_pair = violation, (x, y)
            weight = 2
    return SubaddReport(worst <= tol, worst, worst_pair, checked, skipped)


def _calls(driver, S, *args):
    """The report of driver(S, *args), or the text of its DomainError, and the arguments S saw, as hex."""
    seen = []
    try:
        result = _bits(driver(lambda t: seen.append(t.hex()) or S(t), *args))
    except DomainError as exc:
        result = str(exc)
    return result, seen


def _near_pole_case(seed):
    """Finite rho and lo with 1 + rho*lo between 1e-16 and 1e-9, so rows x < 0 near the pole -1/rho, where
    fl((x + y) + rho*(x*y)) steps back as y grows; S is bounded, so every bound and S(z) is in the carrier."""
    rng = random.Random(f"pole:{seed}")
    rho = 10.0 ** rng.uniform(-2.0, 3.0)
    lo = -(1.0 - rng.choice((1e-12, 10.0 ** rng.uniform(-15.5, -9.0)))) / rho
    hi = rng.choice((-lo * rng.uniform(1e-6, 2.0), 10.0 ** rng.uniform(-8.0, 0.0) / rho))
    r, s = PopaParam(rho), PopaParam(rng.choice((0.0, 1.0, math.inf)))
    kappa, eps = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5)

    def S(t):
        w = math.atan(iso_log(r, t))
        return iso_exp(s, kappa * w + eps * w * w)

    return S, r, s, GridSpec(lo, hi, rng.randint(8, 300))


def _split_windows(rho, grid):
    """How many rows have an in-window set of partners that is not one slice of the grid."""
    pts, op = grid.points(), rho._row.op
    inside = ["".join("1" if grid.lo <= op(x, y) <= grid.hi else "0" for y in pts[i:]) for i, x in enumerate(pts)]
    return sum("0" in row.strip("0") for row in inside)


OVER_AND_UNDERFLOW = [  # grids whose combinations x o y leave the float range
    (INFINITY, INFINITY, GridSpec(1.0, 1e300, 60), math.sqrt),  # products overflow
    (INFINITY, INFINITY, GridSpec(1e-200, 1.0, 60), math.sqrt),  # products underflow to 0 or subnormals
    (INFINITY, INFINITY, GridSpec(1e-200, 1e200, 60, "geometric"), math.sqrt),  # both
    (ZERO, ZERO, GridSpec(1e307, 1.5e308, 60), lambda t: 0.5 * t),  # sums overflow
    (ZERO, ZERO, GridSpec(-1e308, 7e307, 60), lambda t: 0.5 * t),  # negative sums overflow
    (P1, P1, GridSpec(-0.5, 1e300, 60), lambda t: 0.999 * t),  # x*y overflows, and x < 0 rows
    (P1, ZERO, GridSpec(1e-300, 1e300, 60, "geometric"), lambda t: math.log1p(t)),  # x*y under- and overflows
]


class TestBisectedWindows:
    def test_rows_near_the_pole_match_the_row_loop_bitwise(self):
        # _all_pairs_report cannot serve here: it raises where a rounded z out of the window leaves the carrier
        split = 0
        for seed in range(40):
            S, r, s, grid = _near_pole_case(seed)
            assert _calls(subadditivity_check, S, r, s, grid) == _calls(_parent_driver, S, r, s, grid), seed
            split += _split_windows(r, grid)
        assert split > 0  # some rows have windows that are not slices: bisecting there would drop pairs

    @pytest.mark.parametrize("rho,sigma,grid,S", OVER_AND_UNDERFLOW)
    def test_windows_that_over_or_underflow_match_the_row_loop(self, rho, sigma, grid, S):
        want = _calls(_parent_driver, S, rho, sigma, grid)
        assert _calls(subadditivity_check, S, rho, sigma, grid) == want
        assert 0 < want[0][4] < grid.n**2  # some pairs skipped, some checked

    @pytest.mark.parametrize("rho,sigma", [(0.0, math.inf), (1.0, 1.0), (math.inf, 0.0)])
    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    def test_grids_of_300_points_match_the_all_pairs_loop_bitwise(self, rho, sigma, spacing):
        S, r, s, grid = _seeded_case(rho, sigma, spacing, True, 0)
        wide = GridSpec(iso_exp(r, -3.0 if spacing == "linear" else 0.01), iso_exp(r, 3.0), 250, spacing)
        for grid in (GridSpec(grid.lo, grid.hi, 300, spacing), wide):
            assert _bits(subadditivity_check(S, r, s, grid)) == _bits(_all_pairs_report(S, r, s, grid))

    @pytest.mark.parametrize("rho,sigma", CORNER_PAIRS)
    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    def test_S_sees_the_row_loop_arguments_in_order(self, rho, sigma, spacing):
        for seed in range(3):
            S, r, s, grid = _seeded_case(rho, sigma, spacing, seed == 1, seed)
            assert _calls(subadditivity_check, S, r, s, grid) == _calls(_parent_driver, S, r, s, grid)

    @pytest.mark.parametrize("sigma", [ZERO, P1, INFINITY], ids=str)
    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    def test_rows_empty_below_lo_match_the_row_loop(self, sigma, spacing):
        # at rho = inf on [0.1, 0.5], x*y < lo for every partner y of a row x < 0.2: the first rows are empty
        S = lambda t: iso_exp(sigma, 1.3 * math.log(t) + 0.2 * math.log(t) ** 2)
        grid = GridSpec(0.1, 0.5, 40, spacing)
        pts = grid.points()
        assert pts[1] * pts[-1] < grid.lo
        got = _calls(subadditivity_check, S, INFINITY, sigma, grid)
        assert got == _calls(_parent_driver, S, INFINITY, sigma, grid)
        assert got[0][3] > 0 and got[0][3] + got[0][4] == 40 * 40


class TestErrorPath:
    # On this grid the row x = pts[1] has in-window partners pts[1:6], and S(x)*S(y) overflows from pts[2] on,
    # so the first failing bound is partway through the row; no z of row 0 is one of row 1.
    GRID = GridSpec(0.5, 2.0, 8, "geometric")

    @pytest.mark.parametrize("k,fails", [(0, "image"), (1, "bound"), (3, "bound"), (None, "bound")])
    def test_first_failing_pair_of_the_row_is_reported(self, k, fails):
        pts = self.GRID.points()
        row = [pts[1] + y for y in pts[1:6]]
        table = dict(zip(pts, [1.0, 1e150, 1e200, 1e200, 1e200, 1e200, 1.0, 1.0]))
        S = lambda t: math.nan if k is not None and t == row[k] else table.get(t, 1.0)
        got, seen = _calls(subadditivity_check, S, ZERO, INFINITY, self.GRID)
        want, parent_seen = _calls(_parent_driver, S, ZERO, INFINITY, self.GRID)
        message = {"image": f"S({row[0]!r}) = nan is outside the codomain carrier",
                   "bound": "point must be finite, got inf"}[fails]
        assert got == want == message
        assert seen[: len(parent_seen)] == parent_seen  # S saw what the row loop gave it up to the failure
        assert seen[-len(row):] == [z.hex() for z in row]  # and then the rest of the row

    @pytest.mark.parametrize("bad,fails", [(math.nan, "image"), (-math.inf, "image"), (1e308, "bound")])
    def test_at_sigma_zero_a_sum_that_is_not_finite_reports_the_first_failing_pair(self, bad, fails):
        # at sigma = 0 every finite value is a member, so the finite sum of a row decides it without its least
        # bound and image; an image nan or -inf, or a bound 1e308 + 1e308, sends the row to its pair checks
        pts = self.GRID.points()
        row = [pts[1] + y for y in pts[1:6]]
        table = {pts[1]: 1e308, pts[2]: 1e308} if fails == "bound" else {row[2]: bad}
        S = lambda t: table.get(t, 1.0)
        got, seen = _calls(subadditivity_check, S, ZERO, ZERO, self.GRID)
        want, parent_seen = _calls(_parent_driver, S, ZERO, ZERO, self.GRID)
        message = {"image": f"S({row[2]!r}) = {bad!r} is outside the codomain carrier",
                   "bound": "point must be finite, got inf"}[fails]
        assert got == want == message
        assert seen[: len(parent_seen)] == parent_seen

    def test_image_outside_the_codomain_partway_through_a_per_pair_row(self):
        grid = GridSpec(-0.9, 1.0, 12)  # rho = 1: rows x < 0 test each pair
        pts = grid.points()
        row = [z for z in (pts[0] + y + pts[0] * y for y in pts) if -0.9 <= z <= 1.0]
        S = lambda t: -5.0 if t == row[2] else 0.5 * t
        got, seen = _calls(subadditivity_check, S, P1, P1, grid)
        assert got == _calls(_parent_driver, S, P1, P1, grid)[0]
        assert got == f"S({row[2]!r}) = -5.0 is outside the codomain carrier"
        assert seen[12:] == [z.hex() for z in row] and len(row) > 3


# Windows (w_lo, w_hi) in the additive coordinate w = iso_log(t), linear spacing then geometric (lo > 0 there)
EARLY_STOP_WINDOWS = {
    "empties partway": ((-1.0, 2.0), (0.1, 2.0)),  # the diagonal x o x passes hi at w = 1
    "every row empty": ((1.0, 1.5), (1.0, 1.5)),  # hi < lo o lo
    "lower bisect first": ((-2.0, 1.0), (0.05, 1.0)),  # linear: x o x < lo in the first rows, x < 0 at rho = 1
}


class TestEarlyStop:
    @pytest.mark.parametrize("rho,sigma", CORNER_PAIRS)
    @pytest.mark.parametrize("spacing", ["linear", "geometric"])
    @pytest.mark.parametrize("window", EARLY_STOP_WINDOWS)
    def test_rows_past_the_first_empty_diagonal_match_the_row_loop(self, rho, sigma, spacing, window):
        r, s = PopaParam(rho), PopaParam(sigma)
        w_lo, w_hi = EARLY_STOP_WINDOWS[window][spacing == "geometric"]
        S = lambda t: iso_exp(s, 1.3 * iso_log(r, t) + 0.2 * iso_log(r, t) ** 2)
        for n in (2, 3, 40):
            grid = GridSpec(iso_exp(r, w_lo), iso_exp(r, w_hi), n, spacing)
            pts, op = grid.points(), r._row.op
            got = _calls(subadditivity_check, S, r, s, grid)
            assert got == _calls(_parent_driver, S, r, s, grid)
            *_, checked, skipped = got[0]
            assert checked + skipped == n * n
            assert op(pts[-1], pts[-1]) > grid.hi  # the last rows are empty
            if window == "every row empty":
                assert (checked, skipped, len(got[1])) == (0, n * n, n)
            else:
                assert checked > 0
            if window == "lower bisect first" and spacing == "linear":
                assert op(pts[0], pts[0]) < grid.lo
                # at finite rho the x < 0 rows test each pair, and then the monotone rows bisect
                assert pts[0] < r._row.identity <= pts[-1]
