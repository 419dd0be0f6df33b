from __future__ import annotations

import math
import random

import numpy as np
import pytest

from regvar.kernels import GoldieAux, KernelParams, goldie_integral, kernel_eval
from regvar.popa import INFINITY, ZERO, DomainError, PopaParam, PopaPoint, circle, iso_exp, iso_log
from regvar.subadd import (
    GridSpec,
    SubaddReport,
    VacuousPremiseWarning,
    additively_bounded_check,
    default_probe_sequence,
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


class TestHeibergSenetaProbe:
    def test_default_sequence_is_dyadic(self):
        seq = default_probe_sequence(5)
        assert seq == [0.5, 0.25, 0.125, 0.0625, 0.03125]

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
            assert _bits(subadditivity_check(S, r, s, grid)) == _bits(want)
            assert want.pairs_checked > 0

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

        monkeypatch.setattr(GridSpec, "points", no_points)
        with pytest.raises(DomainError, match="too large"):
            subadditivity_check(math.sqrt, ZERO, ZERO, GridSpec(0.0, 1.0, 10**8))
        with pytest.raises(DomainError, match="too large"):
            subadditivity_check(math.sqrt, ZERO, ZERO, GridSpec(0.0, 1.0, 10**4 + 1))

    def test_span_must_not_overflow(self):
        with pytest.raises(ValueError, match="span"):
            GridSpec(-1e308, 1e308, 5)
        pts = GridSpec(-1e308, 7e307, 3).points()  # a wide span that stays finite is kept
        assert (pts[0], pts[-1]) == (-1e308, 7e307) and all(map(math.isfinite, pts))
