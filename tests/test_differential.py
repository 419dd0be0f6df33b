"""Differential suite: the Haar integrals against the same truncated integrals in mpmath at 30 digits.

Every call runs at each rho of RHOS on Gaussian profiles, and none warns (pytest turns a warning into an
error).  Each must lie within its tolerance max(abs_tol, rel_tol*|truth|) of the truth, which mpmath takes in
the chart ``w = iso_log(t)`` of ``regvar.popa`` between breakpoints that follow the profile: the images of t in a
fixed ladder, and every even w.  Between rho = 1e-13 and 1e-17 ``fourier_popa`` and ``popa_convolution``
of a Gaussian warn (see CHANGES.md), so those rho are left out.
"""
from __future__ import annotations

import math

import mpmath as mp
import pytest

from regvar.haar import Interval, fourier_popa, haar_integrate, mellin_popa, popa_convolution
from regvar.popa import PopaParam, PopaPoint
from regvar.quadrature import QuadratureSpec

RHOS = [0.0, 1e-300, 1e-12, 0.5, 1.0, 7.0, 1e12, 1e300, math.inf]
SPEC = QuadratureSpec()
T = SPEC.truncation
LADDER = [0.0, *(s * t for t in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0, 14.0, 40.0) for s in (-1.0, 1.0))]


def gauss(t: float) -> float:
    return math.exp(-0.5 * t * t)


def _chart(rho: float):
    """L, E, d, c of the chart at 30 digits: iso_log(t) = L(d*t), t = E(w)/d, measure c*dw (rho = 0: the identity)."""
    if rho == 0.0:
        return (lambda t: t), (lambda w: w), mp.mpf(1), mp.mpf(1)
    if rho == math.inf:
        return mp.log, mp.exp, mp.mpf(1), mp.mpf(1)
    d = mp.mpf(rho)
    return mp.log1p, mp.expm1, d, (1 + d) / d


def _truth(rho: float, integrand, lo, hi, centres=(0.0,)) -> mp.mpc:
    """Integral of integrand(w, E, d, c) over [lo, hi] in w, split where the profile moves: the images of the
    ladder around each centre t inside the carrier, and the even integers."""
    L, E, d, c = _chart(rho)
    cuts = {mp.mpf(lo), mp.mpf(hi), *(mp.mpf(k) for k in range(2 * math.ceil(lo / 2), math.floor(hi) + 1, 2))}
    for t in (mp.mpf(centre) + step for centre in centres for step in LADDER):
        if rho == 0.0 or (t > 0 if rho == math.inf else 1 + d * t > 0):
            w = L(d * t)
            if lo < w < hi:
                cuts.add(w)
    return mp.quad(lambda w: integrand(w, E, d, c), sorted(cuts), method="gauss-legendre")


def _assert_within_tolerance(value, truth):
    assert abs(value - complex(truth)) <= max(SPEC.abs_tol, SPEC.rel_tol * float(abs(truth))), (value, truth)


@pytest.fixture(autouse=True)
def thirty_digits():
    with mp.workdps(30):
        yield


def _interval(rho: float, lo: float, hi: float):
    return Interval(PopaParam(rho), lo, hi)


def _haar_truth(rho: float, lo: float, hi: float) -> mp.mpf:
    L, _, d, _ = _chart(rho)
    return _truth(rho, lambda w, E, d, c: c * mp.exp(-E(w) ** 2 / (2 * d * d)), L(d * lo), L(d * hi)).real


class TestHaarIntegrate:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("lo, hi", [(0.5, 3.0), (1e-3, 40.0)])
    def test_matches_mpmath(self, rho, lo, hi):
        _assert_within_tolerance(haar_integrate(gauss, _interval(rho, lo, hi)), _haar_truth(rho, lo, hi))

    @pytest.mark.parametrize("rho", [r for r in RHOS if r < 10.0])
    def test_across_the_identity_matches_mpmath(self, rho):
        _assert_within_tolerance(haar_integrate(gauss, _interval(rho, -0.1, 2.0)), _haar_truth(rho, -0.1, 2.0))

    @pytest.mark.parametrize("lo, hi", [(0.5, 3.0), (1e-3, 40.0)])
    def test_continuous_at_both_ends_of_rho(self, lo, hi):
        assert haar_integrate(gauss, _interval(1e-300, lo, hi)) == haar_integrate(gauss, _interval(0.0, lo, hi))
        at_inf = haar_integrate(gauss, _interval(math.inf, lo, hi))
        _assert_within_tolerance(haar_integrate(gauss, _interval(1e300, lo, hi)), at_inf)


def _transform_truth(rho: float, z: complex) -> mp.mpc:
    z = mp.mpc(z)
    return _truth(rho, lambda w, E, d, c: c * mp.exp(-E(w) ** 2 / (2 * d * d) - z * w), -T, T)


class TestLineTransforms:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_fourier_matches_mpmath(self, rho, gamma):
        _assert_within_tolerance(fourier_popa(gauss, PopaParam(rho), gamma), _transform_truth(rho, 1j * gamma))

    @pytest.mark.parametrize("rho", [r for r in RHOS if 0.0 < r < math.inf])
    @pytest.mark.parametrize("z", [0.25 + 1j, -0.5 + 4j])
    def test_mellin_matches_mpmath(self, rho, z):
        _assert_within_tolerance(mellin_popa(gauss, PopaParam(rho), z), _transform_truth(rho, z))


class TestPopaConvolution:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_matches_mpmath(self, rho, x):
        value = popa_convolution(gauss, gauss, PopaPoint(PopaParam(rho), x))
        X = mp.mpf(x)
        if rho == math.inf:
            eta_x, shift = X, 0
        else:
            eta_x, shift = 1 + mp.mpf(rho) * X, X
        integrand = lambda w, E, d, c: c * mp.exp(-(E(-w) / d) ** 2 / 2 - (eta_x * E(w) / d + shift) ** 2 / 2)
        # g(x o t) is centred where x o t = 0, at t = -x/(1 + rho*x): about -x off rho = inf
        truth = _truth(rho, integrand, -T, T, centres=(0.0, -x / (1.0 + rho * x) if rho < math.inf else 0.0))
        _assert_within_tolerance(value, truth.real)
