"""Invariant measure and harmonic analysis on the Popa groups.

:func:`haar_interval_measure` and :func:`haar_integrate` read the span of the
interval in the group's chart of :mod:`regvar.popa`, off the t-line its
translate to the identity, where the measure ``(1+rho)/(1+rho*t) dt`` is
``c*dv``.  The transforms and :func:`popa_convolution` integrate
``c*f(E(w)/d) dw`` over ``[-T, T]``, ``T = spec.truncation``, in the chart
(E, d, c), ``t = E(w)/d``, whose t-line scales are T, |z|*T and |x|, T:
there the characters and ``x o t`` are 1 and x + t to working precision.
Elsewhere (1+rho)/rho must be finite, and so must E(T): T <= log(DBL_MAX).  The
characters are ``exp(i*gamma*w)``, so the transforms are Fourier/Laplace
integrals on the line, by the Clenshaw-Curtis cells of :mod:`regvar.quadrature`,
Filon-Clenshaw-Curtis for ``exp(-z*w)``, whose cost follows the profile and not
the frequency.  Only ``fourier_popa`` at rho = 0 with 2T|gamma| <= 64 pi starts
with the Simpson rule, whose output there is pinned, and hands the integrals it
does not converge on to those cells.
"""
from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable

from regvar.popa import (DomainError, PopaParam, PopaPoint, _Record, _chart, _density, _finite, _haar_length, _positive,
                         _span, iso_log)
from regvar.quadrature import QuadratureResult, QuadratureSpec, QuadratureWarning, _cc_integral, adaptive_integral

__all__ = [
    "Interval",
    "haar_interval_measure",
    "haar_integrate",
    "character_eval",
    "fourier_popa",
    "mellin_popa",
    "popa_convolution",
    "beurling_convolution",
]


class Interval(_Record, frozen=True):
    """Order interval (lo, hi) inside the carrier of ``param``."""

    __slots__ = ("param", "lo", "hi")

    def __init__(self, param: PopaParam, lo: float, hi: float) -> None:
        a, b = PopaPoint(param, lo).value, PopaPoint(param, hi).value
        if not a < b:
            raise DomainError(f"interval needs lo < hi, got ({lo}, {hi})")
        self._freeze(param, a, b)


def haar_interval_measure(iv: Interval) -> float:
    """Invariant measure of an interval: its Haar length in the group's chart."""
    return _haar_length(iv.param, iv.lo, iv.hi)


def _value(res: QuadratureResult, what: Callable[[], str]) -> complex | float:
    """``res.value``, which must be finite; non-convergence is warned about at the caller of the public function
    that passed ``res``.  The error and the warning name the call by ``what()``, which is only built then."""
    if not cmath.isfinite(res.value):
        raise DomainError(f"{what()} must be finite, got {res.value!r}")
    if not res.converged:
        warnings.warn(f"{what()} did not converge: best estimate {res.value!r}, error bound {res.error:.3e}",
                      QuadratureWarning, stacklevel=3)
    return res.value


def haar_integrate(
    f: Callable[[float], float],
    iv: Interval,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integral of f over the interval against the invariant measure: of ``c*f(t(v))`` dv over the interval's span
    in the chart, off the t-line its translate to the identity (``regvar.popa._span``)."""
    lo, hi, g, c = _span(iv.param, iv.lo, iv.hi, f)
    _density(iv.param, c)
    if not math.isfinite(hi - lo):
        raise DomainError(f"haar_integrate over ({iv.lo}, {iv.hi}): the interval's span in popa's chart, {hi - lo}, "
                          "is not finite")
    res = _cc_integral(g, lo, hi, spec)
    if not (res.converged and cmath.isfinite(res.value)):  # the call is named only in a refusal or a warning
        _value(res, lambda: f"haar_integrate over ({iv.lo}, {iv.hi})")
    return float(res.value.real)


def character_eval(param: PopaParam, gamma: float, u: float) -> complex:
    """Unitary character exp(i*gamma*log(1+rho*u)); exp(i*gamma*u) at rho = 0."""
    return cmath.exp(1j * gamma * iso_log(param, u))


def _line_transform(f, param: PopaParam, z: complex, spec: QuadratureSpec,
                    what: Callable[[], str]) -> QuadratureResult:
    """The line integral of ``c*f(E(w)/d) * exp(-z*w)`` over ``[-T, T]`` in the chart of ``param``; on the
    t-line at rho > 0 the character is 1, which leaves the Haar integral of f over t in [-T, T]."""
    if not cmath.isfinite(z):
        raise DomainError(f"{what()}: the exponent must be finite")
    T = spec.truncation
    zT = abs(z) * T
    E, d, c = chart = _chart(param, zT, T=T if zT < math.inf else 0.0)  # an infinite |z|*T is reported first
    if zT == math.inf:
        raise DomainError(f"{what()}: |z|*T = {zT} is not finite")
    prof = lambda w: c * f(E(w) / d)
    if param.is_zero and not (z.imag and 2.0 * T / (math.pi / abs(z.imag)) > 64):  # the pinned Simpson path
        res = adaptive_integral(lambda w: prof(w) * cmath.exp(-z * w), -T, T, spec)
        if res.converged:  # its misses go to the cells below
            return res
    return _cc_integral(prof, -T, T, spec, z if chart == param._row.chart else 0.0)  # 0 on the t-line of a rho > 0


def fourier_popa(
    f: Callable[[float], float],
    param: PopaParam,
    gamma: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Fourier coefficient of f against the character with frequency gamma:
    the Mellin-type transform below at ``z = i*gamma``, for every rho."""
    what = lambda: f"fourier_popa(gamma={gamma})"
    return complex(_value(_line_transform(f, param, complex(0.0, gamma), spec, what), what))


def mellin_popa(
    f: Callable[[float], float],
    param: PopaParam,
    z: complex,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Mellin-type transform for rho > 0: integral of f(t) eta(t)^-z against the Haar measure, that is of
    ``c*f(E(w)/d) * exp(-z*w) dw`` in the chart.  At rho = inf it is the classical Mellin transform, integral of
    f(t) t^-z dt/t; at a finite rho it is the classical one of the transport ``(1+rho)/rho * f((t-1)/rho)``."""
    if param.is_zero:
        raise DomainError("mellin transform requires a positive parameter")
    z = complex(z)
    what = lambda: f"mellin_popa(z={z})"
    return complex(_value(_line_transform(f, param, z, spec, what), what))


def popa_convolution(
    f: Callable[[float], float],
    g: Callable[[float], float],
    x: PopaPoint,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Haar convolution (f*g)(x) = integral of f(inv(t)) g(x o t) d_eta(t).

    Evaluated in the chart of rho, where the invariant measure is c*dw,
    inside the integrand so that the tolerances bound the convolution.
    """
    p, x = x.param, x.value
    T = spec.truncation
    E, d, c = _chart(p, abs(x), T=T)
    eta_x, shift = p._row.eta(x), p._row.op(x, 0.0)  # x o t = eta(x)*t + x o 0: off the t-line without the
    integrand = lambda w: c * f(E(-w) / d) * g(eta_x * E(w) / d + shift)  # cancellation of (eta_x*e^w - 1)/rho
    return float(_value(_cc_integral(integrand, -T, T, spec), lambda: f"popa_convolution at x={x}").real)


def beurling_convolution(
    F: Callable[[float], float],
    H: Callable[[float], float],
    phi: Callable[[float], float],
    x: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Convolution along the auxiliary flow: integral of F(-t) H(x + t*phi(x)) dt.

    H is only evaluated where F(-t) is non-zero, so H may be defined just on
    the reachable window.  A quadrature cell where F vanishes at every node
    costs only F's evaluations: its gauge is 0 without being computed.
    """
    px = _positive("phi(x)", phi(_finite("x", x)))
    T = spec.truncation

    def integrand(t: float) -> float:
        fv = F(-t)
        if fv == 0.0:
            return 0.0
        return fv * H(x + t * px)

    return float(_value(_cc_integral(integrand, -T, T, spec), lambda: f"beurling_convolution at x={x}").real)
