"""Invariant measure and harmonic analysis on the Popa groups.

The invariant (Haar) measure of ``G_rho`` has density ``(1+rho)/(1+rho*t)``:
``dt`` at rho = 0, ``dt/t`` at rho = inf.  Every integral below is an ordinary
integral in one chart ``w = L(d*t)``, ``t = E(w)/d``, where the measure is ``c*dw``:

    rho                   L      E      d    c
    finite                log1p  expm1  rho  (1+rho)/rho
    inf                   log    exp    1    1
    0, or rho*s < 2**-53  t      t      1    1+rho        (the t-line)

A finite rho takes the t-line when rho*s < 2**-53 for every scale s (|lo|, |hi|;
T, |z|*T; |x|, T): the density, the characters and ``x o t`` are then 1+rho, 1
and x + t to working precision.  Elsewhere (1+rho)/rho must be finite, and so
must E(T) on ``[-T, T]``, ``T = spec.truncation``: T <= log(DBL_MAX).  The
characters are ``exp(i*gamma*w)``, so the transforms are Fourier/Laplace
integrals on the line, by the Clenshaw-Curtis cells of :mod:`regvar.quadrature`,
Filon-Clenshaw-Curtis for ``exp(-z*w)``, whose cost follows the profile and not
the frequency; only ``fourier_popa`` at rho = 0 with 2T|gamma| <= 64 pi keeps the
Simpson rule, whose output there is pinned.
"""
from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

from regvar.popa import _TINY, DomainError, PopaParam, PopaPoint, _log_eta_over_rho, iso_log
from regvar.quadrature import QuadratureSpec, QuadratureWarning, _cc_integral, adaptive_integral

__all__ = [
    "Interval",
    "haar_interval_measure",
    "haar_integrate",
    "character_eval",
    "pullback_multiplicative",
    "fourier_popa",
    "mellin_popa",
    "popa_convolution",
    "beurling_convolution",
]

_LOG_DBL_MAX = math.log(sys.float_info.max)  # the largest T with exp(T) and expm1(T) finite
_t = lambda w: w  # the t-line's L and E


@dataclass(frozen=True)
class Interval:
    """Order interval (lo, hi) inside the carrier of ``param``."""

    param: PopaParam
    lo: float
    hi: float

    def __post_init__(self) -> None:
        a = PopaPoint(self.param, self.lo)
        b = PopaPoint(self.param, self.hi)
        if not a.value < b.value:
            raise DomainError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")
        object.__setattr__(self, "lo", a.value)
        object.__setattr__(self, "hi", b.value)


def haar_interval_measure(iv: Interval) -> float:
    """Closed-form invariant measure of an interval."""
    p = iv.param
    if p.is_zero:
        return iv.hi - iv.lo
    if p.is_infinite:
        return math.log(iv.hi) - math.log(iv.lo)
    return (1.0 + p.rho) * (_log_eta_over_rho(p.rho, iv.hi) - _log_eta_over_rho(p.rho, iv.lo))


def _chart(param: PopaParam, *scales: float, T: float = 0.0) -> tuple:
    """(L, E, d, c) of the table in the module docstring: w = L(d*t), t = E(w)/d, and the Haar measure is c*dw.

    The t-line where rho*s < _TINY for T and every scale s; off it c must be finite, and so must E(T) when w
    ranges over [-T, T] (T = 0 where it does not)."""
    rho = param.rho
    if rho == 0.0 or rho * max((T, *scales)) < _TINY:
        return _t, _t, 1.0, 1.0 + rho
    L, E, d, c = ((math.log, math.exp, 1.0, 1.0) if param.is_infinite
                  else (math.log1p, math.expm1, rho, (1.0 + rho) / rho))
    if math.isinf(c):
        raise DomainError(f"rho={rho!r} is too small for the coordinate log(1+rho*t)")
    if T > _LOG_DBL_MAX:
        raise DomainError(f"truncation={T!r} overflows {E.__name__}(truncation) at rho={param}: "
                          f"it must be at most log(DBL_MAX) = {_LOG_DBL_MAX!r}")
    return L, E, d, c


def _pull(f, E, d, c):
    """f in the chart, ``w -> c*f(E(w)/d)``, less the unit d, c and identity E that add up to 10% per call."""
    if (d, c) != (1.0, 1.0):
        return lambda w: c * f(E(w) / d)
    return f if E is _t else lambda w: f(E(w))


def _integrate(fn, lo: float, hi: float, spec: QuadratureSpec, what: str, depth=1, z=0.0) -> complex | float:
    """Integral of ``fn(w)*exp(-z*w)`` by Clenshaw-Curtis cells, or of ``fn`` by :func:`adaptive_integral` given
    ``z=None``; non-convergence is warned about at the caller of the public function, ``depth`` frames above."""
    res = adaptive_integral(fn, lo, hi, spec) if z is None else _cc_integral(fn, lo, hi, spec, z)
    if not res.converged:
        warnings.warn(
            f"{what} did not converge: best estimate {res.value!r}, error bound {res.error:.3e}",
            QuadratureWarning,
            stacklevel=2 + depth,
        )
    return res.value


def haar_integrate(
    f: Callable[[float], float],
    iv: Interval,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integral of f over the interval against the invariant measure: of ``c*f(E(w)/d)`` dw in the chart."""
    L, E, d, c = _chart(iv.param, abs(iv.lo), abs(iv.hi))
    what = f"haar_integrate over ({iv.lo}, {iv.hi})"
    return float(_integrate(_pull(f, E, d, c), L(d * iv.lo), L(d * iv.hi), spec, what).real)


def character_eval(param: PopaParam, gamma: float, u: float) -> complex:
    """Unitary character exp(i*gamma*log(1+rho*u)); exp(i*gamma*u) at rho = 0."""
    return cmath.exp(1j * gamma * iso_log(param, u))


def pullback_multiplicative(f: Callable[[float], float], param: PopaParam) -> Callable[[float], float]:
    """Transport f from a finite-rho group to (0, inf): t -> (1+rho)/rho * f((t-1)/rho)."""
    if not param.is_finite:
        raise DomainError("pullback requires a finite positive parameter")
    rho = param.rho
    scale = (1.0 + rho) / rho

    def g(t: float) -> float:
        if t <= 0.0:
            raise DomainError(f"pullback argument must be positive, got {t!r}")
        return scale * f((t - 1.0) / rho)

    return g


def _line_transform(f, param: PopaParam, z: complex, spec: QuadratureSpec, what: str) -> complex:
    """Line integral of ``c*f(E(w)/d) * exp(-z*w)`` over ``[-T, T]`` in the chart of ``param``; on the
    t-line at rho > 0 the character is 1, which leaves the Haar integral of f over t in [-T, T]."""
    if not cmath.isfinite(z):
        raise DomainError(f"{what}: the exponent must be finite")
    T = spec.truncation
    zT = abs(z) * T
    _, E, d, c = _chart(param, zT, T=T if zT < math.inf else 0.0)  # an infinite |z|*T is reported first
    if zT == math.inf:
        raise DomainError(f"{what}: |z|*T = {zT} is not finite")
    prof = _pull(f, E, d, c)
    if param.is_zero and not (z.imag and 2.0 * T / (math.pi / abs(z.imag)) > 64):  # the pinned Simpson path
        return complex(_integrate(lambda w: prof(w) * cmath.exp(-z * w), -T, T, spec, what, 2, None))
    return complex(_integrate(prof, -T, T, spec, what, 2, z if param.is_zero or E is not _t else 0.0))


def fourier_popa(
    f: Callable[[float], float],
    param: PopaParam,
    gamma: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Fourier coefficient of f against the character with frequency gamma:
    the Mellin-type transform below at ``z = i*gamma``, for every rho."""
    return _line_transform(f, param, complex(0.0, gamma), spec, f"fourier_popa(gamma={gamma})")


def mellin_popa(
    f: Callable[[float], float],
    param: PopaParam,
    z: complex,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Mellin-type transform of the pullback: integral of f_rho(t) t^-z dt/t."""
    if not param.is_finite:
        raise DomainError("mellin transform requires a finite positive parameter")
    z = complex(z)
    return _line_transform(f, param, z, spec, f"mellin_popa(z={z})")


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
    _, E, d, c = _chart(p, abs(x), T=T)
    if E is _t:  # x o t = x + t; calling the identity maps here costs a tenth more time per call
        integrand = lambda w: c * f(-w) * g(w + x)
    else:  # x o t = eta_x*t + shift: (1+rho*x)*t + x, without the cancellation of (eta_x*e^w - 1)/rho, or x*t
        eta_x, shift = (x, 0.0) if p.is_infinite else (1.0 + p.rho * x, x)
        integrand = lambda w: c * f(E(-w) / d) * g(eta_x * E(w) / d + shift)
    return float(_integrate(integrand, -T, T, spec, f"popa_convolution at x={x}").real)


def beurling_convolution(
    F: Callable[[float], float],
    H: Callable[[float], float],
    phi: Callable[[float], float],
    x: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Convolution along the auxiliary flow: integral of F(-t) H(x + t*phi(x)) dt.

    H is only evaluated where F(-t) is non-zero, so H may be defined just on
    the reachable window.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    px = phi(x)
    if not (px > 0.0 and math.isfinite(px)):
        raise DomainError(f"phi(x) must be positive and finite, got {px!r}")
    T = spec.truncation

    def integrand(t: float) -> float:
        fv = F(-t)
        if fv == 0.0:
            return 0.0
        return fv * H(x + t * px)

    return float(_integrate(integrand, -T, T, spec, f"beurling_convolution at x={x}").real)
