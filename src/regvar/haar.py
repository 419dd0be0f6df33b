"""Invariant measure and harmonic analysis on the Popa groups.

The invariant (Haar) measure of ``G_rho`` has density ``(1+rho)/(1+rho*t)``
with respect to Lebesgue measure; it degenerates to ``dt`` at rho = 0 and to
``dt/t`` at rho = inf.  Characters are ``u -> exp(i*gamma*log(1+rho*u))``, so
after the substitution ``w = log(1+rho*t)`` every transform below is an
ordinary Fourier/Laplace integral on the line, truncated to ``[-T, T]`` with
``T = spec.truncation``.  All of them use the Clenshaw-Curtis cells of
:mod:`regvar.quadrature`, Filon-Clenshaw-Curtis for ``exp(-z*w)``, whose cost
follows the profile and not the frequency; only ``fourier_popa`` at rho = 0
with 2T|gamma| <= 64 pi keeps the Simpson rule, whose output there is pinned.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

from regvar.popa import (
    DomainError,
    PopaParam,
    PopaPoint,
    _log_eta_over_rho,
    iso_log,
)
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
    """Integral of f over the interval against the invariant measure.

    The substitution ``w = log(1+rho*t)`` turns the Haar integral into a
    Lebesgue integral before any quadrature is attempted.
    """
    p = iv.param
    what = f"haar_integrate over ({iv.lo}, {iv.hi})"
    if _tiny_rho(p, abs(iv.lo), abs(iv.hi)):
        return float(_integrate(lambda t: (1.0 + p.rho) * f(t), iv.lo, iv.hi, spec, what).real)
    return float(_integrate(_additive_profile(f, p), iso_log(p, iv.lo), iso_log(p, iv.hi), spec, what).real)


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


def _tiny_rho(param: PopaParam, *scales: float) -> bool:
    """Whether rho*s < 2**-53 for every scale s (|t|, |x|, T, |z|*T) at finite rho: the density,
    a character and x o t are then 1+rho, 1 and x + t to working precision.  Otherwise
    (1+rho)/rho, the density in w = log(1+rho*t), must be finite."""
    tiny = param.is_finite and param.rho * max(scales) < 2.0**-53
    if param.is_finite and not tiny and math.isinf((1.0 + param.rho) / param.rho):
        raise DomainError(f"rho={param.rho!r} is too small for the coordinate log(1+rho*t)")
    return tiny


def _additive_profile(f: Callable[[float], float], param: PopaParam) -> Callable[[float], float]:
    """f composed with the group isomorphism, as a function of w = log eta."""
    if param.is_zero:
        return f
    if param.is_infinite:
        return lambda w: f(math.exp(w))
    rho = param.rho
    scale = (1.0 + rho) / rho
    return lambda w: scale * f(math.expm1(w) / rho)


def _line_transform(f, param: PopaParam, z: complex, spec: QuadratureSpec, what: str) -> complex:
    """Line integral of ``f_profile(w) * exp(-z*w)`` over ``[-T, T]``, where
    ``f_profile`` is f pushed through the isomorphism (for finite rho this is
    the multiplicative pullback evaluated at ``e^w``)."""
    if not cmath.isfinite(z):
        raise DomainError(f"{what}: the exponent must be finite")
    T = spec.truncation
    if _tiny_rho(param, T, abs(z) * T):  # the Haar integral of f over t in [-T, T]
        return complex(_integrate(lambda t: (1.0 + param.rho) * f(t), -T, T, spec, what, depth=2))
    if math.isinf(abs(z) * T):
        raise DomainError(f"{what}: |z|*T = {abs(z) * T} is not finite")
    prof = _additive_profile(f, param)
    if param.is_zero and not (z.imag and 2.0 * T / (math.pi / abs(z.imag)) > 64):  # the pinned Simpson path
        return complex(_integrate(lambda w: prof(w) * cmath.exp(-z * w), -T, T, spec, what, 2, None))
    return complex(_integrate(prof, -T, T, spec, what, 2, z))


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

    Evaluated on the additive scale w = log eta(t), where the invariant
    measure is (1+rho)/rho * dw (plain dw at the two extreme parameters),
    inside the integrand so that the tolerances bound the convolution.
    """
    p = x.param
    T = spec.truncation
    if p.is_zero or _tiny_rho(p, abs(x.value), T):
        weight = 1.0 + p.rho
        integrand = lambda t: weight * f(-t) * g(x.value + t)
    elif p.is_infinite:
        integrand = lambda w: f(math.exp(-w)) * g(x.value * math.exp(w))
    else:
        rho = p.rho
        eta_x = 1.0 + rho * x.value
        scale = (1.0 + rho) / rho  # x o t = (eta_x * e^w - 1)/rho, here without the cancellation
        integrand = lambda w: scale * f(math.expm1(-w) / rho) * g(eta_x * math.expm1(w) / rho + x.value)
    return float(_integrate(integrand, -T, T, spec, f"popa_convolution at x={x.value}").real)


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
