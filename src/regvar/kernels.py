"""Canonical limit-kernel family between two Popa groups, plus the
functional-equation residuals that characterise it.

The family with index kappa maps ``G_rho -> G_sigma`` by conjugating the
power map through the multiplicative isomorphisms of the two groups:

    K_kappa(t) = iso_exp_sigma(kappa * iso_log_rho(t))

which unfolds to the familiar nine closed forms, e.g. ``kappa*t`` for
(rho, sigma) = (0, 0), ``((1+rho*t)^kappa - 1)/sigma`` for finite pairs and
``t^kappa`` for (inf, inf).  Every member is an o-homomorphism; that is the
additivity property the property tests pin down.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from regvar.popa import (
    INFINITY,
    DomainError,
    PopaParam,
    PopaPoint,
    _Record,
    _finite,
    circle,
    eta,
    iso_exp,
    iso_log,
)

__all__ = [
    "KernelParams",
    "GoldieAux",
    "kernel_eval",
    "kernel_inverse",
    "bg_residual",
    "cj_residual",
    "k_from_multiplier",
    "goldie_integral",
    "goldie_ode_residual",
]


class KernelParams(_Record, frozen=True):
    """Domain parameter rho, codomain parameter sigma and index kappa."""

    __slots__ = ("rho", "sigma", "kappa")

    def __init__(self, rho: PopaParam, sigma: PopaParam, kappa: float) -> None:
        self._freeze(rho, sigma, _finite("kappa", kappa))


def kernel_eval(kp: KernelParams, t: float) -> float:
    """Value of the canonical kernel at t; covers all nine parameter cells."""
    return iso_exp(kp.sigma, kp.kappa * iso_log(kp.rho, t))


def kernel_inverse(kp: KernelParams, z: float) -> float:
    """Inverse map G_sigma -> G_rho; requires kappa != 0."""
    if kp.kappa == 0.0:
        raise DomainError("kappa = 0 kernel is constant and has no inverse")
    return iso_exp(kp.rho, iso_log(kp.sigma, z) / kp.kappa)


def bg_residual(
    K: Callable[[float], float],
    g: Callable[[float], float],
    rho: PopaParam,
    u: float,
    v: float,
) -> float:
    """Residual of the affine cocycle equation K(u o v) = g(v)K(u) + K(v)."""
    uv = circle(PopaPoint(rho, u), PopaPoint(rho, v)).value
    return K(uv) - (g(v) * K(u) + K(v))


def cj_residual(
    g: Callable[[float], float],
    rho: PopaParam,
    u: float,
    v: float,
) -> float:
    """Residual of the multiplicative equation g(u o v) = g(u)g(v)."""
    uv = circle(PopaPoint(rho, u), PopaPoint(rho, v)).value
    return g(uv) - g(u) * g(v)


def k_from_multiplier(g: Callable[[float], float], kappa_const: float) -> Callable[[float], float]:
    """Affine solution K(t) = kappa_const * (g(t) - 1) paired with multiplier g.

    Requires g(0) = 1 (up to 1e-10), the normalisation under which the pair
    (K, g) solves the affine cocycle equation whenever g is multiplicative.
    """
    g0 = g(0.0)
    if abs(g0 - 1.0) > 1e-10:
        raise DomainError(f"multiplier must satisfy g(0) = 1, got {g0!r}")
    return lambda t: kappa_const * (g(t) - 1.0)


class GoldieAux(_Record, frozen=True):
    """Power multiplier g(t) = (1+rho*t)^-gamma on a finite-parameter group."""

    __slots__ = ("rho", "gamma")

    def __init__(self, rho: PopaParam, gamma: float) -> None:
        if not rho.is_finite:
            raise DomainError("goldie auxiliary requires a finite positive rho")
        self._freeze(rho, _finite("gamma", gamma))

    def g(self, t: float) -> float:
        return iso_exp(INFINITY, -self.gamma * iso_log(self.rho, t))

    def g_prime(self, t: float) -> float:
        r, w = self.rho.rho, -(self.gamma + 1.0) * iso_log(self.rho, t)
        try:
            return -self.gamma * r * math.exp(w)
        except OverflowError:
            return self._past_exp(w, 1.0)

    def _past_exp(self, w: float, k: float) -> float:
        """-sign(gamma)*exp(w)*|gamma*rho|**k for an exp(w) past the float range (so gamma != 0), +-inf past it too."""
        w += k * (math.log(abs(self.gamma)) + math.log(self.rho.rho))
        return math.copysign(iso_exp(INFINITY, w), -self.gamma)


def goldie_integral(aux: GoldieAux, u: float) -> float:
    """G(u) = integral of g(t)/(1+rho*t) dt from 0 to u, in closed form.

    Equals (1 - (1+rho*u)^-gamma)/(gamma*rho) for gamma != 0 and
    log(1+rho*u)/rho for gamma = 0.
    """
    r, w = aux.rho.rho, iso_log(aux.rho, u)
    x, tiny = aux.gamma * w, sys.float_info.min
    if not abs(x) >= tiny:  # gamma*w is subnormal or 0: -expm1(-x)/x is 1
        return w / r
    if abs(aux.gamma * r) < tiny and abs(x) < math.inf:  # dividing by a subnormal gamma*rho would lose its digits
        return (w / r) * (-math.expm1(-x) / x)
    try:
        return -math.expm1(-x) / (aux.gamma * r)
    except OverflowError:  # (1+rho*u)^-gamma is past the float range, and so is the value unless |gamma*rho| is large
        return aux._past_exp(-x, -1.0)


def goldie_ode_residual(aux: GoldieAux, c1: float, kappa_const: float, u: float) -> float:
    """Residual of kappa*g'(u) = c1*g(u)/(1+rho*u); zero iff gamma = -c1/(kappa*rho)."""
    if kappa_const == 0.0:
        raise DomainError("kappa_const must be non-zero")
    return kappa_const * aux.g_prime(u) - c1 * aux.g(u) / eta(aux.rho, u)
