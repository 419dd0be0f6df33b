"""One-parameter family of group structures on subsets of the reals.

For a parameter rho the carrier is ``G_rho = {x : 1 + rho*x > 0}`` with the
operation ``x o y = x + y + rho*x*y``.  The family interpolates between the
additive reals (rho = 0) and the multiplicative positive half-line
(rho = inf, carrier ``(0, inf)`` with ordinary multiplication).  The map
``t -> 1 + rho*t`` is an isomorphism onto ``(0, inf)`` for finite rho > 0,
which is what most of the closed forms below exploit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "DomainError",
    "ParameterMismatchError",
    "PopaParam",
    "PopaPoint",
    "ZERO",
    "INFINITY",
    "eta",
    "identity",
    "circle",
    "inverse",
    "power",
    "norm",
    "leq",
    "to_multiplicative",
    "from_multiplicative",
    "iso_log",
    "iso_exp",
]

# Hard floor for 1 + rho*t: below this the norm and the Haar density overflow,
# so points this close to the boundary are rejected outright.
_DOMAIN_GUARD = 1e-300
_TINY = 2.0**-53  # |rho*t| below it: 1 + rho*t is 1, log(1+rho*t)/rho is t to working precision


class DomainError(ValueError):
    """Operand lies outside the carrier of the group (or maps outside it)."""


class ParameterMismatchError(ValueError):
    """Binary operation received points from two different groups."""


@dataclass(frozen=True)
class PopaParam:
    """Group parameter: 0.0, a positive finite float, or math.inf."""

    rho: float

    def __post_init__(self) -> None:
        r = float(self.rho)
        if isinstance(self.rho, bool) or math.isnan(r) or r < 0.0:
            raise DomainError(f"group parameter must be 0, positive or inf, got {self.rho!r}")
        object.__setattr__(self, "rho", r)

    @property
    def is_zero(self) -> bool:
        return self.rho == 0.0

    @property
    def is_finite(self) -> bool:
        return self.rho > 0.0 and math.isfinite(self.rho)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.rho)

    @property
    def centre(self) -> float:
        """Excluded boundary point -1/rho (the pole of the carrier)."""
        if self.is_zero:
            return -math.inf
        if self.is_infinite:
            return 0.0
        return -1.0 / self.rho

    @classmethod
    def parse(cls, text: str) -> "PopaParam":
        s = text.strip()
        if s == "inf":
            return cls(math.inf)
        try:
            r = float(s)
        except ValueError as exc:
            raise DomainError(f"cannot parse group parameter {text!r}") from exc
        if math.isinf(r):
            # only the literal "inf" is accepted for the multiplicative group
            raise DomainError(f"cannot parse group parameter {text!r}; use 'inf'")
        return cls(r)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_infinite:
            return "inf"
        return format(self.rho, ".17g")


ZERO = PopaParam(0.0)
INFINITY = PopaParam(math.inf)


def _check_value(param: PopaParam, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"point must be finite, got {value!r}")
    if param.rho == 0.0:  # not is_zero: this runs once per pair in the grid drivers
        return v
    if param.rho == math.inf:
        if v <= _DOMAIN_GUARD:
            raise DomainError(f"point {v!r} outside (0, inf)")
        return v
    if 1.0 + param.rho * v <= _DOMAIN_GUARD:
        raise DomainError(f"point {v!r} violates 1 + {param.rho}*t > 0")
    return v


@dataclass(frozen=True)
class PopaPoint:
    """A validated element of the group with parameter ``param``."""

    param: PopaParam
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _check_value(self.param, self.value))


def eta(param: PopaParam, t: float) -> float:
    """Auxiliary factor of the group: 1 + rho*t (1 for rho = 0, t for rho = inf)."""
    t = _check_value(param, t)
    if param.is_zero:
        return 1.0
    if param.is_infinite:
        return t
    return 1.0 + param.rho * t


def identity(param: PopaParam) -> PopaPoint:
    return PopaPoint(param, 1.0 if param.is_infinite else 0.0)


def _same_param(x: PopaPoint, y: PopaPoint) -> PopaParam:
    if x.param != y.param:
        raise ParameterMismatchError(f"mixed parameters {x.param} and {y.param}")
    return x.param


def _float_op(param: PopaParam) -> Callable[[float, float], float]:
    """The group operation on plain floats, unchecked: x + y, x * y or (x + y) + rho*(x*y)."""
    if param.is_zero:
        return operator.add
    if param.is_infinite:
        return operator.mul
    return lambda x, y, rho=param.rho: (x + y) + rho * (x * y)


def circle(x: PopaPoint, y: PopaPoint) -> PopaPoint:
    """Group operation x o y = x + y + rho*x*y."""
    param = _same_param(x, y)
    return PopaPoint(param, _float_op(param)(x.value, y.value))


def inverse(x: PopaPoint) -> PopaPoint:
    """Group inverse: -t/(1 + rho*t); negation at rho = 0, reciprocal at rho = inf."""
    param = x.param
    if param.is_zero:
        return PopaPoint(param, -x.value)
    if param.is_infinite:
        return PopaPoint(param, 1.0 / x.value)
    return PopaPoint(param, -x.value / (1.0 + param.rho * x.value))


def power(param: PopaParam, delta: float, n: int) -> float:
    """n-fold o-iterate of delta: ((1+rho*delta)^n - 1)/rho for finite rho.

    Negative n is the iterate of the inverse element.
    """
    return next(_powers(param, delta, (int(n),)))


def _powers(param: PopaParam, delta: float, ns: Iterable[int]) -> Iterator[float]:
    """:func:`power` of delta for each n in ns, streamed: delta is checked and
    log1p(rho*delta) taken once."""
    delta = _check_value(param, delta)
    if param.is_zero:
        return (n * delta for n in ns)
    if param.is_infinite:
        return (delta**n for n in ns)
    rho, step = param.rho, math.log1p(param.rho * delta)
    return (math.expm1(n * step) / rho for n in ns)


def _log_eta_over_rho(rho: float, t: float) -> float:
    """log(1 + rho*t)/rho for finite rho > 0, which tends to t as rho*t -> 0.

    Below ``|rho*t| < _TINY`` the quotient is t to working precision, and t
    is returned as is: dividing by rho would expose the rounding of rho*t,
    which is coarse once rho*t is subnormal.
    """
    x = rho * t
    if abs(x) < _TINY:
        return t
    return math.log1p(x) / rho


def norm(x: PopaPoint) -> float:
    """Group norm |log(1 + rho*t)|*(1+rho)/rho; |t| at rho = 0, |log t| at rho = inf."""
    param = x.param
    if param.is_zero:
        return abs(x.value)
    if param.is_infinite:
        return abs(math.log(x.value))
    return abs(_log_eta_over_rho(param.rho, x.value)) * (1.0 + param.rho)


def leq(x: PopaPoint, y: PopaPoint) -> bool:
    """Group order; coincides with the numeric order on the carrier."""
    _same_param(x, y)
    return x.value <= y.value


def to_multiplicative(x: PopaPoint) -> float:
    """Isomorphism onto (0, inf): 1 + rho*t, exp(t) at rho = 0, t at rho = inf."""
    param = x.param
    if param.is_zero:
        return math.exp(x.value)
    if param.is_infinite:
        return x.value
    return 1.0 + param.rho * x.value


def from_multiplicative(param: PopaParam, v: float) -> PopaPoint:
    """Inverse of :func:`to_multiplicative`; v must be positive."""
    v = float(v)
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"multiplicative representative must be in (0, inf), got {v!r}")
    if param.is_zero:
        return PopaPoint(param, math.log(v))
    if param.is_infinite:
        return PopaPoint(param, v)
    return PopaPoint(param, (v - 1.0) / param.rho)


def iso_log(param: PopaParam, t: float) -> float:
    """log of :func:`to_multiplicative`, evaluated stably: log1p(rho*t) for finite rho."""
    t = _check_value(param, t)
    if param.is_zero:
        return t
    if param.is_infinite:
        return math.log(t)
    return math.log1p(param.rho * t)


def iso_exp(param: PopaParam, w: float) -> float:
    """Inverse of :func:`iso_log`: expm1(w)/rho for finite rho."""
    w = float(w)
    if param.is_zero:
        return w
    if param.is_infinite:
        return math.exp(w)
    return math.expm1(w) / param.rho
