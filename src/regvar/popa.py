"""One-parameter family of group structures on subsets of the reals.

For a parameter rho the carrier is ``G_rho = {x : 1 + rho*x > 0}`` with the
operation ``x o y = x + y + rho*x*y``.  The family interpolates between the
additive reals (rho = 0) and the multiplicative positive half-line
(rho = inf, carrier ``(0, inf)`` with ordinary multiplication).  The map
``t -> 1 + rho*t`` is an isomorphism onto ``(0, inf)`` for finite rho > 0,
which is what most of the closed forms below exploit.  Membership is that one
test for all three groups, ``1.0 + rho*t > 0.0`` on a finite t: at rho = 0 it
holds for every t, and at rho = inf ``inf*t`` is +inf for t > 0 and -inf or nan
for t <= 0.

The three readings of the formula, rho = 0, a finite rho > 0 and rho = inf, are
the rows of one case table, :func:`_row`: identity and centre, operation, inverse
and eta, iso_log and iso_exp, the o-powers and the chart.  A :class:`PopaParam`
picks its row once, when it is made, and the functions below read it.  The grid
drivers read its list forms: ``ops(x, ys)``, x o y for each y, and the o-powers,
which :func:`_powers` streams a comprehension of ``_BLOCK`` of them at a time.

The Haar measure, density ``(1+rho)/eta(t)`` with ``eta(t) = 1 + rho*t`` (t at
rho = inf), is ``c*dw`` in the group's chart (E, d, c): ``w = iso_log(t)``, ``t =
E(w)/d``.  Where ``rho*s < 2**-53`` for every scale s in play, a test of scale and
not of the case, the chart is the t-line ``(identity, 1, 1+rho)``, w = t.  Off it
the measure of ``[a, b]``, left-invariant, is that of its translate to the identity,
``c*dv`` on ``[0, log1p(d*(b - a)/eta(a))]`` at ``t = a + eta(a)/d*expm1(v)``: no
logarithms are subtracted.  :func:`norm` and :mod:`regvar.haar` read :func:`_span`.
"""
from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from itertools import chain
from typing import Callable, Iterator, Sequence

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
    "iso_log",
    "iso_exp",
]

_TINY = 2.0**-53  # |rho*t| below it: 1 + rho*t is 1, log(1+rho*t)/rho is t to working precision
_LOG_DBL_MAX = math.log(sys.float_info.max)  # the largest T with exp(T) and expm1(T) finite
_DBL_MIN = sys.float_info.min  # the least normal float
_MAX_LISTED = 100 * 2**20 // 32  # the budget of one call, :func:`_within_budget`
_BLOCK = 1024  # o-powers per comprehension of a stream, about 32 kB of floats: 4096 was no faster on a grid pass
_t = lambda w: w  # the identity map: the t-line's E


class DomainError(ValueError):
    """Operand lies outside the carrier of the group (or maps outside it)."""


class ParameterMismatchError(ValueError):
    """Binary operation received points from two different groups."""


def _within_budget(count: int | None, what: str) -> None:
    """Refuse a call that would list or loop over more than _MAX_LISTED ``what``: the budget of one call, about
    100 MB of list at 8 + 24 bytes a float.  count is None where the caller knows only that it has more.  Callers
    ask before they build a list or call a user function."""
    if count is None or count > _MAX_LISTED:
        raise DomainError(f"too many {what}: {'' if count is None else f'{count}, '}more than {_MAX_LISTED}, "
                          "the budget of one call")


def _finite(name: str, v: float) -> float:
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def _positive(name: str, v: float) -> float:
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return v


def _count(name: str, value: int, least: float, what: str = "") -> int:
    """``value`` read by operator.index, at least ``least`` (-inf for any integer) and, where ``what`` names what it
    counts, in budget."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    if what:
        _within_budget(n, what)
    return n


_set = object.__setattr__  # how a frozen record's __init__ assigns its fields


class _Record:
    """A value record over ``__slots__``, its fields the slots not named with a leading underscore, in order: ==,
    hash, repr and pickling by field.  ``frozen=True`` subclasses are hashable and refuse assignment; the others
    are unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._values = operator.attrgetter(*cls._fields)
        if frozen:
            cls.__hash__ = lambda self: hash(self._values(self))
            cls.__setattr__ = cls.__delattr__ = _Record._refuse

    def _freeze(self, *values) -> None:
        """A frozen record's __init__ sets its fields, in order, here."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _refuse(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _times(n: int, x: float) -> float:
    """n*x for an int n and a finite x; where float(n) overflows, n*x rounded once, +-inf where it overflows."""
    try:
        return n * x
    except OverflowError:  # x = num/den, and n*num/den rounds to +-inf from 2**1024 - 2**970 on
        num, den = x.as_integer_ratio()
        return n * num / den if abs(n * num) < den * (2**1024 - 2**970) else math.copysign(math.inf, x if n > 0 else -x)


def _exp_over(E: Callable[[float], float], d: float) -> Callable[[float], float]:
    """``w -> E(w)/d``, iso_exp in the chart (E, d): exp(w - log(d)) where E(w) overflows, +inf where that does too."""

    def iso_exp(w: float) -> float:
        try:
            return E(w) / d
        except OverflowError:
            w -= math.log(d)
            return math.exp(w) if w <= _LOG_DBL_MAX else math.inf

    return iso_exp


def _multiplicative_power(delta: float, n: int) -> float:
    """delta**n, delta**(+-inf) where it overflows or n is past the float range."""
    try:
        return delta**n
    except OverflowError:
        return delta ** (math.inf if n > 0 else -math.inf)


# One group of the case table: its identity and centre, the operation and ``ops(x, ys) = [x o y for y in ys]``, inverse
# and eta on unchecked floats, iso_log and iso_exp, the o-powers and the chart (E, d, c) off the t-line.  delta^(n o) is
# ``power(delta, n)``, +-inf past the float range; ``powers(delta, ns)`` lists them, or raises OverflowError.
_Row = namedtuple("_Row", "identity centre op ops inverse eta iso_log iso_exp power powers chart")
_ADDITIVE = _Row(0.0, -math.inf, operator.add, lambda x, ys: [x + y for y in ys], operator.neg, lambda t: 1.0, _t, _t,
                 lambda delta, n: _times(n, delta), lambda delta, ns: [n * delta for n in ns], (_t, 1.0, 1.0))
_MULTIPLICATIVE = _Row(1.0, 0.0, operator.mul, lambda x, ys: [x * y for y in ys], lambda t: 1.0 / t, _t, math.log,
                       _exp_over(math.exp, 1.0), _multiplicative_power, lambda delta, ns: [delta**n for n in ns],
                       (math.exp, 1.0, 1.0))


def _row(rho: float) -> _Row:
    """The case table: the row of the additive reals (rho = 0), of the multiplicative half-line (rho = inf), or
    of a finite rho > 0, whose chart is (expm1, rho, (1+rho)/rho); c is inf at subnormal rho.  Its iso_log is
    log1p(rho*t), log(rho) + log(t) where rho*t overflows, and its o-powers are iso_exp(n*iso_log(delta))."""
    if rho == 0.0:
        return _ADDITIVE
    if rho == math.inf:
        return _MULTIPLICATIVE
    iso_log = lambda t: math.log1p(rho * t) if rho * t < math.inf else math.log(rho) + math.log(t)
    iso_exp = _exp_over(math.expm1, rho)
    return _Row(0.0, -1.0 / rho, lambda x, y: (x + y) + rho * (x * y),
                lambda x, ys: [(x + y) + rho * (x * y) for y in ys],
                lambda t: -t / (1.0 + rho * t) if rho * t < math.inf else -1.0 / (rho + 1.0 / t),
                lambda t: 1.0 + rho * t, iso_log, iso_exp, lambda delta, n: iso_exp(_times(n, iso_log(delta))),
                lambda delta, ns: [math.expm1(n * w) / rho for w in (iso_log(delta),) for n in ns],
                (math.expm1, rho, (1.0 + rho) / rho))


class PopaParam(_Record, frozen=True):
    """Group parameter: 0.0, a positive finite float, or math.inf."""

    __slots__ = ("rho", "_row")

    def __init__(self, rho: float) -> None:
        r = float(rho) + 0.0  # -0.0 is 0.0
        if isinstance(rho, bool) or math.isnan(r) or r < 0.0:
            raise DomainError(f"group parameter must be 0, positive or inf, got {rho!r}")
        _set(self, "rho", r)
        _set(self, "_row", _row(r))

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
        return self._row.centre

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
        return format(self.rho, ".17g")


ZERO = PopaParam(0.0)
INFINITY = PopaParam(math.inf)


def _check_value(param: PopaParam, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):  # not _finite: every iso_log runs this, so every call of a kernel S in a grid pass
        raise DomainError(f"point must be finite, got {value!r}")
    if 1.0 + param.rho * v > 0.0:
        return v
    raise DomainError(f"point {v!r} outside (0, inf)" if param.rho == math.inf else
                      f"point {v!r} violates 1 + {param.rho}*t > 0")


def _is_member(param: PopaParam, value: float) -> bool:
    """Whether :func:`_check_value` passes: value is finite and in the carrier."""
    v = float(value)
    return math.isfinite(v) and 1.0 + param.rho * v > 0.0


class PopaPoint(_Record, frozen=True):
    """A validated element of the group with parameter ``param``."""

    __slots__ = ("param", "value")

    def __init__(self, param: PopaParam, value: float) -> None:
        _set(self, "param", param)
        _set(self, "value", _check_value(param, value))


def eta(param: PopaParam, t: float) -> float:
    """Auxiliary factor of the group: 1 + rho*t (1 for rho = 0, t for rho = inf)."""
    return param._row.eta(_check_value(param, t))


def identity(param: PopaParam) -> PopaPoint:
    return PopaPoint(param, param._row.identity)


def _same_param(x: PopaPoint, y: PopaPoint) -> PopaParam:
    if x.param != y.param:
        raise ParameterMismatchError(f"mixed parameters {x.param} and {y.param}")
    return x.param


def circle(x: PopaPoint, y: PopaPoint) -> PopaPoint:
    """Group operation x o y = x + y + rho*x*y."""
    param = _same_param(x, y)
    return PopaPoint(param, param._row.op(x.value, y.value))


def inverse(x: PopaPoint) -> PopaPoint:
    """Group inverse: -t/(1 + rho*t); negation at rho = 0, reciprocal at rho = inf."""
    return PopaPoint(x.param, x.param._row.inverse(x.value))


def power(param: PopaParam, delta: float, n: int) -> float:
    """n-fold o-iterate of delta: ((1+rho*delta)^n - 1)/rho for finite rho.

    Negative n is the iterate of the inverse element.  n is read by :func:`_count`: a float, 2.0 included, is a
    ValueError.  For any int n, an iterate past the float range is +inf above it and the carrier's lower end below
    it: -inf at rho = 0, the pole -1/rho at a finite rho, 0.0 at rho = inf.
    """
    return param._row.power(_check_value(param, delta), _count("n", n, -math.inf))


def _power_blocks(param: PopaParam, delta: float, ns: Sequence[int]) -> Iterator[list[float]]:
    """The lists of :func:`power` of delta over ns[k:k + _BLOCK] for k = 0, _BLOCK, ...: delta is checked once, and
    a block is one comprehension, or one term at a time where that overflows.  The iterates are monotone in n over
    an increasing ns, so a block whose first and last terms are the same infinity is filled."""
    row = param._row
    delta = _check_value(param, delta)
    for k in range(0, len(ns), _BLOCK):
        part = ns[k:k + _BLOCK]
        try:
            yield row.powers(delta, part)
        except OverflowError:
            first = row.power(delta, part[0])
            if math.isinf(first) and first == row.power(delta, part[-1]):
                yield [first] * len(part)
            else:
                yield [row.power(delta, n) for n in part]


def _powers(param: PopaParam, delta: float, ns: Sequence[int]) -> Iterator[float]:
    """:func:`power` of delta for each n in ns, streamed a block at a time."""
    return chain.from_iterable(_power_blocks(param, delta, ns))


def _coordinate(param: PopaParam, scale: float) -> tuple:
    """(E, d, c) of the chart for scales up to ``scale``: the t-line where rho*scale < _TINY, else the row's."""
    return (_t, 1.0, 1.0 + param.rho) if param.rho * scale < _TINY else param._row.chart


def _density(param: PopaParam, c: float) -> None:
    """Refuse a chart's density c that is not finite: (1+rho)/rho overflows at a subnormal rho."""
    if c == math.inf:
        raise DomainError(f"rho={param.rho!r} is too small for the coordinate log(1+rho*t)")


def _chart(param: PopaParam, *scales: float, T: float = 0.0) -> tuple:
    """(E, d, c) of the group's chart, the t-line where rho*s < _TINY for T and every scale s.  Off it c must
    be finite, and so must E(T) when w ranges over [-T, T] (T = 0 where it does not)."""
    E, d, c = _coordinate(param, max((T, *scales)))
    _density(param, c)
    if T > _LOG_DBL_MAX and E is not _t:
        raise DomainError(f"truncation={T!r} overflows {E.__name__}(truncation) at rho={param}: "
                          f"it must be at most log(DBL_MAX) = {_LOG_DBL_MAX!r}")
    return E, d, c


def _span(param: PopaParam, a: float, b: float, f: Callable | None = None, chart: tuple | None = None) -> tuple:
    """(v0, v1, g, c): on [a, b], a <= b, the Haar measure is c*dv for v in [v0, v1] and f's integral that of g(v) =
    c*f(t(v)); v is t on the t-line of ``chart`` (:func:`_coordinate` of [a, b] by default).  Where q overflows,
    eta(b)/eta(a) > DBL_MAX or eta(a) < 1: nothing cancels in [iso_log(a), iso_log(b)], t = iso_exp(v)."""
    E, d, c = chart or _coordinate(param, max(abs(a), abs(b)))
    if E is _t:
        return a, b, lambda v: c * f(v), c
    e = param._row.eta(a)
    if e == math.inf:  # rho*a overflows: on [a, b] eta(t) is rho*t to working precision
        e, d = a, 1.0
    q = (b - a) / e
    q = q * d if q >= _DBL_MIN else (b - a) * (d / e)  # a subnormal (b - a)/e has lost its digits
    if q < math.inf:  # the translate to the identity, q = d*(b - a)/eta(a), at t = a + eta(a)/d*expm1(v)
        s, E = e / d, math.expm1
        return 0.0, math.log1p(q), lambda v: c * f(a + s * E(v)), c
    iso_log, E = param._row.iso_log, param._row.iso_exp
    return iso_log(a), iso_log(b), lambda v: c * f(E(v)), c


def _haar_length(param: PopaParam, a: float, b: float) -> float:
    """Haar measure of [a, b], a <= b: c times the width w of its :func:`_span`, (1+rho)*(w/rho) where c overflows."""
    v0, v1, _, c = _span(param, a, b)
    return c * (v1 - v0) if c < math.inf else (1.0 + param.rho) * ((v1 - v0) / param.rho)


def norm(x: PopaPoint) -> float:
    """Group norm, the Haar length between the identity and x: |t| at rho = 0, |log t| at rho = inf,
    |log(1 + rho*t)|*(1+rho)/rho at finite rho."""
    e = x.param._row.identity
    return _haar_length(x.param, min(e, x.value), max(e, x.value))


def leq(x: PopaPoint, y: PopaPoint) -> bool:
    """Group order; coincides with the numeric order on the carrier."""
    _same_param(x, y)
    return x.value <= y.value


def iso_log(param: PopaParam, t: float) -> float:
    """Isomorphism onto the additive reals, log(1 + rho*t) evaluated stably: t at rho = 0, log(t) at rho = inf."""
    return param._row.iso_log(_check_value(param, t))


def iso_exp(param: PopaParam, w: float) -> float:
    """Inverse of :func:`iso_log`: expm1(w)/rho for finite rho.  Past the float range it is +inf for a large w and
    the carrier's lower end for a very negative one, the pole -1/rho at a finite rho and 0.0 at rho = inf."""
    return param._row.iso_exp(float(w))
