"""Asymptotic ratio/difference operators, their exact cocycle identities,
limit estimation on geometric grids, index fitting and Beck partitions.

The three operator scales:

  * Karamata (multiplicative):   K(t, x) = f(x*t)/f(x)
  * Beurling (flow of phi):      K(t, x) = f(x + t*phi(x))/f(x)
  * general (difference):        K(t, x) = (f(x + t*phi(x)) - f(x))/h(x)

All three satisfy exact pre-limit cocycle identities in which the second
argument is translated along the flow; the ``cocycle_residual_*`` functions
return the defect of those identities, which is zero up to rounding for any
admissible f, phi, h.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections import deque
from functools import partial
from itertools import pairwise, takewhile
from typing import Callable, Sequence

from regvar.popa import DomainError, PopaParam, _MAX_LISTED, _powers, _Record, iso_log, power

__all__ = [
    "TableRangeError",
    "LimitEvaluationError",
    "RationalRatioWarning",
    "SampledFunction",
    "LimitScheme",
    "EstimationResult",
    "karamata_op",
    "eta_local",
    "beurling_op",
    "general_op",
    "cocycle_residual_karamata",
    "cocycle_residual_beurling",
    "cocycle_residual_general",
    "estimate_limit",
    "estimate_rho",
    "estimate_kernel",
    "estimate_karamata",
    "estimate_beurling",
    "fit_kappa",
    "two_point_index",
    "beck_partition",
    "beck_riemann_sum",
    "goldie_sum",
]


class TableRangeError(DomainError):
    """Requested abscissa falls outside a table-backed function's range."""


class LimitEvaluationError(RuntimeError, ValueError):
    """An operator curve failed to evaluate at some grid position; a ValueError, so the CLI exits 2 on it."""

    def __init__(self, step: int, x: float, cause: Exception):
        super().__init__(f"evaluation failed at grid step {step} (x={x!r}): {cause}")
        self.step = step
        self.x = x
        self.cause = cause


class RationalRatioWarning(UserWarning):
    """The two probe ratios are multiplicatively dependent; the two-point
    index read-out may be misleading."""


class SampledFunction:
    """A positive function given as a log-log table of samples ``values`` at ``xs``: linear in log x and log f
    between the nodes, and refused outside the sampled range rather than extrapolated."""

    def __init__(self, xs: Sequence[float], values: Sequence[float]) -> None:
        try:
            xs, values = [float(x) for x in xs], [float(v) for v in values]
        except TypeError:  # not two flat sequences of numbers
            xs = values = []
        if len(xs) != len(values) or len(xs) < 2:
            raise ValueError("table needs two equal-length 1-d arrays with >= 2 rows")
        if not all(math.isfinite(v) for v in xs + values):
            raise ValueError("table entries must be finite")
        if not all(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError("table abscissae must be strictly increasing")
        if not xs[0] > 0.0:
            raise ValueError("table abscissae must be positive")
        if not min(values) > 0.0:
            raise ValueError("table values must be positive")
        self._log_xs = [math.log(x) for x in xs]
        self._log_vs = [math.log(v) for v in values]
        self.x_min, self.x_max = xs[0], xs[-1]

    def __call__(self, x: float) -> float:
        if not (x > 0.0):
            raise TableRangeError(f"table lookup needs x > 0, got {x!r}")
        if x < self.x_min or x > self.x_max:
            raise TableRangeError(f"x={x!r} outside table range [{self.x_min}, {self.x_max}]")
        # np.interp's arithmetic: node values exactly, else slope*(x - xs[j]) + ys[j]
        lx, xs, ys = math.log(x), self._log_xs, self._log_vs
        j = bisect_right(xs, lx, 1) - 1
        if lx <= xs[j] or j == len(xs) - 1:
            return math.exp(ys[j])
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return math.exp(slope * (lx - xs[j]) + ys[j])


class LimitScheme(_Record, frozen=True):
    """Geometric evaluation grid x0 * ratio^n with a stability-window stop."""

    __slots__ = ("x0", "ratio", "max_steps", "tol", "stability_window")

    def __init__(self, x0: float = 10.0, ratio: float = 2.0, max_steps: int = 40, tol: float = 1e-6,
                 stability_window: int = 3) -> None:
        if not (x0 > 0.0 and math.isfinite(x0)):
            raise ValueError("x0 must be positive")
        if not (ratio > 1.0 and math.isfinite(ratio)):
            raise ValueError("ratio must exceed 1")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if max_steps > _MAX_LISTED:  # estimate_limit keeps every value it visits
            raise ValueError(f"max_steps must be at most {_MAX_LISTED} (about 100 MB of values)")
        if not math.isfinite(tol):
            raise ValueError(f"tol must be finite, got {tol!r}")
        if not (tol > 0.0):
            raise ValueError("tol must be positive")
        if stability_window < 2:
            raise ValueError("stability_window must be >= 2")
        self._freeze(x0, ratio, max_steps, tol, stability_window)


class EstimationResult(_Record):
    __slots__ = ("value", "converged", "last_delta", "steps_used")

    def __init__(self, value: float, converged: bool, last_delta: float, steps_used: int) -> None:
        self.value, self.converged = value, converged
        self.last_delta, self.steps_used = last_delta, steps_used


def _positive(name: str, v: float) -> float:
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return v


def karamata_op(f: Callable[[float], float], t: float, x: float) -> float:
    """Multiplicative ratio f(x*t)/f(x); f must be positive at both points."""
    if not (x > 0.0 and t > 0.0):
        raise DomainError(f"karamata_op needs x > 0 and t > 0, got x={x!r}, t={t!r}")
    fx = _positive("f(x)", f(x))
    fxt = _positive("f(x*t)", f(x * t))
    return fxt / fx


def eta_local(phi: Callable[[float], float], t: float, x: float) -> float:
    """Self-scaling ratio of the auxiliary: phi(x + t*phi(x))/phi(x)."""
    px = _positive("phi(x)", phi(x))
    return _positive("phi(x + t*phi(x))", phi(x + t * px)) / px


def beurling_op(
    f: Callable[[float], float], phi: Callable[[float], float], t: float, x: float
) -> float:
    """Flow ratio f(x + t*phi(x))/f(x)."""
    px = _positive("phi(x)", phi(x))
    y = x + t * px
    fx = _positive("f(x)", f(x))
    return _positive("f(x + t*phi(x))", f(y)) / fx


def general_op(
    f: Callable[[float], float],
    phi: Callable[[float], float],
    h: Callable[[float], float],
    t: float,
    x: float,
) -> float:
    """Normalised difference (f(x + t*phi(x)) - f(x))/h(x)."""
    px = _positive("phi(x)", phi(x))
    hx = _positive("h(x)", h(x))
    return (f(x + t * px) - f(x)) / hx


def cocycle_residual_karamata(
    f: Callable[[float], float], s: float, t: float, x: float
) -> float:
    """Defect of K(s*t, x) = K(s, x*t) * K(t, x); exactly zero in real arithmetic."""
    lhs = karamata_op(f, s * t, x)
    rhs = karamata_op(f, s, x * t) * karamata_op(f, t, x)
    return lhs - rhs


def cocycle_residual_beurling(
    f: Callable[[float], float],
    phi: Callable[[float], float],
    s: float,
    t: float,
    x: float,
) -> float:
    """Defect of K(t o s, x) = K(s, x + t*phi(x)) * K(t, x), where the first
    argument combines as t o s = t + s * eta_local(phi, t, x)."""
    ts = t + s * eta_local(phi, t, x)
    lhs = beurling_op(f, phi, ts, x)
    xt = x + t * phi(x)
    rhs = beurling_op(f, phi, s, xt) * beurling_op(f, phi, t, x)
    return lhs - rhs


def cocycle_residual_general(
    f: Callable[[float], float],
    phi: Callable[[float], float],
    h: Callable[[float], float],
    s: float,
    t: float,
    x: float,
) -> float:
    """Defect of the normalised-difference cocycle

        K(t o s, x) = K(s, x + t*phi(x)) * h(x + t*phi(x))/h(x) + K(t, x)

    with t o s = t + s * eta_local(phi, t, x); exactly zero in real arithmetic.
    """
    ts = t + s * eta_local(phi, t, x)
    lhs = general_op(f, phi, h, ts, x)
    xt = x + t * phi(x)
    rhs = general_op(f, phi, h, s, xt) * beurling_op(h, phi, t, x) + general_op(f, phi, h, t, x)
    return lhs - rhs


def estimate_limit(op_curve: Callable[[float], float], scheme: LimitScheme) -> EstimationResult:
    """Evaluate a curve along x0 * ratio^n and stop once the last
    ``stability_window`` values agree pairwise within tol (absolute plus
    relative, normalised by 1 + |last value|)."""
    values: list[float] = []  # every value visited, in grid order
    window = scheme.stability_window
    # the window's max() and min() lead two monotone queues of indices; as with max() and min(), the first of equal
    # values wins, and a nan counts only as the window's first value
    highs, lows = deque(), deque()
    delta = math.inf
    for n in range(scheme.max_steps):
        x = scheme.x0 * scheme.ratio**n
        try:
            v = float(op_curve(x))
        except Exception as exc:  # noqa: BLE001 - annotate with grid position
            raise LimitEvaluationError(n, x, exc) from exc
        values.append(v)
        if v == v:
            while highs and values[highs[-1]] < v:
                highs.pop()
            highs.append(n)
            while lows and values[lows[-1]] > v:
                lows.pop()
            lows.append(n)
        first = n + 1 - window
        if first >= 0:
            if highs and highs[0] < first:  # one index at most leaves the window per step
                highs.popleft()
            if lows and lows[0] < first:
                lows.popleft()
            lead = values[first]
            hi, lo = (values[highs[0]], values[lows[0]]) if lead == lead else (lead, lead)
            delta = (hi - lo) / (1.0 + abs(v))
            if delta <= scheme.tol:
                return EstimationResult(v, True, delta, n + 1)
    return EstimationResult(values[-1], False, delta, len(values))


def estimate_rho(
    phi: Callable[[float], float], t_probe: float, scheme: LimitScheme = LimitScheme()
) -> EstimationResult:
    """Estimate the group parameter of the auxiliary: limit of
    (eta_local(phi, t, x) - 1)/t along the scheme grid."""
    if t_probe == 0.0:
        raise DomainError("t_probe must be non-zero")
    return estimate_limit(
        lambda x: (eta_local(phi, t_probe, x) - 1.0) / t_probe, scheme
    )


def _estimate_grid(
    op: Callable[[float, float], float], t_grid: Sequence[float], scheme: LimitScheme
) -> list[tuple[float, EstimationResult]]:
    """Limit in x of op(t, x) at each t of the grid; a point whose curve fails
    to evaluate is reported as unconverged, not raised."""
    if len(t_grid) * scheme.max_steps > _MAX_LISTED:  # one walk per point
        raise DomainError(f"grid of {len(t_grid)} points times {scheme.max_steps} steps is more than {_MAX_LISTED} "
                          "steps, the budget of one call")
    out = []
    for t in t_grid:
        try:
            out.append((t, estimate_limit(partial(op, t), scheme)))
        except LimitEvaluationError as err:
            out.append((t, EstimationResult(math.nan, False, math.inf, err.step)))
    return out


def estimate_kernel(
    f: Callable[[float], float],
    phi: Callable[[float], float],
    h: Callable[[float], float],
    t_grid: Sequence[float],
    scheme: LimitScheme = LimitScheme(),
) -> list[tuple[float, EstimationResult]]:
    """Limit of the normalised-difference operator at each t in the grid."""
    return _estimate_grid(lambda t, x: general_op(f, phi, h, t, x), t_grid, scheme)


def estimate_beurling(
    f: Callable[[float], float],
    phi: Callable[[float], float],
    t_grid: Sequence[float],
    scheme: LimitScheme = LimitScheme(),
) -> list[tuple[float, EstimationResult]]:
    """Limit of the flow-ratio operator at each t in the grid."""
    return _estimate_grid(lambda t, x: beurling_op(f, phi, t, x), t_grid, scheme)


def estimate_karamata(
    f: Callable[[float], float],
    lambda_grid: Sequence[float],
    scheme: LimitScheme = LimitScheme(),
) -> list[tuple[float, EstimationResult]]:
    """Multiplicative kernel limits f(x*l)/f(x): :func:`karamata_op` stabilised on
    the log scale, where ratios below and above 1 meet the same stop test."""
    for lam in lambda_grid:  # every ratio is checked before any curve is evaluated
        _positive("lambda", lam)
    results = _estimate_grid(lambda lam, x: math.log(karamata_op(f, lam, x)), lambda_grid, scheme)
    return [(lam, EstimationResult(math.exp(res.value) if math.isfinite(res.value) else math.nan,
                                   res.converged, res.last_delta, res.steps_used)) for lam, res in results]


def fit_kappa(
    samples: Sequence[tuple[float, float]],
    rho: PopaParam,
    sigma: PopaParam,
) -> tuple[float, float]:
    """Least-squares index: minimise sum (iso_log_sigma(K) - kappa*iso_log_rho(t))^2.

    Returns (kappa_hat, rms_residual).  Needs at least one sample with t away
    from the identity.
    """
    if not samples:
        raise ValueError("empty sample set")
    ws = []
    wk = []
    for t, k in samples:
        ws.append(iso_log(rho, t))
        wk.append(iso_log(sigma, k))
    sxx = math.fsum(w * w for w in ws)
    if sxx == 0.0:
        raise ValueError("degenerate sample set: all abscissae at the identity")
    sxy = math.fsum(w * v for w, v in zip(ws, wk))
    kappa = sxy / sxx
    rms = math.sqrt(math.fsum((v - kappa * w) ** 2 for w, v in zip(ws, wk)) / len(ws))
    return kappa, rms


def _nearest_fraction(x: float) -> tuple[int, int]:
    """(p, q) of ``Fraction(x).limit_denominator(16)``: the p/q nearest x over q <= 16, the least q on a tie, by the
    exact distances |p*d - n*q|/(q*d) of x = n/d scaled by d*lcm(1..16)."""
    n, d = x.as_integer_ratio()
    near = (((2 * n * q + d) // (2 * d), q) for q in range(1, 17))  # the p nearest x*q
    return min(near, key=lambda pq: abs(pq[0] * d - n * pq[1]) * (720720 // pq[1]))


def two_point_index(
    lambda1: float, g1: float, lambda2: float, g2: float, tol: float = 1e-9
) -> tuple[float, bool]:
    """Index read-out rho_i = log g_i / log lambda_i from two probes.

    Returns (mean index, consistency flag).  A warning is emitted when
    log(lambda1)/log(lambda2) is a small-denominator rational, in which case
    the two probes carry dependent information.
    """
    for name, v in (("lambda1", lambda1), ("g1", g1), ("lambda2", lambda2), ("g2", g2)):
        _positive(name, v)
    l1, l2 = math.log(lambda1), math.log(lambda2)
    if l1 == 0.0 or l2 == 0.0:
        raise DomainError("probe ratios must differ from 1")
    r1 = math.log(g1) / l1
    r2 = math.log(g2) / l2
    ratio = l1 / l2
    num, den = _nearest_fraction(ratio)
    if num != 0 and abs(ratio - num / den) <= 1e-9 * abs(ratio):
        warnings.warn(
            f"log({lambda1})/log({lambda2}) is close to {num}/{den}; "
            "the probes are multiplicatively dependent",
            RationalRatioWarning,
            stacklevel=2,
        )
    return 0.5 * (r1 + r2), abs(r1 - r2) <= tol


def _beck_index(param: PopaParam, delta: float, u: float) -> int:
    """The unique i with delta^((i-1) o) <= u < delta^(i o), the partition's cells: at most popa._MAX_LISTED."""
    delta, u = float(delta), float(u)
    step_w = iso_log(param, delta)
    if not step_w > 0.0:
        raise DomainError(f"delta={delta!r} does not step away from the identity")
    u_w = iso_log(param, u)
    if u_w < 0.0:
        raise DomainError(f"u={u!r} lies below the identity {1.0 if param.is_infinite else 0.0}")
    # candidate index from the additive scale, within a step of i below the budget, then correct the boundary
    i = max(1, math.floor(min(u_w / step_w, 2.0 * _MAX_LISTED)) + 1)
    while _MAX_LISTED + 1 >= i > 1 and power(param, delta, i - 1) > u:
        i -= 1
    while i <= _MAX_LISTED and power(param, delta, i) <= u:
        i += 1
    if i > _MAX_LISTED:
        raise DomainError(f"partition is too fine: more than {_MAX_LISTED} cells, the budget of one call")
    return i


def beck_partition(param: PopaParam, delta: float, u: float) -> list[float]:
    """Partition points delta^(0 o), ..., delta^(i o) where i is the unique
    index with delta^((i-1) o) <= u < delta^(i o).  The list may hold at
    most 3276800 points (about 100 MB)."""
    i = _beck_index(param, delta, u)
    if i >= _MAX_LISTED:
        raise DomainError(f"partition of {i + 1} points is too long to list (at most {_MAX_LISTED}, about 100 MB)")
    return list(_powers(param, delta, range(i + 1)))


def beck_riemann_sum(
    g: Callable[[float], float], param: PopaParam, delta: float, u: float
) -> float:
    """Riemann sum of g/eta over the partition of [identity, u] induced by the
    o-iterates of delta, at most 3276800 cells, the final cell clipped at u.
    Converges to the integral of g(x)/eta(x) dx at first order in delta."""
    nodes = (min(p, u) for p in _powers(param, delta, range(_beck_index(param, delta, u) + 1)))
    cells = takewhile(lambda c: c[0] < c[1], pairwise(nodes))  # up to the first empty cell
    rho, multiplicative = param.rho, param.is_infinite  # eta(param, x) inline: x is in [identity, u]
    return math.fsum(g(x) / (x if multiplicative else 1.0 + rho * x) * (x - a) for a, x in cells)


def goldie_sum(
    K_delta: float,
    g: Callable[[float], float],
    param: PopaParam,
    delta: float,
    i: int,
) -> float:
    """Discrete functional-equation sum K_delta * sum_{m=1..i} g(delta^((m-1) o)), of at most 3276800 terms."""
    i = int(i)
    if i < 0:
        raise DomainError(f"i must be >= 0, got {i}")
    if i > _MAX_LISTED:
        raise DomainError(f"sum is too long: {i} terms, more than {_MAX_LISTED}, the budget of one call")
    return K_delta * math.fsum(map(g, _powers(param, delta, range(i))) if i else ())  # i = 0: delta unchecked
