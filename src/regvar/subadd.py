"""Subadditivity and boundedness diagnostics for maps between Popa groups.

A map ``S : G_rho -> G_sigma`` is o-subadditive when
``S(x o_rho y) <= S(x) o_sigma S(y)``.  The checks here are grid probes: they
cannot prove subadditivity, but a reported violation is a genuine
counterexample pair and violations found on a grid persist on any refinement
containing that pair.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, compress
from operator import sub
from typing import Callable, Sequence

from regvar import popa
from regvar.kernels import KernelParams, kernel_eval
from regvar.popa import DomainError, PopaParam, _Record

__all__ = [
    "GridSpec",
    "SubaddReport",
    "VacuousPremiseWarning",
    "subadditivity_check",
    "additively_bounded_check",
    "heiberg_seneta_probe",
    "sandwich_bound_check",
]


class VacuousPremiseWarning(UserWarning):
    """The premise of a conditional check failed, so it passed vacuously."""


class GridSpec(_Record, frozen=True):
    """Evaluation grid on [lo, hi] with a finite span hi - lo; geometric spacing needs lo > 0."""

    __slots__ = ("lo", "hi", "n", "spacing")

    def __init__(self, lo: float, hi: float, n: int, spacing: str = "linear") -> None:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"need lo < hi, got ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"the span hi - lo of ({lo}, {hi}) overflows")
        n = popa._count("n", n, 2)
        if spacing not in ("linear", "geometric"):
            raise ValueError(f"spacing must be 'linear' or 'geometric', got {spacing!r}")
        if spacing == "geometric" and not lo > 0.0:
            raise ValueError("geometric spacing needs lo > 0")
        self._freeze(lo, hi, n, spacing)

    def points(self) -> list[float]:
        """Non-decreasing points from lo to hi, at most 3276800 of them.  Geometric ones are 10**w over evenly spaced
        w = log10(t), with lo and hi exact and each point clamped between its predecessor and hi."""
        popa._within_budget(self.n, "grid points")
        lo, hi = float(self.lo), float(self.hi)
        if self.spacing == "linear":
            return _linspace(lo, hi, self.n)
        inner = _linspace(_log10(lo), _log10(hi), self.n)[1:-1]
        # 10**w errs by about |w| ulps, which can exceed a span of a few ulps: clamp to keep the points in order
        return [*accumulate((min(10.0**w, hi) for w in inner), max, initial=lo), hi]


def _atanh2(num: int, den: int) -> int:
    """2*atanh(num/den) for 0 <= num/den <= 1/3 in fixed point, times 2**128, to 2**-120."""
    t, total, k = (num << 128) // den, 0, 1
    t2 = t * t >> 128
    while t:
        total, t, k = total + t // k, t * t2 >> 128, k + 2
    return 2 * total


def _log10(x: float) -> float:
    """log10 of a positive float, correctly rounded (math.log10 is an ulp off for ~1% of inputs): x = m*2**e with
    1 <= m < 2 and ln m = 2*atanh((m - 1)/(m + 1)), ln 2 = 2*atanh(1/3), ln 10 = 3 ln 2 + 2*atanh(1/9)."""
    m, e = math.frexp(x)  # x = (2*m) * 2**(e - 1)
    n, ln2 = int(m * 2.0**54), _atanh2(1, 3)
    return ((e - 1) * ln2 + _atanh2(n - 2**53, n + 2**53)) / (3 * ln2 + _atanh2(1, 9))  # int / int rounds correctly


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) to the bit: k*step + lo, the last point hi."""
    delta, div = hi - lo, n - 1
    step = delta / div
    if step == 0.0:  # the span is subnormal: scale k/div instead, as np.linspace does
        return [k / div * delta + lo for k in range(div)] + [hi]
    return [k * step + lo for k in range(div)] + [hi]


class SubaddReport(_Record):
    __slots__ = ("holds", "worst_violation", "worst_pair", "pairs_checked", "pairs_skipped")

    def __init__(self, holds: bool, worst_violation: float, worst_pair: tuple[float, float], pairs_checked: int,
                 pairs_skipped: int = 0) -> None:
        self.holds, self.worst_violation, self.worst_pair = holds, worst_violation, worst_pair
        self.pairs_checked, self.pairs_skipped = pairs_checked, pairs_skipped


def _codomain_value(sigma: PopaParam, x: float, v: float) -> float:
    """v = S(x) as a float of sigma's carrier."""
    try:
        return popa._check_value(sigma, v)
    except DomainError as exc:
        raise DomainError(f"S({x!r}) = {v!r} is outside the codomain carrier") from exc


def subadditivity_check(
    S: Callable[[float], float],
    rho: PopaParam,
    sigma: PopaParam,
    grid: GridSpec,
    tol: float = 1e-10,
) -> SubaddReport:
    """Probe S(x o y) <= S(x) o S(y) over all pairs of a grid of at most 3276800
    unordered pairs (n <= 2559) whose combination stays inside [lo, hi];
    out-of-window pairs are skipped and counted.  S is called once per point and
    once per unordered in-window pair, row by row; off the diagonal a pair
    counts twice, as x o y = y o x.  A row's window is bisected where fl(x o y)
    is non-decreasing in x and y, and the rows past the first whose diagonal
    x o x exceeds hi are skipped without a call of S.  A row's pairs are checked
    as one batch: if a bound or an S(z) is outside sigma's carrier, the
    DomainError names the first such pair of the row, and S may already have
    been called on the rest of it."""
    popa._within_budget(grid.n * (grid.n + 1) // 2, "unordered pairs of grid points")
    pts = [popa._check_value(rho, p) for p in grid.points()]
    svals = [_codomain_value(sigma, p, S(p)) for p in pts]
    rho_op, rho_ops, sigma_ops = rho._row.op, rho._row.ops, sigma._row.ops
    lo, hi, n = grid.lo, grid.hi, len(pts)
    worst, worst_pair = 0.0, (math.nan, math.nan)
    checked = 0  # of the n*n ordered pairs; the rest are skipped
    j1 = n  # the end of the last monotone row's window, which only falls from row to row
    for i, x in enumerate(pts):
        if x >= 0.0 or not rho.is_finite:  # every rounded op of x o y is monotone in x and y: the window is a slice
            x_op, diagonal = partial(rho_op, x), rho_op(x, x)
            if diagonal > hi:  # this row and every later one lie above hi
                break
            j0 = i if diagonal >= lo else bisect_left(pts, lo, i + 1, j1, key=x_op)
            j1 = bisect_right(pts, hi, j0, j1, key=x_op)
            ys, sy = pts[j0:j1], svals[j0:j1]
            zs = rho_ops(x, ys)  # each z lies between two points of the carrier, so it is one too
        else:  # (x + y) + rho*(x*y) can step back an ulp as y grows: the row is made once and each pair tested
            zs = rho_ops(x, pts[i:])
            inside = [lo <= z <= hi for z in zs]
            j0 = i + inside.index(True) if True in inside else n
            ys, sy, zs = (list(compress(v, inside)) for v in (pts[i:], svals[i:], zs))
        bounds = sigma_ops(svals[i], sy)
        values = list(map(S, zs))
        images = list(map(float, values))
        violations = list(map(sub, images, bounds))
        # a finite sum has finite bounds and images, members at sigma = 0; elsewhere the least of them decides
        if ys and not (math.isfinite(sum(violations))
                       and (sigma.is_zero or popa._is_member(sigma, min(min(bounds), min(images))))):
            for z, bound, v in zip(zs, bounds, values):  # raise for the first failing pair
                popa._check_value(sigma, bound)
                _codomain_value(sigma, z, v)
        row = 2 * len(ys) - (bool(ys) and j0 == i)  # the diagonal pair (x, x) counts once
        checked += row  # of the row's 2*(n - i) - 1 ordered pairs, which sum to n*n over the rows
        top = max(violations, default=0.0)
        if top > worst:
            worst, worst_pair = top, (x, ys[violations.index(top)])
    return SubaddReport(worst <= tol, worst, worst_pair, checked, n * n - checked)


def additively_bounded_check(
    S: Callable[[float], float],
    kp: KernelParams,
    sample_set: Sequence[float],
    tol: float = 1e-10,
) -> SubaddReport:
    """Pointwise check S(t) <= K_kappa(t) + tol over the sample set, each S(t) a float of sigma's carrier."""
    worst = 0.0
    worst_pair = (math.nan, math.nan)
    for t in sample_set:
        t = float(t)
        excess = _codomain_value(kp.sigma, t, S(t)) - kernel_eval(kp, t)
        if excess > worst:
            worst = excess
            worst_pair = (t, t)
    return SubaddReport(worst <= tol, worst, worst_pair, len(sample_set), 0)


def heiberg_seneta_probe(
    S: Callable[[float], float],
    sequence: Sequence[float] | None = None,
    tol: float = 1e-4,
) -> tuple[float, bool]:
    """Estimate limsup of S along a sequence decreasing to 0, by default u_k = 2^-k, k = 1..40.

    Returns (estimate, passes) where the estimate is the maximum of S over
    the tail half of the sequence and passes means estimate <= tol.  Every S
    value of the tail must be finite: a nan or an infinity is a DomainError
    that names the first of them, wherever it falls.
    """
    seq = [2.0**-k for k in range(1, 41)] if sequence is None else [float(u) for u in sequence]
    if len(seq) < 8:
        raise ValueError("probe sequence must have at least 8 points")
    if not (seq[-1] > 0.0 and all(a > b for a, b in zip(seq, seq[1:]))):
        raise ValueError("probe sequence must be positive and strictly decreasing")
    tail = seq[len(seq) // 2 :]
    values = [popa._finite(f"S({u!r})", S(u)) for u in tail]
    estimate = max(values)
    return estimate, estimate <= tol


def _codomain_values(S: Callable[[float], float], sigma: PopaParam, xs: list[float]) -> list:
    """S over xs, every value in sigma's carrier: a finite sum has finite values, and the least of them decides
    membership; only where that gate fails is each value read through the codomain rule, to name the first failing
    probe."""
    values = list(map(S, xs))
    if values and not (math.isfinite(sum(values)) and popa._is_member(sigma, min(values))):
        for x, v in zip(xs, values):
            _codomain_value(sigma, x, v)
    return values


def sandwich_bound_check(
    S: Callable[[float], float],
    rho: PopaParam,
    sigma: PopaParam,
    a: float,
    b: float,
    delta: float,
    M: float,
    probes: int = 33,
) -> bool:
    """Propagate a local bound: if S <= M on the ball B_delta(a), then on
    B_delta(b) the two-sided bound

        S(b o a) o inv(M)  <=  S(x)  <=  S(b o inv(a)) o M

    must hold (group operations of the codomain on the outside).  If the
    premise already fails on the probe points the check passes vacuously,
    with a warning.  At most 3276800 probes are allowed.  S sees every probe
    of a ball before the premise or the bound is tested, and each value must
    lie in sigma's carrier: else the DomainError names the first probe whose
    value does not.
    """
    probes = popa._count("probes", probes, 2, "probes")
    popa._positive("delta", delta)
    pa, pb = popa._check_value(rho, a), popa._check_value(rho, b)
    popa._positive("b", pb)
    pM = popa._check_value(sigma, M)

    offsets = _linspace(-delta, delta, probes + 2)[1:-1]
    eps = 1e-12 * (1.0 + abs(M))
    if any(v > M + eps for v in _codomain_values(S, sigma, [pa + o for o in offsets])):
        warnings.warn(
            f"premise S <= {M} fails on B_{delta}({a}); sandwich passes vacuously",
            VacuousPremiseWarning,
            stacklevel=2,
        )
        return True

    check = popa._check_value  # each result of the group operations is a member, as a PopaPoint would check
    ba = check(rho, rho._row.op(pb, pa))
    s_ba = _codomain_value(sigma, ba, S(ba))
    bainv = check(rho, rho._row.op(pb, check(rho, rho._row.inverse(pa))))
    s_bainv = _codomain_value(sigma, bainv, S(bainv))
    lower = check(sigma, sigma._row.op(s_ba, check(sigma, sigma._row.inverse(pM))))
    upper = check(sigma, sigma._row.op(s_bainv, pM))
    slack = 1e-12 * (1.0 + abs(lower) + abs(upper))
    return not any(v < lower - slack or v > upper + slack
                   for v in _codomain_values(S, sigma, [pb + o for o in offsets]))
