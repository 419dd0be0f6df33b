"""Globally adaptive quadrature with deterministic refinement.

From an initial grid, the cell with the largest error estimate is split until
the summed estimate drops below max(abs_tol, rel_tol*|value|) or the budget is
spent.  Simpson cells (:func:`adaptive_integral`) carry the gauge
|S_fine - S_coarse|.  Clenshaw-Curtis 17/9 cells (``_cc_integral``, used by
regvar.haar) take the profile ``p`` at ``c + r*cos(k*pi/16)``, the even k
nested.  For ``p(w) * exp(-z*w)`` their weights integrate the interpolant of
``p`` exactly against the exponential (Filon-Clenshaw-Curtis; Dominguez,
Graham & Smyshlyaev 2011), so the cells follow ``p``, not the frequency.  The
gauge is d, or QUADPACK's resasc * (200*d/resasc)**1.5 (Piessens et al. 1983)
where less, resasc the integral of |p - mean|, floored at 50 eps times that of
|p|.  C17 - C9 sums the weighted misses of the 9-point interpolant at four
mirror pairs of odd nodes; d sums their moduli, which cannot cancel.  There
are min(24, ceil(span / (T/12))) initial panels, T = ``spec.truncation``; a
split reuses the end values, so a child costs 15 evaluations.

Ties in the refinement queue are broken by cell position and the final value
is accumulated in fixed left-to-right order with compensated summation, so a
given integrand always produces bit-identical output.  Non-convergence is not
fatal: the best estimate is returned together with ``converged=False`` and a
conservative error bound.
"""
from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

__all__ = ["QuadratureSpec", "QuadratureResult", "QuadratureWarning", "adaptive_integral"]

# Cells narrower than span * 2**-48 cannot be refined meaningfully in double
# precision; they are frozen at their current estimate.
_WIDTH_FLOOR_FACTOR = 2.0**-48


class QuadratureWarning(UserWarning):
    """Raised via warnings.warn when an integral fails to converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget of every Haar integral, by Clenshaw-Curtis cells or :func:`adaptive_integral`.

    ``truncation`` is the half-width T of the surrogate interval [-T, T]
    used by callers that integrate over the whole line.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 4000
    truncation: float = 30.0

    def __post_init__(self) -> None:
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not math.isfinite(tol):
                raise ValueError(f"{name} must be finite, got {tol!r}")
        if not (self.abs_tol > 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not (self.truncation > 0.0 and math.isfinite(2.0 * self.truncation)):  # [-T, T] has a finite span
            raise ValueError(f"truncation must be positive with a finite span 2*truncation, got {self.truncation!r}")


@dataclass
class QuadratureResult:
    value: complex
    error: float
    converged: bool
    evaluations: int

    @property
    def real(self) -> float:
        return self.value.real


class _Cell:
    """A cell: its ends and centre with their values, estimate and gauge, and Simpson's quarter points."""
    __slots__ = ("a", "b", "fa", "fm", "fb", "value", "err", "fq1", "fq3")

    def __init__(self, a, b, fa, fm, fb, value, err, fq1=None, fq3=None):
        self.a, self.b, self.fa, self.fm, self.fb, self.value, self.err = a, b, fa, fm, fb, value, err
        self.fq1, self.fq3 = fq1, fq3


def _simpson_cell(fn, a, b, fa, fm, fb, nev) -> _Cell:
    """A cell holding its five-point Simpson pair; the quarter points, and the centre if None, are evaluated here."""
    if fm is None:
        fm = fn(0.5 * (a + b))
        nev[0] += 1
    fq1, fq3 = fn(a + 0.25 * (b - a)), fn(a + 0.75 * (b - a))
    nev[0] += 2
    h = b - a
    s1 = h * (fa + 4.0 * fm + fb) / 6.0
    s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
    # Richardson-corrected value; the plain pair difference is kept as a
    # deliberately conservative error gauge (no /15 reduction, which would
    # overstate accuracy on non-smooth integrands).
    return _Cell(a, b, fa, fm, fb, s2 + (s2 - s1) / 15.0, abs(s2 - s1), fq1, fq3)


def adaptive_integral(
    fn: Callable[[float], complex],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``fn`` over [lo, hi] with Simpson cells, from 64 initial cells; real or complex valued integrands."""
    nev = [0]
    cell = functools.partial(_simpson_cell, fn, nev=nev)
    return _refine(fn, lo, hi, spec, breakpoints, 64, lambda a, b, fa, fb: cell(a, b, fa, None, fb),
                   lambda c, m: (cell(c.a, m, c.fa, c.fq1, c.fm), cell(m, c.b, c.fm, c.fq3, c.fb)), nev)


def _inverse(matrix: list) -> list:
    """Inverse of a small square matrix by Gauss-Jordan elimination with partial pivoting."""
    n = len(matrix)
    rows = [list(row) + [float(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(rows[i][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        rows = [r if i == col else [v - r[col] * u for v, u in zip(r, rows[col])] for i, r in enumerate(rows)]
    return [row[n:] for row in rows]


def _cc_rule(w: list, interp: list) -> tuple:
    """w and, per mirror pair (k, 16-k) of odd nodes, (k, w_k, w_16-k, the weighted 9-point interpolant there)."""
    return w, [(k, w[k], w[16 - k], [w[k] * u + w[16 - k] * v for u, v in zip(interp[k // 2], interp[7 - k // 2])])
               for k in (1, 3, 5, 7)]


@functools.cache
def _cc_tables() -> tuple:
    """The nodes cos(k*pi/16), exactly mirrored; the columns k <= 8 of A = inverse of P_m(node_k), which
    holds the Legendre coefficients of the Lagrange basis; the 9-point basis at the odd nodes; the plain rule."""
    half = [math.cos(k * math.pi / 16) for k in range(8)]
    nodes = half + [0.0] + [-x for x in reversed(half)]
    step = lambda p, k: p + [((2 * k + 1) * p[1] * p[k] - k * p[k - 1]) / (k + 1)]  # appends P_k+1(x); p[1] = x
    cols = [list(col) for col in zip(*_inverse([functools.reduce(step, range(1, 16), [1.0, x]) for x in nodes]))][:9]
    interp = [[math.prod((x - e) / (c - e) for e in nodes[0::2] if e != c) for c in nodes[0::2]] for x in nodes[1::2]]
    plain = [2.0 * col[0] for col in cols]  # mu = (2, 0, ..., 0) at theta = 0
    return nodes, cols, interp, _cc_rule(plain + plain[-2::-1], interp)


def _legendre_moments(theta: complex) -> list:
    """mu_k = integral of P_k(s) exp(-theta*s) over [-1, 1], k <= 16: mu_{k+1} = mu_{k-1} + (2k+1)/theta * mu_k."""
    if abs(theta) >= 17.0:  # forward, stable while k < |theta|
        mu = [m0 := 2.0 * cmath.sinh(theta) / theta, (m0 - 2.0 * cmath.cosh(theta)) / theta]
        for k in range(1, 16):
            mu.append(mu[k - 1] + (2 * k + 1) / theta * mu[k])
        return mu
    # Miller: the ratios mu_k/mu_{k-1}, settled to an ulp long before k = 60, backward, normalised
    # by exp(-theta*s) = sum (k+1/2) mu_k P_k(s) at s = -1 (Re theta >= 0) or s = 1, where the terms
    # do not cancel (mu_0 alone vanishes at theta = i*pi, ..., 5i*pi)
    ratios = itertools.accumulate(range(60, 0, -1), lambda r, k: theta / (theta * r - (2 * k + 1)), initial=0.0)
    mu = list(itertools.accumulate(reversed(list(ratios)[1:]), mul, initial=1.0))
    sign = -1.0 if theta.real >= 0.0 else 1.0
    scale = cmath.exp(-sign * theta) / sum((k + 0.5) * sign**k * m for k, m in enumerate(mu))
    return [scale * m for m in mu[:17]]


def _cc_weights(theta: complex) -> list:
    """W_k = integral of exp(-theta*s) L_k(s) over [-1, 1]; by parity W_k, W_16-k share the halves of A's column k."""
    mu = _legendre_moments(theta)
    w = [0j] * 17
    for k, col in enumerate(_cc_tables()[1]):
        e, o = sum(map(mul, col[0::2], mu[0::2])), sum(map(mul, col[1::2], mu[1::2]))
        w[k], w[16 - k] = e + o, e - o
    return w


def _cc_integral(fn, lo: float, hi: float, spec: QuadratureSpec = QuadratureSpec(), z: complex = 0.0):
    """Integrate ``fn(w) * exp(-z*w)`` over [lo, hi] with Clenshaw-Curtis 17/9 cells."""
    nodes, _, interp, plain = _cc_tables()
    inner, w0 = nodes[1:16], plain[0]
    rules, nev = {}, [0]  # the rule of the cells of half-width r, at theta = z*r; evaluations

    def make(a, b, fa, fb):
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        p = [fb, *[fn(c + r * s) for s in inner], fa]
        nev[0] += 15
        if z and r not in rules:
            rules[r] = _cc_rule(_cc_weights(z * r), interp)
        w, pairs = rules[r] if z else plain
        coarse = p[0::2]
        d = sum(abs(wk * p[k] + wl * p[16 - k] - sum(map(mul, row, coarse))) for k, wk, wl, row in pairs)
        plain_value = sum(map(mul, w0, p))
        e = r * cmath.exp(-z * c) if z else r
        value, scale = e * sum(map(mul, w, p)) if z else r * plain_value, abs(e)
        mean = 0.5 * plain_value
        resasc = scale * sum(map(mul, w0, [abs(v - mean) for v in p]))
        d *= scale
        err = min(d, resasc * (200.0 * d / resasc) ** 1.5) if resasc else d
        err = max(err, 50.0 * 2.0**-52 * scale * sum(map(mul, w0, map(abs, p))))
        return _Cell(a, b, fa, p[8], fb, value, err)

    panels = math.ceil(min(24.0, (hi - lo) / (spec.truncation / 12.0))) if lo < hi else 1  # else _refine raises
    split = lambda c, m: (make(c.a, m, c.fa, c.fm), make(m, c.b, c.fm, c.fb))
    return _refine(fn, lo, hi, spec, (), panels, make, split, nev)


def _refine(fn, lo, hi, spec, breakpoints, min_cells, first, split, nev) -> QuadratureResult:
    """The adaptive loop from a grid of at least ``min_cells`` cells through the breakpoints, whose cells
    ``first(a, b, fa, fb)`` makes; ``split(cell, midpoint)`` makes the two halves of a cell."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    span = hi - lo
    edges = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
    grid = [lo]
    for left, right in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((right - left) / span * max(1, min_cells)))
        for k in range(1, pieces + 1):
            grid.append(left + (right - left) * k / pieces)
    grid[-1] = hi
    fvals = [fn(x) for x in grid]
    nev[0] += len(grid)
    cells = [first(grid[i], grid[i + 1], fvals[i], fvals[i + 1]) for i in range(len(grid) - 1)]
    heap = [(-c.err, c.a, c) for c in cells]
    heapq.heapify(heap)
    frozen = []  # cells at the width floor, no longer refinable
    width_floor = span * _WIDTH_FLOOR_FACTOR
    # running totals steer refinement; exact sums confirm the stop and make the result
    run_value, run_err = sum(c.value for c in cells), sum(c.err for c in cells)
    splits = 0
    while splits < spec.max_subdivisions and heap:
        if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)):
            # the running sums drift once they have held far larger terms: confirm afresh
            active = [c for (_, _, c) in heap] + frozen
            run_value, run_err = sum(c.value for c in active), math.fsum(c.err for c in active)
            if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)):
                break
        _, _, worst = heapq.heappop(heap)
        if worst.b - worst.a <= width_floor:
            frozen.append(worst)
            continue
        left, right = split(worst, 0.5 * (worst.a + worst.b))
        heapq.heappush(heap, (-left.err, left.a, left))
        heapq.heappush(heap, (-right.err, right.a, right))
        run_value += left.value + right.value - worst.value
        run_err += left.err + right.err - worst.err
        splits += 1

    active = [c for (_, _, c) in heap] + frozen
    active.sort(key=lambda c: c.a)
    re, im = math.fsum(c.value.real for c in active), math.fsum(c.value.imag for c in active)
    total = complex(re, im) if im != 0.0 else re
    err = math.fsum(c.err for c in active)
    converged = err <= max(spec.abs_tol, spec.rel_tol * abs(total))
    return QuadratureResult(value=total, error=err, converged=converged, evaluations=nev[0])
