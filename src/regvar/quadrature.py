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

Ties in the refinement queue are broken by cell position.  The value and the
bound are ``math.fsum`` of the cells in position order, which is correctly
rounded; the running sums that steer the refinement, and the weighted sums of
a cell, use the built-in ``sum``, which is compensated from Python 3.12 on.  So
a given integrand always produces bit-identical output on one Python version.
Non-convergence is not fatal: the best estimate is returned together with
``converged=False`` and a conservative error bound.
"""
from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
from operator import mul
from typing import Callable, Sequence

from regvar.popa import DomainError, _Record

__all__ = ["QuadratureSpec", "QuadratureResult", "QuadratureWarning", "adaptive_integral"]

# Cells narrower than span * 2**-48 cannot be refined meaningfully in double
# precision; they are frozen at their current estimate.
_WIDTH_FLOOR_FACTOR = 2.0**-48


class QuadratureWarning(UserWarning):
    """Raised via warnings.warn when an integral fails to converge."""


class QuadratureSpec(_Record, frozen=True):
    """Tolerances and budget of every Haar integral, by Clenshaw-Curtis cells or :func:`adaptive_integral`.

    ``truncation`` is the half-width T of the surrogate interval [-T, T]
    used by callers that integrate over the whole line.
    """

    __slots__ = ("abs_tol", "rel_tol", "max_subdivisions", "truncation")

    def __init__(self, abs_tol: float = 1e-9, rel_tol: float = 1e-9, max_subdivisions: int = 4000,
                 truncation: float = 30.0) -> None:
        for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
            if not math.isfinite(tol):
                raise ValueError(f"{name} must be finite, got {tol!r}")
        if not (abs_tol > 0.0 and rel_tol >= 0.0):
            raise ValueError("tolerances must be positive")
        if max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not (truncation > 0.0 and math.isfinite(2.0 * truncation)):  # [-T, T] has a finite span
            raise ValueError(f"truncation must be positive with a finite span 2*truncation, got {truncation!r}")
        self._freeze(abs_tol, rel_tol, max_subdivisions, truncation)


class QuadratureResult(_Record):
    __slots__ = ("value", "error", "converged", "evaluations")

    def __init__(self, value: complex, error: float, converged: bool, evaluations: int) -> None:
        self.value, self.error = value, error  # pairs: no tuple is built
        self.converged, self.evaluations = converged, evaluations

    @property
    def real(self) -> float:
        return self.value.real


class _Cell:
    """A cell: its ends and centre with their values, estimate and gauge, and Simpson's quarter points."""
    __slots__ = ("a", "b", "fa", "fm", "fb", "value", "err", "fq1", "fq3")

    def __init__(self, a, b, fa, fm, fb, value, err, fq1=None, fq3=None):
        self.a, self.b, self.fa, self.fm, self.fb, self.value, self.err = a, b, fa, fm, fb, value, err
        self.fq1, self.fq3 = fq1, fq3


def adaptive_integral(fn: Callable[[float], complex], lo: float, hi: float, spec: QuadratureSpec = QuadratureSpec(),
                      *, breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Integrate ``fn`` over [lo, hi] with Simpson cells, from 64 initial cells; real or complex valued integrands.

    The gauge |S_fine - S_coarse| is not calibrated on kinked integrands: on a log-log table integrated over
    w = log s, a kink at every node, it can report convergence at a true error 100 times its bound.  Pass the
    kinks as ``breakpoints``, so that every cell is smooth."""

    def cell(a, b, fa, fm, fb):
        """The cell's five-point Simpson pair, its quarter points evaluated here."""
        fq1, fq3 = fn(a + 0.25 * (b - a)), fn(a + 0.75 * (b - a))
        h = b - a
        s1 = h * (fa + 4.0 * fm + fb) / 6.0
        s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
        # Richardson-corrected value; the plain pair difference is kept as a deliberately conservative
        # error gauge (no /15 reduction, which would overstate accuracy on non-smooth integrands).
        return _Cell(a, b, fa, fm, fb, s2 + (s2 - s1) / 15.0, abs(s2 - s1), fq1, fq3)

    return _refine(fn, lo, hi, spec, breakpoints, 64, lambda a, b, fa, fb: cell(a, b, fa, fn(0.5 * a + 0.5 * b), fb),
                   lambda c, m: (cell(c.a, m, c.fa, c.fq1, c.fm), cell(m, c.b, c.fm, c.fq3, c.fb)), 3, 4)


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
    """The nodes cos(k*pi/16), exactly mirrored; the even and odd halves of the columns k <= 8 of A = inverse of
    P_m(node_k), which holds the Legendre coefficients of the Lagrange basis; the 9-point basis at the odd nodes;
    the plain rule."""
    half = [math.cos(k * math.pi / 16) for k in range(8)]
    nodes = half + [0.0] + [-x for x in reversed(half)]
    step = lambda p, k: p + [((2 * k + 1) * p[1] * p[k] - k * p[k - 1]) / (k + 1)]  # appends P_k+1(x); p[1] = x
    cols = [list(col) for col in zip(*_inverse([functools.reduce(step, range(1, 16), [1.0, x]) for x in nodes]))][:9]
    interp = [[math.prod((x - e) / (c - e) for e in nodes[0::2] if e != c) for c in nodes[0::2]] for x in nodes[1::2]]
    plain = [2.0 * col[0] for col in cols]  # mu = (2, 0, ..., 0) at theta = 0
    return nodes, [(col[0::2], col[1::2]) for col in cols], interp, _cc_rule(plain + plain[-2::-1], interp)


_NORMALISE = {sign: [(k + 0.5) * sign**k for k in range(61)] for sign in (-1.0, 1.0)}


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
    r, ratios = 0.0, []
    for odd in range(121, 2, -2):  # 2k+1, k = 60, ..., 1
        r = theta / (theta * r - odd)
        ratios.append(r)
    mu = list(itertools.accumulate(reversed(ratios), mul, initial=1.0))
    sign = -1.0 if theta.real >= 0.0 else 1.0
    scale = cmath.exp(-sign * theta) / sum(map(mul, _NORMALISE[sign], mu))
    return [scale * m for m in mu[:17]]


def _cc_weights(theta: complex) -> list:
    """W_k = integral of exp(-theta*s) L_k(s) over [-1, 1]; by parity W_k, W_16-k share the halves of A's column k."""
    mu = _legendre_moments(theta)
    even, odd = mu[0::2], mu[1::2]
    w = [0j] * 17
    for k, (col_even, col_odd) in enumerate(_cc_tables()[1]):
        e, o = sum(map(mul, col_even, even)), sum(map(mul, col_odd, odd))
        w[k], w[16 - k] = e + o, e - o
    return w


def _cc_integral(fn, lo: float, hi: float, spec: QuadratureSpec = QuadratureSpec(), z: complex = 0.0):
    """Integrate ``fn(w) * exp(-z*w)`` over [lo, hi] with Clenshaw-Curtis 17/9 cells."""
    nodes, _, interp, (w0, plain_pairs) = _cc_tables()
    inner = nodes[1:16]
    rules = {}  # the rule of the cells of half-width r, at theta = z*r

    def make(a, b, fa, fb):
        c, r = 0.5 * a + 0.5 * b, 0.5 * (b - a)  # a + b may overflow
        p = [fb, *[fn(c + r * s) for s in inner], fa]
        plain_value = sum(map(mul, w0, p))
        if not z:
            e, value, pairs = r, r * plain_value, plain_pairs
        else:
            try:
                if r not in rules:
                    rules[r] = _cc_rule(_cc_weights(z * r), interp)
                e = r * cmath.exp(-z * c)
                w, pairs = rules[r]
                value = e * sum(map(mul, w, p))
                if not cmath.isfinite(value) and all(map(cmath.isfinite, p)):
                    raise OverflowError
            except OverflowError:  # in exp(-z*w), its moments or the weighted sum, not in fn
                raise DomainError(f"exp(-z*w) overflows for z={z} and w in [{lo!r}, {hi!r}] (truncation="
                                  f"{spec.truncation!r}): lower |Re z| or the truncation") from None
        coarse = p[0::2]
        d = sum(abs(wk * p[k] + wl * p[16 - k] - sum(map(mul, row, coarse))) for k, wk, wl, row in pairs)
        scale, mean = abs(e), 0.5 * plain_value
        spread = sum(map(mul, w0, [abs(v - mean) for v in p]))
        resasc, d, floor = scale * spread, d * scale, 50.0 * 2.0**-52 * scale
        err = min(d, resasc * (200.0 * d / resasc) ** 1.5) if resasc else d
        # floor * sum(w0*|p|) <= floor * (spread + 2|mean|), the weights being positive with sum 2: where err
        # exceeds that bound, with room for rounding and underflow, it exceeds the floor and the sum is skipped
        if not err > floor * (1.001 * (spread + 2.0 * abs(mean)) + 1e-300):
            err = max(err, floor * sum(map(mul, w0, map(abs, p))))
        if r < 2.0**-1022:  # a subnormal r (0 included) may be off by an ulp, a value that underflows too: bound both
            err += (sum(map(mul, w0, map(abs, p))) * math.exp(-z.real * c) + 1.0) * 2.0**-1074
        return _Cell(a, b, fa, p[8], fb, value, err)

    step = spec.truncation / 12.0  # 0 for a T of a few subnormals, whose spans get the 24 panels of any wide span
    panels = math.ceil(min(24.0, (hi - lo) / step)) if lo < hi and step else 24  # where lo >= hi _refine raises
    split = lambda c, m: (make(c.a, m, c.fa, c.fm), make(m, c.b, c.fm, c.fb))
    return _refine(fn, lo, hi, spec, (), panels, make, split, 15, 30)


def _steps(lo: float, span: float, n: int, last: int) -> list:
    """lo + span*k/n for k = 1, ..., last; as lo + span/n*k where span*k overflows, a finite span above DBL_MAX/k."""
    if span * last < math.inf:  # the test per node costs a short integral 3%
        return [lo + span * k / n for k in range(1, last + 1)]
    return [lo + (span * k / n if span * k < math.inf else span / n * k) for k in range(1, last + 1)]


def _refine(fn, lo, hi, spec, breakpoints, min_cells, first, split, first_cost, split_cost) -> QuadratureResult:
    """The adaptive loop from a grid of at least ``min_cells`` cells through the breakpoints, whose cells
    ``first(a, b, fa, fb)`` makes; ``split(cell, midpoint)`` makes the two halves of a cell.  A first cell
    evaluates ``fn`` ``first_cost`` times besides at its ends, a split ``split_cost`` times."""
    span = hi - lo
    if not (lo < hi and span < math.inf):  # so lo and hi are finite too
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    if breakpoints:
        edges = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
        grid = [lo]
        for left, right in zip(edges[:-1], edges[1:]):
            pieces = max(1, math.ceil((right - left) / span * max(1, min_cells)))
            grid += _steps(left, right - left, pieces, pieces)
        grid[-1] = hi
    else:  # the grid above, of max(1, min_cells) pieces
        grid = [lo, *_steps(lo, span, min_cells, min_cells - 1), hi]
    fvals = list(map(fn, grid))
    cells = list(map(first, grid, grid[1:], fvals, fvals[1:]))
    abs_tol, rel_tol = spec.abs_tol, spec.rel_tol
    # running totals steer refinement; exact sums confirm the stop and make the result
    run_value, run_err = sum([c.value for c in cells]), sum([c.err for c in cells])
    splits = 0
    # a lone cell within tolerance is done: its running sums are exact, and the loop would stop at once
    if len(cells) > 1 or not run_err <= max(abs_tol, rel_tol * abs(run_value)):
        # a cell's serial number breaks the ties of cells alike in error and start: those of zero width, which a
        # grid or split of a span of a few subnormals makes
        heap = [(-c.err, c.a, k, c) for k, c in enumerate(cells)]
        serial = len(heap)
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        frozen = []  # cells at the width floor, no longer refinable
        width_floor = span * _WIDTH_FLOOR_FACTOR
        peak = run_err  # the largest running error since the last exact sum
        while splits < spec.max_subdivisions and heap:
            # the running sums drift once they have held far larger terms: confirm a stop afresh, and re-sum
            # once the error sum falls 2**40 below its peak, where that drift may outweigh what is left
            if run_err <= max(abs_tol, rel_tol * abs(run_value)) or run_err < peak * 2.0**-40:
                active = [c for (_, _, _, c) in heap] + frozen
                run_value, run_err = sum([c.value for c in active]), math.fsum([c.err for c in active])
                peak = run_err
                if run_err <= max(abs_tol, rel_tol * abs(run_value)):
                    break
            _, _, _, worst = pop(heap)
            if worst.b - worst.a <= width_floor:
                frozen.append(worst)
                continue
            left, right = split(worst, 0.5 * worst.a + 0.5 * worst.b)
            push(heap, (-left.err, left.a, serial + 2 * splits, left))
            push(heap, (-right.err, right.a, serial + 2 * splits + 1, right))
            run_value += left.value + right.value - worst.value
            run_err += left.err + right.err - worst.err
            if run_err > peak:
                peak = run_err
            splits += 1
        cells = [c for (_, _, _, c) in heap] + frozen
        cells.sort(key=lambda c: c.a)  # in the queue's order fsum can overflow on the way where this order does not
    re, im = math.fsum([c.value.real for c in cells]), math.fsum([c.value.imag for c in cells])
    total = complex(re, im) if im != 0.0 else re
    err = math.fsum([c.err for c in cells])
    evaluations = len(grid) + first_cost * (len(grid) - 1) + split_cost * splits
    return QuadratureResult(total, err, err <= max(abs_tol, rel_tol * abs(total)), evaluations)
