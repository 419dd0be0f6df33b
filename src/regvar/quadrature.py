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
mirror pairs of odd nodes; d sums their moduli, which cannot cancel.  A cell
whose 17 samples are all zero, of half-width r >= 2**-1022, is returned with
the gauge 0.0 before the misses are taken: there d, resasc and the floor are
exactly 0, so the bits are the full gauge's (a subnormal r keeps its underflow
term, and an overflowing exp(-z*c) is refused first).  There
are min(24, ceil(span / (T/12))) initial panels, T = ``spec.truncation``; a
split reuses the end values, so a child costs 15 evaluations.  ``_cc_integral``
decides a span of one panel itself: it makes the lone cell from the ends and
returns it where it meets its tolerance, else hands it to ``_refine`` as the
first cells.  ``_refine`` builds every other first grid in one loop through the
breakpoints, none included.

Ties in the refinement queue are broken by cell position.  The value and the
bound are ``math.fsum`` of the cells in position order, which is correctly
rounded; every other sum adds left to right from 0.0, as the built-in ``sum``
did before Python 3.12, so results are bit-identical on every supported Python.
For speed a cell is a tuple (a, b, fa, fm, fb, value, err), Simpson's with its
quarter points appended; the Clenshaw-Curtis constants are bound once per
process, on first use; each Filon rule is built once per process per theta =
z*r and kept while it is among the last 64 used (about 0.2 MB), so a repeated
transform at the same z pays only for its cells; a one-panel integral builds
no grid, and where its cell is the result no refinement is set up; the sums of
the cell kernel and the Filon weights' column sums are written out term by
term, in the order of the loops they replace.  The loop form, which they
reproduce bit for bit, is the reference in tests/test_quadrature.py.
Non-convergence is not fatal: the best estimate is returned together with
``converged=False`` and a conservative error bound.
"""
from __future__ import annotations

import cmath
import heapq
import itertools
import math
from functools import cache, lru_cache, reduce
from operator import add, itemgetter, mul
from typing import Callable, Sequence

from regvar.popa import DomainError, _count, _finite, _positive, _Record

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
        _positive("abs_tol", abs_tol)
        if not _finite("rel_tol", rel_tol) >= 0.0:
            raise DomainError(f"rel_tol must be >= 0, got {rel_tol!r}")
        max_subdivisions = _count("max_subdivisions", max_subdivisions, 1, "splits in max_subdivisions")
        if not (truncation > 0.0 and math.isfinite(2.0 * truncation)):  # [-T, T] has a finite span
            raise ValueError(f"truncation must be positive with a finite span 2*truncation, got {truncation!r}")
        self._freeze(abs_tol, rel_tol, max_subdivisions, truncation)


class QuadratureResult(_Record):
    __slots__ = ("value", "error", "converged", "evaluations")

    def __init__(self, value: complex, error: float, converged: bool, evaluations: int) -> None:
        self.value, self.error = value, error  # pairs: no tuple is built
        self.converged, self.evaluations = converged, evaluations


def adaptive_integral(fn: Callable[[float], complex], lo: float, hi: float, spec: QuadratureSpec = QuadratureSpec(),
                      *, breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Integrate ``fn`` over [lo, hi] with Simpson cells, from 64 initial cells; real or complex valued integrands.

    The gauge |S_fine - S_coarse| is not calibrated on kinked integrands: on a log-log table integrated over
    w = log s, a kink at every node, it can report convergence at a true error 100 times its bound.  Pass the
    kinks as ``breakpoints``, so that every cell is smooth."""

    def cell(a, b, fa, fm, fb):
        """The cell's five-point Simpson pair, its quarter points evaluated here."""
        h = b - a
        fq1, fq3 = fn(a + 0.25 * h), fn(a + 0.75 * h)
        s1 = h * (fa + 4.0 * fm + fb) / 6.0
        s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
        # Richardson-corrected value; the plain pair difference is kept as a deliberately conservative
        # error gauge (no /15 reduction, which would overstate accuracy on non-smooth integrands).
        err = abs(s2 - s1)
        if h < 2.0**-1022:  # as in _cc_integral: a subnormal h (0 included) may be off by an ulp, s2 may underflow
            err += ((abs(fa) + 4.0 * abs(fq1) + 2.0 * abs(fm) + 4.0 * abs(fq3) + abs(fb)) / 12.0 + 1.0) * 2.0**-1074
        return a, b, fa, fm, fb, s2 + (s2 - s1) / 15.0, err, fq1, fq3

    return _refine(fn, lo, hi, spec, breakpoints, 64, lambda a, b, fa, fb: cell(a, b, fa, fn(0.5 * a + 0.5 * b), fb),
                   lambda c, m: (cell(c[0], m, c[2], c[7], c[3]), cell(m, c[1], c[3], c[8], c[4])), 3, 4, None)


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


def _cc_rule(w: Sequence, interp: list) -> tuple:
    """w and, per mirror pair (k, 16-k) of odd nodes, k = 1, 3, 5, 7: (w_k, w_16-k, the weighted 9-point
    interpolant there); tuples throughout, since a rule is shared by every call that reads it."""
    return tuple(w), tuple((w[k], w[16 - k], tuple(w[k] * u + w[16 - k] * v
                                                    for u, v in zip(interp[k // 2], interp[7 - k // 2])))
                           for k in (1, 3, 5, 7))


@cache
def _cc_tables() -> tuple:
    """The nodes cos(k*pi/16), exactly mirrored; the even and odd halves of the columns k <= 8 of A = inverse of
    P_m(node_k), which holds the Legendre coefficients of the Lagrange basis; the 9-point basis at the odd nodes;
    the plain rule."""
    half = [math.cos(k * math.pi / 16) for k in range(8)]
    nodes = half + [0.0] + [-x for x in reversed(half)]
    step = lambda p, k: p + [((2 * k + 1) * p[1] * p[k] - k * p[k - 1]) / (k + 1)]  # appends P_k+1(x); p[1] = x
    cols = [list(col) for col in zip(*_inverse([reduce(step, range(1, 16), [1.0, x]) for x in nodes]))][:9]
    interp = [[math.prod((x - e) / (c - e) for e in nodes[0::2] if e != c) for c in nodes[0::2]] for x in nodes[1::2]]
    plain = [2.0 * col[0] for col in cols]  # mu = (2, 0, ..., 0) at theta = 0
    return nodes, [(col[0::2], col[1::2]) for col in cols], interp, _cc_rule(plain + plain[-2::-1], interp)


def _dot17(w, p):
    """0.0 + w[0]*p[0] + ... + w[16]*p[16], added left to right as the built-in sum did before Python 3.12."""
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16 = w
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16 = p
    return (0.0 + w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6 + w7 * p7 + w8 * p8 + w9 * p9
            + w10 * p10 + w11 * p11 + w12 * p12 + w13 * p13 + w14 * p14 + w15 * p15 + w16 * p16)


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
    scale = cmath.exp(-sign * theta) / reduce(add, map(mul, _NORMALISE[sign], mu), 0.0)
    return [scale * m for m in mu[:17]]


def _cc_weights(theta: complex) -> tuple:
    """W_k = integral of exp(-theta*s) L_k(s) over [-1, 1]; by parity W_k, W_16-k share the halves of A's column k."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15, m16 = _legendre_moments(theta)
    w, columns = [0j] * 17, _cc_tables()[1]
    for k, ((a0, a2, a4, a6, a8, a10, a12, a14, a16), (a1, a3, a5, a7, a9, a11, a13, a15)) in enumerate(columns):
        e = 0.0 + a0 * m0 + a2 * m2 + a4 * m4 + a6 * m6 + a8 * m8 + a10 * m10 + a12 * m12 + a14 * m14 + a16 * m16
        o = 0.0 + a1 * m1 + a3 * m3 + a5 * m5 + a7 * m7 + a9 * m9 + a11 * m11 + a13 * m13 + a15 * m15
        w[k], w[16 - k] = e + o, e - o
    return tuple(w)


@lru_cache(maxsize=64)
def _filon_rule(re: str, im: str) -> tuple:
    """The Filon rule at theta = complex(float.fromhex(re), float.fromhex(im)), keyed on the float.hex of both parts
    so that every bit pattern, signed zeros included, has its own entry: built once per process per theta while it
    is among the 64 last used (about 0.2 MB of rules).  A build that overflows raises, and is not kept."""
    return _cc_rule(_cc_weights(complex(float.fromhex(re), float.fromhex(im))), _cc_tables()[2])


def _cc_integral(fn, lo: float, hi: float, spec: QuadratureSpec = QuadratureSpec(), z: complex = 0.0):
    """Integrate ``fn(w) * exp(-z*w)`` over [lo, hi] with Clenshaw-Curtis 17/9 cells; a span of one panel, at most
    T/12, is decided here."""
    make = _cc_engine()(fn, lo, hi, spec, z)
    step = spec.truncation / 12.0  # 0 for a T of a few subnormals, whose spans get the 24 panels of any wide span
    if lo < hi and step and (hi - lo) / step <= 1.0:  # one panel, so lo and hi are finite
        cell = make(lo, hi, fn(lo), fn(hi))
        value, err = cell[5], cell[6]
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            # the cell's 17 evaluations; x + 0.0 is math.fsum([x]) for every float, -0.0, inf and nan included
            re, im = value.real + 0.0, value.imag + 0.0
            return QuadratureResult(complex(re, im) if im != 0.0 else re, err + 0.0, True, 17)
        cells, panels = [cell], 1
    else:  # where lo >= hi _refine raises
        cells, panels = None, math.ceil(min(24.0, (hi - lo) / step)) if lo < hi and step else 24
    split = lambda c, m: (make(c[0], m, c[2], c[3]), make(m, c[1], c[3], c[4]))
    return _refine(fn, lo, hi, spec, (), panels, make, split, 15, 30, cells)


@cache
def _cc_engine():
    """The cell maker of :func:`_cc_integral`, the rule's nodes and plain weights bound once per process:
    ``_cc_engine()(fn, lo, hi, spec, z)`` is ``make(a, b, fa, fb)``, which makes the cells of one integral.  Its Filon
    rules come from :func:`_filon_rule`, which builds each once per process per theta and keeps the last 64; a dict
    keyed by the half-width r holds those of one integral, so a cell pays for no key."""
    nodes, _, _, (plain, plain_pairs) = _cc_tables()
    s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15 = nodes[1:16]
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16 = plain

    def cells(fn, lo, hi, spec, z):
        rules = {} if z else None  # the rule of the cells of half-width r, at theta = z*r, from _filon_rule
        def make(a, b, fa, fb):
            c, r = 0.5 * a + 0.5 * b, 0.5 * (b - a)  # a + b may overflow
            p = [fb, fn(c + r * s1), fn(c + r * s2), fn(c + r * s3), fn(c + r * s4), fn(c + r * s5), fn(c + r * s6),
                 fn(c + r * s7), fn(c + r * s8), fn(c + r * s9), fn(c + r * s10), fn(c + r * s11), fn(c + r * s12),
                 fn(c + r * s13), fn(c + r * s14), fn(c + r * s15), fa]
            p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16 = p
            # every sum below adds left to right from 0.0, as _dot17 does
            plain_value = (0.0 + w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6 + w7 * p7 + w8 * p8
                           + w9 * p9 + w10 * p10 + w11 * p11 + w12 * p12 + w13 * p13 + w14 * p14 + w15 * p15
                           + w16 * p16)
            if not z:
                scale, value, pairs = r, r * plain_value, plain_pairs  # abs(r): r >= 0, a zero r's sign is lost below
            else:
                try:
                    if r not in rules:
                        theta = z * r
                        rules[r] = _filon_rule(theta.real.hex(), theta.imag.hex())
                    e = r * cmath.exp(-z * c)
                    scale = abs(e)  # finite parts whose modulus passes DBL_MAX raise here, zero cells included
                    w, pairs = rules[r]
                    value = e * _dot17(w, p)
                    if not cmath.isfinite(value) and all(map(cmath.isfinite, p)):
                        raise OverflowError
                except OverflowError:  # in exp(-z*w), its modulus, its moments or the weighted sum, not in fn
                    raise DomainError(f"exp(-z*w) overflows for z={z} and w in [{lo!r}, {hi!r}] (truncation="
                                      f"{spec.truncation!r}): lower |Re z| or the truncation") from None
            if plain_value == 0.0 and not any(p) and r >= 2.0**-1022:  # 17 zeros: d, spread and the floor are 0
                return a, b, fa, p8, fb, value, 0.0
            # the weighted misses of the 9-point interpolant at the odd nodes k, 16-k: d sums their moduli
            ((a1, a15, (i0, i1, i2, i3, i4, i5, i6, i7, i8)), (a3, a13, (j0, j1, j2, j3, j4, j5, j6, j7, j8)),
             (a5, a11, (k0, k1, k2, k3, k4, k5, k6, k7, k8)), (a7, a9, (l0, l1, l2, l3, l4, l5, l6, l7, l8))) = pairs
            d = (abs(a1 * p1 + a15 * p15 - (0.0 + i0 * p0 + i1 * p2 + i2 * p4 + i3 * p6 + i4 * p8 + i5 * p10 + i6 * p12
                                            + i7 * p14 + i8 * p16))
                 + abs(a3 * p3 + a13 * p13 - (0.0 + j0 * p0 + j1 * p2 + j2 * p4 + j3 * p6 + j4 * p8 + j5 * p10
                                              + j6 * p12 + j7 * p14 + j8 * p16))
                 + abs(a5 * p5 + a11 * p11 - (0.0 + k0 * p0 + k1 * p2 + k2 * p4 + k3 * p6 + k4 * p8 + k5 * p10
                                              + k6 * p12 + k7 * p14 + k8 * p16))
                 + abs(a7 * p7 + a9 * p9 - (0.0 + l0 * p0 + l1 * p2 + l2 * p4 + l3 * p6 + l4 * p8 + l5 * p10 + l6 * p12
                                            + l7 * p14 + l8 * p16)))
            mean = 0.5 * plain_value
            spread = (0.0 + w0 * abs(p0 - mean) + w1 * abs(p1 - mean) + w2 * abs(p2 - mean) + w3 * abs(p3 - mean)
                      + w4 * abs(p4 - mean) + w5 * abs(p5 - mean) + w6 * abs(p6 - mean) + w7 * abs(p7 - mean)
                      + w8 * abs(p8 - mean) + w9 * abs(p9 - mean) + w10 * abs(p10 - mean) + w11 * abs(p11 - mean)
                      + w12 * abs(p12 - mean) + w13 * abs(p13 - mean) + w14 * abs(p14 - mean) + w15 * abs(p15 - mean)
                      + w16 * abs(p16 - mean))
            resasc, d, floor = scale * spread, d * scale, 50.0 * 2.0**-52 * scale
            err = min(d, resasc * (200.0 * d / resasc) ** 1.5) if resasc else d
            # floor * sum(w_k*|p_k|) <= floor * (spread + 2|mean|), the weights being positive with sum 2: where err
            # exceeds that bound, with room for rounding and underflow, it exceeds the floor and the sum is skipped
            if not err > floor * (1.001 * (spread + 2.0 * abs(mean)) + 1e-300):
                err = max(err, floor * _dot17(plain, map(abs, p)))
            if r < 2.0**-1022:  # a subnormal r (0 included) may be off by an ulp, an underflowing value too: bound both
                err += (_dot17(plain, map(abs, p)) * math.exp(-z.real * c) + 1.0) * 2.0**-1074
            return a, b, fa, p8, fb, value, err
        return make

    return cells


def _refine(fn, lo, hi, spec, breakpoints, min_cells, first, split, first_cost, split_cost,
            cells) -> QuadratureResult:
    """The adaptive loop from the first ``cells``, made by ``first(a, b, fa, fb)``, or where ``cells`` is None from a
    grid of at least ``min_cells`` cells; ``split(cell, midpoint)`` halves a cell.  The grid is one loop through the
    breakpoints, none included: node k of a segment [left, left + w] of n cells is left + w*k/n, or the
    overflow-safe left + w/n*k where w*k overflows.  A first cell evaluates ``fn`` ``first_cost`` times besides at
    its ends, a split ``split_cost`` times.  A lone first cell is the one panel of :func:`_cc_integral`, which
    returns it where it meets its tolerance and otherwise passes it here."""
    span, inf = hi - lo, math.inf
    if not (lo < hi and span < inf):  # so lo and hi are finite too
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    if cells is None:
        edges = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
        grid = [lo]
        for left, right in zip(edges[:-1], edges[1:]):
            w = right - left
            n = max(1, math.ceil(w / span * min_cells))
            grid += [left + (w * k / n if w * k < inf else w / n * k) for k in range(1, n + 1)]
        grid[-1] = hi
        fvals = list(map(fn, grid))
        cells = list(map(first, grid, grid[1:], fvals, fvals[1:]))
    abs_tol, rel_tol = spec.abs_tol, spec.rel_tol
    evaluations = 1 + (1 + first_cost) * len(cells)  # the grid and the first cells; split_cost a split
    # running totals steer refinement; exact sums confirm the stop and make the result
    run_value, run_err = reduce(add, [c[5] for c in cells], 0.0), reduce(add, [c[6] for c in cells], 0.0)
    splits = 0
    # a cell's serial number breaks the ties of cells alike in error and start: those of zero width, which a
    # grid or split of a span of a few subnormals makes
    heap = [(-c[6], c[0], k, c) for k, c in enumerate(cells)]
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
            run_value, run_err = reduce(add, [c[5] for c in active], 0.0), math.fsum([c[6] for c in active])
            peak = run_err
            if run_err <= max(abs_tol, rel_tol * abs(run_value)):
                break
        _, _, _, worst = pop(heap)
        a, b = worst[0], worst[1]
        if b - a <= width_floor:
            frozen.append(worst)
            continue
        left, right = split(worst, 0.5 * a + 0.5 * b)
        push(heap, (-left[6], left[0], serial + 2 * splits, left))
        push(heap, (-right[6], right[0], serial + 2 * splits + 1, right))
        run_value += left[5] + right[5] - worst[5]
        run_err += left[6] + right[6] - worst[6]
        if run_err > peak:
            peak = run_err
        splits += 1
    cells = [c for (_, _, _, c) in heap] + frozen
    cells.sort(key=itemgetter(0))  # in the queue's order fsum can overflow on the way where this order does not
    re, im = math.fsum([c[5].real for c in cells]), math.fsum([c[5].imag for c in cells])
    total = complex(re, im) if im != 0.0 else re
    err = math.fsum([c[6] for c in cells])
    return QuadratureResult(total, err, err <= max(abs_tol, rel_tol * abs(total)), evaluations + split_cost * splits)
