"""Globally adaptive Simpson quadrature with deterministic refinement.

The integration strategy is deliberately simple and reproducible:

  * the interval is cut into an initial grid (optionally through caller
    supplied breakpoints),
  * every cell carries a Simpson value and the classical error estimate
    |S_fine - S_coarse|/15 obtained from its two halves,
  * the cell with the largest estimate is split until the summed estimate
    drops below max(abs_tol, rel_tol*|value|) or the subdivision budget is
    exhausted.

Ties in the refinement queue are broken by cell position and the final value
is accumulated in fixed left-to-right order with compensated summation, so a
given integrand always produces bit-identical output.  Non-convergence is not
fatal: the best estimate is returned together with ``converged=False`` and a
conservative error bound.

For ``p(w) * exp(-z*w)``, Filon-Simpson cells (Filon 1928; Iserles & Norsett
2005) integrate the quadratic interpolant of ``p`` exactly against the
exponential, so the cells follow ``p`` and not the frequency.
"""
from __future__ import annotations

import cmath
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["QuadratureSpec", "QuadratureResult", "QuadratureWarning", "adaptive_integral"]

# Cells narrower than span * 2**-48 cannot be refined meaningfully in double
# precision; they are frozen at their current estimate.
_WIDTH_FLOOR_FACTOR = 2.0**-48


class QuadratureWarning(UserWarning):
    """Raised via warnings.warn when an integral fails to converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for :func:`adaptive_integral`.

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
        if not (self.truncation > 0.0 and math.isfinite(self.truncation)):
            raise ValueError("truncation must be positive and finite")


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
    """One quadrature cell holding its five-point Simpson pair; the two
    quarter points are evaluated here, the other three are passed in."""

    __slots__ = ("a", "b", "fa", "fq1", "fm", "fq3", "fb", "value", "err")

    def __init__(self, fn, a, b, fa, fm, fb, nev):
        self.a, self.b, self.fa, self.fm, self.fb = a, b, fa, fm, fb
        self.fq1 = fq1 = fn(a + 0.25 * (b - a))
        self.fq3 = fq3 = fn(a + 0.75 * (b - a))
        nev[0] += 2
        h = b - a
        s1 = h * (fa + 4.0 * fm + fb) / 6.0
        s2 = h * (fa + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fb) / 12.0
        # Richardson-corrected value; the plain pair difference is kept as a
        # deliberately conservative error gauge (no /15 reduction, which would
        # overstate accuracy on non-smooth integrands).
        self.value = s2 + (s2 - s1) / 15.0
        self.err = abs(s2 - s1)


def _filon_weights(theta: complex) -> tuple:
    """(wa, wm, wb): wa*fa + wm*fm + wb*fb integrates exp(-theta*s) times the
    quadratic through (-1, fa), (0, fm), (1, fb) over [-1, 1]."""
    if abs(theta) < 1.0:  # Taylor series of the moments m_n, whose closed forms cancel here
        terms = [(-theta) ** j / math.factorial(j) for j in range(20)]
        m0, m1, m2 = (sum(2.0 * t / (j + n + 1) for j, t in enumerate(terms) if (j + n) % 2 == 0) for n in range(3))
    else:
        m0 = 2.0 * cmath.sinh(theta) / theta
        m1 = (m0 - 2.0 * cmath.cosh(theta)) / theta
        m2 = m0 + 2.0 * m1 / theta
    return 0.5 * (m2 - m1), m0 - m2, 0.5 * (m2 + m1)


class _FilonCell(_Cell):
    """A cell of :func:`_filon_integral`: s1 and s2 integrate the quadratic
    interpolants of the five profile values over the cell and over its halves
    against exp(-z*w); ``weights`` holds their weights per cell width."""

    __slots__ = ()

    def __init__(self, fn, a, b, fa, fm, fb, nev, nz, weights):
        self.a, self.b, self.fa, self.fm, self.fb = a, b, fa, fm, fb
        h = b - a
        q1, q3 = a + 0.25 * h, a + 0.75 * h
        self.fq1, self.fq3 = fq1, fq3 = fn(q1), fn(q3)
        nev[0] += 2
        if h not in weights:  # the coarse weights are scaled by exp(-z*m) / exp(-z*q1)
            shift = 0.5 * h * cmath.exp(0.25 * h * nz)
            weights[h] = ([shift * c for c in _filon_weights(-0.5 * h * nz)]
                          + [0.25 * h * c for c in _filon_weights(-0.25 * h * nz)])
        ca, cm, cb, wa, wm, wb = weights[h]
        e1, e3 = cmath.exp(nz * q1), cmath.exp(nz * q3)
        s1 = e1 * (ca * fa + cm * fm + cb * fb)
        s2 = e1 * (wa * fa + wm * fq1 + wb * fm) + e3 * (wa * fm + wm * fq3 + wb * fb)
        self.value = s2 + (s2 - s1) / 15.0
        self.err = abs(s2 - s1)


def adaptive_integral(
    fn: Callable[[float], complex],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    breakpoints: Sequence[float] = (),
    min_cells: int = 64,
) -> QuadratureResult:
    """Integrate ``fn`` over [lo, hi]; real or complex valued integrands."""
    return _refine(fn, lo, hi, spec, breakpoints, min_cells, _Cell)


def _filon_integral(profile, lo: float, hi: float, spec: QuadratureSpec, z: complex) -> QuadratureResult:
    """Integrate ``profile(w) * exp(-z*w)`` over [lo, hi] with Filon-Simpson cells."""
    return _refine(profile, lo, hi, spec, (), 64, functools.partial(_FilonCell, nz=-z, weights={}))


def _refine(fn, lo, hi, spec, breakpoints, min_cells, cell) -> QuadratureResult:
    """The globally adaptive loop over cells made by ``cell``."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    span = hi - lo

    edges = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
    # refine the initial grid uniformly until there are at least min_cells cells
    target = max(1, min_cells)
    grid = [lo]
    for left, right in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((right - left) / span * target))
        for k in range(1, pieces + 1):
            grid.append(left + (right - left) * k / pieces)
    grid[-1] = hi

    fvals = [fn(x) for x in grid]
    nev = [len(grid)]

    cells = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        m = 0.5 * (a + b)
        fm = fn(m)
        nev[0] += 1
        cells.append(cell(fn, a, b, fvals[i], fm, fvals[i + 1], nev))

    heap = [(-c.err, c.a, c) for c in cells]
    heapq.heapify(heap)
    frozen = []  # cells at the width floor, no longer refinable
    width_floor = span * _WIDTH_FLOOR_FACTOR

    # running totals steer refinement; the exact fsum happens once at the end
    run_value = sum(c.value for c in cells)
    run_err = sum(c.err for c in cells)

    splits = 0
    while splits < spec.max_subdivisions and heap:
        if run_err <= max(spec.abs_tol, spec.rel_tol * abs(run_value)):
            break
        _, _, worst = heapq.heappop(heap)
        if worst.b - worst.a <= width_floor:
            frozen.append(worst)
            continue
        m = 0.5 * (worst.a + worst.b)
        left = cell(fn, worst.a, m, worst.fa, worst.fq1, worst.fm, nev)
        right = cell(fn, m, worst.b, worst.fm, worst.fq3, worst.fb, nev)
        heapq.heappush(heap, (-left.err, left.a, left))
        heapq.heappush(heap, (-right.err, right.a, right))
        run_value += left.value + right.value - worst.value
        run_err += left.err + right.err - worst.err
        splits += 1

    active = [c for (_, _, c) in heap] + frozen
    active.sort(key=lambda c: c.a)
    values = [c.value for c in active]
    re = math.fsum(v.real for v in values)
    im = math.fsum(v.imag for v in values)
    total = complex(re, im) if im != 0.0 else re
    err = math.fsum(c.err for c in active)
    converged = err <= max(spec.abs_tol, spec.rel_tol * abs(total))
    return QuadratureResult(value=total, error=err, converged=converged, evaluations=nev[0])
