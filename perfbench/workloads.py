"""Seeded job lists for the library workloads ``transforms`` and ``grids``.

A job is one library call (or a short fixed chain, such as an estimate
followed by its index fit).  Jobs are plain data plus a ``call``: the
parameters in ``params`` are what :mod:`oracles` reads to compute the exact
answer, ``fns`` are the benchmark's own callables handed to regvar (wrapped
for counting in traced passes), and ``call(fns)`` resolves regvar functions
through their modules at call time so traced passes see the wrapped names.

This module imports regvar but not mpmath: building the job list is part of
the measured set-up, computing oracles is not.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import regvar.asymptotics as asymptotics
import regvar.haar as haar
import regvar.kernels as kernels
import regvar.subadd as subadd
from regvar.asymptotics import LimitScheme
from regvar.haar import Interval
from regvar.kernels import KernelParams
from regvar.popa import PopaParam, PopaPoint
from regvar.quadrature import QuadratureSpec
from regvar.subadd import GridSpec

RHOS = (0.0, 0.5, 1.0, 7.0, math.inf)
CORNERS = (0.0, 1.0, math.inf)
QUAD_TOL = QuadratureSpec().abs_tol  # the default spec's abs_tol, equal to its rel_tol
TAUBERIAN_TOL = 1e-4  # quadrature tolerance of the Tauberian study
CAP_DEFECT_GAMMA = 1e6  # far above the 2**16-cell breakpoint cap


@dataclass
class Job:
    jid: int
    kind: str
    layer: str  # regvar layer of the entry point; user calls count as <layer>.f_evals
    params: dict
    call: Callable[[tuple], object]
    fns: tuple = ()
    digest: Callable[[object], tuple] = lambda raw: (raw,)
    converged: Callable[[object], bool] = lambda raw: True
    study: str | None = None


# ------------------------------------------------------------ helpers ----


def strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False, jitter: float = 1.0) -> list[float]:
    """n stratified draws on [lo, hi], one per equal-width stratum, in order.

    Each draw lies within ``jitter`` (a fraction of the stratum width) of its
    stratum's centre.  Inputs that set a job's cost use a small jitter, so
    the cost mix of a job list, and with it throughput and tail latency,
    changes little from seed to seed while every value still comes from it.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = [a + (b - a) * (k + 0.5 + jitter * (rng.random() - 0.5)) / n for k in range(n)]
    return [math.exp(v) for v in out] if log else out


COST_JITTER = 0.05


def iso_log(rho: float, t: float) -> float:
    if rho == 0.0:
        return t
    if math.isinf(rho):
        return math.log(t)
    return math.log1p(rho * t)


def iso_exp(rho: float, w: float) -> float:
    if rho == 0.0:
        return w
    if math.isinf(rho):
        return math.exp(w)
    return math.expm1(w) / rho


def profile(family: str, p: dict) -> Callable[[float], float]:
    """Smooth profile g(w) in the additive coordinate; see oracles.antiderivative."""
    if family == "gauss":
        A, c, s = p["A"], p["c"], p["s"]
        return lambda w: A * math.exp(-0.5 * ((w - c) / s) ** 2)
    if family == "trig":
        A, b, phase = p["A"], p["b"], p["phase"]
        return lambda w: A * math.cos(b * w + phase)
    B, C, k = p["B"], p["C"], p["k"]  # polyexp
    return lambda w: B * w * w + C * math.exp(k * w)


def on_group(rho: float, g: Callable[[float], float]) -> Callable[[float], float]:
    """f(t) = g(iso_log_rho(t)): a function on G_rho with profile g."""
    if rho == 0.0:
        return g
    if math.isinf(rho):
        return lambda t: g(math.log(t))
    return lambda t: g(math.log1p(rho * t))


def _gauss_params(rng: random.Random, spread: float = 1.0) -> dict:
    """Gaussian profile near A = 1, c = 0, s = 1.  Whole-line jobs use a small
    spread: there the profile decides how close a job is to its tolerance,
    and so whether it converges."""
    return {
        "A": 1.0 + spread * rng.uniform(-0.5, 1.0),
        "c": spread * rng.uniform(-1.0, 1.0),
        "s": 1.0 + spread * rng.uniform(-0.5, 0.5),
    }


WIDE_SPREAD = 0.02


def _complex_digest(raw) -> tuple:
    return (raw.real, raw.imag)


# --------------------------------------------------------- transforms ----


def build_transforms(seed: int, scale: float = 1.0) -> list[Job]:
    """About 3/4 short Haar integrals, 1/4 whole-line transforms."""
    rng = random.Random(f"transforms:{seed}")
    n_short = max(5, round(141 * scale))
    n_wide = max(1, round(12 * scale))
    n_fourier = max(2, round(9 * scale))
    jobs: list[Job] = []

    def add(**kw) -> None:
        jobs.append(Job(jid=len(jobs), **kw))

    widths = strata(rng, n_short, 0.05, 1.0)
    rng.shuffle(widths)
    for k in range(n_short):
        rho = RHOS[k % len(RHOS)]
        family = ("gauss", "trig", "polyexp")[(k // len(RHOS)) % 3]
        p = {
            "gauss": _gauss_params(rng),
            "trig": {"A": rng.uniform(0.5, 2.0), "b": rng.uniform(0.5, 6.0), "phase": rng.uniform(0.0, 6.0)},
            "polyexp": {"B": rng.uniform(-1.0, 1.0), "C": rng.uniform(0.2, 2.0), "k": rng.uniform(-2.0, 2.0)},
        }[family]
        wlo = rng.uniform(-1.0, 1.0)
        lo, hi = iso_exp(rho, wlo), iso_exp(rho, wlo + widths[k])
        iv = Interval(PopaParam(rho), lo, hi)
        add(
            kind="haar_integrate", layer="haar",
            params={"rho": rho, "lo": iv.lo, "hi": iv.hi, "family": family, "p": p},
            fns=(on_group(rho, profile(family, p)),),
            call=lambda fns, iv=iv: haar.haar_integrate(fns[0], iv),
        )

    # fourier_popa: gamma log-uniform over 0.1..1e4, crossing the 2**16-cell
    # breakpoint cap near 3.4e3; plus one fixed input far above the cap.
    gammas = strata(rng, n_fourier, 0.1, 1e4, log=True, jitter=COST_JITTER)
    fourier_inputs = [(RHOS[k % len(RHOS)], gammas[k], _gauss_params(rng, WIDE_SPREAD)) for k in range(n_fourier)]
    fourier_inputs.append((0.0, CAP_DEFECT_GAMMA, {"A": 1.0, "c": 0.0, "s": 1.0}))
    for rho, gamma, p in fourier_inputs:
        param = PopaParam(rho)
        add(
            kind="fourier_popa", layer="haar",
            params={"rho": rho, "gamma": gamma, "p": p},
            fns=(on_group(rho, profile("gauss", p)),),
            call=lambda fns, param=param, gamma=gamma: haar.fourier_popa(fns[0], param, gamma),
            digest=_complex_digest,
        )

    z_ims = strata(rng, n_wide, 0.1, 100.0, log=True, jitter=COST_JITTER)
    # Re z also sets the cost; pairing it with Im z by a fixed permutation
    # rather than a seeded shuffle keeps the cost mix the same for every seed.
    z_res = strata(rng, n_wide, -1.0, 1.0, jitter=COST_JITTER)
    for k in range(n_wide):
        rho = (0.5, 1.0, 7.0)[k % 3]
        z = complex(z_res[5 * k % n_wide], z_ims[k])
        p = _gauss_params(rng, WIDE_SPREAD)
        param = PopaParam(rho)
        add(
            kind="mellin_popa", layer="haar",
            params={"rho": rho, "z": z, "p": p},
            fns=(on_group(rho, profile("gauss", p)),),
            call=lambda fns, param=param, z=z: haar.mellin_popa(fns[0], param, z),
            digest=_complex_digest,
        )

    for k in range(n_wide):
        rho = RHOS[k % len(RHOS)]
        p1, p2 = _gauss_params(rng, WIDE_SPREAD), _gauss_params(rng, WIDE_SPREAD)
        x = PopaPoint(PopaParam(rho), iso_exp(rho, rng.uniform(-2.0, 2.0)))
        add(
            kind="popa_convolution", layer="haar",
            params={"rho": rho, "x": x.value, "p1": p1, "p2": p2},
            fns=(on_group(rho, profile("gauss", p1)), on_group(rho, profile("gauss", p2))),
            call=lambda fns, x=x: haar.popa_convolution(fns[0], fns[1], x),
        )

    # The integrand oscillates about b*phi(x)*s times per width of F; that
    # product sets the cost and is stratified, and so are the other inputs
    # (in stratum order), which set the cost less.
    n_beurling = n_wide // 2 or 1
    beurling_inputs = zip(*(strata(rng, n_beurling, lo, hi, log=log, jitter=COST_JITTER) for lo, hi, log in (
        (0.5, 20.0, True), (0.3, 1.0, False), (1.0, 3.0, False), (0.2, 1.0, False), (1.0, 100.0, True))))
    for osc, s, h0, q, x in beurling_inputs:
        b = osc / (s * q * math.sqrt(x))
        norm = 1.0 / (s * math.sqrt(2.0 * math.pi))
        add(
            kind="beurling_convolution", layer="haar",
            params={"s": s, "h0": h0, "b": b, "q": q, "x": x},
            fns=(
                lambda t, s=s, norm=norm: norm * math.exp(-0.5 * (t / s) ** 2),
                lambda u, h0=h0, b=b: h0 + math.cos(b * u),
                lambda y, q=q: q * math.sqrt(y),
            ),
            call=lambda fns, x=x: haar.beurling_convolution(fns[0], fns[1], fns[2], x),
        )

    # Study: Tauberian settling of the flow convolution on its limit constant
    # (the fixed inputs of scripts/tauberian_demo.py).
    spec = QuadratureSpec(abs_tol=TAUBERIAN_TOL, rel_tol=TAUBERIAN_TOL)
    for k in range(1, 8):
        x = 10.0**k
        add(
            kind="tauberian", layer="haar", study="tauberian_settling",
            params={"c": 2.0, "x": x},
            fns=(
                lambda t: 0.5 if abs(t) <= 1.0 else 0.0,
                lambda u: 2.0 + math.sin(u) / (1.0 + u),
                lambda y: y,
            ),
            call=lambda fns, x=x: haar.beurling_convolution(fns[0], fns[1], fns[2], x, spec),
        )
    return jobs


# -------------------------------------------------------------- grids ----


def kernel_fn(rho: float, sigma: float, kappa: float, eps: float = 0.0):
    """S(t) = iso_exp_sigma(kappa*w + eps*w**2) with w = iso_log_rho(t).

    eps = 0 is the canonical kernel, an exact homomorphism; eps > 0 breaks
    subadditivity on pairs whose additive coordinates share a sign.
    """
    return lambda t: iso_exp(sigma, kappa * iso_log(rho, t) + eps * iso_log(rho, t) ** 2)


def _estimates_digest(raw) -> tuple:
    return tuple(v for t, r in raw for v in (t, r.value, r.converged, r.last_delta, r.steps_used))


def _estimates_converged(raw) -> bool:
    return all(r.converged for _, r in raw)


def _fit_digest(raw) -> tuple:
    points, kappa, rms = raw
    return _estimates_digest(points) + (kappa, rms)


def _fit_converged(raw) -> bool:
    return _estimates_converged(raw[0])


def _report_digest(rep) -> tuple:
    return (rep.holds, rep.worst_violation, rep.worst_pair[0], rep.worst_pair[1], rep.pairs_checked, rep.pairs_skipped)


# Functions for the estimation jobs, by name; oracles.py evaluates the same
# formulas in mpmath.  "slow" perturbations decay like a power of 1/log x and
# may not settle within the default scheme; "fast" ones decay like 1/x.
def karamata_f(a: float, b: float, slow: bool):
    if slow:
        return lambda x: x**a * (1.0 + b / math.log(x))
    return lambda x: x**a * (1.0 + b / x)


def _karamata_fit(fns, lambdas, scheme):
    points = asymptotics.estimate_karamata(fns[0], lambdas, scheme)
    usable = [(t, r.value) for t, r in points if math.isfinite(r.value)]
    inf = PopaParam(math.inf)
    kappa, rms = asymptotics.fit_kappa(usable, inf, inf)
    return points, kappa, rms


def build_grids(seed: int, scale: float = 1.0) -> list[Job]:
    rng = random.Random(f"grids:{seed}")
    jobs: list[Job] = []

    def add(**kw) -> None:
        jobs.append(Job(jid=len(jobs), **kw))

    def count(n: int) -> int:
        return max(1, round(n * scale))

    corners = [(r, s) for r in CORNERS for s in CORNERS]

    # subadditivity_check: every corner pair, once with a kernel that holds
    # and once with a perturbed S that violates.
    n_sub = count(2 * len(corners))
    sizes = strata(rng, n_sub, 60, 201, jitter=COST_JITTER)
    wlos = strata(rng, n_sub, -1.0, 0.0, jitter=COST_JITTER)  # the window sets the share of pairs checked
    for k in range(n_sub):
        rho, sigma = corners[k % len(corners)]
        eps = 0.0 if k // len(corners) % 2 == 0 else rng.uniform(0.05, 0.5)
        kappa = rng.uniform(0.5, 2.0)
        wlo, whi = wlos[k], 1.5 + 0.1 * (rng.random() - 0.5)
        grid = GridSpec(iso_exp(rho, wlo), iso_exp(rho, whi), int(sizes[k]))
        add(
            kind="subadditivity_check", layer="subadd",
            params={"rho": rho, "sigma": sigma, "kappa": kappa, "eps": eps,
                    "lo": grid.lo, "hi": grid.hi, "n": grid.n, "tol": 1e-10},
            fns=(kernel_fn(rho, sigma, kappa, eps),),
            call=lambda fns, r=PopaParam(rho), s=PopaParam(sigma), grid=grid: subadd.subadditivity_check(fns[0], r, s, grid, 1e-10),
            digest=_report_digest,
        )

    for k in range(count(6)):
        rho, sigma = corners[(2 * k + 1) % len(corners)]
        kappa = rng.uniform(0.5, 2.0)
        eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
        ts = [iso_exp(rho, w) for w in strata(rng, 24, -1.0, 2.0)]
        kp = KernelParams(PopaParam(rho), PopaParam(sigma), kappa)
        add(
            kind="additively_bounded_check", layer="subadd",
            params={"rho": rho, "sigma": sigma, "kappa": kappa, "eps": eps, "ts": ts, "tol": 1e-10},
            fns=(kernel_fn(rho, sigma, kappa, eps),),
            call=lambda fns, kp=kp, ts=ts: subadd.additively_bounded_check(fns[0], kp, ts, 1e-10),
            digest=_report_digest,
        )

    for k in range(count(6)):
        rho, sigma = corners[(2 * k) % len(corners)]
        kappa = rng.uniform(0.5, 2.0)
        a, b = iso_exp(rho, rng.uniform(0.1, 0.5)), iso_exp(rho, rng.uniform(0.6, 1.0))
        delta = rng.uniform(0.01, 0.05) * (a if math.isinf(rho) else 1.0)
        M = iso_exp(sigma, kappa * iso_log(rho, a + delta)) * rng.choice((1.0, 1.5))
        add(
            kind="sandwich_bound_check", layer="subadd",
            params={"rho": rho, "sigma": sigma, "kappa": kappa, "a": a, "b": b, "delta": delta, "M": M},
            fns=(kernel_fn(rho, sigma, kappa),),
            call=lambda fns, r=PopaParam(rho), s=PopaParam(sigma), a=a, b=b, d=delta, M=M: subadd.sandwich_bound_check(fns[0], r, s, a, b, d, M),
        )

    def beck_job(rho, delta, u, a, study=None):
        param = PopaParam(rho)
        add(
            kind="beck_riemann_sum", layer="asymptotics", study=study,
            params={"rho": rho, "delta": delta, "u": u, "a": a},
            fns=(lambda x, rho=rho, a=a: math.exp(a * iso_log(rho, x)),),
            call=lambda fns, param=param: asymptotics.beck_riemann_sum(fns[0], param, delta, u),
        )

    # The partition has about iso_log(u)/iso_log(delta) cells: both stratified.
    deltas = strata(rng, count(10), 1e-4, 1e-2, log=True, jitter=COST_JITTER)
    for k, delta in enumerate(deltas):
        rho = RHOS[k % 4]
        wu = 1.25 + 0.1 * (rng.random() - 0.5)
        beck_job(rho, delta, iso_exp(rho, wu * iso_log(rho, delta) / delta), rng.uniform(-1.0, 1.0))
    # Study: first-order decay of the clipped Riemann sum (inputs of
    # scripts/beck_convergence_demo.py: rho = 1, u = 1, g = 1, delta halving).
    for k in range(8):
        beck_job(1.0, 0.1 * 0.5**k, 1.0, 0.0, study="beck_first_order")

    lengths = strata(rng, count(10), 10, 1e5, log=True, jitter=COST_JITTER)
    for k, length in enumerate(lengths):
        rho = RHOS[k % len(RHOS)]
        i = int(length)
        delta = iso_exp(rho, rng.uniform(0.5, 3.0) / i)
        kd, a = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        param = PopaParam(rho)
        add(
            kind="goldie_sum", layer="asymptotics",
            params={"rho": rho, "delta": delta, "i": i, "K": kd, "a": a},
            fns=(lambda x, rho=rho, a=a: math.exp(a * iso_log(rho, x)),),
            call=lambda fns, kd=kd, param=param, delta=delta, i=i: asymptotics.goldie_sum(kd, fns[0], param, delta, i),
        )

    default = LimitScheme()
    for k in range(count(10)):
        a, b, slow = rng.uniform(-1.5, 2.5), rng.uniform(0.2, 1.0), k % 2 == 0
        lambdas = sorted(rng.uniform(1.5, 10.0) for _ in range(3))
        add(
            kind="estimate_karamata", layer="asymptotics",
            params={"a": a, "b": b, "slow": slow, "ts": lambdas, "x0": default.x0, "ratio": default.ratio},
            fns=(karamata_f(a, b, slow),),
            call=lambda fns, lambdas=lambdas: _karamata_fit(fns, lambdas, default),
            digest=_fit_digest, converged=_fit_converged,
        )
    # Study: index recovery on perturbed power laws (inputs and scheme of
    # scripts/index_recovery_demo.py).
    demo = LimitScheme(tol=1e-3, max_steps=60)
    for a in (-1.0, 0.5, 2.0):
        add(
            kind="estimate_karamata", layer="asymptotics", study="index_recovery",
            params={"a": a, "b": 1.0, "slow": True, "ts": [2.0, 4.0, 8.0], "x0": demo.x0, "ratio": demo.ratio, "tol": demo.tol},
            fns=(karamata_f(a, 1.0, True),),
            call=lambda fns: _karamata_fit(fns, [2.0, 4.0, 8.0], demo),
            digest=_fit_digest, converged=_fit_converged,
        )

    # The estimators' step counts, which set their cost, follow a, b and the
    # ts: these are stratified too, paired by a fixed permutation.
    n_kernel = count(10)
    kernel_as = strata(rng, n_kernel, 0.5, 2.0, jitter=COST_JITTER)
    kernel_bs = strata(rng, n_kernel, 0.05, 0.5, jitter=COST_JITTER)
    for k in range(n_kernel):
        slow = k % 2 == 0
        a, b = kernel_as[k], kernel_bs[3 * k % n_kernel]
        ts = strata(rng, 3, 0.2, 3.0, jitter=COST_JITTER)
        if slow:  # (log(x(1+t)) + b/log(x(1+t)) - log x - b/log x) / 1
            fns = (lambda x, b=b: math.log(x) + b / math.log(x), lambda x: x, lambda x: 1.0)
        else:  # ((x(1+t))^a (1 + b/(x(1+t))) - x^a (1 + b/x)) / x^a
            fns = (lambda x, a=a, b=b: x**a * (1.0 + b / x), lambda x: x, lambda x, a=a: x**a)
        add(
            kind="estimate_kernel", layer="asymptotics",
            params={"a": a, "b": b, "slow": slow, "ts": ts, "x0": default.x0, "ratio": default.ratio},
            fns=fns,
            call=lambda fns, ts=ts: asymptotics.estimate_kernel(fns[0], fns[1], fns[2], ts, default),
            digest=_estimates_digest, converged=_estimates_converged,
        )

    for k in range(count(10)):
        slow = k % 2 == 0
        c = rng.uniform(0.05, 0.3)
        ts = sorted(rng.uniform(0.2, 2.0) for _ in range(3))
        if slow:  # exp(c log^2 y)/exp(c log^2 x) along phi(x) = x/log x
            fns = (lambda x, c=c: math.exp(c * math.log(x) ** 2), lambda x: x / math.log(x))
        else:  # (y/x)^a along phi(x) = x, with a = 10c
            fns = (lambda x, c=c: x ** (10.0 * c), lambda x: x)
        add(
            kind="estimate_beurling", layer="asymptotics",
            params={"c": c, "slow": slow, "ts": ts, "x0": default.x0, "ratio": default.ratio},
            fns=fns,
            call=lambda fns, ts=ts: asymptotics.estimate_beurling(fns[0], fns[1], ts, default),
            digest=_estimates_digest, converged=_estimates_converged,
        )

    n_rho = count(8)
    rho_inputs = [strata(rng, n_rho, lo, hi, jitter=COST_JITTER) for lo, hi in ((0.2, 3.0), (0.0, 2.0), (0.5, 2.0))]
    for k in range(n_rho):
        r, d, tp = rho_inputs[0][k], rho_inputs[1][3 * k % n_rho], rho_inputs[2][5 * k % n_rho]
        add(
            kind="estimate_rho", layer="asymptotics",
            params={"r": r, "d": d, "tp": tp, "x0": default.x0, "ratio": default.ratio},
            fns=(lambda x, r=r, d=d: r * x + d * math.sqrt(x),),
            call=lambda fns, tp=tp: [(tp, asymptotics.estimate_rho(fns[0], tp, default))],
            digest=_estimates_digest, converged=_estimates_converged,
        )

    for k in range(count(15)):
        op = ("karamata", "beurling", "general")[k % 3]
        a, b = rng.uniform(-1.5, 2.5), rng.uniform(0.2, 1.0)
        s, t, x = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(5.0, 50.0)
        f = karamata_f(a, b, slow=True)
        if op == "karamata":
            fns = (f,)
            call = lambda fns, s=s, t=t, x=x: asymptotics.cocycle_residual_karamata(fns[0], s, t, x)
        elif op == "beurling":
            fns = (f, lambda y: math.sqrt(y))
            call = lambda fns, s=s, t=t, x=x: asymptotics.cocycle_residual_beurling(fns[0], fns[1], s, t, x)
        else:
            fns = (f, lambda y: math.sqrt(y), lambda y: math.log(y))
            call = lambda fns, s=s, t=t, x=x: asymptotics.cocycle_residual_general(fns[0], fns[1], fns[2], s, t, x)
        add(kind=f"cocycle_{op}", layer="asymptotics",
            params={"a": a, "b": b, "s": s, "t": t, "x": x}, fns=fns, call=call)

    for k in range(count(10)):
        rho = (0.5, 1.0, 7.0)[k % 3]
        gamma, kc = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        u, v = iso_exp(rho, rng.uniform(-1.0, 1.0)), iso_exp(rho, rng.uniform(-1.0, 1.0))
        g = lambda t, rho=rho, gamma=gamma: math.exp(gamma * math.log1p(rho * t))
        K = lambda t, rho=rho, gamma=gamma, kc=kc: kc * (math.exp(gamma * math.log1p(rho * t)) - 1.0)
        param = PopaParam(rho)
        if k % 2 == 0:
            add(kind="bg_residual", layer="kernels",
                params={"rho": rho, "gamma": gamma, "kc": kc, "u": u, "v": v}, fns=(K, g),
                call=lambda fns, param=param, u=u, v=v: kernels.bg_residual(fns[0], fns[1], param, u, v))
        else:
            add(kind="cj_residual", layer="kernels",
                params={"rho": rho, "gamma": gamma, "u": u, "v": v}, fns=(g,),
                call=lambda fns, param=param, u=u, v=v: kernels.cj_residual(fns[0], param, u, v))

    n_trip = count(18)
    for k in range(n_trip):
        rho, sigma = corners[k % len(corners)]
        kappa = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0)
        t = iso_exp(rho, rng.uniform(-2.0, 2.0) / abs(kappa))
        kp = KernelParams(PopaParam(rho), PopaParam(sigma), kappa)
        add(
            kind="kernel_round_trip", layer="kernels",
            params={"rho": rho, "sigma": sigma, "kappa": kappa, "t": t},
            call=lambda fns, kp=kp, t=t: _round_trip(kp, t),
            digest=tuple,
        )
    return jobs


def _round_trip(kp, t):
    z = kernels.kernel_eval(kp, t)
    return z, kernels.kernel_inverse(kp, z)


def build(workload: str, seed: int, scale: float = 1.0) -> list[Job]:
    if workload == "transforms":
        jobs = build_transforms(seed, scale)
    elif workload == "grids":
        jobs = build_grids(seed, scale)
    else:
        raise ValueError(f"unknown library workload {workload!r}")
    return shuffled(jobs, random.Random(f"order:{workload}:{seed}"))


def shuffled(jobs: list[Job], rng: random.Random) -> list[Job]:
    """Seeded job order, renumbered.  Mixing kinds spreads each kind's
    samples over the whole pass instead of one short stretch of it, so a
    brief slowdown of the machine touches every percentile a little."""
    rng.shuffle(jobs)
    for jid, job in enumerate(jobs):
        job.jid = jid
    return jobs
