"""Exact answers for every job, from closed forms or mpmath at 30 digits.

Each oracle returns the exact value of the quantity the call computes (for a
Beck sum, the clipped Riemann sum itself, not its limit), as a list of checks
``(got, exact, tol)``: ``tol`` is the job's stated accuracy, or ``None`` when
the output must match exactly (flags and counts).  Oracles run outside every
timed region.  :func:`self_check` compares the closed forms with direct
mpmath quadrature or summation on a sample of jobs.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from workloads import QUAD_TOL, TAUBERIAN_TOL

mp.mp.dps = 30

VALUE_TOL = 1e-9  # relative accuracy asked of results with no truncation or
#                   stopping rule (group maps, sums, residuals, fits)


def rel_tol(exact, rel: float, floor: float = 1.0) -> float:
    return rel * max(floor, float(abs(exact)))


# ------------------------------------------------------- group helpers ----


def iso_log(rho: float, t):
    t = mp.mpf(t)
    if rho == 0.0:
        return t
    if math.isinf(rho):
        return mp.log(t)
    return mp.log1p(mp.mpf(rho) * t)


def iso_exp(rho: float, w):
    if rho == 0.0:
        return w
    if math.isinf(rho):
        return mp.exp(w)
    return mp.expm1(w) / mp.mpf(rho)


def circle(rho: float, x, y):
    if rho == 0.0:
        return x + y
    if math.isinf(rho):
        return x * y
    return x + y + mp.mpf(rho) * x * y


def inverse(rho: float, x):
    if rho == 0.0:
        return -x
    if math.isinf(rho):
        return 1 / x
    return -x / (1 + mp.mpf(rho) * x)


def haar_scale(rho: float):
    """Density factor (1+rho)/rho of the measure in the additive coordinate."""
    return mp.mpf(1) if rho == 0.0 or math.isinf(rho) else (1 + mp.mpf(rho)) / mp.mpf(rho)


def haar_density(rho: float):
    """Density of the invariant measure against dt."""
    if rho == 0.0:
        return lambda t: 1
    if math.isinf(rho):
        return lambda t: 1 / t
    return lambda t: (1 + mp.mpf(rho)) / (1 + rho * t)


def profile(family: str, p: dict):
    if family == "gauss":
        return lambda w: p["A"] * mp.exp(-((w - p["c"]) / p["s"]) ** 2 / 2)
    if family == "trig":
        return lambda w: p["A"] * mp.cos(p["b"] * w + p["phase"])
    return lambda w: p["B"] * w**2 + p["C"] * mp.exp(p["k"] * w)


def antiderivative(family: str, p: dict):
    if family == "gauss":
        A, c, s = p["A"], p["c"], p["s"]
        return lambda w: A * s * mp.sqrt(mp.pi / 2) * mp.erf((w - c) / (s * mp.sqrt(2)))
    if family == "trig":
        return lambda w: p["A"] / p["b"] * mp.sin(p["b"] * w + p["phase"])
    return lambda w: p["B"] * w**3 / 3 + p["C"] * mp.expm1(p["k"] * w) / p["k"]


def gauss_transform(p: dict, z):
    """Integral over the line of A exp(-(w-c)^2/(2 s^2)) exp(-z w)."""
    A, c, s = p["A"], mp.mpf(p["c"]), mp.mpf(p["s"])
    return A * s * mp.sqrt(2 * mp.pi) * mp.exp(-z * c + (z * s) ** 2 / 2)


# ----------------------------------------------------------- transforms ----


def _haar(job):
    q = job.params
    G = antiderivative(q["family"], q["p"])
    return haar_scale(q["rho"]) * (G(iso_log(q["rho"], q["hi"])) - G(iso_log(q["rho"], q["lo"])))


def _fourier(job):
    q = job.params
    return haar_scale(q["rho"]) * gauss_transform(q["p"], mp.mpc(0, q["gamma"]))


def _mellin(job):
    q = job.params
    return haar_scale(q["rho"]) * gauss_transform(q["p"], mp.mpc(q["z"]))


def _popa_conv_integral(job):
    """The integral popa_convolution computes, before its (1+rho)/rho weight."""
    q = job.params
    p1, p2 = q["p1"], q["p2"]
    var = mp.mpf(p1["s"]) ** 2 + p2["s"] ** 2
    y = iso_log(q["rho"], q["x"]) - p1["c"] - p2["c"]
    return p1["A"] * p2["A"] * mp.sqrt(2 * mp.pi) * p1["s"] * p2["s"] / mp.sqrt(var) * mp.exp(-(y**2) / (2 * var))


def _popa_conv(job):
    return haar_scale(job.params["rho"]) * _popa_conv_integral(job)


def _beurling(job):
    q = job.params
    p = mp.mpf(job.fns[2](q["x"]))  # phi(x), as the benchmark's callable returns it
    return q["h0"] + mp.exp(-((q["b"] * p * q["s"]) ** 2) / 2) * mp.cos(q["b"] * mp.mpf(q["x"]))


def _tauberian(job):
    c, x = mp.mpf(job.params["c"]), mp.mpf(job.params["x"])
    one, end = mp.mpf(1), 1 + 2 * x
    integral = mp.cos(one) * (mp.si(end) - mp.si(one)) - mp.sin(one) * (mp.ci(end) - mp.ci(one))
    return c + integral / (2 * x)


def _quad_checks(exact, out, tol_rel=QUAD_TOL):
    got = complex(*out) if len(out) == 2 else out[0]
    return [(got, exact, max(tol_rel, tol_rel * float(abs(exact))))]


# The exact value of the single adaptive_integral call each transform job makes.
QUAD_EXACT = {
    "haar_integrate": _haar,
    "fourier_popa": _fourier,
    "mellin_popa": _mellin,
    "popa_convolution": _popa_conv_integral,
    "beurling_convolution": _beurling,
    "tauberian": _tauberian,
}


def quad_exact(job) -> complex | None:
    fn = QUAD_EXACT.get(job.kind)
    return complex(fn(job)) if fn else None


# ---------------------------------------------------------------- grids ----


def _kernel_S(q, eps=None):
    eps = q.get("eps", 0.0) if eps is None else eps
    rho, sigma, kappa = q["rho"], q["sigma"], q["kappa"]

    def S(t):
        w = iso_log(rho, t)
        return iso_exp(sigma, kappa * w + eps * w * w)

    return S


def subadd_checks(q: dict, out):
    """Checks for a subadditivity report (holds, worst, x, y, checked, skipped)."""
    rho, sigma, lo, hi, n = q["rho"], q["sigma"], q["lo"], q["hi"], q["n"]
    pts = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    if rho == 0.0:
        Z = X + Y
    elif math.isinf(rho):
        Z = X * Y
    else:
        Z = (X + Y) + rho * (X * Y)
    inside = (Z >= lo) & (Z <= hi)  # the program's window test, replayed on the same floats
    checked = int(inside.sum())
    worst = mp.mpf(0)
    if q["eps"] > 0.0 and checked:
        # float screen for the largest violations, then exact values for the leaders
        S_np = lambda t: _np_iso_exp(sigma, q["kappa"] * _np_iso_log(rho, t) + q["eps"] * _np_iso_log(rho, t) ** 2)
        Sx, Sy = S_np(X), S_np(Y)
        bound = Sx + Sy if sigma == 0.0 else Sx * Sy if math.isinf(sigma) else Sx + Sy + sigma * Sx * Sy
        with np.errstate(all="ignore"):
            screen = np.where(inside, S_np(Z) - bound, -np.inf)
        S = _kernel_S(q)
        for flat in np.argsort(screen, axis=None)[-5:]:
            i, j = divmod(int(flat), n)
            if inside[i, j]:
                x, y = mp.mpf(pts[i]), mp.mpf(pts[j])
                worst = max(worst, S(circle(rho, x, y)) - circle(sigma, S(x), S(y)))
    holds = worst <= q["tol"]
    return [
        (out[0], holds, None),
        (out[1], worst, q["tol"]),
        (out[4], checked, None),
        (out[5], n * n - checked, None),
    ]


def _np_iso_log(rho, t):
    return t if rho == 0.0 else np.log(t) if math.isinf(rho) else np.log1p(rho * t)


def _np_iso_exp(rho, w):
    return w if rho == 0.0 else np.exp(w) if math.isinf(rho) else np.expm1(w) / rho


def _bounded(job, out):
    q = job.params
    S, K = _kernel_S(q), _kernel_S(q, eps=0.0)
    worst = max([mp.mpf(0)] + [S(mp.mpf(t)) - K(mp.mpf(t)) for t in q["ts"]])
    return [(out[0], worst <= q["tol"], None), (out[1], worst, q["tol"]), (out[4], len(q["ts"]), None)]


def _sandwich(job, out):
    """Replays sandwich_bound_check's decision in exact arithmetic."""
    q = job.params
    rho, sigma, M = q["rho"], q["sigma"], mp.mpf(q["M"])
    S = _kernel_S(q, eps=0.0)
    offsets = np.linspace(-q["delta"], q["delta"], 35)[1:-1]
    eps = mp.mpf(1e-12) * (1 + abs(M))
    if any(S(mp.mpf(q["a"] + o)) > M + eps for o in offsets):
        return [(out[0], True, None)]
    a, b = mp.mpf(q["a"]), mp.mpf(q["b"])
    lower = circle(sigma, S(circle(rho, b, a)), inverse(sigma, M))
    upper = circle(sigma, S(circle(rho, b, inverse(rho, a))), M)
    slack = mp.mpf(1e-12) * (1 + abs(lower) + abs(upper))
    holds = all(lower - slack <= S(mp.mpf(q["b"] + o)) <= upper + slack for o in offsets)
    return [(out[0], holds, None)]


def beck_exact(rho, delta, u, a):
    """Clipped Riemann sum of g/eta, g = exp(a*w), over the o-iterates of delta."""
    wd, wu = iso_log(rho, delta), iso_log(rho, u)
    n = int(mp.floor(wu / wd))  # number of full cells
    if rho == 0.0:
        weight = mp.mpf(delta)
    else:
        weight = -mp.expm1(-wd) / rho  # (node_m - node_{m-1})/eta(node_m)
    q = mp.exp(a * wd)
    full = n if a == 0.0 else q * mp.expm1(n * a * wd) / mp.expm1(a * wd)
    last = iso_exp(rho, n * wd)
    eta_u = mp.mpf(1) if rho == 0.0 else mp.exp(wu)
    return weight * full + mp.exp(a * wu) / eta_u * (mp.mpf(u) - last)


def _beck(job, out):
    q = job.params
    exact = beck_exact(q["rho"], q["delta"], q["u"], q["a"])
    return [(out[0], exact, rel_tol(exact, VALUE_TOL))]


def _goldie(job, out):
    q = job.params
    wd = iso_log(q["rho"], q["delta"])
    aw = q["a"] * wd
    total = q["i"] if q["a"] == 0.0 else mp.expm1(q["i"] * aw) / mp.expm1(aw)
    exact = q["K"] * total
    return [(out[0], exact, rel_tol(exact, VALUE_TOL))]


def _points(out, width=5):
    return [out[k : k + width] for k in range(0, len(out) - (len(out) % width), width)]


def _estimate_checks(job, out, curve):
    """Check each reported point against the exact operator value at the grid
    position where the estimate stopped (x0 * ratio**(steps-1))."""
    q = job.params
    checks = []
    for t, value, _conv, _delta, steps in _points(out):
        x = mp.mpf(q["x0"]) * mp.mpf(q["ratio"]) ** (steps - 1)
        exact = curve(mp.mpf(t), x)
        checks.append((value, exact, rel_tol(exact, VALUE_TOL)))
    return checks


def _karamata_f(q):
    a, b = q["a"], q["b"]
    if q["slow"]:
        return lambda x: x**a * (1 + b / mp.log(x))
    return lambda x: x**a * (1 + b / x)


def _karamata(job, out):
    f = _karamata_f(job.params)
    checks = _estimate_checks(job, out[:-2], lambda t, x: f(t * x) / f(x))
    # fit_kappa at (inf, inf): least squares of log g on log lambda
    ws = [mp.log(t) for t, v, *_ in _points(out[:-2]) if math.isfinite(v)]
    vs = [mp.log(v) for t, v, *_ in _points(out[:-2]) if math.isfinite(v)]
    kappa = mp.fsum(w * v for w, v in zip(ws, vs)) / mp.fsum(w * w for w in ws)
    checks.append((out[-2], kappa, rel_tol(kappa, VALUE_TOL)))
    return checks


def _est_kernel(job, out):
    q = job.params
    if q["slow"]:
        F = lambda x: mp.log(x) + q["b"] / mp.log(x)
        return _estimate_checks(job, out, lambda t, x: F(x * (1 + t)) - F(x))
    F = lambda x: x ** q["a"] * (1 + q["b"] / x)
    return _estimate_checks(job, out, lambda t, x: (F(x * (1 + t)) - F(x)) / x ** q["a"])


def _est_beurling(job, out):
    q = job.params
    c = q["c"]
    if q["slow"]:
        return _estimate_checks(
            job, out, lambda t, x: mp.exp(c * (mp.log(x + t * x / mp.log(x)) ** 2 - mp.log(x) ** 2))
        )
    return _estimate_checks(job, out, lambda t, x: (1 + t) ** (10 * c))


def _est_rho(job, out):
    q = job.params
    phi = lambda x: q["r"] * x + q["d"] * mp.sqrt(x)
    return _estimate_checks(job, out, lambda t, x: (phi(x + t * phi(x)) / phi(x) - 1) / t)


def _residual(job, out):
    """Cocycle residuals vanish in exact arithmetic; the scale is the size of
    the operator value the identity compares, computed by the job's own
    callables."""
    q, fns = job.params, job.fns
    s, t, x = q.get("s"), q.get("t"), q.get("x")
    if job.kind == "cocycle_karamata":
        scale = fns[0](x * s * t) / fns[0](x)
    elif job.kind in ("cocycle_beurling", "cocycle_general"):
        phi = fns[1]
        ts = t + s * phi(x + t * phi(x)) / phi(x)
        scale = fns[0](x + ts * phi(x)) / fns[0](x)
    else:  # bg_residual and cj_residual: K or g at u o v
        scale = fns[0](float(circle(q["rho"], mp.mpf(q["u"]), mp.mpf(q["v"]))))
    return [(out[0], 0, rel_tol(scale, VALUE_TOL))]


def _round_trip(job, out):
    q = job.params
    z = iso_exp(q["sigma"], q["kappa"] * iso_log(q["rho"], q["t"]))
    return [(out[0], z, rel_tol(z, VALUE_TOL)), (out[1], q["t"], rel_tol(q["t"], VALUE_TOL))]


ORACLES = {
    "haar_integrate": lambda job, out: _quad_checks(_haar(job), out),
    "fourier_popa": lambda job, out: _quad_checks(_fourier(job), out),
    "mellin_popa": lambda job, out: _quad_checks(_mellin(job), out),
    "popa_convolution": lambda job, out: _quad_checks(_popa_conv(job), out),
    "beurling_convolution": lambda job, out: _quad_checks(_beurling(job), out),
    "tauberian": lambda job, out: _quad_checks(_tauberian(job), out, TAUBERIAN_TOL),
    "subadditivity_check": lambda job, out: subadd_checks(job.params, out),
    "additively_bounded_check": _bounded,
    "sandwich_bound_check": _sandwich,
    "beck_riemann_sum": _beck,
    "goldie_sum": _goldie,
    "estimate_karamata": _karamata,
    "estimate_kernel": _est_kernel,
    "estimate_beurling": _est_beurling,
    "estimate_rho": _est_rho,
    "cocycle_karamata": _residual,
    "cocycle_beurling": _residual,
    "cocycle_general": _residual,
    "bg_residual": _residual,
    "cj_residual": _residual,
    "kernel_round_trip": _round_trip,
}


def _study_checks(job, out) -> list:
    """What each study measures: accuracy against the limit, at the study's
    own tolerance (the exact pre-limit value is checked as for any job)."""
    q = job.params
    if job.study == "beck_first_order":  # first order: |sum - limit| <= delta
        return [(out[0], iso_log(q["rho"], q["u"]) / q["rho"], q["delta"])]
    if job.study == "index_recovery":  # the fitted index within the scheme's tolerance
        return [(out[-2], q["a"], q["tol"] * (1 + abs(q["a"])))]
    if job.study == "tauberian_settling":  # settles on c like 1/x, down to the quadrature tolerance
        return [(out[0], q["c"], max(1.0 / q["x"], TAUBERIAN_TOL * q["c"]))]
    return []


def checks(job, out) -> list:
    return ORACLES[job.kind](job, out) + _study_checks(job, out)


def score(checks_) -> tuple[float, bool]:
    """(largest error over tolerance, every exact-match check holds)."""
    worst, exact_ok = 0.0, True
    for got, exact, tol in checks_:
        if tol is None:
            exact_ok &= got == exact
        else:
            worst = max(worst, float(abs(mp.mpmathify(got) - exact)) / tol)
    return worst, exact_ok


# ----------------------------------------------------------- self check ----


def _direct(job):
    """Direct mpmath quadrature or summation of what a closed form claims."""
    q = job.params
    if job.kind == "haar_integrate":
        g, dens = profile(q["family"], q["p"]), haar_density(q["rho"])
        return mp.quad(lambda t: g(iso_log(q["rho"], t)) * dens(t), [q["lo"], q["hi"]])
    if job.kind in ("fourier_popa", "mellin_popa"):
        g = profile("gauss", q["p"])
        z = mp.mpc(0, q["gamma"]) if job.kind == "fourier_popa" else mp.mpc(q["z"])
        return haar_scale(q["rho"]) * mp.quad(lambda w: g(w) * mp.exp(-z * w), mp.linspace(-30, 30, 61))
    if job.kind == "popa_convolution":
        g1, g2 = profile("gauss", q["p1"]), profile("gauss", q["p2"])
        wx = iso_log(q["rho"], q["x"])
        return haar_scale(q["rho"]) * mp.quad(lambda w: g1(-w) * g2(wx + w), mp.linspace(-30, 30, 31))
    if job.kind == "tauberian":
        x = mp.mpf(q["x"])
        H = lambda u: q["c"] + mp.sin(u) / (1 + u)
        return mp.quad(lambda t: H(x * (1 + t)) / 2, mp.linspace(-1, 1, 9))
    if job.kind == "beck_riemann_sum":
        rho, a = q["rho"], q["a"]
        wd, u = iso_log(rho, q["delta"]), mp.mpf(q["u"])
        eta = (lambda v: 1) if rho == 0.0 else (lambda v: 1 + rho * v)
        total, prev, m = mp.mpf(0), mp.mpf(0), 1
        while prev < u:
            node = min(iso_exp(rho, m * wd), u)
            total += mp.exp(a * iso_log(rho, node)) / eta(node) * (node - prev)
            prev, m = node, m + 1
        return total
    if job.kind == "goldie_sum":
        rho, wd = q["rho"], iso_log(q["rho"], q["delta"])
        return q["K"] * mp.fsum(mp.exp(q["a"] * iso_log(rho, iso_exp(rho, m * wd))) for m in range(q["i"]))
    return None


CLOSED = {
    "haar_integrate": _haar,
    "fourier_popa": _fourier,
    "mellin_popa": _mellin,
    "popa_convolution": _popa_conv,
    "tauberian": _tauberian,
    "beck_riemann_sum": lambda job: beck_exact(*(job.params[k] for k in ("rho", "delta", "u", "a"))),
    "goldie_sum": lambda job: _goldie(job, (0.0,))[0][1],
}


def _cost(job) -> float:
    """Rough cost of the direct evaluation, to pick cheap samples."""
    q = job.params
    if job.kind == "fourier_popa":
        return q["gamma"]
    if job.kind == "mellin_popa":
        return abs(q["z"].imag)
    if job.kind == "tauberian":
        return q["x"]
    if job.kind == "beck_riemann_sum":
        return float(iso_log(q["rho"], q["u"]) / iso_log(q["rho"], q["delta"]))
    if job.kind == "goldie_sum":
        return q["i"]
    return 0.0


def self_check(jobs, per_kind: int = 1) -> list[str]:
    """Compare each closed form with direct mpmath on the cheapest jobs of
    each kind; returns a list of mismatches (empty when all agree)."""
    problems = []
    by_kind: dict[str, list] = {}
    for job in jobs:
        if job.kind in CLOSED:
            by_kind.setdefault(job.kind, []).append(job)
    for kind, group in sorted(by_kind.items()):
        for job in sorted(group, key=_cost)[:per_kind]:
            if _cost(job) > 2000:
                continue
            closed, direct = CLOSED[kind](job), _direct(job)
            if abs(closed - direct) > mp.mpf(1e-15) * max(1, abs(closed)):
                problems.append(f"{kind} job {job.jid}: closed form {mp.nstr(closed, 20)} vs mpmath {mp.nstr(direct, 20)}")
    return problems
