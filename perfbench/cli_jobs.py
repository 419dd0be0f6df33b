"""The ``cli-session`` workload: a seeded sequence of ``python -m regvar.cli``
processes, run one at a time (a closed loop with one client).

Each job is an argv, the exit code the README documents for it, and an
oracle for what it prints.  The package is not installed, so children run
with ``PYTHONPATH=<checkout>/src``.  Set-up writes the CSV tables the jobs
read.  Jobs can also run in-process through ``regvar.cli.main``, which is how
the traced run sees the library layers underneath the CLI.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import Job, iso_exp, iso_log, shuffled, strata

RHO_TEXT = {0.0: "0", 0.5: "0.5", 1.0: "1", 7.0: "7", math.inf: "inf"}
RHOS = tuple(RHO_TEXT)

# A float copy of the CLI's function registry, used to size residual checks.
REGISTRY = {
    "x": lambda x: x,
    "square": lambda x: x * x,
    "sqrt": math.sqrt,
    "log": math.log,
    "offset-sinc": lambda x: 2.0 + math.sin(x) / (1.0 + x),
}


def num(v: float) -> str:
    return format(v, ".17g")


def build_cli(seed: int, workdir: Path, scale: float = 1.0) -> list[Job]:
    """100 jobs at scale 1: cheap commands, computing commands, error paths,
    the fixed known-defect inputs and the Beck first-order study."""
    rng = random.Random(f"cli-session:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def add(kind: str, argv: list[str], exit_code: int = 0, study: str | None = None, **params) -> None:
        params.update(argv=argv, exit=exit_code)
        jobs.append(Job(jid=len(jobs), kind=kind, layer="cli", params=params, call=None, study=study))

    def count(n: int) -> int:
        return max(1, round(n * scale))

    # --- cheap commands -------------------------------------------------
    for k in range(count(25)):
        rho = RHOS[k % len(RHOS)]
        op = ("circle", "inverse", "norm", "eta", "power")[(k // len(RHOS)) % 5]
        x, y = iso_exp(rho, rng.uniform(-2.0, 2.0)), iso_exp(rho, rng.uniform(-2.0, 2.0))
        if op == "power":
            delta, n = iso_exp(rho, rng.uniform(-0.5, 0.5)), rng.randint(-20, 40)
            add("group_power", ["group", "power", "--rho", RHO_TEXT[rho], "--", num(delta), str(n)], rho=rho, x=delta, n=n)
        else:
            operands = [num(x), num(y)] if op == "circle" else [num(x)]
            add(f"group_{op}", ["group", op, "--rho", RHO_TEXT[rho], "--", *operands], rho=rho, x=x, y=y)
    corners = [(r, s) for r in (0.0, 1.0, math.inf) for s in (0.0, 1.0, math.inf)]
    for k in range(count(10)):
        rho, sigma = corners[k % len(corners)]
        kappa = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0)
        t = iso_exp(rho, rng.uniform(-2.0, 2.0) / abs(kappa))
        base = ["kernel", "eval" if k % 2 == 0 else "inverse", "--rho", RHO_TEXT[rho], "--sigma", RHO_TEXT[sigma], "--kappa", num(kappa)]
        if k % 2 == 0:
            add("kernel_eval", base + ["--t", num(t)], rho=rho, sigma=sigma, kappa=kappa, t=t)
        else:
            z = iso_exp(sigma, kappa * iso_log(rho, t))
            add("kernel_inverse", base + ["--z", num(z)], rho=rho, sigma=sigma, kappa=kappa, z=z)
    for k in range(count(8)):
        rho = RHOS[k % len(RHOS)]
        wlo = rng.uniform(-2.0, 1.0)
        lo, hi = iso_exp(rho, wlo), iso_exp(rho, wlo + rng.uniform(0.1, 2.0))
        add("transform_measure", ["transform", "measure", "--rho", RHO_TEXT[rho], "--lo", num(lo), "--hi", num(hi)], rho=rho, lo=lo, hi=hi)
    for k in range(count(10)):
        op = ("karamata", "beurling", "general")[k % 3]
        f = rng.choice(("x", "square", "sqrt", "log", "offset-sinc"))
        s, t, x = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(2.0, 10.0)
        argv = ["cocycle", op, "--f", f, "--s", num(s), "--t", num(t), "--x", num(x)]
        if op != "karamata":
            argv += ["--phi", "sqrt"]
        add(f"cocycle_{op}", argv, f=f, s=s, t=t, x=x)
    for k in range(count(6)):
        l1, l2, r = rng.uniform(1.5, 5.0), rng.uniform(5.5, 20.0), rng.uniform(-2.0, 3.0)
        add("two_point", ["estimate", "two-point", "--l1", num(l1), "--g1", num(l1**r), "--l2", num(l2), "--g2", num(l2**r)],
            l1=l1, g1=l1**r, l2=l2, g2=l2**r)

    # --- computing commands ---------------------------------------------
    for gamma in strata(rng, count(4), 0.1, 5.0):
        add("transform_fourier", ["transform", "fourier", "--rho", "0", "--f", "gauss", "--gamma", num(gamma)], gamma=gamma)
    for k in range(count(6)):
        rho = RHOS[k % len(RHOS)]
        f = ("x", "square", "offset-sinc")[k % 3]
        wlo = rng.uniform(0.1, 1.0)
        lo, hi = iso_exp(rho, wlo), iso_exp(rho, wlo + rng.uniform(0.2, 1.0))
        add("transform_integrate", ["transform", "integrate", "--rho", RHO_TEXT[rho], "--f", f, "--lo", num(lo), "--hi", num(hi)],
            rho=rho, f=f, lo=lo, hi=hi)
    for k in range(count(4)):
        rho, sigma = corners[(2 * k + seed) % len(corners)]
        kappa, n = rng.uniform(0.5, 2.0), rng.randint(8, 40)
        lo, hi = iso_exp(rho, rng.uniform(-1.0, 0.0)), iso_exp(rho, rng.uniform(1.0, 2.0))
        add("subadd_check", ["subadd", "check", "--rho", RHO_TEXT[rho], "--sigma", RHO_TEXT[sigma], "--s", "kappa-kernel",
                             "--kappa", num(kappa), "--lo", num(lo), "--hi", num(hi), "--n", str(n)],
            rho=rho, sigma=sigma, kappa=kappa, eps=0.0, lo=lo, hi=hi, n=n, tol=1e-6)
    for k, delta in enumerate(strata(rng, count(3), 1e-3, 1e-2, log=True)):
        rho = (0.5, 1.0, 7.0)[k % 3]
        u = iso_exp(rho, rng.uniform(0.5, 2.0))
        add("beck_sum", ["beck", "sum", "--rho", RHO_TEXT[rho], "--delta", num(delta), "--u", num(u), "--g", "one"],
            rho=rho, delta=delta, u=u, a=0.0)
    a = rng.uniform(-1.0, 2.0)
    table = workdir / "power_law.csv"
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("x,fx\n")
        for j in range(301):
            x = 10.0 ** (j * 0.05)
            fh.write(f"{num(x)},{num(x**a)}\n")
    for k in range(count(3)):
        ts = sorted(rng.uniform(1.5, 8.0) for _ in range(3))
        add("estimate_table", ["estimate", "kernel", "--mode", "karamata", "--f", str(table), "--t", ",".join(num(t) for t in ts)],
            a=a, ts=ts)

    # --- error paths, each with its documented exit code ------------------
    bad_csv = workdir / "bad_header.csv"
    bad_csv.write_text("t,value\n1,2\n2,3\n", encoding="utf-8")
    outside = -1.0 - rng.uniform(0.1, 2.0)
    for argv, code in [
        (["frobnicate"], 1),
        (["transform", "integrate", "--rho", "1", "--lo", "0", "--hi", "1"], 1),
        (["group", "circle", "--rho", "1", "--", num(outside), "0.5"], 2),
        (["group", "circle", "--rho", num(-rng.uniform(0.1, 2.0)), "--", "1", "1"], 2),
        (["group", "power", "--rho", "1", "--", "0.5", "x"], 2),
        (["transform", "fourier", "--f", str(bad_csv), "--gamma", "1"], 2),
        (["kernel", "inverse", "--rho", "1", "--sigma", "1", "--kappa", "0", "--z", "1"], 2),
        (["beck", "sum", "--rho", "1", "--delta", num(-rng.uniform(0.1, 0.5)), "--u", "1"], 2),
        (["estimate", "eta-rho", "--phi", "sqrt", "--max-steps", "4", "--strict"], 3),
        (["subadd", "check", "--s", "square", "--n", "1"], 2),
    ][: count(10)]:
        add("error_path", argv, code)

    # --- known defects: fixed inputs that stay in the load ----------------
    add("known_defect", ["group", "power", "--rho", "1", "--", "1", "2000"], 2)
    add("known_defect", ["kernel", "eval", "--rho", "1", "--sigma", "inf", "--kappa", "1000", "--t", "10"], 2)
    add("transform_measure", ["transform", "measure", "--rho", "1e-320", "--lo", "0", "--hi", "1"], rho=1e-320, lo=0.0, hi=1.0)

    # --- study: Beck first-order decay, through the CLI --------------------
    for k in range(8):
        delta = 0.1 * 0.5**k
        add("beck_sum", ["beck", "sum", "--rho", "1", "--delta", num(delta), "--u", "1", "--g", "one"],
            study="beck_first_order", rho=1.0, delta=delta, u=1.0, a=0.0)

    return shuffled(jobs, rng)


# ----------------------------------------------------------------- running --


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "REGVAR_TOL")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], root: Path, env: dict) -> tuple[int, str, str, float, float]:
    """One closed-loop request: (exit code, stdout, stderr, wall ms, peak RSS MB)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, "-m", "regvar.cli", *argv], cwd=root, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), (t1 - t0) / 1e6, usage.ru_maxrss / 1024.0


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """The same request through regvar.cli.main, as the interpreter would
    report it: an uncaught exception is a traceback and exit 1."""
    import regvar.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = regvar.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported like an uncaught exception
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ oracle --


def checks(job: Job, code: int, out: str, err: str) -> tuple[list, list[str]]:
    """Checks ``(got, exact, tol)`` for one CLI job, plus its failure reasons."""
    import mpmath as mp

    import oracles as O

    q = job.params
    reasons = []
    if code != q["exit"]:
        reasons.append("exit")
    if "Traceback" in err:
        reasons.append("traceback")
    if q["exit"] == 0 and any(line.startswith("warning:") and "did not converge" in line for line in err.splitlines()):
        reasons.append("nonconverged")
    if reasons or q["exit"] != 0:
        return [], reasons
    lines = out.strip().splitlines()
    try:
        values = _parse(job.kind, lines)
    except (ValueError, IndexError):
        return [], ["unparsed"]
    kind, rel = job.kind, O.rel_tol
    if kind.startswith("group_"):
        rho, x = q["rho"], mp.mpf(q["x"])
        exact = {
            "group_circle": lambda: O.circle(rho, x, mp.mpf(q["y"])),
            "group_inverse": lambda: O.inverse(rho, x),
            "group_norm": lambda: abs(O.iso_log(rho, x)) * O.haar_scale(rho),
            "group_eta": lambda: mp.mpf(1) if rho == 0.0 else x if math.isinf(rho) else 1 + rho * x,
            "group_power": lambda: O.iso_exp(rho, q["n"] * O.iso_log(rho, x)),
        }[kind]()
        return [(values[0], exact, rel(exact, O.VALUE_TOL))], []
    if kind == "kernel_eval":
        exact = O.iso_exp(q["sigma"], q["kappa"] * O.iso_log(q["rho"], q["t"]))
        return [(values[0], exact, rel(exact, O.VALUE_TOL))], []
    if kind == "kernel_inverse":
        exact = O.iso_exp(q["rho"], O.iso_log(q["sigma"], q["z"]) / q["kappa"])
        return [(values[0], exact, rel(exact, O.VALUE_TOL))], []
    if kind == "transform_measure":
        rho = q["rho"]
        exact = O.haar_scale(rho) * (O.iso_log(rho, q["hi"]) - O.iso_log(rho, q["lo"]))
        return [(values[0], exact, rel(exact, O.VALUE_TOL))], []
    if kind.startswith("cocycle_"):
        f, phi = REGISTRY[q["f"]], math.sqrt
        s, t, x = q["s"], q["t"], q["x"]
        if kind == "cocycle_karamata":
            scale = f(x * s * t) / f(x)
        else:
            ts = t + s * phi(x + t * phi(x)) / phi(x)
            scale = (f(x + ts * phi(x)) - f(x)) if kind == "cocycle_general" else f(x + ts * phi(x)) / f(x)
        return [(values[0], 0, rel(scale, O.VALUE_TOL))], []
    if kind == "two_point":
        r1 = mp.log(q["g1"]) / mp.log(q["l1"])
        r2 = mp.log(q["g2"]) / mp.log(q["l2"])
        exact = (r1 + r2) / 2
        return [(values[0], exact, rel(exact, O.VALUE_TOL)), (values[1], abs(r1 - r2) <= 1e-6, None)], []
    if kind == "transform_fourier":
        exact = mp.exp(-mp.mpf(q["gamma"]) ** 2 / 2)
        return [(complex(values[0], values[1]), exact, rel(exact, O.QUAD_TOL))], []
    if kind == "transform_integrate":
        exact = _integrate_exact(q)
        return [(values[0], exact, rel(exact, O.QUAD_TOL))], []
    if kind == "subadd_check":
        return O.subadd_checks(q, values), []
    if kind == "beck_sum":
        exact = O.beck_exact(q["rho"], q["delta"], q["u"], 0.0)
        out_checks = [(values[0], exact, rel(exact, O.VALUE_TOL))]
        if job.study == "beck_first_order":
            out_checks.append((values[0], O.iso_log(q["rho"], q["u"]) / q["rho"], q["delta"]))
        return out_checks, []
    if kind == "estimate_table":
        result = [(len(values), len(q["ts"]), None)]
        for t, (_, value, converged) in zip(q["ts"], values):
            exact = mp.mpf(t) ** q["a"]
            result += [(value, exact, rel(exact, O.VALUE_TOL)), (converged, True, None)]
        return result, []
    raise ValueError(f"no oracle for CLI job kind {kind!r}")


def _parse(kind: str, lines: list[str]) -> list:
    if kind == "two_point":
        head, flag = lines[-1].split()
        return [float(head.split("=")[1]), flag == "consistent"]
    if kind == "transform_fourier":
        return [float(v) for v in lines[0].split(",")]
    if kind == "subadd_check":
        cells = lines[1].split(",")
        return [cells[0] == "true", float(cells[1]), float(cells[2]), float(cells[3]), int(cells[4]), int(cells[5])]
    if kind == "estimate_table":
        rows = [line.split(",") for line in lines[1:]]
        return [(float(t), float(v), c == "true") for t, v, c in rows]
    return [float(lines[0])]


def _integrate_exact(q):
    import mpmath as mp

    import oracles as O

    f = {"x": lambda t: t, "square": lambda t: t * t, "offset-sinc": lambda t: 2 + mp.sin(t) / (1 + t)}[q["f"]]
    dens = O.haar_density(q["rho"])
    return mp.quad(lambda t: f(t) * dens(t), [q["lo"], q["hi"]])
