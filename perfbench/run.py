#!/usr/bin/env python3
"""Layered benchmark for regvar.

    python3 perfbench/run.py --workload {transforms,grids,cli-session} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.  The
seed generates every input.  A run first times set-up (importing regvar and
building the job list) in fresh child processes, then runs whole passes over
the job list, one job at a time, until ``--seconds`` have passed (at least
two passes).  Outputs are checked against oracles after the timing.  Every
time is taken at a fixed reference speed of the CPU (``speed.py``): on a
shared host the CPU's own speed changes by up to 2x from moment to moment.
A job's latency is the median of its samples over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracing.py``) with the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts job executions; ``failed`` counts executions the
benchmark could not carry out or check.  Jobs that ran but missed their
documented behaviour or accuracy are the ``failed_frac`` metric.  A run
record (versions, job counts, source size) is printed on the line before and
written with the spans under ``.perfbench_runs/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_runs"
WORKLOADS = ("transforms", "grids", "cli-session")
SETUP_REPEATS = 7
PROBE_REPEATS = 5
MIN_PASSES = 2
REPEAT_MS = 25.0  # back-to-back calls of a short job in an untraced pass
MAX_REPEATS = 16

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "err_over_tol": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


# ------------------------------------------------------------------ set-up --


def build_jobs(workload: str, seed: int, scale: float):
    if workload == "cli-session":
        import cli_jobs

        return cli_jobs.build_cli(seed, OUT / "work" / f"cli-{seed}", scale)
    import workloads

    return workloads.build(workload, seed, scale)


def setup_once(workload: str, seed: int, scale: float) -> None:
    """Import regvar and build the job list."""
    import regvar  # noqa: F401

    if workload == "cli-session":
        import regvar.cli  # noqa: F401 - the in-process runs use it
    build_jobs(workload, seed, scale)


def child(argv: list[str]) -> subprocess.CompletedProcess:
    import cli_jobs

    return subprocess.run(argv, cwd=ROOT, env=cli_jobs.child_env(ROOT), capture_output=True, text=True, check=True)


def measure_setup(workload: str, seed: int, scale: float) -> float:
    """Median set-up time over fresh processes (set-up is paid once per
    process), each timed at the reference speed of ``speed.py``."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--scale", str(scale)]
    return statistics.median(float(child(argv).stdout.strip().splitlines()[-1]) for _ in range(SETUP_REPEATS))


def probe_ms(code: str, self_timed: bool = False) -> float:
    """Median wall (or self-reported) time of a tiny child interpreter, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        proc = child([sys.executable, "-c", code])
        wall = time.perf_counter() - t0
        times.append(float(proc.stdout) if self_timed else wall)
    return 1e3 * statistics.median(times)


def interp_ms() -> float:
    return probe_ms("pass")


def import_ms() -> float:
    return probe_ms("import time; t = time.perf_counter(); import regvar.cli; print(time.perf_counter() - t)", True)


# ------------------------------------------------------------------ passes --


class PassResult:
    def __init__(self):
        self.latency_ns: list[list[float]] = []  # per job, the latency samples of this pass
        self.outputs: list = []  # digest per job, or None after an exception
        self.flags: list[str | None] = []  # exception / non-convergence / documented-exit mismatch
        self.stderr: list[str] = []
        self.exit_codes: list[int] = []
        self.rss_mb = 0.0
        self.wall_s = 0.0


def library_pass(jobs, fns_for=lambda job: job.fns, on_job=lambda job: None, clock=None) -> PassResult:
    """Run every job once, in order, timing each call in wall nanoseconds.

    With a :class:`speed.SpeedClock`, calls are timed at its reference speed
    instead, and a job that took less than ``REPEAT_MS`` is called again,
    back to back, up to ``MAX_REPEATS`` calls or ``REPEAT_MS`` in all; every
    call is a latency sample, and the output, flags and warnings are those of
    the first call."""
    from regvar.quadrature import QuadratureWarning

    def timed(fns):
        if clock is not None:
            return clock.call(job.call, fns)
        t0 = time.perf_counter_ns()
        try:
            return job.call(fns), None, time.perf_counter_ns() - t0
        except Exception as exc:  # noqa: BLE001 - the caller records it
            return None, exc, time.perf_counter_ns() - t0

    res = PassResult()
    start = time.perf_counter_ns()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for job in jobs:
            fns = fns_for(job)
            on_job(job)
            gc.collect()
            raw, exc, ns = timed(fns)
            samples = [ns]
            if exc is not None:
                flag = f"exception:{type(exc).__name__}"
                res.outputs.append(None)
            else:
                nonconv = not job.converged(raw) or any(issubclass(w.category, QuadratureWarning) for w in caught)
                flag = "nonconverged" if nonconv else None
                res.outputs.append(job.digest(raw))
                while clock is not None and len(samples) < MAX_REPEATS and sum(samples) + ns < REPEAT_MS * 1e6:
                    gc.collect()
                    samples.append(timed(fns)[2])
            res.latency_ns.append(samples)
            res.flags.append(flag)
            caught.clear()
    res.wall_s = (time.perf_counter_ns() - start) / 1e9
    return res


def cli_pass(jobs, clock=None) -> PassResult:
    """Run every job as a process, in order; with a :class:`speed.SpeedClock`
    the latencies are at its reference speed."""
    import cli_jobs

    env = cli_jobs.child_env(ROOT)
    speed_out = OUT / "work" / f"speed-{os.getpid()}.txt"
    speed_out.parent.mkdir(parents=True, exist_ok=True)
    res = PassResult()
    start = time.perf_counter_ns()
    for job in jobs:
        run = lambda env: cli_jobs.run_process(job.params["argv"], ROOT, env)
        if clock is None:
            code, out, err, ms, rss = run(env)
            ns = ms * 1e6
        else:
            (code, out, err, ms, rss), ns = clock.process(run, env, speed_out)
        res.latency_ns.append([ns])
        res.outputs.append((code, out))
        res.stderr.append(err)
        res.exit_codes.append(code)
        res.flags.append("exit" if code != job.params["exit"] else None)
        res.rss_mb = max(res.rss_mb, rss)
    res.wall_s = (time.perf_counter_ns() - start) / 1e9
    return res


def cli_inprocess_pass(jobs, on_job=lambda job: None) -> PassResult:
    import cli_jobs

    res = PassResult()
    start = time.perf_counter_ns()
    for job in jobs:
        on_job(job)
        gc.collect()
        t0 = time.perf_counter_ns()
        code, out, err = cli_jobs.run_in_process(job.params["argv"])
        res.latency_ns.append([time.perf_counter_ns() - t0])
        res.outputs.append((code, out))
        res.exit_codes.append(code)
    res.wall_s = (time.perf_counter_ns() - start) / 1e9
    return res


def timed_passes(run_one, seconds: float) -> list[PassResult]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_one())
    return passes


# ---------------------------------------------------------------- checking --


def _finite(value) -> bool:
    if isinstance(value, bool) or value is None:
        return True
    return math.isfinite(abs(complex(value)))


def judge(workload: str, jobs, passes: list[PassResult]) -> dict:
    """Score every job against its oracle and decide which executions failed.

    A job fails when it raised (or, for the CLI, printed a traceback or
    exited other than documented), reported non-convergence, returned a
    non-finite value, differed between passes, or missed its tolerance.
    """
    import cli_jobs
    import oracles

    first = passes[0]
    worst = 0.0
    job_failures: dict[int, list[str]] = {}
    unchecked = []
    differing = nondeterministic(passes)
    for k, job in enumerate(jobs):
        reasons = ["nondeterministic"] if k in differing else []
        try:
            if workload == "cli-session":
                code, out = first.outputs[k]
                checks, why = cli_jobs.checks(job, code, out, first.stderr[k])
                reasons += why
            elif first.outputs[k] is None:
                checks = []
            else:
                checks = oracles.checks(job, first.outputs[k])
        except Exception as exc:  # noqa: BLE001 - an oracle that cannot be evaluated
            unchecked.append(f"job {job.jid} ({job.kind}): {type(exc).__name__}: {exc}")
            continue
        if not all(_finite(got) for got, _, tol in checks if tol is not None):
            reasons.append("nonfinite")
        else:
            ratio, exact_ok = oracles.score(checks)
            worst = max(worst, ratio)
            if ratio > 1.0:
                reasons.append("tolerance")
            if not exact_ok:
                reasons.append("mismatch")
        if reasons:
            job_failures[job.jid] = reasons
    failed_runs = 0
    for p in passes:
        for k, job in enumerate(jobs):
            failed_runs += bool(p.flags[k] or job.jid in job_failures)
    self_check = [] if workload == "cli-session" else oracles.self_check(jobs)
    return {
        "err_over_tol": worst,
        "failed_runs": failed_runs,
        "job_failures": job_failures,
        "unchecked": unchecked,
        "self_check": self_check,
    }


def nondeterministic(passes: list[PassResult]) -> set[int]:
    """Indices of jobs whose output is not bit-identical in every pass."""
    first = passes[0].outputs
    return {k for k in range(len(first)) if any(repr(p.outputs[k]) != repr(first[k]) for p in passes[1:])}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# -------------------------------------------------------------------- runs --


def run_end_to_end(args, jobs) -> tuple[dict, dict, bool, int, int]:
    setup_s = measure_setup(args.workload, args.seed, args.scale)
    import speed

    clock = speed.SpeedClock()
    if args.workload == "cli-session":
        passes = timed_passes(lambda: cli_pass(jobs, clock), args.seconds)
        rss = max(p.rss_mb for p in passes)
    else:
        passes = timed_passes(lambda: library_pass(jobs, clock=clock), args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = judge(args.workload, jobs, passes)
    # A job's latency is the median of its samples over all passes.
    job_ms = sorted(statistics.median(ns for p in passes for ns in p.latency_ns[k]) / 1e6 for k in range(len(jobs)))
    attempted = len(jobs) * len(passes)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": 1e3 * len(jobs) / sum(job_ms),
        "job_p50_ms": percentile(job_ms, 0.5),
        "job_p90_ms": percentile(job_ms, 0.9),
        "err_over_tol": verdict["err_over_tol"],
        "failed_frac": verdict["failed_runs"] / attempted,
        "peak_rss_mb": rss,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    failed_by_kind: dict[str, int] = {}
    for jid, _reasons in verdict["job_failures"].items():
        kind = jobs[jid].kind
        failed_by_kind[kind] = failed_by_kind.get(kind, 0) + 1
    record = {
        "passes": len(passes),
        "p90_samples": len(jobs),
        "p90_samples_beyond": len(jobs) - math.ceil(0.9 * len(jobs)),
        "latency_samples_per_job": statistics.median(sum(len(p.latency_ns[k]) for p in passes) for k in range(len(jobs))),
        "failed_jobs_by_kind": failed_by_kind,
        "failure_reasons": {str(jid): r for jid, r in sorted(verdict["job_failures"].items())},
        "studies": study_table(jobs, passes[0]),
        "unchecked": verdict["unchecked"],
        "self_check_mismatches": verdict["self_check"],
        "cli.interp_ms": interp_ms(),
        "pass_wall_s": [p.wall_s for p in passes],
        "latency_ms_by_pass": [[[ns / 1e6 for ns in samples] for samples in p.latency_ns] for p in passes],
    }
    correct = not verdict["unchecked"] and not verdict["self_check"]
    return metrics, record, correct, attempted, len(verdict["unchecked"]) * len(passes)


def study_table(jobs, first: PassResult) -> dict:
    """The three studies as rows of (input, output), for the run record."""
    table: dict[str, list] = {}
    for k, job in enumerate(jobs):
        out = first.outputs[k]
        if job.study and out is not None:
            value = out[1].strip() if job.params.get("argv") else out[-2] if job.study == "index_recovery" else out[0]
            key = {"beck_first_order": "delta", "index_recovery": "a", "tauberian_settling": "x"}[job.study]
            table.setdefault(job.study, []).append([job.params[key], value])
    return table


def run_traced(args, jobs) -> tuple[dict, dict, bool, int, int]:
    import tracing

    untraced, traced, tracers = [], [], []
    is_cli = args.workload == "cli-session"

    def plain():
        return cli_inprocess_pass(jobs) if is_cli else library_pass(jobs)

    def with_spans():
        tr = tracing.Tracer()
        tr.install()
        try:
            on_job = lambda job: setattr(tr, "job", job.jid)
            if is_cli:
                res = cli_inprocess_pass(jobs, on_job=on_job)
            else:
                fns_for = lambda job: tuple(tr.counted(f, f"{job.layer}.f_evals") for f in job.fns)
                res = library_pass(jobs, fns_for, on_job)
        finally:
            tr.uninstall()
        tracers.append(tr)
        return res

    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(plain())
        traced.append(with_spans())

    # Wrapping must not change a single output bit, and the work counters
    # must repeat exactly from one traced pass to the next.
    differing = nondeterministic(untraced + traced)
    counters = [tr.work_counters() for tr in tracers]
    mismatched = sorted({key for c in counters[1:] for key in set(c) | set(counters[0]) if c.get(key) != counters[0].get(key)})
    self_ms = {layer: statistics.median(tr.self_ns[layer] / 1e6 for tr in tracers) for layer in tracing.LAYERS}

    import oracles

    quad_exact = {} if is_cli else {job.jid: oracles.quad_exact(job) for job in jobs if job.kind in oracles.QUAD_EXACT}
    last = tracers[-1]
    metrics = tracing.layer_metrics(last, self_ms, quad_exact)
    process = cli_pass(jobs) if is_cli else None
    metrics["cli.interp_ms"] = (interp_ms(), "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["cli.process_ms"] = (statistics.median(ns for samples in process.latency_ns for ns in samples) / 1e6 if process else 0.0, "ms")
    mismatch = sum(code != job.params["exit"] for code, job in zip(process.exit_codes, jobs)) if process else 0
    metrics["cli.exit_mismatch"] = (mismatch, "count")
    wall_traced = statistics.median(p.wall_s for p in traced)
    wall_plain = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_ms"] = (1e3 * (wall_traced - wall_plain), "ms")
    metrics["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "ratio")
    metrics["trace.spans"] = (last.span_count(), "count")

    OUT.mkdir(parents=True, exist_ok=True)
    last.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    record = {
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "work_counters": counters[0],
        "counter_mismatch": mismatched,
        "spans_dropped": last.spans_dropped,
        "spans_file": str((OUT / f"spans-{args.workload}-seed{args.seed}.npz").relative_to(ROOT)),
        "nondeterministic_jobs": sorted(jobs[k].jid for k in differing),
    }
    attempted = len(jobs) * (len(untraced) + len(traced)) + (len(jobs) if process else 0)
    return metrics, record, not mismatched and not differing, attempted, 0


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src" / "regvar").glob("*.py")))


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time; at least two passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="job-list size factor (the smoke test uses a small one)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "regvar" / "__init__.py").is_file():
        print(f"error: no regvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.setup_only:
        import speed

        _, error, ns = speed.SpeedClock().call(setup_once, args.workload, args.seed, args.scale)
        if error is not None:
            raise error
        print(ns / 1e9)
        return 0

    jobs = build_jobs(args.workload, args.seed, args.scale)
    # Each job starts from an empty young generation (passes collect before
    # every job), so the garbage collections a job pays for depend on the job
    # alone, not on where the seeded order puts it.  Freezing what set-up
    # made keeps those collections cheap.
    gc.freeze()
    run = run_traced if args.trace else run_end_to_end
    metrics, record, correct, attempted, failed = run(args, jobs)

    import numpy

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jobs_per_pass": len(jobs),
        "src_lines": source_lines(),
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1, default=str), encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value!r:>24} {unit}")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "latency_ms_by_pass"}}, default=str))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
