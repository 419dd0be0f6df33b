"""Job latency at a fixed reference speed of the CPU.

On a shared host the CPU this process runs on changes speed all the time:
another tenant on the same core slows it by up to about 2x, in stretches from
well under a millisecond to tens of seconds.  A job's wall time therefore
measures the neighbours as much as the job.  :class:`SpeedClock` times a call
together with a fixed pure-Python probe and reports the call's time scaled to
the speed at which the probe takes ``PROBE_REF_NS``:

* the probe runs right before and right after the call, which covers calls
  shorter than the speed changes;
* while the call runs, an interval timer runs the probe every ``INTERVAL_S``
  from a signal handler, which covers long calls; the time spent in the
  handler is taken out of the call's time.  A child process of the CLI
  workload does the same for itself (``childclock/sitecustomize.py``).

The probe is code of the same kind as regvar's inner loops (function calls,
float arithmetic, small objects, a heap and a dict) but none of regvar's, so
a change to regvar moves the scaled time and leaves the probe alone.  On a
2-vCPU shared host, the median wall time of a short regvar call over 2-second
stretches varied with a standard deviation of 0.24 in log; scaled, 0.02-0.04.
"""
from __future__ import annotations

import heapq
import math
import os
import signal
from pathlib import Path
from time import perf_counter_ns

PROBE_REF_NS = 33_000  # about the probe's time at full speed on a Xeon vCPU
INTERVAL_S = 0.001
CHILD_DIR = Path(__file__).resolve().parent / "childclock"
CHILD_OUT_ENV = "PERFBENCH_SPEED_OUT"
PREEMPTED = 4.0  # a probe this many times its median waited for the CPU


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _f(w: float) -> float:
    return math.exp(-0.5 * w * w) * math.cos(w)


def _probe_work(n: int = 30) -> float:
    heap, values = [], {}
    for i in range(n):
        a = i * 0.05
        b = a + 0.05
        cell = _Cell(a, b)
        s = (b - a) * (_f(a) + 4.0 * _f(0.5 * (a + b)) + _f(b)) / 6.0
        heapq.heappush(heap, (-abs(s), i, cell))
        values[i] = s
    total = 0.0
    while heap:
        total += values[heapq.heappop(heap)[1]]
    return total


def probe_ns() -> int:
    t0 = perf_counter_ns()
    _probe_work()
    return perf_counter_ns() - t0


class SpeedClock:
    """Times calls in reference nanoseconds (see the module docstring).

    Creating one takes over ``SIGALRM`` for the life of the process."""

    def __init__(self):
        self._samples: list[int] = []
        self._stolen = 0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        self._samples.append(probe_ns())
        self._stolen += perf_counter_ns() - t0

    def call(self, fn, *args):
        """Returns (result, exception, scaled_ns); the exception is not raised."""
        before = probe_ns()
        self._samples, self._stolen = [], 0
        result = error = None
        t0 = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the caller records it
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter_ns() - t0 - self._stolen
        return result, error, elapsed * PROBE_REF_NS / typical([before, probe_ns(), *self._samples])

    def process(self, run, env: dict, out: Path):
        """Times ``run(env)``, which starts one Python process and waits for
        it; the process samples its own speed (``childclock``) into ``out``.
        Returns (result, scaled_ns)."""
        env = dict(env, **{CHILD_OUT_ENV: str(out)})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(CHILD_DIR), env.get("PYTHONPATH"))))
        out.unlink(missing_ok=True)
        before = probe_ns()
        t0 = perf_counter_ns()
        result = run(env)
        elapsed = perf_counter_ns() - t0
        after = probe_ns()
        stolen, *samples = map(int, out.read_text(encoding="ascii").split())
        return result, (elapsed - stolen) * PROBE_REF_NS / typical([before, after, *samples])


def typical(probes: list[int]) -> float:
    """Mean probe time, leaving out probes that lost the CPU altogether (a
    wait for the scheduler, far longer than any slowdown).  The lower median
    is the yardstick, so that of two probes a preempted one is left out."""
    cutoff = PREEMPTED * sorted(probes)[(len(probes) - 1) // 2]
    kept = [t for t in probes if t <= cutoff]
    return sum(kept) / len(kept)
