"""Speed sampling inside the CLI processes of the ``cli-session`` workload.

The benchmark puts this directory first on a child's ``PYTHONPATH`` and names
a file in ``PERFBENCH_SPEED_OUT``; Python then runs this module at start-up.
It runs the probe of ``speed.py`` every ``speed.INTERVAL_S`` from a signal
handler and, at exit, writes the time the handler took and the probe times,
in nanoseconds, to that file.
"""
import atexit
import os
import signal
import sys
from time import perf_counter_ns

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import speed  # noqa: E402

del sys.path[0]

_OUT = os.environ.get(speed.CHILD_OUT_ENV)
if _OUT:
    _samples: list[int] = []
    _stolen = [0]

    def _on_alarm(signum, frame) -> None:
        t0 = perf_counter_ns()
        _samples.append(speed.probe_ns())
        _stolen[0] += perf_counter_ns() - t0

    def _report() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        with open(_OUT, "w", encoding="ascii") as fh:
            fh.write(" ".join(map(str, [_stolen[0], *_samples])))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, speed.INTERVAL_S, speed.INTERVAL_S)
    atexit.register(_report)
