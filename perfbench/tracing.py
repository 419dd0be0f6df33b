"""Span recorder that wraps regvar's public functions from outside the package.

Nothing under ``src/regvar`` is edited.  :meth:`Tracer.install` replaces, for
the duration of a traced pass:

* every public function a regvar module imports from another regvar module
  (plus the ``PopaPoint`` constructor), in the importing module's namespace,
  with a span named after the layer the function comes from;
* every public function of each module in its own namespace, so that job
  entry points and internal calls through module globals (for example
  ``asymptotics.estimate_limit``) are spanned too.

Each span records its name, start, end, parent span and job id in compact
arrays kept in memory; they are written out once, when the run ends.  Self
time of a layer is a span's duration minus the time covered by its child
spans.  ``<layer>.calls`` counts entries into a layer, i.e. spans whose
parent belongs to another layer (or to the benchmark itself).
"""
from __future__ import annotations

import importlib
import math
import types
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("popa", "quadrature", "haar", "kernels", "asymptotics", "subadd", "cli")
_SPAN_FIELDS = ("name", "start", "end", "parent", "job")


def _layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    return tail if head == "regvar" and tail in LAYERS else None


class Tracer:
    def __init__(self, span_cap: int = 400_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = {f: array("q") for f in _SPAN_FIELDS}
        self.spans_dropped = 0
        self.job = -1
        self._stack: list[list] = []  # [layer, child_ns, span_index]
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.reset_counters()

    # ------------------------------------------------------------ counters --

    def reset_counters(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.quad_results: list[tuple[int, complex, float]] = []  # (job, value, bound)

    def work_counters(self) -> dict:
        """Deterministic counts only (no times): these must repeat exactly."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update(self.counts)
        return dict(sorted(out.items()))

    # --------------------------------------------------------------- spans --

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, layer: str, name: str, observe=None):
        tracer = self
        nid = self._name_id(name)
        spans = self.spans
        s_name, s_start, s_end, s_parent, s_job = (spans[f] for f in _SPAN_FIELDS)

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                tracer.calls[layer] += 1
            idx = len(s_name)
            if idx < tracer.span_cap:
                s_name.append(nid)
                s_parent.append(parent[2] if parent is not None else -1)
                s_job.append(tracer.job)
                s_start.append(0)
                s_end.append(0)
            else:
                idx = -1
                tracer.spans_dropped += 1
            frame = [layer, 0, idx]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                tracer.self_ns[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if idx >= 0:
                    s_start[idx] = t0
                    s_end[idx] = t1
            if observe is not None:
                observe(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, key: str):
        """Wrap one of the benchmark's own callables for counting only."""
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # ------------------------------------------------------------- install --

    def install(self) -> None:
        if self._patches:
            return
        modules = {layer: importlib.import_module(f"regvar.{layer}") for layer in LAYERS}
        popa_point = modules["popa"].PopaPoint
        for layer, mod in modules.items():
            own = set(getattr(mod, "__all__", ()))
            for attr, value in list(vars(mod).items()):
                origin = None
                if value is popa_point and layer != "popa":
                    origin = "popa"
                elif isinstance(value, types.FunctionType):
                    src = _layer_of(value.__module__)
                    if src is not None and (src != layer or attr in own):
                        origin = src
                if origin is None:
                    continue
                observe = _OBSERVERS.get((value.__module__, value.__name__))
                wrapped = self._wrap(value, origin, f"{origin}.{value.__name__}", observe)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    # --------------------------------------------------------------- output --

    def span_count(self) -> int:
        return len(self.spans["name"])

    def save(self, path) -> None:
        """Write the spans as a compressed numpy archive (names in ``names``)."""
        import numpy as np

        arrays = {f: np.frombuffer(self.spans[f], dtype=np.int64) for f in _SPAN_FIELDS}
        np.savez_compressed(path, names=np.array(self.names), **arrays)


# ----------------------------------------------------------------- observers --
# Read the work counters that regvar reports in its return values.


def _observe_quadrature(tracer: Tracer, res) -> None:
    tracer.counts["quadrature.evals"] += res.evaluations
    tracer.counts["quadrature.nonconverged"] += not res.converged
    tracer.quad_results.append((tracer.job, res.value, res.error))


def _observe_estimate(tracer: Tracer, res) -> None:
    tracer.counts["asymptotics.grid_steps"] += res.steps_used
    tracer.counts["asymptotics.estimates"] += 1
    tracer.counts["asymptotics.converged"] += bool(res.converged)


def _observe_beck(tracer: Tracer, pts) -> None:
    tracer.counts["asymptotics.beck_cells"] += len(pts) - 1


def _observe_subadd(tracer: Tracer, rep) -> None:
    tracer.counts["subadd.pairs_checked"] += rep.pairs_checked
    tracer.counts["subadd.pairs_skipped"] += rep.pairs_skipped


_OBSERVERS = {
    ("regvar.quadrature", "adaptive_integral"): _observe_quadrature,
    ("regvar.asymptotics", "estimate_limit"): _observe_estimate,
    ("regvar.asymptotics", "beck_partition"): _observe_beck,
    ("regvar.subadd", "subadditivity_check"): _observe_subadd,
}


def layer_metrics(tracer: Tracer, self_ms: dict, quad_exact: dict) -> dict:
    """Per-layer metrics from one traced pass's counters.

    ``self_ms`` maps layer to self time in ms (a median over traced passes);
    ``quad_exact`` maps job id to the exact value of the single quadrature
    call that job makes, for the error-gauge metrics.
    """
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.calls[layer], "count")
        m[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
    qcalls = tracer.calls["quadrature"]
    evals = c["quadrature.evals"]
    m["quadrature.evals"] = (evals, "count")
    m["quadrature.evals_per_call"] = (evals / qcalls if qcalls else 0.0, "count")
    m["quadrature.us_per_eval"] = (1e3 * self_ms.get("quadrature", 0.0) / evals if evals else 0.0, "us")
    m["quadrature.nonconverged"] = (c["quadrature.nonconverged"], "count")
    ok, overstate = _gauge(tracer.quad_results, quad_exact)
    m["quadrature.bound_ok_frac"] = (ok, "ratio")
    m["quadrature.bound_overstate_log10"] = (overstate, "log10")
    m["haar.f_evals"] = (c["haar.f_evals"], "count")
    m["asymptotics.grid_steps"] = (c["asymptotics.grid_steps"], "count")
    m["asymptotics.f_evals"] = (c["asymptotics.f_evals"], "count")
    est = c["asymptotics.estimates"]
    m["asymptotics.converged_frac"] = (c["asymptotics.converged"] / est if est else 0.0, "ratio")
    m["asymptotics.beck_cells"] = (c["asymptotics.beck_cells"], "count")
    checked, skipped = c["subadd.pairs_checked"], c["subadd.pairs_skipped"]
    m["subadd.pairs_checked"] = (checked, "count")
    m["subadd.pairs_skipped"] = (skipped, "count")
    m["subadd.useful_pair_frac"] = (checked / (checked + skipped) if checked + skipped else 0.0, "ratio")
    return m


def _gauge(quad_results, quad_exact) -> tuple[float, float]:
    """Share of calls whose true error is within the reported bound, and the
    median log10 of bound over true error (true error floored at one ulp)."""
    per_job: dict[int, list] = {}
    for job, value, bound in quad_results:
        per_job.setdefault(job, []).append((value, bound))
    ok = 0
    ratios = []
    for job, calls in per_job.items():
        if job not in quad_exact or len(calls) != 1:
            continue
        (value, bound), exact = calls[0], quad_exact[job]
        err = abs(complex(value) - exact)
        ok += err <= bound
        floor = max(2.0**-52 * abs(exact), 1e-300)
        ratios.append(math.log10(max(bound, 1e-300) / max(err, floor)))
    if not ratios:
        return 0.0, 0.0
    ratios.sort()
    mid = len(ratios) // 2
    median = ratios[mid] if len(ratios) % 2 else 0.5 * (ratios[mid - 1] + ratios[mid])
    return ok / len(ratios), median
