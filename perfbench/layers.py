"""Per-layer tracing for the benchmark's traced runs.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced.  :class:`LayerTracer` replaces the public entry
points of each layer (see :data:`LAYERS`) with wrappers that time the
call, count it and the work it did, and record a span.  Self time is
nesting-aware: a wrapped call's duration minus the durations of the
wrapped calls made inside it, so ``envelope_upper -> maximum`` is not
counted twice.  ``calls`` and ``errors`` count only the outermost call of
a layer (a budgeted ``convolve`` that calls ``convolve`` again is one
call).  Spans are kept in memory and written out once, by :meth:`dump_spans`.

Install the wrappers before ``repro.experiments`` is imported: experiment
modules bind entry points with ``from ... import``.  :meth:`install` also
rebinds every alias already held by an imported ``repro`` module, so the
import order of the program's own packages does not matter.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def _size(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return int(getattr(value, "size", 0))


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _macroblocks(args, kwargs, result) -> float:
    return float(result.pe2_cycles.size)


def _demand_events(args, kwargs, result) -> float:
    # classmethods are wrapped unbound: args[0] is the class
    return float(_size(_arg(args, kwargs, 1, "demands")))


def _trace_events(args, kwargs, result) -> float:
    return float(_size(_arg(args, kwargs, 1, "trace")))


def _stream_events(args, kwargs, result) -> float:
    # the stream is consumed by the call: take its declared length, else
    # the extracted curve's horizon
    total = kwargs.get("total")
    return float(total if total is not None else getattr(result, "upper", result).horizon)


def _timestamps(args, kwargs, result) -> float:
    return float(_size(_arg(args, kwargs, 0, "timestamps")))


def _segments_out(args, kwargs, result) -> float:
    return float(result.n_segments)


def _replay_items(args, kwargs, result) -> float:
    return float(_size(_arg(args, kwargs, 0, "arrivals")))


#: ``(span name, module, attribute path, work unit, work function)``.  The
#: work function maps ``(args, kwargs, result)`` of an outermost call to
#: the amount of work it did, summed into ``<span name>.<work unit>``.
LAYERS: tuple[tuple[str, str, str, str | None, Callable | None], ...] = (
    ("mpeg.generate", "repro.mpeg.bitstream", "SyntheticClip.generate", "macroblocks", _macroblocks),
    ("workload.extract", "repro.core.workload", "WorkloadCurve.from_demand_array", "events", _demand_events),
    ("workload.extract", "repro.core.workload", "WorkloadCurve.from_demand_stream", "events", _stream_events),
    ("workload.extract", "repro.core.workload", "WorkloadCurve.from_trace", "events", _trace_events),
    ("workload.extract", "repro.core.workload", "WorkloadCurvePair.from_demand_array", "events", _demand_events),
    ("workload.extract", "repro.core.workload", "WorkloadCurvePair.from_demand_stream", "events", _stream_events),
    ("workload.extract", "repro.core.workload", "WorkloadCurvePair.from_trace", "events", _trace_events),
    ("arrival.extract", "repro.curves.arrival", "from_trace_upper", "events", _timestamps),
    ("arrival.extract", "repro.curves.arrival", "from_trace_lower", "events", _timestamps),
    ("curve.extremum", "repro.curves.curve", "PiecewiseLinearCurve.maximum", "segments_out", _segments_out),
    ("curve.extremum", "repro.curves.curve", "PiecewiseLinearCurve.minimum", "segments_out", _segments_out),
    ("envelope", "repro.core.operations", "envelope_upper", None, None),
    ("envelope", "repro.core.operations", "envelope_lower", None, None),
    ("minplus", "repro.curves.minplus", "convolve", None, None),
    ("minplus", "repro.curves.minplus", "deconvolve", None, None),
    ("minplus", "repro.perf.batch", "convolve_many", None, None),
    ("minplus", "repro.perf.batch", "deconvolve_many", None, None),
    ("minplus", "repro.perf.batch", "convolve_reduce", None, None),
    ("compact", "repro.curves.compact", "compact_upper", None, None),
    ("compact", "repro.curves.compact", "compact_lower", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "minimum_frequency_curves", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "minimum_frequency_wcet", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "minimum_frequency_sweep", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "verify_service_constraint", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bound_curves", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bound_wcet", None, None),
    ("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bisect", None, None),
    ("analysis.backlog", "repro.analysis.frequency", "FrequencySweepEvaluator.backlog_events", None, None),
    ("analysis.backlog", "repro.analysis.backlog", "backlog_bound_events", None, None),
    ("analysis.backlog", "repro.analysis.backlog", "backlog_bound_events_many", None, None),
    ("analysis.backlog", "repro.analysis.backlog", "backlog_bound_cycles_wcet", None, None),
    ("analysis.backlog", "repro.analysis.backlog", "backlog_bound_cycles_curves", None, None),
    ("analysis.backlog", "repro.curves.bounds", "backlog_bound", None, None),
    ("analysis.delay", "repro.curves.bounds", "delay_bound", None, None),
    ("analysis.chain", "repro.analysis.chain", "StreamingChain.analyze", None, None),
    ("analysis.chain", "repro.analysis.chain", "StreamingChain.end_to_end_delay", None, None),
    ("scheduling", "repro.scheduling.rms", "rms_test_curves", None, None),
    ("scheduling", "repro.scheduling.rms", "rms_test_classic", None, None),
    ("scheduling", "repro.scheduling.generator", "random_variable_task_set", None, None),
    ("sim.generate", "repro.simulation.workloads", "WorkloadSpec.generate", None, None),
    ("sim.replay", "repro.simulation.chain", "replay_chain", "items", _replay_items),
    ("sim.replay", "repro.simulation.pipeline", "replay_pipeline", "items", _replay_items),
    ("obs.manifest", "repro.obs.manifest", "build_manifest", None, None),
)

#: Hot scalar entry points that are counted but not timed: a span per call
#: would cost more than the call (``WorkloadCurve.__call__`` runs ~87k
#: times in the paper's A5).
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("workload.eval", "repro.core.workload", "WorkloadCurve.__call__"),
    ("curve.inverse", "repro.curves.curve", "PiecewiseLinearCurve.inverse"),
)

#: Spans beyond this many are counted in the statistics but not kept.
MAX_SPANS = 200_000


@dataclass
class _LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    work: dict[str, float] = field(default_factory=dict)


class LayerTracer:
    """Wrappers plus the statistics and spans they record (one per process)."""

    def __init__(self) -> None:
        self.stats: dict[str, _LayerStats] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._originals: dict[int, Callable] = {}  # id(original) -> wrapper

    # -- recording ------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.stats.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack.clear()

    def _timed(self, name: str, fn: Callable, unit: str | None, work: Callable | None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = _LayerStats()
                stats.self_s += duration - frame[1]
                if outer:
                    stats.calls += 1
                    stats.errors += not ok
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((name, t0, t1, len(stack)))
            if outer and work is not None:
                stats.work[unit] = stats.work.get(unit, 0.0) + work(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------
    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
            self._originals[id(raw.__func__)] = wrapped.__func__
        else:
            wrapped = make(raw)
            self._originals[id(raw)] = wrapped
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` and :data:`COUNTED`,
        rebind the aliases bound while their modules were imported, then
        import ``repro.experiments`` (whose ``from ... import`` bindings now
        pick up the wrappers) and wrap each experiment.  Once per process."""
        for name, module, path, unit, work in LAYERS:
            self._patch(module, path, lambda fn, n=name, u=unit, w=work: self._timed(n, fn, u, w))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, n=name: self._counted(n, fn))
        self._rebind_aliases()
        experiments = importlib.import_module("repro.experiments")
        for exp_id, run in list(experiments.ALL_EXPERIMENTS.items()):
            experiments.ALL_EXPERIMENTS[exp_id] = self._timed(f"experiment.{exp_id}", run, None, None)

    def _rebind_aliases(self) -> None:
        """Point every module-level alias of a wrapped function (``from x
        import f`` bindings, package re-exports) at its wrapper."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    # -- reporting ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able statistics: ``{"layers": {...}, "counts": {...}}``."""
        return {
            "layers": {
                name: {"calls": s.calls, "self_s": s.self_s, "errors": s.errors, "work": dict(s.work)}
                for name, s in self.stats.items()
            },
            "counts": dict(self.counts),
        }

    def dump_spans(self, path) -> None:
        """Write the kept spans as JSON lines ``[name, start, end, depth]``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def merge_snapshots(snapshots: list[dict[str, Any]], minus: list[dict[str, Any]] = ()) -> dict[str, Any]:
    """Sum several per-process snapshots (:meth:`LayerTracer.snapshot`,
    optionally with ``cache``, ``minplus_generic`` and ``counters`` entries),
    less the snapshots in *minus* (statistics recorded before a baseline)."""
    layers: dict[str, dict[str, Any]] = {}
    counts: dict[str, float] = {}
    cache = {"hits": 0, "misses": 0}
    counters: dict[str, float] = {}
    generic = 0
    signed = [(snap, 1) for snap in snapshots] + [(snap, -1) for snap in minus]
    for snap, sign in signed:
        for name, s in snap["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0, "work": {}})
            for key in ("calls", "self_s", "errors"):
                into[key] += sign * s[key]
            for unit, amount in s["work"].items():
                into["work"][unit] = into["work"].get(unit, 0.0) + sign * amount
        for table, into in ((snap["counts"], counts), (snap.get("counters", {}), counters)):
            for name, n in table.items():
                into[name] = into.get(name, 0) + sign * n
        for key in cache:
            cache[key] += sign * snap.get("cache", {}).get(key, 0)
        generic += sign * snap.get("minplus_generic", 0)
    return {"layers": layers, "counts": counts, "cache": cache, "minplus_generic": generic, "counters": counters}
