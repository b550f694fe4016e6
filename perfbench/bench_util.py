"""Shared helpers of the benchmark: outcomes, percentiles, memory, set-up."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Checkout root (the benchmark is run from there) and the program's source.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of runs: sockets, span dumps, per-process layer stats.
OUT = Path(".perfbench-out")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Time of one :class:`SpeedProbe` loop on the 2-core box the benchmark was
#: sized on: the reference speed that every reported time is scaled to.
PROBE_REF_S = 0.02
#: Period of :class:`SpeedSampler` samples, and the loop time of a sample
#: taken alongside the workload on that box (the two share the CPU, so the
#: loop runs slower than between requests).
SAMPLE_PERIOD_S = 1.0
SAMPLE_REF_S = 0.045
#: Budget of the untraced child run of a traced run (the whole run must
#: end within 180 s).
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


@dataclass
class Outcome:
    """What one workload run measured.

    ``failed`` counts operations that raised or failed an output check;
    ``correct`` is False only when an output check found a wrong result.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    #: measured (not speed-corrected) values, printed for people only
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        """Count one failed operation under *reason*."""
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if wrong:
            self.correct = False

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def raise_unless_program(exc: BaseException) -> None:
    """Re-raise *exc* unless it came out of the program (its traceback runs
    through ``src/``): an exception of the benchmark's own code is a bug
    here, not a failed operation."""
    tb = exc.__traceback__
    while tb is not None:
        if Path(tb.tb_frame.f_code.co_filename).resolve().is_relative_to(SRC):
            return
        tb = tb.tb_next
    raise exc


def env_with_src() -> dict[str, str]:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SpeedProbe:
    """Machine-speed probe for a box whose speed drifts under other tenants.

    Times a fixed loop of numpy sorts and interpreter arithmetic (the
    program's own mix) between segments of work.  :meth:`factor` times it
    again and returns ``PROBE_REF_S`` over the mean of that loop time and
    the previous one: multiplied by the wall time of the segment in between,
    it gives the segment's time at the reference speed.  The probe's own
    time is outside every segment.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(40_000)
        self._last = self._loop()

    def _loop(self) -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            np.sort(self._data)
            sum(i * 0.5 for i in range(3000))
        return time.perf_counter() - t0

    def factor(self) -> float:
        now = self._loop()
        factor = PROBE_REF_S / ((self._last + now) / 2.0)
        self._last = now
        return factor


class SpeedSampler:
    """The :class:`SpeedProbe` loop, timed every :data:`SAMPLE_PERIOD_S` by a
    child process while the workload runs.

    For a workload made of calls too long for in-line probes (``paper``'s
    context build is one 28 s call): :meth:`factor` gives the reference-speed
    factor of a ``time.monotonic()`` interval from the samples taken inside
    it.  The sampler is busy about one twentieth of the time.
    """

    def __init__(self, path: Path):
        self._path = path
        self._proc = subprocess.Popen([sys.executable, __file__, "sample", str(path)])

    def close(self) -> list[tuple[float, float]]:
        """Stop the sampler, wait for it, and return its ``(time, loop)`` samples."""
        self._proc.terminate()
        self._proc.wait()
        with open(self._path, encoding="ascii") as samples:
            # the last line may be cut short by the termination
            lines = samples.read().split("\n")[:-1]
        return [tuple(map(float, line.split())) for line in lines]

    @staticmethod
    def factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
        """Reference-speed factor of ``[start, end]``: from the samples inside
        it, or the one nearest to its middle when the interval is short."""
        inside = [loop for at, loop in samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2.0
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return SAMPLE_REF_S / statistics.fmean(inside)


def _sample_forever(path: str) -> None:
    parent = os.getppid()
    probe = SpeedProbe()
    with open(path, "w", encoding="ascii") as out:
        # also ends if the benchmark dies without stopping the sampler
        while os.getppid() == parent:
            start = time.monotonic()
            loop = probe._loop()
            out.write(f"{start + loop / 2.0} {loop}\n")
            out.flush()
            time.sleep(SAMPLE_PERIOD_S)


def median_fresh_import(modules: list[str], probe: SpeedProbe) -> float:
    """Median time, at reference speed, of a fresh interpreter importing
    *modules*."""
    code = "; ".join(f"import {m}" for m in modules)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env_with_src(), check=True, timeout=120)
        times.append((time.perf_counter() - t0) * probe.factor())
    return statistics.median(times)


def put_times(outcome: Outcome, latencies: list[float], ref_latencies: list[float], items: float) -> None:
    """The end-to-end time metrics from per-request latencies, measured and
    at reference speed.  One request (``paper``) is its own percentiles."""
    wall_ref = sum(ref_latencies)
    outcome.put("wall_ref_s", wall_ref, "s")
    outcome.put("items_per_ref_s", items / wall_ref, "1/s")
    outcome.put("req_per_ref_s", len(ref_latencies) / wall_ref, "1/s")
    if len(ref_latencies) == 1:
        median = p90 = ref_latencies[0]
    else:
        median, p90 = p50_p90(ref_latencies)
    outcome.put("req_p50_ref_ms", median * 1e3, "ms")
    outcome.put("req_p90_ref_ms", p90 * 1e3, "ms")
    wall = sum(latencies)
    outcome.raw["wall_s"] = (wall, "s")
    outcome.raw["speed_factor"] = (wall_ref / wall, "ratio")


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float, *, columns: int = 1, log: bool = False) -> np.ndarray:
    """Latin-hypercube draws on ``[lo, hi)``: in each column, each of the
    *n* equal-width strata holds exactly one draw, in random order.  Every
    seed then covers the range alike and only the pairing of parameters
    varies, which keeps run-to-run spread down without narrowing the range."""
    strata = np.stack([rng.permutation(n) for _ in range(columns)], axis=1)
    u = (strata + rng.random((n, columns))) / n
    if log:
        values = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        values = lo + u * (hi - lo)
    return values[:, 0] if columns == 1 else values


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile; the latter only with >= 10 samples
    beyond it (raises :class:`BenchError` otherwise)."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    beyond = sum(v > p90 for v in values)
    if beyond < 10:
        raise BenchError(f"only {beyond} of {len(values)} samples lie beyond p90")
    return statistics.median(values), p90


def p50(values: list[float]) -> float:
    """Median, 0.0 for no samples (a layer the workload never touched)."""
    return statistics.median(values) if values else 0.0


def self_peak_rss_mib() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text(encoding="ascii").split()
        children.extend(int(c) for c in text)
    return children


def untraced_wall_ref_s(workload: str, seed: int, seconds: int) -> float:
    """``wall_ref_s`` of an untraced run of the same workload in a child
    process (its set-up measurement skipped) — the base of
    ``trace.overhead_frac``.  On any exit path the child is asked to stop
    with SIGTERM (so it stops its own daemon) and waited for."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--skip-setup",
    ]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if child.returncode != 0:
        raise BenchError(f"untraced child run failed:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    return float(result["metrics"]["wall_ref_s"]["value"])


#: Per-layer metrics only the ``service`` workload measures (0 elsewhere).
SERVICE_LAYER_METRICS = (
    ("service.queue_wait_ms.p50", "ms"),
    ("service.run_ms.p50", "ms"),
    ("service.overhead_ms.p50", "ms"),
    ("service.curve.p50_ms", "ms"),
    ("service.backlog.p50_ms", "ms"),
    ("service.frequency.p50_ms", "ms"),
    ("service.accepted", "count"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("service.pool_fallbacks", "count"),
)


def layer_metrics(outcome: Outcome, snapshot: dict[str, Any], wall_s: float) -> None:
    """Per-layer metrics from a merged tracer snapshot (see
    :func:`layers.merge_snapshots`); layers the run never entered read 0."""
    layers = snapshot["layers"]
    counts = snapshot["counts"]

    def layer(name: str) -> dict[str, Any]:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "errors": 0, "work": {}})

    for name, work in (
        ("mpeg.generate", "macroblocks"),
        ("workload.extract", "events"),
        ("arrival.extract", "events"),
        ("curve.extremum", "segments_out"),
        ("sim.replay", "items"),
    ):
        stats = layer(name)
        outcome.put(f"{name}.calls", stats["calls"], "count")
        outcome.put(f"{name}.self_s", stats["self_s"], "s")
        outcome.put(f"{name}.{work}", stats["work"].get(work, 0.0), "count")
    outcome.put("workload.eval.calls", counts.get("workload.eval", 0), "count")
    outcome.put("curve.inverse.calls", counts.get("curve.inverse", 0), "count")
    outcome.put("envelope.self_s", layer("envelope")["self_s"], "s")
    minplus = layer("minplus")
    outcome.put("minplus.calls", minplus["calls"], "count")
    outcome.put("minplus.self_s", minplus["self_s"], "s")
    outcome.put("minplus.errors", minplus["errors"], "count")
    compact = layer("compact")
    outcome.put("compact.calls", compact["calls"], "count")
    outcome.put("compact.self_s", compact["self_s"], "s")
    for part in ("frequency", "backlog", "delay", "chain"):
        outcome.put(f"analysis.{part}.self_s", layer(f"analysis.{part}")["self_s"], "s")
    scheduling = layer("scheduling")
    outcome.put("scheduling.calls", scheduling["calls"], "count")
    outcome.put("scheduling.self_s", scheduling["self_s"], "s")
    outcome.put("sim.generate.self_s", layer("sim.generate")["self_s"], "s")
    from repro.experiments import ALL_EXPERIMENTS

    for exp_id in ALL_EXPERIMENTS:
        outcome.put(f"experiment.{exp_id}.self_s", layer(f"experiment.{exp_id}")["self_s"], "s")
    outcome.put("obs.manifest.self_s", layer("obs.manifest")["self_s"], "s")
    cache = snapshot.get("cache", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    outcome.put("cache.hits", cache["hits"], "count")
    outcome.put("cache.misses", cache["misses"], "count")
    outcome.put("cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0, "ratio")
    outcome.put("minplus.generic", snapshot.get("minplus_generic", 0), "count")
    service = snapshot.get("service", {})
    for name, unit in SERVICE_LAYER_METRICS:
        outcome.put(name, service.get(name, 0.0), unit)
    attributed = sum(s["self_s"] for s in layers.values())
    outcome.put("unattributed_frac", 1.0 - attributed / wall_s, "ratio")


def program_counters() -> dict[str, Any]:
    """Kernel-cache hits/misses and generic min-plus dispatches of this
    process, read through the program's public observability API."""
    import repro.perf
    from repro.obs import registry

    stats = repro.perf.cache_stats()
    generic = 0
    for series in registry.snapshot()["counters"]:
        if series["name"] == "minplus.dispatch" and series["labels"].get("regime") == "generic":
            generic += series["value"]
    return {"cache": {"hits": stats["hits"], "misses": stats["misses"]}, "minplus_generic": generic}


def run_in_process_traced(workload: str, run, seed: int, seconds: int, outcome: Outcome):
    """Run an in-process workload with every layer wrapped; returns its
    wall time and the merged layer snapshot.  Spans go to ``OUT``."""
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    wall = run(seed, seconds, outcome, skip_setup=True)
    tracer.dump_spans(OUT / f"{workload}-seed{seed}.spans.jsonl")
    return wall, {**tracer.snapshot(), **program_counters()}


def emit(workload: str, outcome: Outcome) -> None:
    """Print one line per metric and the failure share, then the result
    object as the last line of standard output."""
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"# {workload}: attempted {outcome.attempted}, failed {outcome.failed} "
          f"({share:.1%}), correct {outcome.correct}")
    for reason, n in sorted(outcome.failures.items()):
        print(f"#   failure {reason}: {n}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in outcome.raw.items():
        print(f"# measured {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    sys.stdout.flush()


if __name__ == "__main__" and sys.argv[1:2] == ["sample"]:
    _sample_forever(sys.argv[2])
