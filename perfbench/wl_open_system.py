"""Workload ``open_system``: a seeded scenario grid of open-system points.

Each point is one closed-loop request, run in process through the public
API:

1. draw a variable-demand trace with ``WorkloadSpec.generate`` (poisson,
   uniform or constant arrivals, demand spread, long-task bursts, 2-3
   stages, 8k-16k items);
2. ``repro.runner.tasks.open_system_point`` on the same spec and seed:
   ``replay_chain`` plus the per-stage eq. (7) bounds;
3. the compositional Fig. 5 chain: ``StreamingChain(..., max_segments=...)``
   ``analyze`` and ``end_to_end_delay`` on that trace, one TDMA service
   (``repro.curves.service.tdma``) per stage with slot and cycle drawn
   continuously and the bandwidth set for a drawn utilization.

Output checks: every per-stage eq. (7) bound is at least the replayed
backlog, and every chain analysis returns a finite delay.  A point that
raises is a failed request; the generic min-plus defect (see README.md)
makes some TDMA pairs raise, and the draws are not narrowed around it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from bench_util import (
    Outcome,
    SpeedProbe,
    median_fresh_import,
    put_times,
    raise_unless_program,
    run_in_process_traced,
    self_peak_rss_mib,
    stratified,
)

#: Nominal cost of one point on a 2-core box; ``--seconds`` buys this many
#: points, but never fewer than :data:`MIN_POINTS` (>= 10 beyond p90).
POINT_NOMINAL_S = 0.3
MIN_POINTS = 110
MODELS = ("poisson", "uniform", "constant")
#: TDMA curves are exact for this many cycles, then a linear tail.
TDMA_HORIZON_CYCLES = 4
#: Window grid of the chain's curves (the runner's point uses its own).
CHAIN_DENSE_LIMIT = 256
CHAIN_GROWTH = 1.1
MAX_SEGMENTS = (32, 64, 128)

SETUP_MODULES = ["repro.simulation", "repro.runner.tasks", "repro.analysis.chain", "repro.experiments.common"]


def draw_points(seed: int, count: int) -> list[dict]:
    """The scenario grid: arrival model and stage count cycle through the
    grid; every other parameter is a stratified draw from the seed."""
    rng = np.random.default_rng(seed)
    items = stratified(rng, count, 8_000, 16_001)
    interarrival = stratified(rng, count, 0.5e-3, 2e-3, log=True)
    demand_mean = stratified(rng, count, 0.5e5, 2e5, log=True)
    spread = stratified(rng, count, 0.0, 0.9)
    long_fraction = stratified(rng, count, 0.0, 0.1)
    long_factor = stratified(rng, count, 2.0, 10.0)
    stage_scales = stratified(rng, count, 0.5, 2.0, columns=3)
    cycles = stratified(rng, count, 2e-4, 5e-3, columns=3, log=True)
    slot_shares = stratified(rng, count, 0.1, 0.9, columns=3)
    utilizations = stratified(rng, count, 0.3, 0.8, columns=3)
    budgets = rng.permutation(np.resize(MAX_SEGMENTS, count))
    seeds = rng.integers(0, 2**31, count)
    points = []
    for i in range(count):
        stages = 2 + (i // len(MODELS)) % 2
        points.append({
            "spec": {
                "model": MODELS[i % len(MODELS)],
                "items": int(items[i]),
                "mean_interarrival": float(interarrival[i]),
                "demand_mean": float(demand_mean[i]),
                "demand_spread": float(spread[i]),
                "long_task_fraction": float(long_fraction[i]),
                "long_task_factor": float(long_factor[i]),
                "stage_scales": tuple(float(v) for v in stage_scales[i, :stages]),
            },
            "seed": int(seeds[i]),
            # per stage: (slot, cycle, utilization of the TDMA share)
            "tdma": [
                (float(cycles[i, k] * slot_shares[i, k]), float(cycles[i, k]), float(utilizations[i, k]))
                for k in range(stages)
            ],
            "max_segments": int(budgets[i]),
        })
    return points


def run_point(point: dict, outcome: Outcome) -> None:
    """One request: trace, runner point, chain analysis, output checks."""
    from repro.analysis.chain import ProcessingNode, StreamingChain
    from repro.core.workload import WorkloadCurve
    from repro.curves.arrival import from_trace_upper
    from repro.curves.service import tdma
    from repro.runner.tasks import open_system_point
    from repro.simulation import WorkloadSpec
    from repro.util.staircase import make_k_grid

    spec = WorkloadSpec(**point["spec"])
    trace = spec.generate(point["seed"])
    result = open_system_point(seed=point["seed"], **point["spec"])
    for stage in result.data["stages"]:
        bound = stage["bound_events"]
        if bound is not None and bound < stage["observed_backlog"]:
            outcome.fail("eq. (7) bound below replayed backlog", wrong=True)
            return
    grid = make_k_grid(trace.items, dense_limit=CHAIN_DENSE_LIMIT, growth=CHAIN_GROWTH)
    alpha = from_trace_upper(trace.arrivals, n_values=grid)
    nodes = []
    for k, (slot, cycle, utilization) in enumerate(point["tdma"]):
        gamma_u = WorkloadCurve.from_demand_array(trace.stage_demands(k), "upper", k_values=grid)
        bandwidth = alpha.final_slope * gamma_u.long_run_rate * cycle / (utilization * slot)
        service = tdma(slot, cycle, bandwidth, horizon_cycles=TDMA_HORIZON_CYCLES)
        nodes.append(ProcessingNode(f"PE{k}", service, gamma_u))
    chain = StreamingChain(nodes, max_segments=point["max_segments"])
    report = chain.analyze(alpha)
    delay = chain.end_to_end_delay(alpha)
    if not all(math.isfinite(n.delay) for n in report.nodes) or not math.isfinite(delay):
        outcome.fail("chain delay not finite", wrong=True)


def run(seed: int, seconds: int, outcome: Outcome, *, skip_setup: bool) -> float:
    """One run of the grid; returns its measured wall time."""
    probe = SpeedProbe()
    if not skip_setup:
        outcome.put("setup_s", median_fresh_import(SETUP_MODULES, probe), "s")
    points = draw_points(seed, max(MIN_POINTS, round(seconds / POINT_NOMINAL_S)))
    latencies, ref_latencies = [], []
    items = 0
    for point in points:
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            run_point(point, outcome)
        except Exception as exc:  # noqa: BLE001 — a failed request, counted
            raise_unless_program(exc)
            outcome.fail(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        ref_latencies.append(latencies[-1] * probe.factor())
        items += point["spec"]["items"] * len(point["spec"]["stage_scales"])
    outcome.put("peak_rss_mb", self_peak_rss_mib(), "MiB")
    put_times(outcome, latencies, ref_latencies, items)
    return sum(latencies)


def run_traced(seed: int, seconds: int, outcome: Outcome):
    return run_in_process_traced("open_system", run, seed, seconds, outcome)
