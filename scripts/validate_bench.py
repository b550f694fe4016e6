#!/usr/bin/env python
"""Validate benchmark reports (``benchmarks/BENCH_*.json``).

Every gate that merges numbers into a ``BENCH_*.json`` report promises a
machine-readable shape: a non-empty JSON object whose values are section
objects, whose leaves are finite numbers, strings, or booleans.  CI runs
this after the benchmark gates so a half-written or NaN-poisoned report
fails loudly instead of silently shipping garbage headline numbers.

``BENCH_compact.json`` additionally carries the acceptance numbers for
the compaction PR, so its sections are checked key-by-key (chain speedup
present and >= 1, eval counts positive, relative gap finite).
``BENCH_minplus.json`` carries the generic-kernel gates: the kernel must
beat the per-cell oracle of ``repro.reference`` by its gate factor on a
general pair and on a ``convolve_many`` batch.  ``BENCH_sim.json`` carries
the simulation-engine gates: the N-stage chain replay must cover at least
a million stage-events and beat the event-driven oracle by its gate
factor, and the kernel's sorted bulk loader must beat per-event pushes.

Usage::

    python scripts/validate_bench.py [--bench-dir benchmarks]

Uses only the standard library.  Exits non-zero on the first violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Required keys per section of BENCH_compact.json — the gates in
#: benchmarks/test_bench_compact.py write exactly these.
COMPACT_SECTIONS = {
    "budgeted_chain": {
        "stages",
        "segments_per_stage",
        "budget",
        "exact_segments",
        "budgeted_segments",
        "exact_seconds",
        "budgeted_seconds",
        "speedup",
    },
    "bisection_vs_dense": {
        "buffer_size",
        "bisect_evals",
        "dense_evals",
        "eval_ratio",
        "bisect_frequency",
        "dense_frequency",
        "rel_gap",
    },
}


#: Required keys per kernel-gate section of BENCH_minplus.json — the
#: gates in benchmarks/test_bench_minplus.py write exactly these.
MINPLUS_SECTIONS = {
    "general_pair": {
        "segments",
        "oracle_seconds",
        "kernel_seconds",
        "speedup",
    },
    "batched_convolve_many": {
        "batch",
        "segments",
        "loop_seconds",
        "batch_seconds",
        "speedup",
    },
}

#: Speedup floors of the kernel gates (mirroring the in-test asserts).
MINPLUS_SPEEDUP_FLOORS = {"general_pair": 5.0, "batched_convolve_many": 2.5}


#: Required keys per gate section of BENCH_service.json — the gates in
#: benchmarks/test_bench_service.py write exactly these.  The speedup
#: floors mirror the in-test asserts so a hand-edited report cannot
#: understate a regression.
SERVICE_SECTIONS = {
    "warm_evaluator": {
        "cold_builds",
        "warm_queries",
        "cold_seconds_per_query",
        "warm_seconds_per_query",
        "speedup",
        "pool_hits",
        "pool_misses",
    },
    "sharded_cache": {
        "threads",
        "puts_per_thread",
        "payload_bytes",
        "shards",
        "flat_puts_per_second",
        "sharded_puts_per_second",
        "flat_evictions",
        "sharded_evictions",
        "speedup",
    },
    "admission_control": {
        "storm_requests",
        "storm_accepted",
        "storm_rejected",
        "required_capacity",
        "configured_capacity",
        "trickle_requests",
        "trickle_accepted",
    },
}

#: Speedup floors of the service gates (same numbers the tests assert).
SERVICE_SPEEDUP_FLOORS = {"warm_evaluator": 3.0, "sharded_cache": 2.0}


#: Required keys per gate section of BENCH_sim.json — the gates in
#: benchmarks/test_bench_sim.py write exactly these.
SIM_SECTIONS = {
    "chain_replay": {
        "stages",
        "items",
        "stage_events",
        "event_driven_seconds",
        "replay_seconds",
        "speedup",
        "max_backlogs",
    },
    "schedule_sorted": {
        "events",
        "per_event_seconds",
        "bulk_seconds",
        "speedup",
    },
}

#: Speedup floors of the simulation gates (same numbers the tests assert).
SIM_SPEEDUP_FLOORS = {"chain_replay": 20.0, "schedule_sorted": 1.5}


def fail(message: str) -> None:
    sys.exit(f"validate_bench: {message}")


def _reject_constant(token: str) -> None:
    # json.loads would otherwise happily parse NaN/Infinity literals
    raise ValueError(f"non-finite constant {token!r}")


def _check_leaf(path: Path, where: str, value: object) -> None:
    if isinstance(value, bool) or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            fail(f"{path}: {where}: non-finite number {value!r}")
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_leaf(path, f"{where}[{i}]", item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _check_leaf(path, f"{where}.{key}", item)
        return
    fail(f"{path}: {where}: unsupported leaf type {type(value).__name__}")


def validate_report(path: Path) -> int:
    try:
        report = json.loads(
            path.read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except (json.JSONDecodeError, ValueError) as exc:
        fail(f"{path}: invalid JSON: {exc}")
    if not isinstance(report, dict) or not report:
        fail(f"{path}: report must be a non-empty JSON object")
    for section, payload in report.items():
        if not isinstance(payload, dict) or not payload:
            fail(f"{path}: section {section!r} must be a non-empty object")
        _check_leaf(path, section, payload)
    return len(report)


def validate_compact(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in COMPACT_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing acceptance section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    chain = report["budgeted_chain"]
    if chain["speedup"] < 1.0:
        fail(f"{path}: budgeted chain slower than exact ({chain['speedup']:.2f}x)")
    if chain["budgeted_segments"] > chain["budget"]:
        fail(f"{path}: budgeted chain blew its segment budget")
    bis = report["bisection_vs_dense"]
    if bis["bisect_evals"] <= 0 or bis["dense_evals"] <= 0:
        fail(f"{path}: bisection_vs_dense: eval counts must be positive")
    if bis["rel_gap"] < 0.0:
        fail(f"{path}: bisection_vs_dense: negative relative gap")


def validate_minplus(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in MINPLUS_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing kernel-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
        floor = MINPLUS_SPEEDUP_FLOORS[section]
        if payload["speedup"] < floor:
            fail(
                f"{path}: {section}: speedup {payload['speedup']:.2f}x over "
                f"the per-cell oracle below the {floor}x gate"
            )


def validate_service(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in SERVICE_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing service-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    for section, floor in SERVICE_SPEEDUP_FLOORS.items():
        speedup = report[section]["speedup"]
        if speedup < floor:
            fail(
                f"{path}: {section}: speedup {speedup:.2f}x below the "
                f"{floor}x gate"
            )
    admission = report["admission_control"]
    if admission["storm_rejected"] <= 0:
        fail(f"{path}: admission_control: overload storm shed nothing")
    if admission["required_capacity"] <= admission["configured_capacity"]:
        fail(
            f"{path}: admission_control: storm did not exceed the "
            f"configured capacity — not an overload"
        )
    if admission["trickle_accepted"] != admission["trickle_requests"]:
        fail(f"{path}: admission_control: feasible trickle was shed")


def validate_sim(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in SIM_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing simulation-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    for section, floor in SIM_SPEEDUP_FLOORS.items():
        speedup = report[section]["speedup"]
        if speedup < floor:
            fail(
                f"{path}: {section}: speedup {speedup:.2f}x below the "
                f"{floor}x gate"
            )
    chain = report["chain_replay"]
    if chain["stage_events"] != chain["stages"] * chain["items"]:
        fail(f"{path}: chain_replay: inconsistent stage-event count")
    if chain["stage_events"] < 1_000_000:
        fail(
            f"{path}: chain_replay: gate must cover at least one million "
            f"stage-events (got {chain['stage_events']})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("benchmarks"),
        help="directory holding BENCH_*.json reports (default: benchmarks)",
    )
    args = parser.parse_args(argv)

    reports = sorted(args.bench_dir.glob("BENCH_*.json"))
    if not reports:
        fail(f"{args.bench_dir}: no BENCH_*.json reports found")
    for path in reports:
        sections = validate_report(path)
        if path.name == "BENCH_compact.json":
            validate_compact(path)
        if path.name == "BENCH_minplus.json":
            validate_minplus(path)
        if path.name == "BENCH_service.json":
            validate_service(path)
        if path.name == "BENCH_sim.json":
            validate_sim(path)
        print(f"{path}: {sections} sections ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
