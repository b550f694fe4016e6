"""Benchmark fixtures and the trajectory-store session hook.

The full-fidelity case-study context (14 clips × 72 frames, the paper's
scale) is built once per benchmark session and shared by every case-study
benchmark; building it is itself benchmarked by
``test_bench_prepare_case_study``.

Every *successful* benchmark session additionally appends one record to
the append-only trajectory store (``benchmarks/TRAJECTORY.jsonl``): the
flattened ``BENCH_*.json`` metrics (every report in the directory —
``BENCH_sim.json``'s chain-replay and bulk-load speedups fold in like
the rest) and an environment fingerprint.  ``scripts/check_trajectory.py`` gates
the latest record against the rolling median, so the perf history across
PRs is both durable and enforced (see docs/observability.md).  Set
``REPRO_NO_TRAJECTORY=1`` to suppress the append (used by tests that run
benchmark files in throwaway checkouts).
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

import pytest

from repro.experiments.common import case_study_context
from repro.obs import trajectory

#: Full-fidelity settings used by all case-study benchmarks.
FRAMES = 72


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Append this session's BENCH numbers to the trajectory store.

    Skipped on failed sessions (a half-written BENCH file must not become
    a baseline), on collect-only runs, and when ``REPRO_NO_TRAJECTORY``
    is set.
    """
    if exitstatus != 0 or session.config.option.collectonly:
        return
    if os.environ.get("REPRO_NO_TRAJECTORY"):
        return
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    record = trajectory.build_record(
        bench_dir,
        run_id=os.environ.get("GITHUB_RUN_ID"),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    if not record["metrics"]:
        return
    trajectory.append_record(
        record, os.path.join(bench_dir, "TRAJECTORY.jsonl")
    )


@pytest.fixture(scope="session")
def full_context():
    """The paper-scale case-study context (built once, ~30 s)."""
    return case_study_context(frames=FRAMES)
