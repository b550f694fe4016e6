"""Workload ``paper``: the full reproduction, in process, with cold caches.

Builds the frames=72 case-study context (14 MPEG-2 clips -> gamma^u/gamma^l
and alpha -> envelopes -> eqs. (9)/(10)), then runs all 14 experiments in
``ALL_EXPERIMENTS`` order — what ``python -m repro all`` does.  One
reproduction is the unit of work: it is longer than any ``--seconds`` the
benchmark uses, so a run is exactly one reproduction.  The inputs are the
paper's 14 fixed clip profiles; the seed is recorded and changes nothing.

The reproduction is the one request of a run (the user's ``repro all``),
so ``req_p50_ref_ms`` and ``req_p90_ref_ms`` both read its latency: every
workload reports every end-to-end metric, and no tail is measurable from
one sample.
"""

from __future__ import annotations

import os
import time

from bench_util import (
    OUT,
    Outcome,
    SpeedProbe,
    SpeedSampler,
    median_fresh_import,
    put_times,
    raise_unless_program,
    run_in_process_traced,
    self_peak_rss_mib,
)

#: The paper's E1 (Figure 1) and E5 (eqs. (9)/(10), b = 1620) values,
#: from EXPERIMENTS.md.
E1_EXPECTED = {"gamma_b_3_4": 5.0, "gamma_w_3_4": 13.0}
E5_EXPECTED = {"f_gamma_mhz": 364.2, "f_wcet_mhz": 758.7, "savings_pct": 52.0}


def _check(exp_id: str, data: dict, outcome: Outcome) -> None:
    """Output checks on the experiments whose numbers the paper prints."""
    if exp_id == "E1":
        got = {key: data[key] for key in E1_EXPECTED}
        expected = E1_EXPECTED
    elif exp_id == "E5":
        got = {
            "f_gamma_mhz": round(data["f_gamma_hz"] / 1e6, 1),
            "f_wcet_mhz": round(data["f_wcet_hz"] / 1e6, 1),
            "savings_pct": round(data["savings"] * 100.0, 1),
        }
        expected = E5_EXPECTED
    else:
        return
    if got != expected:
        outcome.fail(f"{exp_id} output {got} != {expected}", wrong=True)


def reproduce(outcome: Outcome) -> tuple[int, list[tuple[str, float, float]]]:
    """Context build plus all experiments; returns the macroblocks
    characterized and each operation's ``(name, start, end)`` on the
    ``time.monotonic()`` clock."""
    from repro.experiments import ALL_EXPERIMENTS, case_study_context

    spans = []

    def attempt(name: str, operation):
        outcome.attempted += 1
        start = time.monotonic()
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 — a failed operation, counted
            raise_unless_program(exc)
            outcome.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            spans.append((name, start, time.monotonic()))

    ctx = attempt("context", lambda: case_study_context(frames=72))
    for exp_id, run in ALL_EXPERIMENTS.items():
        result = attempt(exp_id, run)
        if result is not None:
            _check(exp_id, result.data, outcome)
    macroblocks = sum(g.horizon for g in ctx.gammas_upper) if ctx is not None else 0
    return macroblocks, spans


def run(seed: int, seconds: int, outcome: Outcome, *, skip_setup: bool) -> float:
    """One untraced or traced reproduction; returns its measured wall time.
    Each operation is scaled to reference speed by the samples a
    :class:`SpeedSampler` took while it ran."""
    if not skip_setup:
        outcome.put("setup_s", median_fresh_import(["repro.experiments"], SpeedProbe()), "s")
    sampler = SpeedSampler(OUT / f"paper-{os.getpid()}.speed")
    try:
        macroblocks, spans = reproduce(outcome)
    finally:
        samples = sampler.close()
    wall = sum(end - start for _, start, end in spans)
    wall_ref = sum((end - start) * SpeedSampler.factor(samples, start, end) for _, start, end in spans)
    outcome.put("peak_rss_mb", self_peak_rss_mib(), "MiB")
    put_times(outcome, [wall], [wall_ref], macroblocks)
    return wall


def run_traced(seed: int, seconds: int, outcome: Outcome):
    return run_in_process_traced("paper", run, seed, seconds, outcome)
