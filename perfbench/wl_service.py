"""Workload ``service``: one daemon, one worker, one closed-loop client.

Starts ``repro serve --workers 1`` with eq. (8) admission on (``--capacity``
far above the offered load, so the closed loop is never shed and the
self-characterization runs on every submit), then sends a seed-fixed mix
over one ``ServiceClient`` connection, each request after the previous
reply:

* ``curve`` posts of a drawn demand trace, lengths log-uniform across the
  daemon's 64 KiB request-line limit (the daemon drops the session on a
  longer line; the client counts the failure and reconnects);
* ``backlog`` queries at drawn frequencies above the long-run demand rate;
* ``frequency`` queries at drawn FIFO sizes over the paper's A1 range.

``backlog`` and ``frequency`` run on a reduced-fidelity case-study context
(12 frames, a coarse window grid), so set-up — daemon start plus one
warm-up request per op class — stays short.  Set-up is repeated
:data:`DAEMON_SETUPS` times and ``setup_s`` is the median.

Output checks: every job ends ``done``; on a seeded subset of ``curve``
posts the result must equal ``WorkloadCurvePair.from_demand_stream`` of
the same trace computed here, after the timed loop.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_util import (
    OUT,
    BenchError,
    Outcome,
    child_pids,
    env_with_src,
    SpeedProbe,
    p50,
    put_times,
    self_peak_rss_mib,
    stratified,
    vm_hwm_mib,
)

#: Nominal cost of one request; ``--seconds`` buys this many requests.
REQUEST_NOMINAL_S = 0.02
MIN_REQUESTS = 300
#: Daemon set-ups per run (each builds the reduced context, ~2 s);
#: ``setup_s`` is their median.
DAEMON_SETUPS = 3
#: The speed probe runs after every this many requests.
PROBE_EVERY = 25
#: Op mix (shares of requests).
MIX = (("curve", 0.5), ("backlog", 0.25), ("frequency", 0.25))
#: ``curve`` trace lengths, log-uniform; about 3.6k events fill 64 KiB.
CURVE_EVENTS = (128, 8192)
CURVE_CHUNK = 4096
#: Share of ``curve`` posts whose result is recomputed client-side.
VERIFY_SHARE = 0.1
#: Reduced-fidelity context of ``backlog``/``frequency``.
CONTEXT = {"frames": 12, "dense_limit": 512, "growth": 1.05}
#: ``backlog`` frequencies (Hz), log-uniform, above the context's
#: long-run demand rate (~0.33 GHz).
BACKLOG_HZ = (4e8, 1.6e9)
#: ``frequency`` FIFO sizes (macroblocks), log-uniform: the paper's A1 range.
BUFFER_SIZES = (405, 6480)
#: Admission capacity (demand units/s) — far above what one worker serves.
CAPACITY = 1e9
#: Per-request socket timeouts (s).  A submit is answered once the job is
#: queued (milliseconds); a result wait lasts as long as the job runs.  A
#: request line just over the 64 KiB limit gets no reply at all, so the
#: submit timeout bounds what that costs the closed loop.
SUBMIT_TIMEOUT_S = 0.5
RESULT_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


def draw_requests(seed: int, count: int) -> list[tuple[str, dict, bool]]:
    """``(op, params, verify)`` triples of the seed-fixed mix: exact op
    shares in a shuffled order, stratified lengths, frequencies and FIFO
    sizes, and a random tenth of the ``curve`` posts to verify."""
    rng = np.random.default_rng(seed)
    counts = [round(share * count) for _, share in MIX[:-1]]
    counts.append(count - sum(counts))
    ops = rng.permutation(np.repeat([op for op, _ in MIX], counts))
    lengths = iter(stratified(rng, counts[0], *CURVE_EVENTS, log=True))
    verified = set(rng.choice(counts[0], round(VERIFY_SHARE * counts[0]), replace=False).tolist())
    frequencies = iter(stratified(rng, counts[1], *BACKLOG_HZ, log=True))
    buffers = iter(stratified(rng, counts[2], *BUFFER_SIZES, log=True))
    requests = []
    curves = 0
    for op in ops:
        verify = False
        if op == "curve":
            demands = rng.lognormal(8.0, 0.5, int(next(lengths))).tolist()
            params = {"demands": demands, "chunk": CURVE_CHUNK}
            verify = curves in verified
            curves += 1
        elif op == "backlog":
            params = {"frequency": float(next(frequencies)), **CONTEXT}
        else:
            params = {"buffer_size": int(next(buffers)), **CONTEXT}
        requests.append((str(op), params, verify))
    return requests


#: One warm-up request per op class, run during set-up.
WARM_UPS = (
    ("curve", {"demands": [1.0, 2.0, 3.0], "chunk": CURVE_CHUNK}),
    ("backlog", {"frequency": 8e8, **CONTEXT}),
    ("frequency", {"buffer_size": 1620, **CONTEXT}),
)


def _client_class():
    from repro.service.client import ServiceClient

    class Client(ServiceClient):
        """``ServiceClient`` whose socket timeout is set per call."""

        def set_timeout(self, seconds: float) -> None:
            self._sock.settimeout(seconds)

    return Client


class Daemon:
    """One ``repro serve`` process (and its worker), always stopped."""

    def __init__(self, run_dir: Path, index: int, traced: bool):
        self.socket_path = str(run_dir / f"s{index}.sock")
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("serve_traced.py")), str(run_dir)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        cmd += ["--socket", self.socket_path, "--workers", "1", "--capacity", str(CAPACITY)]
        self._log = open(run_dir / f"daemon{index}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env_with_src(), start_new_session=True
        )
        self._worker_pids: list[int] = []

    def connect(self):
        """A client connection, waiting for the socket to come up."""
        client_class = _client_class()
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            try:
                return client_class(self.socket_path, timeout=SUBMIT_TIMEOUT_S)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not start listening") from None
                time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        """Peak RSS of the daemon plus its worker(s)."""
        self._worker_pids = child_pids(self.proc.pid)
        return vm_hwm_mib(self.proc.pid) + sum(vm_hwm_mib(pid) for pid in self._worker_pids)

    def stop(self) -> None:
        """Graceful shutdown, then kill the process group whatever happened,
        and wait until the daemon and its worker are gone."""
        from repro.service.client import ServiceClient, ServiceError

        try:
            self._worker_pids = self._worker_pids or child_pids(self.proc.pid)
        except OSError:
            pass
        try:
            if self.proc.poll() is None:
                with ServiceClient(self.socket_path, timeout=10.0) as client:
                    client.shutdown(drain=False)
                self.proc.wait(timeout=20)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            deadline = time.monotonic() + 10.0
            while any(Path(f"/proc/{pid}").exists() for pid in self._worker_pids):
                if time.monotonic() > deadline:
                    raise BenchError(f"worker processes {self._worker_pids} did not exit")
                time.sleep(0.01)
            self._log.close()
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass


def _round_trip(client, op: str, params: dict) -> dict:
    client.set_timeout(SUBMIT_TIMEOUT_S)
    job = client.submit(op, params)
    if job["state"] in ("queued", "running"):
        client.set_timeout(RESULT_TIMEOUT_S + 5.0)
        job = client.result(job["id"], timeout=RESULT_TIMEOUT_S)
    return job


def _start(run_dir: Path, index: int, traced: bool):
    """Start a daemon and warm one request per op class; returns the
    daemon, a connected client and the set-up time."""
    t0 = time.perf_counter()
    daemon = Daemon(run_dir, index, traced)
    try:
        client = daemon.connect()
        for op, params in WARM_UPS:
            job = _round_trip(client, op, params)
            if job["state"] != "done":
                raise BenchError(f"warm-up {op} ended {job['state']}: {job.get('error')}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - t0


def _serve(seed: int, seconds: int, outcome: Outcome, *, skip_setup: bool, traced: bool) -> tuple[float, dict]:
    from repro.service.client import ServiceError

    run_dir = OUT / f"service-{os.getpid()}-{'t' if traced else 'u'}{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    setups = []
    for index in range(0 if skip_setup else DAEMON_SETUPS - 1):
        daemon, client, setup = _start(run_dir, index, traced)
        client.close()
        daemon.stop()
        setups.append(setup * probe.factor())
    requests = draw_requests(seed, max(MIN_REQUESTS, round(seconds / REQUEST_NOMINAL_S)))
    daemon, client, setup = _start(run_dir, len(setups), traced)
    setups.append(setup * probe.factor())
    # statistics the traced worker recorded during warm-up, subtracted later
    warm = [_load(path) for path in run_dir.glob("worker-*.json")]
    latencies: list[float] = []
    ref_latencies: list[float] = []
    per_op: dict[str, list[float]] = {op: [] for op, _ in MIX}
    queue_wait, run_ms, overhead = [], [], []
    to_verify = []
    events = 0
    try:
        for index, (op, params, verify) in enumerate(requests):
            if index % PROBE_EVERY == 0 and index:
                factor = probe.factor()
                ref_latencies += [t * factor for t in latencies[len(ref_latencies):]]
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                job = _round_trip(client, op, params)
            except (ServiceError, OSError) as exc:
                # a dropped session (or a timed-out socket) loses this
                # request; reconnect so the loop can go on
                outcome.fail(f"{op}: {type(exc).__name__}: {exc}")
                client.close()
                client = daemon.connect()
                latencies.append(time.perf_counter() - start)
                continue
            rtt = time.perf_counter() - start
            latencies.append(rtt)
            if job["state"] != "done":
                # the message up to its first colon: the numbers after it vary
                error = str(job.get("error")).split(":")[0]
                outcome.fail(f"{op} job {job['state']}: {job.get('error_type')}: {error}")
                continue
            per_op[op].append(rtt)
            queue_wait.append(job["started_at"] - job["submitted_at"])
            run_ms.append(job["finished_at"] - job["started_at"])
            overhead.append(rtt - (job["finished_at"] - job["submitted_at"]))
            if op == "curve":
                events += job["result"]["events"]
                if verify:
                    to_verify.append((params, job["result"]))
        factor = probe.factor()
        ref_latencies += [t * factor for t in latencies[len(ref_latencies):]]
        stats = client.stats()
        peak = daemon.peak_rss_mib() + self_peak_rss_mib()
    finally:
        client.close()
        daemon.stop()
    _verify_curves(to_verify, outcome)

    if not skip_setup:
        outcome.put("setup_s", statistics.median(setups), "s")
    outcome.put("peak_rss_mb", peak, "MiB")
    put_times(outcome, latencies, ref_latencies, events)
    admission = stats.get("admission", {})
    service = {
        "service.queue_wait_ms.p50": p50(queue_wait) * 1e3,
        "service.run_ms.p50": p50(run_ms) * 1e3,
        "service.overhead_ms.p50": p50(overhead) * 1e3,
        "service.accepted": admission.get("accepted", 0),
        "service.rejected": admission.get("rejected", 0) + stats["states"].get("shed", 0),
    }
    for op, values in per_op.items():
        service[f"service.{op}.p50_ms"] = p50(values) * 1e3
    return sum(latencies), {"service": service, "run_dir": run_dir, "warm": warm}


def _verify_curves(checks: list[tuple[dict, dict]], outcome: Outcome) -> None:
    """The ``curve`` results must equal the client-side extraction."""
    from repro.core.workload import WorkloadCurvePair

    for params, result in checks:
        demands = np.asarray(params["demands"], dtype=float)
        chunk = params["chunk"]
        pair = WorkloadCurvePair.from_demand_stream(
            (demands[i : i + chunk] for i in range(0, demands.size, chunk)), total=int(demands.size)
        )
        expected = {
            "events": int(demands.size),
            "wcet": pair.wcet,
            "bcet": pair.bcet,
            "k": [int(k) for k in pair.upper.k_values],
            "gamma_u": [float(v) for v in pair.upper.values],
            "gamma_l": [float(v) for v in pair.lower.values],
        }
        if result != expected:
            outcome.fail("curve result differs from client-side extraction", wrong=True)


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run(seed: int, seconds: int, outcome: Outcome, *, skip_setup: bool) -> float:
    wall, _ = _serve(seed, seconds, outcome, skip_setup=skip_setup, traced=False)
    return wall


def run_traced(seed: int, seconds: int, outcome: Outcome):
    """The same run against a traced daemon; layer statistics come from the
    daemon's and the worker's dumps, less what warm-up recorded."""
    from layers import merge_snapshots

    wall, extra = _serve(seed, seconds, outcome, skip_setup=True, traced=True)
    run_dir = extra["run_dir"]
    if not list(run_dir.glob("daemon-*.json")):
        raise BenchError("traced daemon wrote no statistics")
    snapshot = merge_snapshots([_load(p) for p in sorted(run_dir.glob("*.json"))], minus=extra["warm"])
    service = extra["service"]
    for name in ("service.retries", "service.pool_fallbacks"):
        service[name] = snapshot["counters"].get(name, 0)
    snapshot["service"] = service
    return wall, snapshot
