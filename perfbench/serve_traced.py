"""``repro serve`` with every layer wrapped — the traced ``service`` daemon.

Usage: ``python3 perfbench/serve_traced.py OUT_DIR [repro serve options...]``

Installs :class:`layers.LayerTracer` in the daemon before it starts.  The
executor's worker process is forked from the daemon, so it inherits the
wrappers; it starts from zeroed statistics and, after every op, writes its
statistics to ``OUT_DIR/worker-<pid>.json`` and appends the op's spans to
``OUT_DIR/worker-<pid>.spans.jsonl``.  The daemon writes its own
statistics, spans and service counters when it exits.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_util import program_counters  # noqa: E402
from layers import LayerTracer  # noqa: E402


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    tracer = LayerTracer()
    tracer.install()
    os.register_at_fork(after_in_child=tracer.reset)

    import repro.service.ops as ops
    from repro.obs import registry
    from repro.service.server import main as serve_main

    execute_op = ops.execute_op

    @functools.wraps(execute_op)
    def traced_execute_op(*args, **kwargs):
        try:
            return execute_op(*args, **kwargs)
        finally:
            pid = os.getpid()
            _write_json(out_dir / f"worker-{pid}.json", {**tracer.snapshot(), **program_counters()})
            with open(out_dir / f"worker-{pid}.spans.jsonl", "a", encoding="utf-8") as spans:
                for span in tracer.spans:
                    spans.write(json.dumps(span) + "\n")
            tracer.spans.clear()

    ops.execute_op = traced_execute_op

    def dump_daemon() -> None:
        counters = {}
        for series in registry.snapshot()["counters"]:
            if series["name"] in ("service.retries", "service.pool_fallbacks"):
                counters[series["name"]] = counters.get(series["name"], 0) + series["value"]
        pid = os.getpid()
        _write_json(out_dir / f"daemon-{pid}.json", {**tracer.snapshot(), **program_counters(), "counters": counters})
        tracer.dump_spans(out_dir / f"daemon-{pid}.spans.jsonl")

    atexit.register(dump_daemon)
    return serve_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
