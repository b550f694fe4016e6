"""Benchmark of the paper pipeline, open-system chain analysis and the
analysis service, measured from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper|open_system|service \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced (in a child process, for ``trace.overhead_frac``)
and once with every layer's entry points wrapped, and reports the
per-layer metrics.  Human-readable lines start with ``#``; the last line
of standard output is the result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_util import OUT, SRC, BenchError, Outcome, emit, layer_metrics, untraced_wall_ref_s  # noqa: E402

WORKLOADS = ("paper", "open_system", "service")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--skip-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every ``finally`` stops what the run
    # started (daemons, child runs)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    module = importlib.import_module(f"wl_{args.workload}")
    outcome = Outcome()
    try:
        if not args.trace:
            module.run(args.seed, args.seconds, outcome, skip_setup=args.skip_setup)
        else:
            base_wall_ref = untraced_wall_ref_s(args.workload, args.seed, args.seconds)
            wall, snapshot = module.run_traced(args.seed, args.seconds, outcome)
            wall_ref = outcome.metrics["wall_ref_s"][0]
            # the traced pass's own end-to-end figures carry tracing cost
            outcome.metrics.clear()
            layer_metrics(outcome, snapshot, wall)
            outcome.put("trace.overhead_frac", wall_ref / base_wall_ref - 1.0, "ratio")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(args.workload, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
