"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {cli,sim-grid,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout (it imports and launches ``repro``
from ``src/``).  With ``--trace 0`` the last stdout line is a JSON
object with every end-to-end metric of ``BENCHMARK.json``, measured on
the workload's operations; with ``--trace 1`` the same work runs with
spans around every call into a layer and the line carries every
per-layer metric instead, while the spans are written as one Chrome
trace to ``.perfbench/trace-<workload>.json``.  Figures only one
workload has (per-kind or per-backend splits, serve hops) are printed
on a ``detail`` line before it.  Every output is checked against a
reference; ``failed`` counts the mismatches.  See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import lib  # noqa: E402

WORKLOADS = ("cli", "sim-grid", "serve")


class Context:
    """What a workload needs: its inputs, a scratch dir and a tracer."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.tracer = lib.Tracer(trace)
        self.base = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.base, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["TMPDIR"] = self.work
        self.env["REPRO_CACHE_DIR"] = os.path.join(self.work, "repro_cache")

    def note(self, line: str) -> None:
        """A human-readable line on stdout (before the result line)."""
        print(line, flush=True)


def _checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: run from the root of a repro checkout "
            f"(no src/repro under {root})"
        )
    sys.path.insert(0, os.path.join(root, "src"))
    return root


def _declared(root: str, key: str) -> set:
    """The metric names ``BENCHMARK.json`` lists under ``key``."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = _checkout_root()

    # Imported after the checkout's src/ is on the path.
    runner = importlib.import_module("wl_" + args.workload.replace("-", ""))
    ctx = Context(root, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        outcome = runner.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    attempted, failed = outcome["attempted"], outcome["failed"]
    ctx.note(
        f"{args.workload}: {attempted} operations, {failed} failed "
        f"(fail_ratio {failed / attempted:g}); {time.perf_counter() - started:.1f} s"
    )
    if outcome.get("detail"):
        ctx.note("detail " + json.dumps(outcome["detail"]))
    if args.trace:
        trace_path = os.path.join(ctx.base, f"trace-{args.workload}.json")
        ctx.tracer.write_chrome(trace_path)
        ctx.note(f"trace: {len(ctx.tracer.spans)} spans -> {trace_path}")
        # The end-to-end figures measured under tracing, for overhead.py.
        ctx.note("traced-e2e " + json.dumps(
            {name: value for name, (value, _unit) in outcome["e2e"].items()}
        ))
        metrics = dict(outcome["layers"])
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    else:
        metrics = outcome["e2e"]
    declared = _declared(root, "per_layer" if args.trace else "end_to_end")
    if set(metrics) != declared:
        raise SystemExit(
            f"perfbench: {args.workload} measured {sorted(metrics)}, "
            f"BENCHMARK.json declares {sorted(declared)}"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
