"""Tracing overhead: the same seed untraced and traced, side by side.

    python3 perfbench/overhead.py --workload sim-grid --seed 1 [--seconds 5]

Runs ``run.py`` with ``--trace 0`` and then ``--trace 1`` from the
current directory (a checkout root) and prints, for every end-to-end
metric, the untraced value, the value measured under tracing (the
traced run's ``traced-e2e`` line) and their difference as a share of
the untraced value.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run(workload: str, seed: int, seconds: float, trace: int) -> list:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=600,
    )
    return done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "sim-grid", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args(argv)
    plain = json.loads(_run(args.workload, args.seed, args.seconds, 0)[-1])["metrics"]
    traced_lines = _run(args.workload, args.seed, args.seconds, 1)
    traced = json.loads(next(
        line for line in traced_lines if line.startswith("traced-e2e ")
    )[len("traced-e2e "):])
    print(f"{'metric':24s} {'untraced':>12s} {'traced':>12s} {'overhead':>9s}")
    for name, entry in plain.items():
        base, under = entry["value"], traced[name]
        print(f"{name:24s} {base:12.4f} {under:12.4f} {(under - base) / base:9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
