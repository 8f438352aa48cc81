"""``cli``: the researcher's loop, one subprocess per command.

Each iteration runs, in a fresh cache directory:

* a cold ``repro report`` over :data:`WORKLOADS` (writes the stores,
  compiles, simulates ~90 jobs);
* :data:`WARM_REPEATS` warm reruns of the same report on that cache
  (reads the stores, renders);
* ``repro simulate <w> --bar C --no-cache`` for each of the five.

Every output must equal the expected text stored in
``perfbench/expected/``.  An operation is one command; the end-to-end
figures are over all commands of the fixed mix (1 cold report : 2 warm
reports : 5 simulates), and the per-kind medians go on the ``detail``
line.  Set-up is five timed ``import repro.cli`` processes (bytecode
written, files in the page cache); the median is ``setup_s``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import lib
import probe

WORKLOADS = ("go", "mcf", "gzip_decomp", "bzip2_comp", "gcc")

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: Iterations always run, whatever ``--seconds`` says, so each run
#: has several samples of every command spread over ~35 s of the
#: host's speed drift.
MIN_ITERATIONS = 3

#: Warm reruns per iteration (each ~0.6 s, so noise-prone alone).
WARM_REPEATS = 2

#: Per-command limit; a cold report takes ~7 s.
COMMAND_TIMEOUT_S = 120.0


def _same(path: str, expected_name: str) -> bool:
    try:
        with open(path, "rb") as got, open(os.path.join(EXPECTED, expected_name), "rb") as want:
            return got.read() == want.read()
    except FileNotFoundError:
        return False


def _report_argv(ctx, cache: str, metrics: str, out: str) -> List[str]:
    return [
        ctx.python, "-m", "repro", "report", "--workloads", ",".join(WORKLOADS),
        "--cache-dir", cache, "--metrics-out", metrics, "-o", out,
    ]


def run(ctx) -> Dict:
    tracer = ctx.tracer
    setups, imports = probe.import_probe(ctx)

    samples: Dict[str, List[float]] = {"cold": [], "warm": [], "simulate": []}
    peak_rss = 0.0
    attempted = failed = 0
    started = time.perf_counter()
    iteration = 0
    while iteration < MIN_ITERATIONS or time.perf_counter() - started < ctx.seconds:
        base = os.path.join(ctx.work, f"iter-{iteration}")
        cache = os.path.join(base, "cache")
        os.makedirs(base)
        commands = []
        for phase, name in [("cold", "cold")] + [
                ("warm", f"warm{k}") for k in range(WARM_REPEATS)]:
            commands.append((
                phase, f"report-{name}", "report.md",
                _report_argv(ctx, cache, os.path.join(base, f"metrics-{name}.json"),
                             os.path.join(base, f"{name}.md")),
                os.path.join(base, f"{name}.md"),
            ))
        for workload in WORKLOADS:
            out = os.path.join(base, f"simulate-{workload}.txt")
            commands.append((
                "simulate", f"simulate-{workload}", f"simulate_{workload}.txt",
                [ctx.python, "-m", "repro", "simulate", workload, "--bar", "C",
                 "--no-cache"],
                out,
            ))
        for phase, op, expected, argv, out in commands:
            stdout = out if phase == "simulate" else None
            code, wall, rss, wall_start, wall_end = lib.run_timed(
                argv, base, ctx.env, COMMAND_TIMEOUT_S, stdout)
            tracer.add(op, "cli", wall_start, wall_end, op=f"{op}-{iteration}")
            attempted += 1
            peak_rss = max(peak_rss, rss)
            if code != 0 or not _same(out, expected):
                failed += 1
                ctx.note(f"cli: {op} exited {code} or its output differs from {expected}")
            samples[phase].append(wall)
        iteration += 1

    walls = [wall for kind in samples.values() for wall in kind]
    e2e = {
        "setup_s": (lib.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "p50_ms": (lib.percentile(walls, 50) * 1e3, "ms"),
        "p90_ms": (lib.percentile(walls, 90) * 1e3, "ms"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
    }
    detail = {
        "cli.report_cold_s": lib.median(samples["cold"]),
        "cli.report_warm_s": lib.median(samples["warm"]),
        "cli.simulate_s": lib.median(samples["simulate"]),
    }
    ctx.note(f"cli: {iteration} iterations; samples " + ", ".join(
        f"{phase} {len(kind)}" for phase, kind in samples.items()))
    layers: Dict = {}
    if tracer.enabled:
        base = os.path.join(ctx.work, "iter-0")
        detail.update(_report_metrics(base, samples["cold"][0]))
        layers, mismatched = probe.in_process(
            ctx, [(name, "C", ()) for name in WORKLOADS])
        layers["import.cli_s"] = (lib.median(imports), "s")
        failed += mismatched
        attempted += len(WORKLOADS)
    layers["samples"] = (len(walls), "count")
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "detail": detail}


def _report_metrics(base: str, cold_wall: float) -> Dict[str, float]:
    """The runner's job walls and the stores' hit counters, from the
    ``--metrics-out`` of the first iteration's cold and warm reports."""
    with open(os.path.join(base, "metrics-cold.json")) as handle:
        cold = json.load(handle)
    with open(os.path.join(base, "metrics-warm0.json")) as handle:
        warm = json.load(handle)
    walls = _job_walls(cold["per_job"])
    detail = {f"runner.{kind}_s": walls[kind] for kind in ("compile", "oracle", "sim")}
    detail["runner.other_s"] = cold_wall - sum(walls.values())
    for name in ("hits", "misses", "corrupt"):
        detail[f"artifacts.{name}"] = cold["artifacts"][name] + warm["artifacts"][name]
    for name in ("hits", "misses"):
        detail[f"results.{name}"] = cold["cache"][name] + warm["cache"][name]
    return detail


def _job_walls(jobs: List[Dict]) -> Dict[str, float]:
    """Host seconds per job kind, each second counted once.

    The serial runner compiles and collects oracles lazily, inside the
    simulation job that first needs them, and records that inner job
    just before it; such a simulation's wall is charged net of it.
    """
    walls = {"compile": 0.0, "oracle": 0.0, "sim": 0.0}
    nested = 0.0
    for job, after in zip(jobs, [*jobs[1:], None]):
        if job["kind"] in ("bar", "custom"):
            walls["sim"] += job["wall_s"] - nested
            nested = 0.0
            continue
        walls[job["kind"]] = walls.get(job["kind"], 0.0) + job["wall_s"]
        if (after is not None and after["kind"] in ("bar", "custom", "compile", "oracle")
                and after["workload"] == job["workload"]):
            nested += job["wall_s"]
        else:
            nested = 0.0
    return walls

