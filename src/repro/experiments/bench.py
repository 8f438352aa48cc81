"""Engine throughput benchmark (the ``repro bench`` subcommand).

Measures wall-clock throughput of the TLS simulation engine and proves
the fast-path claim: for every requested workload x scheme the harness
runs the **fast path** (decoded dispatch, free-running turns, event
heap) and the **slow path** (the original object-walking scheduler) on
the same compiled program, checks that both produce byte-identical
results, and records the speedup.

Three kinds of record land in ``BENCH_engine.json``, all with the same
schema (``workload, scheme, mode, phase, sim_cycles, wall_seconds,
instructions, instrs_per_sec``):

* ``fast``/``cold`` — first fast-path run; ``wall_seconds`` includes
  this workload's one-time compilation (charged to the first scheme).
* ``fast``/``warm`` — best of ``repeat`` runs, each on a fresh engine
  over the already-compiled program (decode happens per engine, so the
  one-time decode cost is *inside* this number).
* ``fast-vector``/``warm`` — same measurement with
  ``backend="vector"`` (fused-region dispatch; byte-identity against
  the first fast run is still enforced).  ``fused_fraction`` on these
  records is the dynamic share of instructions executed inside fused
  regions.  Region lowering is amortized across engines by the
  per-module memo and the artifact store, matching production use.
* ``slow``/``warm`` — same measurement with ``fast_path=False``.

The ``speedups`` section divides warm fast throughput by warm slow
throughput per cell (vector throughput rides along as
``vector_instrs_per_sec``/``vector_speedup``), and
``largest_workload`` singles out the cell with the most dynamic
instructions — the acceptance criterion for the fast path is >= 3x
there.  See ``docs/running_experiments.md`` for the checked-in
baseline.

``--opstats`` additionally reports, per (workload, scheme) cell,
static opcode frequencies, fused-region counts and length histograms,
and dynamic fused coverage; the same numbers are published to the
process metrics registry (``bench_opcode`` counters and
``bench_region_length`` histograms, labelled by workload and scheme).

``--pipeline`` additionally benchmarks the *compile* side of the
system with the same fast-vs-slow discipline, one ``phase ==
"pipeline"`` record pair per cell (``sim_cycles`` is 0 — nothing is
simulated):

* ``compile`` — artifact-store deserialization vs a full
  :func:`compile_workload` run (state-equality checked);
* ``profile`` — interned-context dependence profiling on the decoded
  interpreter vs the reference hooks on the object-walking
  interpreter (profile-dict equality checked);
* ``oracle`` — stored-oracle deserialization vs sequential oracle
  collection (state-equality checked).

Pipeline cells flow into ``speedups`` and the ``--compare`` gate like
engine cells, so compile-path throughput is pinned the same way.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.compiler.memdep.profiler import profile_dependences
from repro.compiler.pipeline import compile_workload
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import payloads
from repro.experiments.runner import BAR_PROGRAM, config_for
from repro.ir.interpreter import Interpreter
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import collect_oracle
from repro.workloads import all_workloads, get_workload

#: Default scheme sample: the untransformed program exercises the
#: violation/squash machinery, the compiler-synchronized program the
#: forwarding machinery.
DEFAULT_SCHEMES = ("U", "C")

#: Every result record carries exactly these keys.
SCHEMA_FIELDS = (
    "workload",
    "scheme",
    "mode",
    "phase",
    "sim_cycles",
    "wall_seconds",
    "instructions",
    "instrs_per_sec",
    "fused_fraction",
)


def _timed_run(program, config, oracle, parallel):
    """(wall seconds, engine, result) for one fresh-engine simulation."""
    engine = TLSEngine(program, config=config, oracle=oracle, parallel=parallel)
    started = time.perf_counter()
    result = engine.run()
    return time.perf_counter() - started, engine, result


def _record(
    workload, scheme, mode, phase, result, wall, instructions, fused=0
) -> Dict:
    return {
        "workload": workload,
        "scheme": scheme,
        "mode": mode,
        "phase": phase,
        "sim_cycles": result.program_cycles,
        "wall_seconds": wall,
        "instructions": instructions,
        "instrs_per_sec": instructions / wall if wall > 0 else 0.0,
        "fused_fraction": fused / instructions if instructions else 0.0,
    }


def bench_workload(
    name: str,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    repeat: int = 3,
    threshold: float = 0.05,
    profiler: Optional[cProfile.Profile] = None,
    opstats_out: Optional[Dict] = None,
) -> List[Dict]:
    """Benchmark one workload across schemes; returns result records.

    ``profiler``, when given, is enabled around the warm fast-path
    runs only, so the dump shows where simulation time goes rather
    than compile time.  ``opstats_out``, when given, receives one
    opcode/region stats entry per (workload, scheme) cell (and the
    same data lands in the process metrics registry).
    """
    workload = get_workload(name)
    started = time.perf_counter()
    compiled = compile_workload(
        workload.name,
        workload.build,
        workload.train_input,
        workload.ref_input,
        threshold=threshold,
    )
    compile_seconds = time.perf_counter() - started
    records: List[Dict] = []
    for scheme in schemes:
        program = getattr(compiled, BAR_PROGRAM[scheme])
        config = config_for(scheme)
        oracle = None
        if config.oracle_mode != "off":
            oracle = collect_oracle(program)
        parallel = scheme != "SEQ"
        fast = config.with_mode(fast_path=True)
        vector = config.with_mode(fast_path=True, backend="vector")
        slow = config.with_mode(fast_path=False)

        # Cold: first fast-path run, charged with this workload's
        # compile time (once — later schemes reuse the binaries).
        wall, engine, result = _timed_run(program, fast, oracle, parallel)
        records.append(
            _record(
                name, scheme, "fast", "cold",
                result, wall + compile_seconds, engine.instructions,
            )
        )
        compile_seconds = 0.0

        baseline_state = result.to_state()
        modes = (("fast", fast), ("fast-vector", vector), ("slow", slow))
        vector_engine = None
        for mode, mode_config in modes:
            best = None
            for _ in range(max(1, repeat)):
                if profiler is not None and mode == "fast":
                    profiler.enable()
                wall, engine, result = _timed_run(
                    program, mode_config, oracle, parallel
                )
                if profiler is not None and mode == "fast":
                    profiler.disable()
                if result.to_state() != baseline_state:
                    raise RuntimeError(
                        f"{name}/{scheme}: {mode} path diverged from the "
                        "first fast-path run"
                    )
                record = _record(
                    name, scheme, mode, "warm",
                    result, wall, engine.instructions,
                    fused=engine.fused_instructions,
                )
                if best is None or record["wall_seconds"] < best["wall_seconds"]:
                    best = record
            if mode == "fast-vector":
                vector_engine = engine
            records.append(best)
        if opstats_out is not None and vector_engine is not None:
            opstats_out[(name, scheme)] = _cell_opstats(
                name, scheme, vector_engine
            )
    return records


def _cell_opstats(name: str, scheme: str, engine) -> Dict:
    """Opcode/region stats for one bench cell, published to the registry."""
    from repro.obs.registry import process_registry

    stats = engine.opstats()
    instructions = engine.instructions
    stats["backend"] = engine.backend
    stats["dynamic_instructions"] = instructions
    stats["fused_instructions"] = engine.fused_instructions
    stats["fused_fraction"] = (
        engine.fused_instructions / instructions if instructions else 0.0
    )
    registry = process_registry()
    histogram = registry.histogram(
        "bench_region_length",
        buckets=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        workload=name, scheme=scheme,
    )
    for length in stats["region_lengths"]:
        histogram.observe(float(length))
    for opcode, count in stats["opcodes"].items():
        registry.counter(
            "bench_opcode", workload=name, scheme=scheme, opcode=opcode
        ).inc(count)
    return stats


def _pipeline_record(workload, scheme, mode, wall, instructions) -> Dict:
    return {
        "workload": workload,
        "scheme": scheme,
        "mode": mode,
        "phase": "pipeline",
        "sim_cycles": 0.0,
        "wall_seconds": wall,
        "instructions": instructions,
        "instrs_per_sec": instructions / wall if wall > 0 else 0.0,
        "fused_fraction": 0.0,
    }


def _best_of(repeat, fn):
    """(best wall seconds, last return value) over ``repeat`` calls."""
    best = None
    value = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - started
        if best is None or wall < best:
            best = wall
    return best, value


def bench_pipeline(
    name: str, repeat: int = 3, threshold: float = 0.05
) -> List[Dict]:
    """Benchmark the compile pipeline's fast paths for one workload.

    Three fast/slow cells (``compile``, ``profile``, ``oracle`` — see
    the module docstring), every fast result checked for equality with
    its slow counterpart before the numbers are trusted.
    ``instructions`` is the sequential dynamic step count of the
    baseline program, so ``instrs_per_sec`` compares like engine cells:
    pipeline work per unit of program size.
    """
    workload = get_workload(name)

    compile_wall, compiled = _best_of(
        repeat,
        lambda: compile_workload(
            workload.name,
            workload.build,
            workload.train_input,
            workload.ref_input,
            threshold=threshold,
        ),
    )
    steps = Interpreter(compiled.baseline).run().steps
    records: List[Dict] = []

    with tempfile.TemporaryDirectory() as tmp:
        store = artifacts_mod.ArtifactStore(tmp)

        store.save_compiled(workload, threshold, compiled)
        load_wall, loaded = _best_of(
            repeat, lambda: store.load_compiled(workload, threshold)
        )
        if loaded is None or (
            payloads.compiled_to_state(loaded)
            != payloads.compiled_to_state(compiled)
        ):
            raise RuntimeError(
                f"{name}: artifact round trip diverged from recompilation"
            )
        records.append(_pipeline_record(name, "compile", "slow", compile_wall, steps))
        records.append(_pipeline_record(name, "compile", "fast", load_wall, steps))

        slow_wall, slow_profile = _best_of(
            repeat, lambda: profile_dependences(compiled.baseline, fast=False)
        )
        fast_wall, fast_profile = _best_of(
            repeat, lambda: profile_dependences(compiled.baseline)
        )
        if fast_profile != slow_profile:
            raise RuntimeError(
                f"{name}: fast-path dependence profile diverged from reference"
            )
        records.append(_pipeline_record(name, "profile", "slow", slow_wall, steps))
        records.append(_pipeline_record(name, "profile", "fast", fast_wall, steps))

        collect_wall, oracle = _best_of(
            repeat, lambda: collect_oracle(compiled.baseline)
        )
        store.save_oracle(workload, threshold, "baseline", oracle)
        oracle_wall, loaded_oracle = _best_of(
            repeat, lambda: store.load_oracle(workload, threshold, "baseline")
        )
        if loaded_oracle is None or (
            payloads.oracle_to_state(loaded_oracle)
            != payloads.oracle_to_state(oracle)
        ):
            raise RuntimeError(
                f"{name}: oracle round trip diverged from collection"
            )
        records.append(_pipeline_record(name, "oracle", "slow", collect_wall, steps))
        records.append(_pipeline_record(name, "oracle", "fast", oracle_wall, steps))
    return records


def summarize(records: Sequence[Dict]) -> Dict:
    """Per-cell speedups plus the largest-workload headline number.

    Engine cells (``phase == "warm"``) and pipeline cells (``phase ==
    "pipeline"``) both land in ``speedups``; ``largest_workload`` — the
    >= 3x fast-path acceptance headline — considers engine cells only.
    """
    warm: Dict[tuple, Dict[str, Dict]] = {}
    for record in records:
        if record["phase"] not in ("warm", "pipeline"):
            continue
        key = (record["workload"], record["scheme"], record["phase"])
        warm.setdefault(key, {})[record["mode"]] = record
    speedups: List[Dict] = []
    for (workload, scheme, phase), modes in warm.items():
        fast, slow = modes.get("fast"), modes.get("slow")
        if fast is None or slow is None:
            continue
        cell = {
            "workload": workload,
            "scheme": scheme,
            "phase": phase,
            "instructions": fast["instructions"],
            "fast_instrs_per_sec": fast["instrs_per_sec"],
            "slow_instrs_per_sec": slow["instrs_per_sec"],
            "speedup": (
                fast["instrs_per_sec"] / slow["instrs_per_sec"]
                if slow["instrs_per_sec"] > 0
                else 0.0
            ),
        }
        vector = modes.get("fast-vector")
        if vector is not None:
            cell["vector_instrs_per_sec"] = vector["instrs_per_sec"]
            cell["vector_speedup"] = (
                vector["instrs_per_sec"] / fast["instrs_per_sec"]
                if fast["instrs_per_sec"] > 0
                else 0.0
            )
            cell["fused_fraction"] = vector.get("fused_fraction", 0.0)
        speedups.append(cell)
    largest = max(
        (s for s in speedups if s["phase"] == "warm"),
        key=lambda s: s["instructions"],
        default=None,
    )
    return {"speedups": speedups, "largest_workload": largest}


def run_bench(
    workloads: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    repeat: int = 3,
    threshold: float = 0.05,
    profile: Optional[str] = None,
    pipeline: bool = False,
    opstats: bool = False,
) -> Dict:
    """Run the benchmark matrix and return the ``BENCH_engine`` payload."""
    names = list(workloads) if workloads else [w.name for w in all_workloads()]
    profiler = cProfile.Profile() if profile else None
    records: List[Dict] = []
    opstats_cells: Optional[Dict] = {} if opstats else None
    for name in names:
        records.extend(
            bench_workload(
                name, schemes=schemes, repeat=repeat,
                threshold=threshold, profiler=profiler,
                opstats_out=opstats_cells,
            )
        )
        if pipeline:
            records.extend(
                bench_pipeline(name, repeat=repeat, threshold=threshold)
            )
    payload = {
        "benchmark": "engine-throughput",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "schema": list(SCHEMA_FIELDS),
        "schemes": list(schemes),
        "repeat": repeat,
        "results": records,
    }
    if opstats_cells is not None:
        payload["opstats"] = [
            dict(stats, workload=workload, scheme=scheme)
            for (workload, scheme), stats in sorted(opstats_cells.items())
        ]
    payload.update(summarize(records))
    if profiler is not None:
        profiler.dump_stats(profile)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(15)
    return payload


def compare_bench(
    payload: Dict, baseline: Dict, tolerance: float = 0.2
) -> Dict:
    """Per-cell warm fast-path throughput comparison against a baseline.

    Matches cells by (workload, scheme) between the two payloads'
    ``speedups`` sections and flags any cell whose current warm
    fast-path throughput fell more than ``tolerance`` (a fraction)
    below the baseline.  When both payloads carry vector-backend
    throughput for a cell (``vector_instrs_per_sec``), that throughput
    is gated with the same tolerance — a vector regression fails the
    cell even if the tuple path held up.  Baseline cells the current
    run did not benchmark are reported as ``skipped`` (subset runs —
    CI smoke benches one workload against the full checked-in
    baseline); cells new in the current run are reported as ``new``.
    Neither fails the comparison.  Throughput ratios, not wall times,
    so the check is insensitive to instruction-count drift between
    versions.
    """
    current = {
        (c["workload"], c["scheme"]): c for c in payload.get("speedups", [])
    }
    base = {
        (c["workload"], c["scheme"]): c for c in baseline.get("speedups", [])
    }
    cells: List[Dict] = []
    regressions = 0
    for key in sorted(set(base) | set(current)):
        workload, scheme = key
        base_cell, cur_cell = base.get(key), current.get(key)
        entry: Dict = {"workload": workload, "scheme": scheme}
        if base_cell is None:
            entry.update(status="new", ratio=None)
        elif cur_cell is None:
            entry.update(status="skipped", ratio=None)
        else:
            base_ips = base_cell["fast_instrs_per_sec"]
            cur_ips = cur_cell["fast_instrs_per_sec"]
            ratio = cur_ips / base_ips if base_ips > 0 else 1.0
            ok = ratio >= 1.0 - tolerance
            entry.update(
                baseline_instrs_per_sec=base_ips,
                current_instrs_per_sec=cur_ips,
                ratio=ratio,
            )
            base_vec = base_cell.get("vector_instrs_per_sec")
            cur_vec = cur_cell.get("vector_instrs_per_sec")
            if base_vec is not None and cur_vec is not None:
                vector_ratio = cur_vec / base_vec if base_vec > 0 else 1.0
                entry.update(
                    baseline_vector_instrs_per_sec=base_vec,
                    current_vector_instrs_per_sec=cur_vec,
                    vector_ratio=vector_ratio,
                )
                ok = ok and vector_ratio >= 1.0 - tolerance
            entry["status"] = "ok" if ok else "regressed"
            if not ok:
                regressions += 1
        cells.append(entry)
    return {"tolerance": tolerance, "cells": cells, "regressions": regressions}


def format_compare(comparison: Dict) -> str:
    """Human-readable per-cell report for ``repro bench --compare``."""
    tolerance = comparison["tolerance"]
    lines = [
        f"{'workload':<14} {'scheme':<8} {'baseline i/s':>13} "
        f"{'current i/s':>13} {'ratio':>7} {'vec':>6}  status"
    ]
    skipped = 0
    for cell in comparison["cells"]:
        if cell["status"] == "skipped":
            skipped += 1
            continue
        if cell["ratio"] is None:
            lines.append(
                f"{cell['workload']:<14} {cell['scheme']:<8} "
                f"{'-':>13} {'-':>13} {'-':>7} {'-':>6}  {cell['status']}"
            )
            continue
        vector_ratio = cell.get("vector_ratio")
        vector_text = f"{vector_ratio:.2f}" if vector_ratio is not None else "-"
        lines.append(
            f"{cell['workload']:<14} {cell['scheme']:<8} "
            f"{cell['baseline_instrs_per_sec']:>13.0f} "
            f"{cell['current_instrs_per_sec']:>13.0f} "
            f"{cell['ratio']:>7.2f} {vector_text:>6}  {cell['status']}"
        )
    if skipped:
        lines.append(f"({skipped} baseline cell(s) not benchmarked this run)")
    n = comparison["regressions"]
    lines.append(
        f"{n} regression(s) beyond {tolerance:.0%} tolerance"
        if n
        else f"all cells within {tolerance:.0%} of baseline"
    )
    return "\n".join(lines)


def format_opstats(payload: Dict) -> str:
    """Human-readable opcode/region stats (``repro bench --opstats``)."""
    cells = payload.get("opstats") or []
    if not cells:
        return "no opstats collected (vector backend unavailable?)"
    lines = []
    for cell in cells:
        lengths = cell["region_lengths"]
        lines.append(
            f"{cell['workload']}/{cell['scheme']} [{cell['backend']}]: "
            f"{cell['regions']} fused region(s), "
            f"{cell['fused_static']}/{cell['static_instructions']} static "
            f"ops fused, {cell['folded_ops']} folded, "
            f"{cell['fused_fraction']:.0%} of "
            f"{cell['dynamic_instructions']} dynamic instrs in regions"
        )
        if lengths:
            lines.append(
                f"  region lengths: min {min(lengths)} "
                f"median {sorted(lengths)[len(lengths) // 2]} "
                f"max {max(lengths)}"
            )
        top = sorted(
            cell["opcodes"].items(), key=lambda kv: -kv[1]
        )[:8]
        lines.append(
            "  opcodes: "
            + "  ".join(f"{op}:{count}" for op, count in top)
        )
    return "\n".join(lines)


def write_bench(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_bench(payload: Dict) -> str:
    """Human-readable summary table for the CLI."""
    lines = [
        f"{'workload':<14} {'scheme':<8} {'instrs':>8} "
        f"{'fast i/s':>12} {'vector i/s':>12} {'fused':>6} "
        f"{'slow i/s':>12} {'speedup':>8}"
    ]
    for cell in payload["speedups"]:
        vector = cell.get("vector_instrs_per_sec")
        vector_text = f"{vector:.0f}" if vector is not None else "-"
        fused = cell.get("fused_fraction")
        fused_text = f"{fused:.0%}" if fused is not None else "-"
        lines.append(
            f"{cell['workload']:<14} {cell['scheme']:<8} "
            f"{cell['instructions']:>8} "
            f"{cell['fast_instrs_per_sec']:>12.0f} "
            f"{vector_text:>12} {fused_text:>6} "
            f"{cell['slow_instrs_per_sec']:>12.0f} "
            f"{cell['speedup']:>7.2f}x"
        )
    largest = payload.get("largest_workload")
    if largest is not None:
        lines.append(
            f"largest workload: {largest['workload']}/{largest['scheme']} "
            f"({largest['instructions']} instrs) -> "
            f"{largest['speedup']:.2f}x fast path"
        )
    return "\n".join(lines)
