"""Per-layer figures: the same set on every workload's traced run.

Every traced run reports every per-layer metric, whatever its
workload.  Where the workload's timed loop does not pass through a
layer in this process (``cli`` runs subprocesses, ``serve`` simulates
in the daemon's workers), the traced run calls that layer's public
functions here, on the workload's own inputs:

* ``import repro.cli`` in fresh processes (:func:`import_probe`);
* the workload's programs compiled and their oracles collected
  (:func:`compile_bundles`);
* the workload's first points simulated on both backends
  (:func:`simulate`);
* the compiled programs and the simulated results written to fresh
  stores and read back (:func:`store_layers`).

Each ``*_layers`` function turns what was measured into metrics;
:func:`in_process` does all but the import probe for ``cli`` and
``serve``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from repro.experiments.artifacts import ArtifactStore
from repro.experiments.cache import ResultCache
from repro.ir import codegen
from repro.serve.protocol import canonical_result_bytes
from repro.workloads import get_workload

import lib
import sims

#: Prints the in-process import time of the CLI module.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)

IMPORT_REPEATS = 5

#: Dependence threshold every workload compiles at (the runner's default).
THRESHOLD = 0.05

#: Per-process limit for the import probe.
IMPORT_TIMEOUT_S = 60.0


def import_probe(ctx, repeats: int = IMPORT_REPEATS) -> Tuple[List[float], List[float]]:
    """Start ``repeats`` processes that import ``repro.cli``.

    Returns their host seconds from start to exit, and the import time
    each measured in itself.
    """
    walls, imports = [], []
    for index in range(repeats):
        out = os.path.join(ctx.work, f"import-{index}.txt")
        code, wall, _rss, _s, _e = lib.run_timed(
            [ctx.python, "-c", IMPORT_PROBE], ctx.work, ctx.env, IMPORT_TIMEOUT_S, out)
        if code != 0:
            raise RuntimeError(f"import probe exited {code}")
        walls.append(wall)
        with open(out) as handle:
            imports.append(float(handle.read()))
    return walls, imports


def compile_bundles(names: Sequence[str], tracer: lib.Tracer) -> Dict[str, sims.Bundle]:
    """Compile each workload and collect its oracles, traced."""
    with sims.instrument(tracer), tracer.span("compile", "bench", op="compile"):
        return {name: sims.compile_bundle(name, tracer) for name in names}


def simulate(bundles: Dict[str, sims.Bundle], points: Sequence, tracer: lib.Tracer) -> List[Dict]:
    """Run each point on both backends, keeping the result states."""
    with sims.instrument(tracer):
        return [
            sims.run_point(bundles, point, f"probe-{index}", sims.BACKENDS, tracer,
                           keep_state=True)
            for index, point in enumerate(points)
        ]


def in_process(ctx, points: Sequence) -> Tuple[Dict, int]:
    """Compile the workloads of ``points``, run the points on both
    backends and put both through fresh stores, all traced.  Returns
    the compiler, codegen, engine and store metrics, and the points
    whose backends disagree."""
    tracer = ctx.tracer
    codegen.reset_stats()
    first = len(tracer.spans)
    bundles = compile_bundles(sorted({point[0] for point in points}), tracer)
    records = simulate(bundles, points, tracer)
    layers = compiler_layers(tracer.spans[first:], bundles)
    layers.update(codegen_layers(codegen.compile_stats()))
    layers.update(engine_layers(records, records))
    layers.update(store_layers(ctx, bundles, [r["state"] for r in records]))
    return layers, backend_mismatches(records)


def backend_mismatches(records: Sequence[Dict]) -> int:
    """Points whose ``tuples`` and ``vector`` results differ."""
    return sum(
        1 for record in records
        if record["tuples"]["digest"] != record["vector"]["digest"]
    )


def compiler_layers(spans: Sequence[Dict], bundles: Dict[str, sims.Bundle]) -> Dict:
    """Compiler, oracle and lowering self times from ``spans``, and the
    compiled programs' sizes."""
    by_layer = lib.self_time_by(spans, "layer")
    static = groups = 0
    for compiled, _oracles in bundles.values():
        static += sum(
            len(list(fn.instructions())) for fn in compiled.sync_ref.functions.values()
        )
        groups += sum(len(g) for g in compiled.groups_ref.values())
    return {
        "compiler.compile_s": (by_layer.get("compiler", 0.0), "s"),
        "compiler.profile_s": (by_layer.get("compiler.profile", 0.0), "s"),
        "compiler.static_instrs": (static, "count"),
        "compiler.sync_groups": (groups, "count"),
        "oracle.collect_s": (by_layer.get("oracle", 0.0), "s"),
        "lower.setup_s": (by_layer.get("lower", 0.0), "s"),
    }


def codegen_layers(stats: Dict) -> Dict:
    """``repro.ir.codegen.compile_stats()`` over the lowering measured."""
    return {
        "codegen.compiles": (stats["compiles"], "count"),
        "codegen.memo_hits": (stats["memo_hits"], "count"),
    }


def engine_layers(records: Sequence[Dict], counted: Sequence[Dict]) -> Dict:
    """Engine host times per backend over ``records``, and the
    simulated counts summed over ``counted``."""
    instructions = sum(r["instructions"] for r in records)
    layers: Dict = {}
    for backend, prefix in (("tuples", "engine."), ("vector", "engine.vector_")):
        run_s = sum(r[backend]["run_s"] for r in records)
        layers[prefix + "ctor_ms"] = (
            lib.median([r[backend]["ctor_s"] * 1e3 for r in records]), "ms")
        layers[prefix + "run_ns_per_instr"] = (run_s / instructions * 1e9, "ns")
    layers["engine.vector_fused_fraction"] = (
        sum(r["vector"]["fused"] for r in records) / instructions, "ratio")
    for name, value in lib.model_counts(counted).items():
        layers[name] = (value, "ratio" if name.endswith("ratio") else "count")
    return layers


def store_layers(ctx, bundles: Dict[str, sims.Bundle], states: Sequence[Dict]) -> Dict:
    """Round trips through fresh stores: every compiled program saved to
    an artifact store and loaded back, every result state put in a
    result store and got back.  A round trip that does not return what
    went in raises."""
    tracer = ctx.tracer
    store = ArtifactStore(os.path.join(ctx.work, "probe-artifacts"))
    with tracer.span("artifacts.save", "artifacts", op="stores") as save:
        for name, (compiled, _oracles) in bundles.items():
            store.save_compiled(get_workload(name), THRESHOLD, compiled)
    with tracer.span("artifacts.load", "artifacts", op="stores") as load:
        loaded = [store.load_compiled(get_workload(name), THRESHOLD) for name in bundles]
    if any(compiled is None for compiled in loaded):
        raise RuntimeError("artifact store lost a compiled program")
    results = ResultCache(os.path.join(ctx.work, "probe-results"))
    puts, gets = [], []
    for state in states:
        key = lib.digest_bytes(canonical_result_bytes(state))
        with tracer.span("results.put", "results", op="stores") as span:
            results.put(key, state)
        puts.append(span["end"] - span["start"])
        with tracer.span("results.get", "results", op="stores") as span:
            payload = results.get(key)
        gets.append(span["end"] - span["start"])
        if payload is None or lib.digest_bytes(canonical_result_bytes(payload)) != key:
            raise RuntimeError("result store returned another payload")
    return {
        "artifacts.save_s": (save["end"] - save["start"], "s"),
        "artifacts.load_s": (load["end"] - load["start"], "s"),
        "results.put_ms": (lib.median(puts) * 1e3, "ms"),
        "results.get_ms": (lib.median(gets) * 1e3, "ms"),
    }
