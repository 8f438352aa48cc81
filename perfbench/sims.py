"""In-process calls into the simulator stack, shared by the workloads
and the reference workers.

Every call into a layer's public function goes through a
:class:`lib.Tracer` span, so a traced run can split host time by
layer.  :func:`instrument` additionally wraps the two public functions
that run *inside* other calls (``profile_dependences`` inside
``compile_workload``, ``lowered_for`` inside the ``TLSEngine``
constructor) for the duration of a traced run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Tuple

from repro.compiler import pipeline
from repro.compiler.pipeline import CompiledWorkload, compile_workload
from repro.experiments.runner import BAR_PROGRAM, config_for
from repro.ir import lower
from repro.serve.protocol import canonical_result_bytes
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import collect_oracle
from repro.workloads import get_workload

import gen
import lib

#: Programs whose value oracles the grid's bars need (O and E).
ORACLE_PROGRAMS = ("baseline", "sync_ref")

#: Programs the grid's bars run.
PROGRAMS = ("baseline", "sync_ref", "sync_train")

#: The shipped engine backends; ``tuples`` is the default.
BACKENDS = ("tuples", "vector")

Bundle = Tuple[CompiledWorkload, Dict]


@contextmanager
def instrument(tracer: lib.Tracer):
    """Trace ``profile_dependences`` and ``lowered_for`` while active."""
    if not tracer.enabled:
        yield
        return
    patched = [
        (pipeline, "profile_dependences", "compiler.profile"),
        (lower, "lowered_for", "lower"),
    ]
    originals = []
    for module, name, layer in patched:
        original = getattr(module, name)
        originals.append((module, name, original))

        def wrapper(*args, _original=original, _name=name, _layer=layer, **kwargs):
            with tracer.span(_name, _layer):
                return _original(*args, **kwargs)

        setattr(module, name, functools.wraps(original)(wrapper))
    try:
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def compile_bundle(name: str, tracer: lib.Tracer) -> Bundle:
    """Compile one workload and collect its value oracles."""
    workload = get_workload(name)
    with tracer.span("compile_workload", "compiler", workload=name):
        compiled = compile_workload(
            workload.name, workload.build, workload.train_input,
            workload.ref_input, threshold=0.05,
        )
    collected = {}
    for attr in ORACLE_PROGRAMS:
        with tracer.span("collect_oracle", "oracle", program=attr):
            collected[attr] = collect_oracle(getattr(compiled, attr))
    return compiled, collected


def grid_setup(tracer: lib.Tracer) -> Tuple[Dict[str, Bundle], float]:
    """sim-grid set-up: compile all 15 workloads, collect their
    oracles and warm the vector kernels of every program the bars run.

    Returns the bundles and the set-up's host seconds.
    """
    started = time.perf_counter()
    bundles = {}
    warm = SimConfig(backend="vector")
    with tracer.span("grid_setup", "bench", op="setup"):
        for name in gen.WORKLOADS:
            bundles[name] = compile_bundle(name, tracer)
            for attr in PROGRAMS:
                with tracer.span("TLSEngine", "engine", program=attr):
                    TLSEngine(getattr(bundles[name][0], attr), config=warm)
    return bundles, time.perf_counter() - started


def point_config(bar: str, machine, **mode) -> SimConfig:
    """The SimConfig a point (or a serve request) simulates."""
    config = config_for(bar, SimConfig(**dict(machine)))
    return config.with_mode(**mode) if mode else config


def engine_for(bundle: Bundle, bar: str, config: SimConfig) -> TLSEngine:
    compiled, oracles = bundle
    attr = BAR_PROGRAM[bar]
    oracle: Optional[object] = None
    if config.oracle_mode != "off":
        oracle = oracles[attr]
    return TLSEngine(getattr(compiled, attr), config=config, oracle=oracle)


def digest(result) -> str:
    """Digest of a ``SimResult`` in the serve API's byte encoding."""
    return lib.digest_bytes(canonical_result_bytes(result.to_state()))


def run_point(bundles: Dict[str, Bundle], point, op: str,
              order: Sequence[str], tracer: lib.Tracer,
              keep_state: bool = False) -> Dict:
    """Simulate one point on a fresh ``TLSEngine`` per backend, in
    ``order``.  A backend's sample is its engine's construction plus
    its run, on host time.  The record carries each backend's timings,
    result digest and fused-instruction count, and the simulated
    counts; with ``keep_state`` also the result's state."""
    workload, bar, machine = point
    record: Dict = {"id": op, "point": point}
    with tracer.span("point", "bench", op=op, workload=workload, bar=bar):
        for backend in order:
            config = point_config(bar, machine, backend=backend)
            with tracer.span("TLSEngine", "engine", backend=backend):
                t0 = time.perf_counter()
                engine = engine_for(bundles[workload], bar, config)
                t1 = time.perf_counter()
            with tracer.span("TLSEngine.run", "engine", backend=backend):
                result = engine.run()
                t2 = time.perf_counter()
            state = result.to_state()
            record[backend] = {
                "sample_s": t2 - t0, "ctor_s": t1 - t0, "run_s": t2 - t1,
                "digest": lib.digest_bytes(canonical_result_bytes(state)),
                "fused": engine.fused_instructions,
            }
    record["instructions"] = engine.instructions
    record["counters"] = dict(result.counters)
    if keep_state:
        record["state"] = state
    return record


def reference_digest(bundle: Bundle, bar: str, machine) -> str:
    """Digest of the slow per-op oracle's result for one point."""
    config = point_config(bar, machine, fast_path=False)
    return digest(engine_for(bundle, bar, config).run())
