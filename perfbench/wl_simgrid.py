"""``sim-grid``: a seeded sweep of distinct simulations, in process.

Set-up compiles all 15 workloads, collects their value oracles and
warms the vector kernels.  Each drawn point (workload x bar x machine)
then runs on a fresh ``TLSEngine`` once per shipped backend (``tuples``,
the default, and ``vector``), alternating which goes first.  A
backend's sample is its engine's construction plus its run, on host
time; an operation is one point on both backends, so its latency is
the sum of the two samples.  The per-backend figures go on the
``detail`` line.
The points run in :data:`ROUNDS` rounds; after each, two reference
workers compute the slow per-op oracle's digest of its points.  Both
backends must match it, which also makes them identical to each
other.  The workers start after the first round and each repeats the
set-up first, giving the three set-ups whose median is ``setup_s``.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Tuple

from repro.ir import codegen

import gen
import lib
import probe
import refs
import sims

#: Points always run, whatever ``--seconds`` says: the p90 of each
#: backend needs at least 10 samples beyond it, and 7 whole blocks of
#: the generator keep the (workload, bar) mix the same for every seed.
MIN_POINTS = 105

BACKENDS = sims.BACKENDS

#: The timed points are split into rounds with a reference check
#: between them, so one run's samples span more of the host's speed
#: drift (tens of seconds on a shared 2-vCPU machine).
ROUNDS = 4

#: Points whose results the traced run puts through a fresh result
#: store: one block of the generator, the same mix for every seed.
STORED_POINTS = len(gen.WORKLOADS)


def _measure(ctx, bundles, draw, records: List[Dict], quota: float,
             seconds: float) -> Tuple[List[Dict], float]:
    """Run points until ``records`` holds ``quota`` and ``seconds``
    passed; returns the new records and the seconds spent."""
    tracer = ctx.tracer
    fresh: List[Dict] = []
    started = time.perf_counter()
    while len(records) < quota or time.perf_counter() - started < seconds:
        point = next(draw, None)
        if point is None:
            break
        index = len(records)
        order = BACKENDS if index % 2 == 0 else BACKENDS[::-1]
        record = sims.run_point(
            bundles, point, f"point-{index}", order, tracer,
            keep_state=tracer.enabled and index < STORED_POINTS)
        records.append(record)
        fresh.append(record)
    return fresh, time.perf_counter() - started


def run(ctx) -> Dict:
    tracer = ctx.tracer
    codegen.reset_stats()
    with sims.instrument(tracer):
        bundles, setup_main = sims.grid_setup(tracer)
    setup_codegen = codegen.compile_stats()
    setup_spans = list(tracer.spans)

    draw = gen.points(ctx.seed, gen.GRID_AXES)
    records: List[Dict] = []
    expected: Dict[str, str] = {}
    setups = [setup_main]
    loop_s = 0.0
    pool = None
    try:
        for round_index in range(ROUNDS):
            share = (round_index + 1) / ROUNDS
            fresh, spent = _measure(ctx, bundles, draw, records, MIN_POINTS * share,
                                    ctx.seconds * share - loop_s)
            loop_s += spent
            if pool is None:
                pool = refs.RefPool(ctx.work, ctx.env, setup=True)
                setups.extend(pool.setup_s)
            expected.update(pool.compute([[r["id"], *r["point"]] for r in fresh]))
    finally:
        if pool is not None:
            pool.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    for record in records:
        for backend in BACKENDS:
            if record[backend]["digest"] != expected.get(record["id"]):
                failed += 1
                ctx.note(f"mismatch: {record['point']} on {backend}")

    latencies = [sum(r[b]["sample_s"] for b in BACKENDS) * 1e3 for r in records]
    e2e = {
        "setup_s": (lib.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "p50_ms": (lib.percentile(latencies, 50), "ms"),
        "p90_ms": (lib.tail_percentile(latencies, 90), "ms"),
        "ops_per_s": (len(records) / (sum(latencies) / 1e3), "1/s"),
    }
    detail: Dict[str, float] = {}
    instructions = sum(r["instructions"] for r in records)
    for backend, prefix in (("tuples", "sim."), ("vector", "sim.vector_")):
        samples = [r[backend]["sample_s"] * 1e3 for r in records]
        detail[prefix + "ips"] = instructions / (sum(samples) / 1e3)
        detail[prefix + "p50_ms"] = lib.percentile(samples, 50)
        detail[prefix + "p90_ms"] = lib.tail_percentile(samples, 90)
    ctx.note(
        f"sim-grid: {len(records)} points x {len(BACKENDS)} backends in "
        f"{loop_s:.1f} s; set-ups {', '.join(f'{s:.2f}' for s in setups)} s; "
        f"highest supported percentile p{lib.highest_percentile(len(records)):g}"
    )

    layers: Dict = {"samples": (len(records), "count")}
    if tracer.enabled:
        _walls, imports = probe.import_probe(ctx)
        layers["import.cli_s"] = (lib.median(imports), "s")
        layers.update(probe.compiler_layers(setup_spans, bundles))
        layers.update(probe.codegen_layers(setup_codegen))
        layers.update(probe.engine_layers(records, records[:MIN_POINTS]))
        layers.update(probe.store_layers(
            ctx, bundles, [r["state"] for r in records[:STORED_POINTS]]))
    return {"attempted": len(records) * len(BACKENDS), "failed": failed,
            "e2e": e2e, "layers": layers, "detail": detail}
