"""Soak the serve daemon: repeated warm submits must not leak.

A long-lived daemon's failure mode is slow growth — job records that
are never evicted, per-request metrics that accumulate, worker memos
that balloon.  This tier hammers one embedded daemon with warm submits
(the steady-state workload of a deployment) and gates on:

* zero failed jobs over the whole soak,
* results staying byte-identical from first to last iteration,
* tracemalloc growth ratio below a small bound once warm,
* the job-record retention cap actually bounding the daemon's map.

A second daemon soak runs two process workers under four concurrent
clients and gates on latency: warm answers come from the worker memo
and beat every cold request.

Iteration count scales with ``REPRO_SOAK_ITERS`` (default 300 — about
a minute; the nightly workflow raises it).
"""

import os
import statistics
import threading
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.daemon import EmbeddedDaemon, ServeConfig
from repro.serve.protocol import DONE, JobRequest

SOAK_ITERS = int(os.environ.get("REPRO_SOAK_ITERS", "300"))

#: Allowed tracemalloc growth once warm.  The daemon retains a bounded
#: window of job records, so steady state should be nearly flat; 1.5x
#: leaves room for allocator noise while catching real leaks (an
#: unbounded jobs map grows past 2x within a few hundred iterations).
MAX_GROWTH_RATIO = 1.5


@pytest.mark.stability
def test_soak_warm_submits_do_not_leak(tmp_path, memory_tracker):
    config = ServeConfig(
        port=0,
        workers=0,
        retain_jobs=64,
        cache_root=str(tmp_path / "soak-cache"),
    )
    embedded = EmbeddedDaemon(config)
    base_url = embedded.start()
    requests = [
        JobRequest(workload="go", bar="U"),
        JobRequest(workload="go", bar="C"),
    ]
    try:
        with ServeClient(base_url) as client:
            # Warm-up: pay the compiles AND fill the job-record
            # retention window, then baseline the tracker — the first
            # ``retain_jobs`` records are legitimate bounded growth;
            # the gate measures steady state beyond it.
            reference = {}
            for request in requests:
                status = client.run(request)
                assert status["state"] == DONE, status.get("error")
                reference[request.bar] = client.result_bytes(status["job"])
            warmup = config.retain_jobs + 16
            for i in range(warmup):
                status = client.run(requests[i % len(requests)])
                assert status["state"] == DONE, status.get("error")
            memory_tracker.snapshot(time.monotonic())

            last = {}
            for i in range(SOAK_ITERS):
                request = requests[i % len(requests)]
                status = client.run(request)
                assert status["state"] == DONE, status.get("error")
                assert status["source"] == "memo"
                last[request.bar] = client.result_bytes(status["job"])
                if i % 50 == 49:
                    memory_tracker.snapshot(time.monotonic())

            memory_tracker.snapshot(time.monotonic())
            # Determinism held from first to last warm submit.
            assert last == {bar: reference[bar] for bar in last}

            stats = client.stats()
            assert stats["jobs"]["completed"] == (
                SOAK_ITERS + warmup + len(requests)
            )
            # Retention cap bounds the daemon's job map.
            assert stats["jobs"]["retained"] <= config.retain_jobs + 1
            assert stats["queue"]["rejected"] == 0

        growth = memory_tracker.get_growth_ratio()
        assert growth < MAX_GROWTH_RATIO, (
            f"daemon memory grew {growth:.2f}x over {SOAK_ITERS} warm "
            f"submits (bound {MAX_GROWTH_RATIO}x)"
        )
    finally:
        embedded.stop()


#: Concurrent client threads and request matrix of the process soak.
CLIENTS = 4
MATRIX = [
    JobRequest(workload=workload, bar=bar)
    for workload in ("go", "mcf")
    for bar in ("U", "C")
]


@pytest.mark.stability
def test_soak_process_workers_answer_warm_from_memo(tmp_path):
    """Warm requests through two process workers: memo, identical, fast.

    A request is *warm* when the worker that answered it had already
    finished the same cell before the request was sent, so that
    worker's bundle memo holds the result.  Other requests are first
    touches of a cell on the second worker (affinity spills under
    concurrency) and are only checked for errors and identity.

    Gates: no error or rejection over the soak; every warm source is
    ``memo``; every answer is byte-identical to the cold one; the warm
    p50 latency is below the fastest cold request.
    """
    config = ServeConfig(
        port=0, workers=2, cache_root=str(tmp_path / "soak-cache")
    )
    embedded = EmbeddedDaemon(config)
    base_url = embedded.start()
    lock = threading.Lock()
    finished = set()  # (worker pid, cell) pairs that have answered
    warm = []  # (source, submit-to-done seconds) of warm requests
    problems = []
    try:
        cold_bytes, cold_walls = {}, []
        with ServeClient(base_url) as client:
            for request in MATRIX:
                cell = (request.workload, request.bar)
                started = time.perf_counter()
                status = client.run(request)
                cold_walls.append(time.perf_counter() - started)
                assert status["state"] == DONE, status.get("error")
                assert status["source"] == "computed"
                cold_bytes[cell] = client.result_bytes(status["job"])
                finished.add((status["worker_pid"], cell))

        def client_loop(offset):
            with ServeClient(base_url) as client:
                for i in range(SOAK_ITERS // CLIENTS):
                    request = MATRIX[(offset + i) % len(MATRIX)]
                    cell = (request.workload, request.bar)
                    with lock:
                        seen = frozenset(finished)
                    started = time.perf_counter()
                    try:
                        status = client.run(request)
                        latency = time.perf_counter() - started
                        if status["state"] != DONE:
                            raise RuntimeError(status.get("error"))
                        body = client.result_bytes(status["job"])
                    except Exception as exc:
                        with lock:
                            problems.append(f"{cell}: {exc!r}")
                        continue
                    pair = (status["worker_pid"], cell)
                    with lock:
                        finished.add(pair)
                        if pair in seen:
                            warm.append((status["source"], latency))
                        if body != cold_bytes[cell]:
                            problems.append(f"{cell}: result diverged")

        threads = [
            threading.Thread(target=client_loop, args=(offset,))
            for offset in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        with ServeClient(base_url) as client:
            stats = client.stats()
    finally:
        embedded.stop()

    assert problems == []
    assert stats["queue"]["rejected"] == 0
    assert stats["jobs"]["states"].get("failed", 0) == 0
    # First touches are bounded: each (worker, cell) pair the cold pass
    # missed has at most one request in flight per client.
    sent = (SOAK_ITERS // CLIENTS) * CLIENTS
    assert len(warm) >= sent - len(MATRIX) * CLIENTS
    assert {source for source, _ in warm} == {"memo"}
    warm_p50 = statistics.median(latency for _, latency in warm)
    assert warm_p50 < min(cold_walls), (
        f"warm p50 {warm_p50 * 1e3:.1f} ms not below the fastest cold "
        f"request {min(cold_walls) * 1e3:.1f} ms"
    )


#: Back-to-back engine sims for the vector-backend soak; the nightly
#: workflow can raise it like the daemon soak above.
SIM_ITERS = int(os.environ.get("REPRO_SOAK_SIM_ITERS", "500"))


@pytest.mark.stability
def test_soak_vector_sims_bound_kernel_memo_and_buffers(memory_tracker):
    """Repeated vector sims: kernel memo and region buffers stay flat.

    The codegen source memo is process-wide; if per-sim state leaked
    into it (or if region store buffers / rollback traces survived
    their engine), 500 back-to-back simulations would show monotonic
    growth.  Gates: memo footprint identical to its post-warm-up size,
    byte-identical results first to last, tracemalloc growth bounded.
    """
    from repro.experiments.runner import bundle_for, config_for
    from repro.ir import codegen
    from repro.tlssim.engine import TLSEngine

    bundle = bundle_for("go")
    program = bundle.program("U")
    config = config_for("U").with_mode(backend="vector")

    # Warm-up pays the one-time lowering + kernel compiles.
    warm_engine = TLSEngine(program, config=config, parallel=True)
    reference = warm_engine.run().to_state()
    assert warm_engine.backend == "vector"
    assert warm_engine.fused_regions > 0
    warm_memo = codegen.compile_stats()["memo_size"]
    memory_tracker.snapshot(time.monotonic())

    last = None
    for i in range(SIM_ITERS):
        engine = TLSEngine(program, config=config, parallel=True)
        last = engine.run().to_state()
        if i % 100 == 99:
            assert last == reference
            memory_tracker.snapshot(time.monotonic())

    memory_tracker.snapshot(time.monotonic())
    assert last == reference
    stats = codegen.compile_stats()
    assert stats["memo_size"] == warm_memo, (
        f"kernel memo grew from {warm_memo} to {stats['memo_size']} "
        f"entries over {SIM_ITERS} sims"
    )
    growth = memory_tracker.get_growth_ratio()
    assert growth < MAX_GROWTH_RATIO, (
        f"engine memory grew {growth:.2f}x over {SIM_ITERS} vector sims "
        f"(bound {MAX_GROWTH_RATIO}x)"
    )
