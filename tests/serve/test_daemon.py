"""End-to-end daemon tests over real HTTP.

The load-bearing contract: any (workload, bar, threshold) served by
the daemon is **byte-identical** to the batch runner's output — both
the canonical ``SimResult`` payload and the typed JSONL event stream.
Plus the service semantics: lifecycle, single-flight warm-up,
admission control (429), drain (503), and per-job artifact-counter
flush through a real process pool.
"""

import statistics
import threading
import time

import pytest

from repro.compiler.pipeline import compile_workload
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import trace as trace_mod
from repro.experiments.payloads import compiled_to_state
from repro.experiments.runner import bundle_for
from repro.serve.client import (
    DaemonDraining,
    JobRejected,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import (
    DONE,
    JobRequest,
    canonical_event_lines,
    canonical_events_bytes,
    canonical_result_bytes,
)
from repro.workloads.base import get_workload, unknown_workload_error

#: The figure-10 bar sample (tests/smoke/test_serve_smoke.py pins the
#: same bars against a real ``repro serve`` process).
FIG10_BARS = ("U", "P", "H", "C", "B")


def _batch_result_bytes(workload: str, bar: str, threshold: float) -> bytes:
    """The batch runner's canonical payload, computed in-process."""
    artifacts_mod.configure(False)
    bundle = bundle_for(workload, threshold=threshold)
    return canonical_result_bytes(bundle.simulate(bar).to_state())


def test_results_byte_identical_to_batch_runner(daemon_url):
    with ServeClient(daemon_url) as client:
        for bar in FIG10_BARS:
            status = client.run(JobRequest(workload="go", bar=bar))
            assert status["state"] == DONE, status.get("error")
            served = client.result_bytes(status["job"])
            assert served == _batch_result_bytes("go", bar, 0.05), bar


def test_event_stream_byte_identical_to_batch_trace(daemon_url):
    with ServeClient(daemon_url) as client:
        status = client.run(JobRequest(workload="go", bar="C", events=True))
        assert status["state"] == DONE, status.get("error")
        assert status["source"] == "traced"
        served = client.events_bytes(status["job"])
    run = trace_mod.run_traced("go", bar="C", threshold=0.05)
    expected = canonical_events_bytes(
        canonical_event_lines(
            run.events,
            meta={
                "workload": "go",
                "bar": "C",
                "num_cores": run.num_cores,
                "issue_width": run.issue_width,
            },
        )
    )
    assert served == expected


def test_status_lifecycle_and_artifact_counters(daemon_url):
    with ServeClient(daemon_url) as client:
        first = client.run(JobRequest(workload="go", bar="C"))
        assert first["state"] == DONE
        assert first["source"] == "computed"
        assert first["wall_s"] > 0
        # The cold job's pipeline records the compile it triggered,
        # and its artifact delta shows the store miss.
        assert any(j["kind"] == "compile" for j in first["pipeline"])
        assert first["artifacts"]["misses"] == 1

        second = client.run(JobRequest(workload="go", bar="C"))
        assert second["source"] == "memo"  # warm worker: no recompute
        assert second["artifacts"] == {
            "corrupt": 0, "hits": 0, "misses": 0, "version_mismatch": 0,
        }

        stats = client.stats()
        assert stats["jobs"]["completed"] == 2
        assert stats["jobs"]["states"] == {"done": 2}
        assert stats["latency"]["C"]["count"] == 2
        assert stats["queue"]["rejected"] == 0


def test_warm_requests_beat_the_cold_request(daemon_url):
    """Two concurrent clients on a warm key: memo hits, faster than cold.

    The nightly process-worker soak in ``tests/stability`` runs the
    same gates at scale.
    """
    request = JobRequest(workload="go", bar="U")
    with ServeClient(daemon_url) as client:
        started = time.perf_counter()
        cold = client.run(request)
        cold_wall = time.perf_counter() - started
        assert cold["state"] == DONE and cold["source"] == "computed"
        cold_bytes = client.result_bytes(cold["job"])

    latencies, problems = [], []

    def warm_client():
        with ServeClient(daemon_url) as client:
            for _ in range(20):
                started = time.perf_counter()
                status = client.run(request)
                latencies.append(time.perf_counter() - started)
                if status["source"] != "memo":
                    problems.append(status)
                elif client.result_bytes(status["job"]) != cold_bytes:
                    problems.append("result diverged")

    threads = [threading.Thread(target=warm_client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert problems == []
    assert len(latencies) == 40
    assert statistics.median(latencies) < cold_wall


def test_concurrent_cold_submits_compile_once(daemon_url):
    """Six racing submits for one cold key -> exactly one compute."""
    statuses = []
    lock = threading.Lock()

    def submit():
        with ServeClient(daemon_url) as client:
            status = client.run(JobRequest(workload="gzip_comp", bar="U"))
            with lock:
                statuses.append(status)

    threads = [threading.Thread(target=submit) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    assert len(statuses) == 6
    assert all(s["state"] == DONE for s in statuses)
    sources = sorted(s["source"] for s in statuses)
    assert sources == ["computed"] + ["memo"] * 5
    # All six agree byte-for-byte, of course.
    with ServeClient(daemon_url) as client:
        payloads = {client.result_bytes(s["job"]) for s in statuses}
    assert len(payloads) == 1


def test_inline_pool_compiles_distinct_cold_keys_deterministically(
    daemon_url,
):
    """Two cold keys submitted together to the inline pool compile to
    exactly what a serial ``compile_workload`` produces.

    Compiles number instructions from one process-wide id counter, so
    two compiles running on daemon threads at once would interleave
    their ids (or fail outright on a missing id).
    """
    workloads = ("go", "gcc")
    with ServeClient(daemon_url) as client:
        jobs = [
            client.submit(JobRequest(workload=name, bar="U"))
            for name in workloads
        ]
        statuses = [client.wait(job, timeout=180.0) for job in jobs]
    for status in statuses:
        assert status["state"] == DONE, status.get("error")
    for name in workloads:
        served = compiled_to_state(bundle_for(name).compiled)
        workload = get_workload(name)
        serial = compile_workload(
            name, workload.build, workload.train_input, workload.ref_input,
        )
        assert served == compiled_to_state(serial), name


def test_queue_full_maps_to_429(make_daemon):
    _embedded, base_url = make_daemon(queue_size=0)
    with ServeClient(base_url) as client:
        with pytest.raises(JobRejected) as excinfo:
            client.submit(JobRequest(workload="go"))
        assert excinfo.value.status == 429


def test_drain_finishes_inflight_then_refuses_submits(make_daemon):
    embedded, base_url = make_daemon()
    with ServeClient(base_url) as client:
        status = client.run(JobRequest(workload="go", bar="U"))
        assert status["state"] == DONE
        drained = client.drain()
        assert drained["drained"] is True
        assert drained["jobs_completed"] == 1
    embedded._thread.join(10.0)
    assert not embedded._thread.is_alive()  # daemon exited cleanly
    # A drained daemon accepts nothing (connection refused counts too).
    with pytest.raises((DaemonDraining, ServeError, OSError)):
        with ServeClient(base_url, timeout=2.0) as client:
            client.submit(JobRequest(workload="go"))


def test_http_errors(daemon_url):
    with ServeClient(daemon_url) as client:
        # 400: invalid payload, worded as every entry point words it.
        status, payload = client._json(
            "POST", "/v1/jobs", {"workload": "no-such-workload"}
        )
        assert status == 400
        assert payload["error"] == unknown_workload_error("no-such-workload")
        assert payload["error"].startswith(
            "unknown workload 'no-such-workload'; valid: go, "
        )
        # 404: unknown job / unknown route.
        assert client._json("GET", "/v1/jobs/j999")[0] == 404
        assert client._json("GET", "/v1/nope")[0] == 404
        # 405: wrong method on a job route.
        assert client._json("POST", "/v1/jobs/j999/result")[0] == 405
        # 404 events for a job submitted without events=true.
        done = client.run(JobRequest(workload="go", bar="U"))
        status, payload = client._json(
            "GET", f"/v1/jobs/{done['job']}/events"
        )
        assert status == 404


def test_process_pool_serves_and_flushes_counters(make_daemon):
    """A real worker process: results match and counters flow back."""
    _embedded, base_url = make_daemon(workers=1)
    with ServeClient(base_url) as client:
        first = client.run(JobRequest(workload="go", bar="U"), timeout=180.0)
        assert first["state"] == DONE, first.get("error")
        assert first["worker_pid"] != 0
        served = client.result_bytes(first["job"])
        # Counter flush is per job, not at pool shutdown: the worker's
        # store miss is visible in daemon stats while it keeps running.
        assert client.stats()["artifacts"]["misses"] == 1
        second = client.run(JobRequest(workload="go", bar="U"))
        assert second["source"] == "memo"
    assert served == _batch_result_bytes("go", "U", 0.05)
