"""The ``repro serve`` daemon: simulation-as-a-service over HTTP/JSON.

Architecture::

    HTTP clients ──> asyncio server ──> JobScheduler ──> worker pool
                        (http.py)      (admission,       (pool.py,
                                        batching,         persistent +
                                        single-flight)    warm)

Every submitted job becomes a :class:`JobRecord`; the scheduler
batches same-(workload, threshold) jobs and leases each key to one
worker at a time (single-flight compilation); workers keep compiled
artifacts and decoded programs hot across jobs and flush their
artifact-store counters back **per job**, so status and stats
responses are accurate on a daemon that never restarts.

Endpoints (all under ``/v1``):

* ``POST /v1/jobs`` — submit ``{"workload", "bar", "threshold",
  "events"}``; 202 with the job id, 429 when the queue is full
  (backpressure), 503 while draining.
* ``GET /v1/jobs/{id}`` — lifecycle status + provenance + per-job
  artifact counters.
* ``GET /v1/jobs/{id}/result`` — the canonical result bytes
  (byte-identical to the batch runner's ``SimResult.to_state()``).
* ``GET /v1/jobs/{id}/events`` — the typed event stream as JSONL
  (byte-identical to ``repro trace --format jsonl``); only for jobs
  submitted with ``"events": true``.
* ``GET /v1/healthz``, ``GET /v1/stats`` — liveness and service
  metrics (queue depth, jobs by state, per-worker states, artifact
  counters, latency percentiles from the metrics registry).
* ``GET /v1/metrics`` — Prometheus text exposition of the daemon and
  process registries plus queue/worker/cache gauges.
* ``GET /v1/jobs/{id}/spans`` — the job's trace (daemon- and
  worker-side spans, one ``trace_id``); ``GET /v1/jobs/{id}/profile``
  serves the cProfile summary of a ``"profile": true`` job.
* ``POST /v1/debug/flightrec`` — dump the daemon's flight-recorder
  ring and signal process workers (SIGUSR2) to dump theirs.
* ``POST /v1/drain`` — stop admission, wait for in-flight jobs, then
  shut down; SIGTERM/SIGINT trigger the same graceful drain.

Every submitted job gets a trace: ``http.submit`` (admission) ->
``job.queued`` (queue wait) -> ``batch.execute`` (lease to outcome)
-> the worker's ``worker.execute`` children, adopted from the
client's W3C ``traceparent`` header when present.  ``repro trace
--job`` merges these with the job's sim events into one Chrome trace.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments import artifacts as artifacts_mod
from repro.experiments.scheduler import JobScheduler, QueueFull, SchedulerDrained
from repro.obs import flightrec
from repro.obs import log as log_mod
from repro.obs import prom as prom_mod
from repro.obs import spans as spans_mod
from repro.obs.registry import MetricsRegistry, process_registry
from repro.serve import http as http_mod
from repro.serve import pool as pool_mod
from repro.serve.protocol import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRequest,
    ProtocolError,
    canonical_events_bytes,
    canonical_result_bytes,
    error_body,
)

#: latency histogram buckets, seconds (sub-millisecond to one minute).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: worker processes; 0 runs jobs on daemon-process threads.
    workers: int = 2
    #: admission-control bound on queued (unleased) jobs -> HTTP 429.
    queue_size: int = 64
    #: max same-key jobs leased to a worker in one batch.
    batch_limit: int = 8
    #: threads for the inline (``workers=0``) pool.
    inline_threads: int = 2
    #: completed job records kept for status/result queries.
    retain_jobs: int = 1024
    cache_enabled: bool = True
    cache_root: Optional[str] = None
    #: structured-log settings, propagated to pool workers.
    log_level: str = "info"
    log_json: bool = False


@dataclass
class JobRecord:
    """One job's lifecycle, kept for the status endpoints."""

    job_id: str
    request: JobRequest
    state: str = QUEUED
    source: str = ""
    error: str = ""
    worker_pid: int = 0
    wall_s: float = 0.0
    result_state: Optional[Dict] = None
    event_lines: Optional[List[str]] = None
    artifact_delta: Dict[str, int] = field(default_factory=dict)
    pipeline: List[Dict] = field(default_factory=list)
    #: the job's trace: finished spans (daemon- and worker-side).
    trace_id: str = ""
    spans: List[Dict] = field(default_factory=list)
    profile: Optional[Dict] = None
    #: live daemon-side spans (not serialized until they end).
    queue_span: Optional[object] = field(default=None, repr=False)
    batch_span: Optional[object] = field(default=None, repr=False)

    def status_payload(self) -> Dict:
        payload = {
            "job": self.job_id,
            "state": self.state,
            "request": self.request.to_dict(),
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.state in (DONE, FAILED):
            payload.update(
                source=self.source,
                wall_s=self.wall_s,
                worker_pid=self.worker_pid,
                artifacts=dict(self.artifact_delta),
                pipeline=list(self.pipeline),
            )
            if self.profile is not None:
                payload["profile"] = {
                    "path": self.profile.get("path"),
                }
        if self.state == FAILED:
            payload["error"] = self.error
        return payload


class Daemon:
    """The asyncio daemon; construct, then ``asyncio.run(daemon.run())``."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.scheduler = JobScheduler(
            capacity=self.config.queue_size,
            batch_limit=self.config.batch_limit,
        )
        self.registry = MetricsRegistry()
        self.jobs: Dict[str, JobRecord] = {}
        self.port: Optional[int] = None
        self._job_seq = 0
        self._batch_seq = 0
        self._finished: Deque[str] = deque()
        self._submit_times: Dict[str, float] = {}
        #: batch id -> (key, job ids, worker id)
        self._batches: Dict[int, Tuple] = {}
        self._free_workers: Deque[int] = deque()
        self._affinity: Dict[Tuple, int] = {}
        self._rejected = 0
        self._completed = 0
        self._pool = None
        self._log = log_mod.get_logger("serve")
        #: worker id -> {"worker", "pid", "state", "key", "jobs"}
        self._worker_states: Dict[int, Dict] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._clients: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def run(self, ready=None) -> None:
        """Serve until drained (``POST /v1/drain`` or SIGTERM/SIGINT)."""
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._pool = pool_mod.make_pool(
            self.config.workers,
            self._threadsafe_on_message,
            cache_enabled=self.config.cache_enabled,
            cache_root=self.config.cache_root,
            inline_threads=self.config.inline_threads,
            log_state=log_mod.config_state(),
        )
        self._pool.start()
        self._free_workers = deque(range(self._pool.size))
        pids = self._pool.pids()
        self._worker_states = {
            worker_id: {
                "worker": worker_id,
                "pid": pids[worker_id] if worker_id < len(pids) else 0,
                "state": "idle",
                "key": None,
                "jobs": 0,
            }
            for worker_id in range(self._pool.size)
        }
        flightrec.configure(
            component="daemon", root=self.config.cache_root
        )
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if ready is not None:
            ready(self)
        self._log.info(
            "listening",
            url=f"http://{self.config.host}:{self.port}",
            workers=self._pool.size,
            queue=self.config.queue_size,
        )
        try:
            await self._shutdown.wait()
        finally:
            dispatcher.cancel()
            self._server.close()
            await self._server.wait_closed()
            for task in list(self._clients):
                task.cancel()
            self._pool.stop()
        self._log.info("drained", jobs_completed=self._completed)

    def _install_signal_handlers(self) -> None:
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
            self._loop.add_signal_handler(
                signal.SIGUSR2,
                lambda: flightrec.get().dump(
                    "sigusr2", root=self.config.cache_root
                ),
            )
        except (NotImplementedError, RuntimeError, ValueError):
            # Non-main thread (embedded/test daemons) or platforms
            # without signal support: drain via POST /v1/drain instead.
            pass

    def request_drain(self) -> None:
        """Stop admission; shut down once every job has finished."""
        if not self.scheduler.draining:
            self.scheduler.drain()
        self._wakeup.set()
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if (
            self.scheduler.draining
            and self.scheduler.idle()
            and not self._batches
            and not self._drained.is_set()
        ):
            self._drained.set()
            # A beat later so the drain response still goes out.
            self._loop.call_later(0.05, self._shutdown.set)

    # ------------------------------------------------------------------
    # dispatch: scheduler -> pool
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            self._pump()
            self._maybe_finish_drain()

    def _pump(self) -> None:
        """Hand queued batches to free workers (affinity first)."""
        while self._free_workers:
            leased = self.scheduler.next_batch()
            if leased is None:
                return
            key, job_ids = leased
            worker_id = self._affinity.get(key)
            if worker_id is None or worker_id not in self._free_workers:
                worker_id = self._free_workers[0]
            self._free_workers.remove(worker_id)
            self._affinity[key] = worker_id
            self._batch_seq += 1
            batch_id = self._batch_seq
            self._batches[batch_id] = (key, job_ids, worker_id)
            jobs = []
            for job_id in job_ids:
                record = self.jobs[job_id]
                record.state = RUNNING
                queued = record.queue_span
                trace_ctx = None
                if queued is not None:
                    queued.end(batch=batch_id, worker=worker_id)
                    record.spans.append(queued.to_dict())
                    record.queue_span = None
                    batch_span = spans_mod.Span.start(
                        "batch.execute",
                        parent=queued.context,
                        component="scheduler",
                        batch=batch_id,
                        worker=worker_id,
                        job=job_id,
                    )
                    record.batch_span = batch_span
                    trace_ctx = batch_span.context.to_dict()
                jobs.append((job_id, record.request.to_dict(), trace_ctx))
            self._pool.submit(
                worker_id,
                pool_mod.batch_message(
                    batch_id,
                    jobs,
                    cache_root=self.config.cache_root,
                    store_profiles=self.config.cache_enabled,
                ),
            )

    # ------------------------------------------------------------------
    # pool messages (worker -> daemon)
    # ------------------------------------------------------------------

    def _threadsafe_on_message(self, message: Dict) -> None:
        self._loop.call_soon_threadsafe(self._on_pool_message, message)

    def _on_pool_message(self, message: Dict) -> None:
        op = message.get("op")
        if op == "job":
            self._finish_job(message["job"], message["outcome"])
        elif op == "batch_start":
            # Busy from the worker's side: a leased batch still in the
            # task queue leaves the worker idle (and its flight recorder
            # naming no job) until the worker takes it.
            entry = self._batches.get(message["batch"])
            if entry is not None:
                key, _job_ids, worker_id = entry
                worker = self._worker_states.get(worker_id)
                if worker is not None:
                    worker["state"] = "busy"
                    worker["key"] = list(key)
        elif op == "batch_done":
            entry = self._batches.pop(message["batch"], None)
            if entry is not None:
                key, _job_ids, worker_id = entry
                self.scheduler.complete(key)
                self._free_workers.append(worker_id)
                worker = self._worker_states.get(worker_id)
                if worker is not None:
                    worker["state"] = "idle"
                    worker["key"] = None
            self._wakeup.set()
            self._maybe_finish_drain()

    def _finish_job(self, job_id: str, outcome: Dict) -> None:
        record = self.jobs.get(job_id)
        if record is None:
            return
        record.wall_s = outcome.get("wall_s", 0.0)
        record.worker_pid = outcome.get("pid", 0)
        record.artifact_delta = dict(outcome.get("artifact_delta", {}))
        record.pipeline = list(outcome.get("pipeline", []))
        if outcome.get("ok"):
            record.state = DONE
            record.source = outcome.get("source", "")
            record.result_state = outcome.get("result")
            record.event_lines = outcome.get("events")
        else:
            record.state = FAILED
            record.error = outcome.get("error", "job failed")
        record.spans.extend(outcome.get("spans") or [])
        record.profile = outcome.get("profile")
        batch_span = record.batch_span
        if batch_span is not None:
            batch_span.end(
                status="ok" if record.state == DONE else "error",
                source=record.source,
            )
            record.spans.append(batch_span.to_dict())
            record.batch_span = None
        for worker in self._worker_states.values():
            if worker["pid"] == record.worker_pid:
                worker["jobs"] += 1
                break
        self._log.info(
            "job_done",
            job=job_id,
            state=record.state,
            workload=record.request.workload,
            bar=record.request.bar,
            source=record.source,
            wall_s=round(record.wall_s, 6),
            worker_pid=record.worker_pid,
        )
        # Per-job counter flush: a process worker's artifact-store
        # counters land here with the job that caused them, so a
        # long-lived daemon's stats never lag behind the pool.
        if self._pool.external_state and record.artifact_delta:
            artifacts_mod.merge_counters(record.artifact_delta)
        self._completed += 1
        submitted = self._submit_times.pop(job_id, None)
        if submitted is not None:
            self.registry.histogram(
                "serve_job_seconds",
                buckets=LATENCY_BUCKETS,
                scheme=record.request.bar,
            ).observe(max(0.0, self._loop.time() - submitted))
        self.registry.counter("serve_jobs", state=record.state).inc()
        self._finished.append(job_id)
        while len(self._finished) > self.config.retain_jobs:
            self.jobs.pop(self._finished.popleft(), None)

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                try:
                    request = await http_mod.read_request(reader)
                except http_mod.BadRequest as exc:
                    await http_mod.write_response(
                        writer,
                        http_mod.HTTPResponse.json(
                            error_body(str(exc)), status=400
                        ),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                try:
                    response = await self._route(request)
                except http_mod.BadRequest as exc:
                    response = http_mod.HTTPResponse.json(
                        error_body(str(exc)), status=400
                    )
                except Exception as exc:  # pragma: no cover - last resort
                    response = http_mod.HTTPResponse.json(
                        error_body(f"internal error: {exc}"), status=500
                    )
                keep = request.keep_alive
                await http_mod.write_response(writer, response, keep_alive=keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(self, request: http_mod.HTTPRequest) -> http_mod.HTTPResponse:
        method, path = request.method, request.path
        if path == "/v1/jobs" and method == "POST":
            return self._submit(request)
        if path == "/v1/healthz" and method == "GET":
            return http_mod.HTTPResponse.json(self._health_payload())
        if path == "/v1/stats" and method == "GET":
            return http_mod.HTTPResponse.json(self._stats_payload())
        if path == "/v1/metrics" and method == "GET":
            return self._metrics()
        if path == "/v1/debug/flightrec" and method == "POST":
            return self._flightrec_dump()
        if path == "/v1/drain" and method == "POST":
            return await self._drain(request)
        captured = http_mod.route_match(path, "/v1/jobs/{id}/spans")
        if captured:
            if method != "GET":
                return self._method_not_allowed()
            return self._job_spans(captured[0])
        captured = http_mod.route_match(path, "/v1/jobs/{id}/profile")
        if captured:
            if method != "GET":
                return self._method_not_allowed()
            return self._job_profile(captured[0])
        captured = http_mod.route_match(path, "/v1/jobs/{id}")
        if captured:
            if method != "GET":
                return self._method_not_allowed()
            return self._job_status(captured[0])
        captured = http_mod.route_match(path, "/v1/jobs/{id}/result")
        if captured:
            if method != "GET":
                return self._method_not_allowed()
            return self._job_result(captured[0])
        captured = http_mod.route_match(path, "/v1/jobs/{id}/events")
        if captured:
            if method != "GET":
                return self._method_not_allowed()
            return self._job_events(captured[0])
        return http_mod.HTTPResponse.json(
            error_body(f"no route for {method} {path}"), status=404
        )

    @staticmethod
    def _method_not_allowed() -> http_mod.HTTPResponse:
        return http_mod.HTTPResponse.json(
            error_body("method not allowed"), status=405
        )

    def _submit(self, request: http_mod.HTTPRequest) -> http_mod.HTTPResponse:
        parent = spans_mod.parse_traceparent(
            request.headers.get("traceparent", "")
        )
        submit_span = spans_mod.Span.start(
            "http.submit", parent=parent, component="http"
        )
        try:
            job_request = JobRequest.from_dict(request.json())
        except ProtocolError as exc:
            submit_span.end(status="error", error=str(exc))
            return http_mod.HTTPResponse.json(error_body(str(exc)), status=400)
        self._job_seq += 1
        job_id = f"j{self._job_seq:08d}"
        try:
            self.scheduler.submit(job_request.key, job_id)
        except SchedulerDrained:
            self._job_seq -= 1
            submit_span.end(status="drained")
            return http_mod.HTTPResponse.json(
                error_body("daemon is draining"), status=503
            )
        except QueueFull as exc:
            self._job_seq -= 1
            self._rejected += 1
            self.registry.counter("serve_rejected").inc()
            submit_span.end(status="rejected")
            return http_mod.HTTPResponse.json(
                error_body(str(exc), queued=self.scheduler.queued),
                status=429,
                **{"Retry-After": "1"},
            )
        record = JobRecord(job_id=job_id, request=job_request)
        submit_span.end(
            status="accepted",
            job=job_id,
            workload=job_request.workload,
            bar=job_request.bar,
        )
        record.trace_id = submit_span.trace_id
        record.spans.append(submit_span.to_dict())
        record.queue_span = spans_mod.Span.start(
            "job.queued",
            parent=submit_span.context,
            component="scheduler",
            job=job_id,
        )
        self.jobs[job_id] = record
        self._submit_times[job_id] = self._loop.time()
        self._wakeup.set()
        return http_mod.HTTPResponse.json(
            {"job": job_id, "state": QUEUED, "trace_id": record.trace_id},
            status=202,
        )

    def _job_status(self, job_id: str) -> http_mod.HTTPResponse:
        record = self.jobs.get(job_id)
        if record is None:
            return http_mod.HTTPResponse.json(
                error_body(f"unknown job {job_id!r}"), status=404
            )
        return http_mod.HTTPResponse.json(record.status_payload())

    def _job_result(self, job_id: str) -> http_mod.HTTPResponse:
        record = self.jobs.get(job_id)
        if record is None:
            return http_mod.HTTPResponse.json(
                error_body(f"unknown job {job_id!r}"), status=404
            )
        if record.state == FAILED:
            return http_mod.HTTPResponse.json(
                error_body(record.error or "job failed"), status=500
            )
        if record.state != DONE or record.result_state is None:
            return http_mod.HTTPResponse.json(
                error_body("job not finished", state=record.state), status=409
            )
        return http_mod.HTTPResponse.bytes(
            canonical_result_bytes(record.result_state)
        )

    def _job_events(self, job_id: str) -> http_mod.HTTPResponse:
        record = self.jobs.get(job_id)
        if record is None:
            return http_mod.HTTPResponse.json(
                error_body(f"unknown job {job_id!r}"), status=404
            )
        if record.state != DONE:
            return http_mod.HTTPResponse.json(
                error_body("job not finished", state=record.state), status=409
            )
        if record.event_lines is None:
            return http_mod.HTTPResponse.json(
                error_body(
                    "job was not submitted with events=true"
                ),
                status=404,
            )
        return http_mod.HTTPResponse.bytes(
            canonical_events_bytes(record.event_lines),
            content_type="application/x-ndjson",
        )

    async def _drain(self, _request) -> http_mod.HTTPResponse:
        self.request_drain()
        await self._drained.wait()
        return http_mod.HTTPResponse.json(
            {"drained": True, "jobs_completed": self._completed}
        )

    def _metrics(self) -> http_mod.HTTPResponse:
        """Prometheus text exposition (``GET /v1/metrics``)."""
        synth = MetricsRegistry()
        synth.gauge("serve_queue_depth").set(self.scheduler.queued)
        synth.gauge("serve_queue_capacity").set(self.scheduler.capacity)
        synth.gauge("serve_queue_inflight").set(self.scheduler.inflight)
        state_counts: Dict[str, int] = {"idle": 0, "busy": 0}
        for worker in self._worker_states.values():
            state = worker["state"]
            state_counts[state] = state_counts.get(state, 0) + 1
        for state, count in sorted(state_counts.items()):
            synth.gauge("serve_worker_states", state=state).set(count)
        synth.gauge("serve_jobs_retained").set(len(self.jobs))
        counters = artifacts_mod.counters()
        lookups = counters.get("hits", 0) + counters.get("misses", 0)
        synth.gauge("serve_artifact_hit_ratio").set(
            counters.get("hits", 0) / lookups if lookups else 0.0
        )
        text = prom_mod.render_prometheus(
            [self.registry, process_registry(), synth],
            help_text={
                "serve_job_seconds": "End-to-end job latency (submit to done).",
                "serve_jobs": "Jobs finished, by terminal state.",
                "serve_rejected": "Submissions rejected by admission control.",
                "serve_queue_depth": "Jobs queued and not yet leased.",
                "serve_worker_states": "Workers by current state.",
                "serve_artifact_hit_ratio": "Artifact-store hit fraction.",
            },
        )
        return http_mod.HTTPResponse.bytes(
            text.encode(), content_type=prom_mod.CONTENT_TYPE
        )

    def _job_spans(self, job_id: str) -> http_mod.HTTPResponse:
        record = self.jobs.get(job_id)
        if record is None:
            return http_mod.HTTPResponse.json(
                error_body(f"unknown job {job_id!r}"), status=404
            )
        return http_mod.HTTPResponse.json({
            "job": job_id,
            "trace_id": record.trace_id,
            "spans": list(record.spans),
        })

    def _job_profile(self, job_id: str) -> http_mod.HTTPResponse:
        record = self.jobs.get(job_id)
        if record is None:
            return http_mod.HTTPResponse.json(
                error_body(f"unknown job {job_id!r}"), status=404
            )
        if record.profile is None or not record.profile.get("text"):
            return http_mod.HTTPResponse.json(
                error_body(
                    "job was not submitted with profile=true",
                    state=record.state,
                ),
                status=404,
            )
        return http_mod.HTTPResponse.bytes(
            record.profile["text"].encode(),
            content_type="text/plain; charset=utf-8",
        )

    def _flightrec_dump(self) -> http_mod.HTTPResponse:
        """Dump the daemon ring; nudge process workers via SIGUSR2."""
        paths = []
        try:
            paths.append(
                flightrec.get().dump("http", root=self.config.cache_root)
            )
        except OSError as exc:
            return http_mod.HTTPResponse.json(
                error_body(f"flight-recorder dump failed: {exc}"), status=500
            )
        signaled = []
        if self._pool is not None and self._pool.external_state:
            for pid in self._pool.pids():
                try:
                    os.kill(pid, signal.SIGUSR2)
                    signaled.append(pid)
                except (OSError, ProcessLookupError):
                    pass
        return http_mod.HTTPResponse.json(
            {"dumped": paths, "signaled": signaled}
        )

    # ------------------------------------------------------------------
    # payloads
    # ------------------------------------------------------------------

    def _health_payload(self) -> Dict:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "workers": self._pool.size if self._pool else 0,
            "queued": self.scheduler.queued,
            "inflight": self.scheduler.inflight,
        }

    def _states_histogram(self) -> Dict[str, int]:
        states: Dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return states

    def _stats_payload(self) -> Dict:
        latency = {}
        for metric in self.registry:
            if metric.name == "serve_job_seconds":
                entry = dict(metric.labels)
                entry.update(metric.summary(), count=metric.count,
                             mean=metric.mean())
                latency[metric.labels.get("scheme", "")] = entry
        return {
            "workers": self._pool.size if self._pool else 0,
            "worker_states": [
                dict(self._worker_states[worker_id])
                for worker_id in sorted(self._worker_states)
            ],
            "draining": self.scheduler.draining,
            "queue": {
                "capacity": self.scheduler.capacity,
                "queued": self.scheduler.queued,
                "inflight": self.scheduler.inflight,
                "rejected": self._rejected,
            },
            "jobs": {
                "completed": self._completed,
                "retained": len(self.jobs),
                "states": self._states_histogram(),
            },
            "artifacts": artifacts_mod.counters(),
            "latency": latency,
        }


# ---------------------------------------------------------------------------
# embedded daemon (tests)
# ---------------------------------------------------------------------------


class EmbeddedDaemon:
    """A daemon on a background thread with its own event loop.

    The test suite uses this to stand up a real HTTP daemon
    in-process::

        embedded = EmbeddedDaemon(ServeConfig(port=0, workers=0))
        base_url = embedded.start()
        ...
        embedded.stop()          # graceful drain
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.daemon = Daemon(config)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> str:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-embedded", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("embedded daemon did not start in time")
        if self._error is not None:
            raise RuntimeError(
                f"embedded daemon failed to start: {self._error}"
            )
        return self.base_url

    def _run(self) -> None:
        try:
            asyncio.run(self.daemon.run(ready=lambda _d: self._ready.set()))
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    @property
    def base_url(self) -> str:
        return f"http://{self.daemon.config.host}:{self.daemon.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the daemon thread."""
        loop = self.daemon._loop
        if loop is not None and self._thread and self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.daemon.request_drain)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)
