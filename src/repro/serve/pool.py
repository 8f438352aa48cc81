"""Persistent warm workers for the serve daemon.

A worker is a long-lived process (or, for ``workers=0``, the one
thread of the inline pool in the daemon process) that executes
batches of jobs for one (workload, threshold) key at a time.  Workers
keep the :mod:`repro.experiments.runner` bundle memo hot: the first
job for a key loads the compiled artifact (or compiles and stores it)
and every later job reuses the in-memory modules, decoded programs,
and oracle — the whole point of serving from a daemon instead of
re-spawning the batch pipeline.

Counter discipline: artifact-store hit/fallback counters are
snapshotted around **every job** and the delta ships back in that
job's outcome message, so the daemon's status/stats endpoints are
accurate while the pool keeps running — nothing waits for pool
shutdown.  Run-metrics are reset per job for the same reason (and so a
soak of thousands of jobs cannot grow the collector without bound).

Message protocol (picklable dicts):

* daemon -> worker: ``{"op": "batch", "batch": id, "jobs": [[job_id,
  request_dict, trace_ctx_or_None], ...]}`` or ``{"op": "stop"}``
* worker -> daemon: ``{"op": "batch_start", "worker": i, "batch": id}``
  once the worker has taken a batch, ``{"op": "job", "worker": i,
  "job": job_id, "outcome": {...}}`` per job, then ``{"op":
  "batch_done", "worker": i, "batch": id}``; ``{"op": "bye", "worker":
  i}`` on exit.

Telemetry: the per-job ``trace_ctx`` is the daemon-side span context
(:class:`repro.obs.spans.SpanContext` as a dict); the worker parents
its ``worker.execute`` span under it and ships every span it finished
back in the outcome (``outcome["spans"]``), so one job's daemon- and
worker-side spans share a ``trace_id``.  Each worker process keeps a
flight recorder ring and dumps it on SIGUSR2 or an unhandled fault.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.obs import flightrec
from repro.obs import log as log_mod
from repro.obs import spans as spans_mod
from repro.serve.protocol import JobRequest, canonical_event_lines

#: provenance labels for a job outcome (where the result came from)
SOURCE_MEMO = "memo"        # served from the worker's warm bundle memo
SOURCE_CACHE = "cache"      # served from the persistent store
SOURCE_COMPUTED = "computed"  # simulated fresh in the worker
SOURCE_TRACED = "traced"    # live traced run (events requested)

def _profile_path(job_id: str, cache_root: Optional[str]) -> str:
    """Where a profiled job's pstats dump lands (under the store root)."""
    directory = artifacts_mod.ArtifactStore(cache_root).root / "profiles"
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{job_id or os.getpid()}.pstats")


def _profile_summary(profiler, limit: int = 30) -> str:
    """Top-N cumulative pstats lines as text (the /profile payload)."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue()


def execute_request(
    request: JobRequest,
    job_id: str = "",
    trace_ctx: Optional[Dict] = None,
    cache_root: Optional[str] = None,
    store_profile: bool = True,
) -> Dict:
    """Run one job in this process and return its outcome payload.

    The outcome carries the canonical result state, optional event
    lines, provenance, wall time, the spans finished while executing
    (parented under the daemon's ``trace_ctx``), and — the per-job
    counter flush — the artifact-store counter delta this job caused.
    """
    started = time.perf_counter()
    counters_before = artifacts_mod.counters()
    metrics_mod.reset()
    parent = spans_mod.SpanContext.from_dict(trace_ctx)
    profiler = None
    profile_info: Optional[Dict] = None
    with spans_mod.recording() as job_spans:
        try:
            with spans_mod.span(
                "worker.execute", parent=parent, component="worker",
                job=job_id, workload=request.workload, bar=request.bar,
                pid=os.getpid(),
            ):
                from repro.tlssim.config import SimConfig

                with spans_mod.span("bundle.warm", component="worker"):
                    bundle = runner.bundle_for(
                        request.workload, request.threshold
                    )
                    bundle.compiled  # compile or load the artifact
                # Machine-model overrides and predictor selection
                # ride in on the base config; the memo/disk keys
                # keep every distinct configuration separate so
                # each point's compute is accounted honestly.
                overrides = request.config_overrides()
                base = SimConfig(**overrides) if overrides else None
                if request.profile:
                    import cProfile

                    profiler = cProfile.Profile()
                    profiler.enable()
                try:
                    if request.events:
                        from repro.experiments import trace as trace_mod

                        with spans_mod.span(
                            "simulate.traced", component="worker",
                        ):
                            run = trace_mod.run_traced(
                                request.workload, bar=request.bar,
                                threshold=request.threshold, base=base,
                            )
                        result = run.result
                        event_lines: Optional[List[str]] = (
                            canonical_event_lines(
                                run.events,
                                meta={
                                    "workload": request.workload,
                                    "bar": request.bar,
                                    "num_cores": run.num_cores,
                                    "issue_width": run.issue_width,
                                },
                            )
                        )
                        source = SOURCE_TRACED
                    else:
                        with spans_mod.span(
                            "simulate", component="worker",
                        ):
                            result = bundle.simulate(
                                request.bar, base=base
                            )
                        event_lines = None
                        source = SOURCE_MEMO
                        for job in metrics_mod.current().jobs:
                            if (
                                job.kind == "bar"
                                and job.label == request.bar
                            ):
                                source = job.source
                finally:
                    if profiler is not None:
                        profiler.disable()
                pipeline = [
                    {"label": j.label, "kind": j.kind,
                     "source": j.source, "wall_s": j.wall_s}
                    for j in metrics_mod.current().jobs
                    if j.kind in ("compile", "oracle")
                ]
                if profiler is not None:
                    profile_info = {
                        "text": _profile_summary(profiler),
                        "path": None,
                    }
                    if store_profile:
                        try:
                            path = _profile_path(job_id, cache_root)
                            profiler.dump_stats(path)
                            profile_info["path"] = path
                        except OSError:
                            pass
                outcome = {
                    "ok": True,
                    "result": result.to_state(),
                    "events": event_lines,
                    "source": source,
                    "pipeline": pipeline,
                }
        except Exception:
            outcome = {"ok": False, "error": traceback.format_exc()}
    counters_after = artifacts_mod.counters()
    outcome.update(
        wall_s=time.perf_counter() - started,
        pid=os.getpid(),
        spans=job_spans,
        artifact_delta={
            name: counters_after[name] - counters_before.get(name, 0)
            for name in counters_after
        },
    )
    if profile_info is not None:
        outcome["profile"] = profile_info
    return outcome


def _run_batch(worker_id: int, message: Dict, emit: Callable[[Dict], None]) -> None:
    """Execute one batch message, emitting per-job outcomes.

    The flight recorder names the job about to run from the moment the
    batch is taken until the last outcome is emitted, and the daemon
    shows the worker busy only from ``batch_start`` to ``batch_done``,
    so a SIGUSR2 dump of a worker shown busy names a job even before
    the first one starts or between two of them.
    """
    cache_root = message.get("cache_root")
    store_profile = message.get("store_profiles", True)
    recorder = flightrec.get()
    try:
        for index, entry in enumerate(message["jobs"]):
            job_id, request_state = entry[0], entry[1]
            trace_ctx = entry[2] if len(entry) > 2 else None
            request = JobRequest.from_dict(request_state)
            recorder.set_inflight(
                job=job_id, workload=request.workload, bar=request.bar,
                threshold=request.threshold, events=request.events,
            )
            if index == 0:
                emit({"op": "batch_start", "worker": worker_id,
                      "batch": message["batch"]})
            outcome = execute_request(
                request,
                job_id=job_id,
                trace_ctx=trace_ctx,
                cache_root=cache_root,
                store_profile=store_profile,
            )
            emit({"op": "job", "worker": worker_id, "job": job_id,
                  "outcome": outcome})
    finally:
        recorder.clear_inflight()
    emit({"op": "batch_done", "worker": worker_id, "batch": message["batch"]})


def _worker_main(
    worker_id: int,
    tasks,
    results,
    cache_enabled: bool,
    cache_root: Optional[str],
    log_state: Optional[Dict] = None,
) -> None:
    """Process-worker entry point: serve batches until told to stop."""
    artifacts_mod.configure(cache_enabled, cache_root)
    runner.load_compute_stack()  # loaded before the first job
    artifacts_mod.reset_counters()  # forked workers inherit parent counts
    metrics_mod.reset()
    log_mod.apply_state(log_state)
    flightrec.configure(component=f"worker-{worker_id}", root=cache_root)
    flightrec.install_sigusr2()
    logger = log_mod.get_logger(f"worker-{worker_id}")
    logger.debug("worker_start", pid=os.getpid())
    # An unhandled fault (not a per-job failure — those ship in the
    # outcome) dumps the flight recorder before the process dies.
    with flightrec.fault_guard("worker-fault", root=cache_root):
        while True:
            message = tasks.get()
            if message is None or message.get("op") == "stop":
                break
            _run_batch(worker_id, message, results.put)
    results.put({"op": "bye", "worker": worker_id})


class ProcessPool:
    """N persistent worker processes with per-worker task queues.

    ``on_message`` is invoked from a collector thread for every
    worker-to-daemon message — callers must make it thread-safe
    (the daemon wraps it in ``loop.call_soon_threadsafe``).
    """

    def __init__(
        self,
        workers: int,
        on_message: Callable[[Dict], None],
        cache_enabled: bool = True,
        cache_root: Optional[str] = None,
        log_state: Optional[Dict] = None,
    ):
        if workers < 1:
            raise ValueError("ProcessPool needs at least one worker")
        #: worker state (artifact counters) lives outside the daemon
        #: process, so per-job deltas must be merged into it.
        self.external_state = True
        self.size = workers
        self._on_message = on_message
        self._cache_enabled = cache_enabled
        self._cache_root = cache_root
        self._log_state = log_state
        self._ctx = multiprocessing.get_context()
        self._tasks: List = []
        self._processes: List = []
        self._results = self._ctx.Queue()
        self._collector: Optional[threading.Thread] = None
        self._stopping = False

    def start(self) -> None:
        runner.load_compute_stack()  # forked workers inherit it
        for worker_id in range(self.size):
            tasks = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id, tasks, self._results,
                    self._cache_enabled, self._cache_root,
                    self._log_state,
                ),
                daemon=True,
                name=f"repro-serve-worker-{worker_id}",
            )
            process.start()
            self._tasks.append(tasks)
            self._processes.append(process)
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    def pids(self) -> List[int]:
        """Worker process pids (for stats / SIGUSR2 flight-rec dumps)."""
        return [
            process.pid or 0 for process in self._processes
        ]

    def _collect(self) -> None:
        pending_byes = self.size
        while pending_byes:
            message = self._results.get()
            if message.get("op") == "bye":
                pending_byes -= 1
                continue
            self._on_message(message)

    def submit(self, worker_id: int, message: Dict) -> None:
        self._tasks[worker_id].put(message)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every worker (queued batches finish first) and join."""
        if self._stopping:
            return
        self._stopping = True
        for tasks in self._tasks:
            tasks.put({"op": "stop"})
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=timeout)


class InlinePool:
    """One worker thread executing jobs in the daemon process.

    Used by ``--workers 0`` (tests, tiny deployments): same message
    protocol as :class:`ProcessPool`, but jobs run on one
    daemon-process thread, sharing its bundle memo and persistent
    stores directly.  One thread, because compiles number
    instructions from a process-wide id counter
    (:class:`repro.ir.basicblock.deterministic_iids`): two compiles
    running at once would interleave their ids.
    """

    def __init__(
        self,
        on_message: Callable[[Dict], None],
        cache_enabled: bool = True,
        cache_root: Optional[str] = None,
        log_state: Optional[Dict] = None,
    ):
        #: jobs bump the daemon's own artifact counters directly — the
        #: daemon must not merge the per-job deltas a second time.
        self.external_state = False
        self.size = 1
        self._on_message = on_message
        self._cache_enabled = cache_enabled
        self._cache_root = cache_root
        self._log_state = log_state
        self._executor: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        artifacts_mod.configure(self._cache_enabled, self._cache_root)
        runner.load_compute_stack()
        log_mod.apply_state(self._log_state)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-inline"
        )

    def pids(self) -> List[int]:
        """Inline workers share the daemon process."""
        return [os.getpid()]

    def submit(self, worker_id: int, message: Dict) -> None:
        if self._executor is None:
            raise RuntimeError("pool is not started")
        self._executor.submit(
            _run_batch, worker_id, message, self._on_message
        )

    def stop(self, timeout: float = 10.0) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def make_pool(
    workers: int,
    on_message: Callable[[Dict], None],
    cache_enabled: bool = True,
    cache_root: Optional[str] = None,
    log_state: Optional[Dict] = None,
):
    """``workers >= 1`` -> process pool; ``workers == 0`` -> inline."""
    if workers >= 1:
        return ProcessPool(
            workers, on_message,
            cache_enabled=cache_enabled, cache_root=cache_root,
            log_state=log_state,
        )
    return InlinePool(
        on_message,
        cache_enabled=cache_enabled, cache_root=cache_root,
        log_state=log_state,
    )


def batch_message(
    batch_id: int,
    jobs: Sequence[Tuple],
    cache_root: Optional[str] = None,
    store_profiles: bool = True,
) -> Dict:
    """Build the daemon->worker batch message.

    ``jobs`` entries are ``(job_id, request_dict)`` or
    ``(job_id, request_dict, trace_ctx_dict)``.
    """
    return {
        "op": "batch",
        "batch": batch_id,
        "jobs": [list(entry) for entry in jobs],
        "cache_root": cache_root,
        "store_profiles": store_profiles,
    }
