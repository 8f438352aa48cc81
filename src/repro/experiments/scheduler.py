"""Reusable job scheduling for the batch runner and the serve daemon.

Two layers live here, both independent of *how* jobs execute:

* **The job DAG** — :class:`JobSpec` / :class:`JobNode` /
  :class:`JobGraph`, extracted from :mod:`repro.experiments.runner` so
  the long-running daemon (:mod:`repro.serve`) can plan work with the
  same vocabulary the batch runner uses.  One ``compile`` node per
  (workload, threshold); every simulation node depends on its
  workload's compile node; groups of pending simulations under one
  compile dependency form a single worker task.

* **Service scheduling** — :class:`JobScheduler` adds what a daemon
  needs on top of the DAG: bounded admission (:class:`QueueFull` maps
  to HTTP 429), batching of same-key requests, a single-flight *lease*
  per key (at most one worker runs a key at a time, so N concurrent
  requests for one cold workload trigger exactly one compile), and
  graceful drain (:class:`SchedulerDrained` maps to HTTP 503).
  :class:`SingleFlight` / :class:`ReadThroughCache` are the in-process
  equivalents for threaded executors: concurrent loads of one key
  coalesce onto a single leader, followers share its result.

The scheduler is not thread-safe by itself beyond what is documented:
:class:`JobScheduler` expects a single coordinating thread (the
daemon's event loop); :class:`SingleFlight` and
:class:`ReadThroughCache` are safe to call from any thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "JobSpec",
    "JobNode",
    "JobGraph",
    "spec_id",
    "QueueFull",
    "SchedulerDrained",
    "JobScheduler",
    "SingleFlight",
    "ReadThroughCache",
]


# ---------------------------------------------------------------------------
# the job DAG (extracted from repro.experiments.runner)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One schedulable simulation (or profile) job.

    ``kind`` selects the execution recipe:

    * ``'bar'`` — ``bundle.simulate(label)``; ``overrides`` replace
      fields of the base :class:`~repro.tlssim.config.SimConfig`
      before bar resolution.
    * ``'custom'`` — ``bundle.simulate_custom(program, config)`` with
      ``config = SimConfig().with_mode(**overrides)``.
    * ``'fig06'`` — perfect prediction of the loads above ``param``
      dependence frequency (the oracle set is derived from the
      workload's dependence profile).
    * ``'profile'`` — compile-only: produce the profile summary.

    Specs are immutable, hashable, and picklable; the oracle set of a
    ``fig06`` job is deliberately *not* part of the spec — it is a
    deterministic function of the sources, which the cache key's code
    fingerprint already covers.
    """

    workload: str
    kind: str = "bar"
    label: str = "C"
    program: str = ""
    threshold: float = 0.05
    overrides: Tuple[Tuple[str, object], ...] = ()
    param: float = 0.0

    @property
    def key(self) -> Tuple[str, float]:
        """The compile-sharing key: jobs with equal keys batch together."""
        return (self.workload, self.threshold)


@dataclass
class JobNode:
    """A DAG node: a spec plus the node ids it depends on."""

    node_id: str
    spec: JobSpec
    deps: Tuple[str, ...] = ()


@dataclass
class JobGraph:
    """Explicit dependence graph for one sweep.

    One ``compile`` node per (workload, threshold); every simulation
    node depends on its workload's compile node.  ``profile`` jobs are
    folded into the compile node's payload.
    """

    nodes: Dict[str, JobNode] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)

    @staticmethod
    def build(specs: Sequence[JobSpec]) -> "JobGraph":
        graph = JobGraph()
        for spec in specs:
            compile_id = f"compile:{spec.workload}@{spec.threshold}"
            if compile_id not in graph.nodes:
                compile_spec = JobSpec(
                    workload=spec.workload,
                    kind="compile",
                    label="compile",
                    threshold=spec.threshold,
                )
                graph.nodes[compile_id] = JobNode(compile_id, compile_spec)
                graph.order.append(compile_id)
            node_id = spec_id(spec)
            if node_id not in graph.nodes:
                graph.nodes[node_id] = JobNode(node_id, spec, deps=(compile_id,))
                graph.order.append(node_id)
        return graph

    def sim_nodes(self) -> List[JobNode]:
        return [
            self.nodes[i] for i in self.order if self.nodes[i].spec.kind != "compile"
        ]

    def groups(self, pending: Sequence[JobSpec]) -> List[Tuple[str, float, List[JobSpec]]]:
        """Pending sim specs grouped under their compile dependency.

        Each group is one worker task: the compile node runs once,
        then every dependent simulation.  Groups are ordered by first
        appearance so scheduling is deterministic.
        """
        grouped: Dict[Tuple[str, float], List[JobSpec]] = {}
        keys: List[Tuple[str, float]] = []
        for spec in pending:
            key = (spec.workload, spec.threshold)
            if key not in grouped:
                grouped[key] = []
                keys.append(key)
            grouped[key].append(spec)
        return [(w, t, grouped[(w, t)]) for (w, t) in keys]


def spec_id(spec: JobSpec) -> str:
    """Stable node/job identity for one spec."""
    return (
        f"{spec.kind}:{spec.workload}@{spec.threshold}"
        f":{spec.label}:{spec.program}:{spec.param}:{spec.overrides}"
    )


# ---------------------------------------------------------------------------
# service scheduling: admission, batching, single-flight leases, drain
# ---------------------------------------------------------------------------


class QueueFull(RuntimeError):
    """Admission control rejected a submit (the queue is at capacity)."""


class SchedulerDrained(RuntimeError):
    """The scheduler is draining and refuses new work."""


class JobScheduler:
    """Bounded FIFO queues per key with single-flight batch leases.

    The daemon submits opaque *tokens* (job ids) under a *key* (the
    compile-sharing identity, usually ``JobSpec.key``).  A dispatcher
    repeatedly calls :meth:`next_batch`, which leases the oldest
    unleased key together with up to ``batch_limit`` of its queued
    tokens; while a key is leased no second batch for it is handed
    out, so a cold workload compiles exactly once no matter how many
    requests are queued behind it.  :meth:`complete` releases the
    lease, making the key eligible again if more tokens arrived.

    ``capacity`` bounds the total number of queued (not yet leased)
    tokens across all keys — the backpressure surface the daemon maps
    to HTTP 429.  :meth:`drain` flips the scheduler into drain mode:
    new submits raise :class:`SchedulerDrained`, already-queued work
    keeps flowing, and :meth:`idle` reports when everything (queued
    and leased) has finished.
    """

    def __init__(self, capacity: int = 256, batch_limit: int = 16):
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.capacity = capacity
        self.batch_limit = batch_limit
        #: per-key FIFO of queued tokens, insertion-ordered by the
        #: first token so batching is deterministic.
        self._queues: "OrderedDict[Hashable, Deque]" = OrderedDict()
        self._leased: Dict[Hashable, int] = {}
        self._queued = 0
        self._draining = False

    # -- admission -------------------------------------------------------
    def submit(self, key: Hashable, token) -> None:
        """Queue ``token`` under ``key``.

        Raises :class:`SchedulerDrained` during a drain and
        :class:`QueueFull` when ``capacity`` queued tokens exist.
        """
        if self._draining:
            raise SchedulerDrained("scheduler is draining")
        if self._queued >= self.capacity:
            raise QueueFull(
                f"{self._queued} job(s) queued (capacity {self.capacity})"
            )
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        queue.append(token)
        self._queued += 1

    # -- dispatch --------------------------------------------------------
    def next_batch(self) -> Optional[Tuple[Hashable, List]]:
        """Lease the oldest unleased key and pop a batch of its tokens.

        Returns ``(key, tokens)`` or ``None`` when every queued key is
        already leased (or nothing is queued).  The lease holds until
        :meth:`complete` is called for the key.
        """
        for key in self._queues:
            if key in self._leased:
                continue
            queue = self._queues[key]
            batch: List = []
            while queue and len(batch) < self.batch_limit:
                batch.append(queue.popleft())
            if not queue:
                del self._queues[key]
            self._queued -= len(batch)
            self._leased[key] = len(batch)
            return key, batch
        return None

    def complete(self, key: Hashable) -> None:
        """Release the lease taken by :meth:`next_batch`."""
        if key not in self._leased:
            raise KeyError(f"key {key!r} is not leased")
        del self._leased[key]

    # -- drain / introspection -------------------------------------------
    def drain(self) -> None:
        """Refuse new submits; queued and leased work keeps flowing."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queued(self) -> int:
        """Tokens admitted but not yet handed to a worker."""
        return self._queued

    @property
    def inflight(self) -> int:
        """Tokens currently leased to workers."""
        return sum(self._leased.values())

    @property
    def leased_keys(self) -> Tuple:
        return tuple(self._leased)

    def idle(self) -> bool:
        """True when nothing is queued and nothing is leased."""
        return self._queued == 0 and not self._leased


# ---------------------------------------------------------------------------
# single-flight loads for threaded executors
# ---------------------------------------------------------------------------


class _Flight:
    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent calls per key onto a single leader.

    ``do(key, fn)`` runs ``fn`` in exactly one of the callers that
    race on ``key``; the rest block until the leader finishes and then
    share its return value (or re-raise its exception).  Flights are
    not memoized — once a flight lands, the next call starts a new one.
    Layer :class:`ReadThroughCache` on top for memoization.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}

    def do(self, key: Hashable, fn):
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[key]
            flight.done.set()
        return flight.value


class ReadThroughCache:
    """Memoizing read-through cache with single-flight loads.

    ``get(key, loader)`` returns the cached value when present;
    otherwise exactly one concurrent caller runs ``loader`` and every
    waiter shares the result.  A loader that raises caches nothing —
    the next call retries.
    """

    def __init__(self):
        self._values: Dict[Hashable, object] = {}
        self._lock = threading.Lock()
        self._flight = SingleFlight()

    def get(self, key: Hashable, loader):
        with self._lock:
            if key in self._values:
                return self._values[key]

        def _fill():
            with self._lock:
                if key in self._values:
                    return self._values[key]
            value = loader()
            with self._lock:
                self._values[key] = value
            return value

        return self._flight.do(key, _fill)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
