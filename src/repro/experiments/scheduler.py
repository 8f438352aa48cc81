"""Job vocabulary and service scheduling.

Two layers live here, both independent of *how* jobs execute:

* **Jobs** — :class:`JobSpec` names one simulation (or profile) job,
  and :func:`group_specs` groups a sweep's specs by compile key
  ``(workload, threshold)``: each group is one worker task of the
  batch runner (:func:`repro.experiments.runner.execute_plan`), which
  compiles the bundle once and then runs every spec of the group.

* **Service scheduling** — :class:`JobScheduler` is what the serve
  daemon needs: bounded admission (:class:`QueueFull` maps to HTTP
  429), batching of same-key requests, a single-flight *lease* per key
  (at most one worker runs a key at a time, so N concurrent requests
  for one cold workload trigger exactly one compile), and graceful
  drain (:class:`SchedulerDrained` maps to HTTP 503).

:class:`JobScheduler` is not thread-safe: it expects a single
coordinating thread (the daemon's event loop).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "JobSpec",
    "group_specs",
    "QueueFull",
    "SchedulerDrained",
    "JobScheduler",
]


# ---------------------------------------------------------------------------
# jobs
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


def group_specs(
    specs: Sequence[JobSpec],
) -> List[Tuple[str, float, List[JobSpec]]]:
    """``(workload, threshold, specs)`` per compile key.

    Groups are ordered by their first spec, and each group keeps its
    specs in their given order, so scheduling is deterministic.
    """
    grouped: Dict[Tuple[str, float], List[JobSpec]] = {}
    for spec in specs:
        grouped.setdefault(spec.key, []).append(spec)
    return [
        (workload, threshold, members)
        for (workload, threshold), members in grouped.items()
    ]


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
