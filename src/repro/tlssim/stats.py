"""Graduation-slot accounting and simulation results.

The paper reports region execution time decomposed into four slot
categories (Section 1.2): *busy* (instructions graduate), *fail* (slots
wasted on failed speculation), *sync* (stalled on synchronization) and
*other* (everything else: memory stalls, idle cores, commit waits).
The number of slots is issue width x cycles x processors; we track
busy/sync/fail directly and derive *other* as the remainder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Imbalances smaller than this are float noise, not accounting bugs.
ACCOUNTING_EPSILON = 1e-6


class AccountingWarning(UserWarning):
    """Slot categories exceed the region total (accounting bug); warned
    on every read of a negative ``other``, an error in the test suite."""


@dataclass
class SlotBreakdown:
    """Slot counts for one region execution."""

    busy: float = 0.0
    fail: float = 0.0
    sync: float = 0.0
    total: float = 0.0

    @property
    def unattributed(self) -> float:
        """Raw remainder ``total - busy - fail - sync`` (may be negative).

        A negative value means the tracked categories overlap or
        double-count — use :attr:`imbalance` to measure it.  Rendering
        code should use :attr:`other`, which clamps at zero.
        """
        return self.total - self.busy - self.fail - self.sync

    @property
    def imbalance(self) -> float:
        """Magnitude of a negative remainder (0.0 when accounts balance)."""
        return max(0.0, -self.unattributed)

    @property
    def other(self) -> float:
        remainder = self.unattributed
        if remainder < -ACCOUNTING_EPSILON:
            warnings.warn(
                f"slot categories exceed total by {-remainder:g} "
                f"(busy={self.busy:g} fail={self.fail:g} "
                f"sync={self.sync:g} total={self.total:g})",
                AccountingWarning,
                stacklevel=2,
            )
        return max(0.0, remainder)

    def normalized(self, scale: float) -> Dict[str, float]:
        """Segments scaled so they sum to ``scale`` (bar rendering)."""
        if self.total <= 0:
            return {"busy": 0.0, "fail": 0.0, "sync": 0.0, "other": 0.0}
        factor = scale / self.total
        return {
            "busy": self.busy * factor,
            "fail": self.fail * factor,
            "sync": self.sync * factor,
            "other": self.other * factor,
        }


class SlotLedger:
    """The fine-grained slot attribution (cause -> slots) of one region.

    Each core's timeline is partitioned exactly: a run's occupancy is
    decomposed into causes when the core releases it (commit or
    squash), and the gap before it is attributed by what the core was
    waiting for, so the causes sum to the region's slot total with no
    remainder (all times are dyadic rationals, so float sums are
    exact).  The engine feeds it from run fields, ``repro analyze``
    from event fields; docs/analysis.md names the causes.
    """

    def __init__(self, start: float, num_cores: int, issue_width: int):
        self.width = issue_width
        #: per core: end of its attributed timeline, what the gap after
        #: it waits for, and whether the core ever hosted a run
        self.cursor = [start] * num_cores
        self.gap = ["ramp"] * num_cores
        self.used = [False] * num_cores
        self.causes: Dict[str, float] = {}

    def _add(self, cause: str, slots: float) -> None:
        if slots:
            self.causes[cause] = self.causes.get(cause, 0.0) + slots

    def _occupy(self, core: int, start: float, release: float, gap: str) -> None:
        """Attribute the idle gap before ``[start, release]`` and move
        the core's cursor to ``release``."""
        self._add("idle." + self.gap[core], (start - self.cursor[core]) * self.width)
        self.cursor[core] = release
        self.gap[core] = gap
        self.used[core] = True

    def commit(
        self, core: int, start: float, done: float, eff: float, end: float,
        busy: float, sync_scalar: float, sync_mem: float, sync_hw: float,
        sync_lmode: float, mem_stall: float,
    ) -> None:
        """``[start, end]`` of a committed run splits into busy slots,
        sync stalls by cause, cache-miss latency, residual execution
        latency up to ``done``, the commit-token wait up to ``eff`` and
        the write-back flush."""
        width = self.width
        self._occupy(core, start, end, "spawn")
        self._add("busy", busy)
        self._add("sync.scalar", sync_scalar * width)
        self._add("sync.mem", sync_mem * width)
        self._add("sync.hw", (sync_hw - sync_lmode) * width)
        self._add("sync.lmode", sync_lmode * width)
        self._add("mem_stall", mem_stall)
        sync_cycles = sync_scalar + sync_mem + sync_hw
        self._add(
            "exec_latency",
            (done - start) * width - busy - sync_cycles * width - mem_stall,
        )
        self._add("commit_token", (eff - done) * width)
        self._add("commit_flush", (end - eff) * width)

    def squash(
        self, core: int, start: float, clock: float, time: float, cause: str
    ) -> float:
        """A run that started at ``start`` and executed up to ``clock``
        is squashed at ``time``: its consumed slots (returned) go to
        ``fail.<cause>``, the time it sat stalled to ``squash_stall``.

        The interval is clamped to the core cursor: a violating store
        can execute before the previous occupant's commit flush
        completes, squashing a just-spawned successor at a time that
        precedes its own start; the clamp keeps per-core intervals
        non-overlapping so the partition stays exact.
        """
        consumed = max(0.0, min(clock, time) - start) * self.width
        cursor = self.cursor[core]
        occ_start = max(cursor, min(start, time))
        release = max(cursor, time)
        self._occupy(core, occ_start, release, "recovery")
        self._add("fail." + cause, consumed)
        self._add("squash_stall", (release - occ_start) * self.width - consumed)
        return consumed

    def finalize(self, end: float) -> Dict[str, float]:
        """Attribute every core's tail up to ``end``; the causes, sorted."""
        for core, cursor in enumerate(self.cursor):
            tail = (end - cursor) * self.width
            self._add("idle.drain" if self.used[core] else "idle.no_thread", tail)
        return {cause: self.causes[cause] for cause in sorted(self.causes)}


def merge_attribution(regions: Iterable) -> Dict[str, float]:
    """The regions' ``attribution`` maps summed per cause, adding in
    region order; sorted by cause."""
    merged: Dict[str, float] = {}
    for region in regions:
        for cause, slots in region.attribution.items():
            merged[cause] = merged.get(cause, 0.0) + slots
    return {cause: merged[cause] for cause in sorted(merged)}


@dataclass
class ViolationRecord:
    """One squash event, for the Figure 11 classification."""

    epoch: int
    time: float
    reason: str            # 'store', 'commit', 'sab', 'prediction', 'control'
    load_iid: Optional[int] = None
    compiler_marked: bool = False
    hardware_marked: bool = False

    def to_state(self) -> Dict:
        return {
            "epoch": self.epoch,
            "time": self.time,
            "reason": self.reason,
            "load_iid": self.load_iid,
            "compiler_marked": self.compiler_marked,
            "hardware_marked": self.hardware_marked,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "ViolationRecord":
        return cls(**state)


@dataclass
class RegionStats:
    """Aggregate results for one parallelized-region instance."""

    function: str
    header: str
    start_time: float = 0.0
    end_time: float = 0.0
    epochs_committed: int = 0
    epochs_squashed: int = 0
    violations: List[ViolationRecord] = field(default_factory=list)
    slots: SlotBreakdown = field(default_factory=SlotBreakdown)
    #: sync slots split by cause, for diagnostics
    sync_scalar: float = 0.0
    sync_memory: float = 0.0
    sync_hw: float = 0.0
    max_signal_buffer: int = 0
    #: fine-grained slot attribution: named cause -> slots, the
    #: engine's :class:`SlotLedger` of the region (docs/analysis.md
    #: names the causes).  Sums exactly to ``slots.total``: the
    #: accounting identity checked by repro.obs.analysis.
    attribution: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return max(0.0, self.end_time - self.start_time)

    def to_state(self) -> Dict:
        return {
            "function": self.function,
            "header": self.header,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "epochs_committed": self.epochs_committed,
            "epochs_squashed": self.epochs_squashed,
            "violations": [v.to_state() for v in self.violations],
            "slots": {
                "busy": self.slots.busy,
                "fail": self.slots.fail,
                "sync": self.slots.sync,
                "total": self.slots.total,
            },
            "sync_scalar": self.sync_scalar,
            "sync_memory": self.sync_memory,
            "sync_hw": self.sync_hw,
            "max_signal_buffer": self.max_signal_buffer,
            "attribution": dict(self.attribution),
        }

    @classmethod
    def from_state(cls, state: Dict) -> "RegionStats":
        return cls(
            function=state["function"],
            header=state["header"],
            start_time=state["start_time"],
            end_time=state["end_time"],
            epochs_committed=state["epochs_committed"],
            epochs_squashed=state["epochs_squashed"],
            violations=[
                ViolationRecord.from_state(v) for v in state["violations"]
            ],
            slots=SlotBreakdown(**state["slots"]),
            sync_scalar=state["sync_scalar"],
            sync_memory=state["sync_memory"],
            sync_hw=state["sync_hw"],
            max_signal_buffer=state["max_signal_buffer"],
            attribution=dict(state.get("attribution", {})),
        )


@dataclass
class SimResult:
    """Whole-program simulation outcome."""

    return_value: Optional[int]
    program_cycles: float
    sequential_cycles: float = 0.0  # cycles outside parallelized regions
    regions: List[RegionStats] = field(default_factory=list)
    memory_checksum: int = 0
    #: flat simulator counters (see repro.obs.registry.engine_counters):
    #: cache hits/misses per level, violations by reason, epoch totals,
    #: hwsync and predictor activity.  Always populated by the engine.
    counters: Dict[str, float] = field(default_factory=dict)

    def region_cycles(self) -> float:
        return sum(r.cycles for r in self.regions)

    def to_dict(self) -> Dict:
        """JSON-serializable summary (for external tooling/dashboards)."""
        return {
            "return_value": self.return_value,
            "program_cycles": self.program_cycles,
            "sequential_cycles": self.sequential_cycles,
            "memory_checksum": self.memory_checksum,
            "counters": dict(self.counters),
            "regions": [
                {
                    "function": r.function,
                    "header": r.header,
                    "cycles": r.cycles,
                    "epochs_committed": r.epochs_committed,
                    "epochs_squashed": r.epochs_squashed,
                    "violations": len(r.violations),
                    "slots": {
                        "busy": r.slots.busy,
                        "fail": r.slots.fail,
                        "sync": r.slots.sync,
                        "other": r.slots.other,
                        "total": r.slots.total,
                    },
                    "sync_scalar": r.sync_scalar,
                    "sync_memory": r.sync_memory,
                    "sync_hw": r.sync_hw,
                    "max_signal_buffer": r.max_signal_buffer,
                    "attribution": dict(r.attribution),
                }
                for r in self.regions
            ],
        }

    def to_state(self) -> Dict:
        """Full-fidelity serialization (persistent store results).

        Unlike :meth:`to_dict` (a lossy summary for dashboards), the
        state round-trips through :meth:`from_state` bit-exactly —
        every violation record survives, so cached results feed the
        Figure 11 classification unchanged.
        """
        return {
            "return_value": self.return_value,
            "program_cycles": self.program_cycles,
            "sequential_cycles": self.sequential_cycles,
            "memory_checksum": self.memory_checksum,
            "counters": dict(self.counters),
            "regions": [r.to_state() for r in self.regions],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "SimResult":
        return cls(
            return_value=state["return_value"],
            program_cycles=state["program_cycles"],
            sequential_cycles=state["sequential_cycles"],
            memory_checksum=state["memory_checksum"],
            regions=[RegionStats.from_state(r) for r in state["regions"]],
            counters=dict(state.get("counters", {})),
        )

    def merged_region_slots(self) -> SlotBreakdown:
        merged = SlotBreakdown()
        for region in self.regions:
            merged.busy += region.slots.busy
            merged.fail += region.slots.fail
            merged.sync += region.slots.sync
            merged.total += region.slots.total
        return merged

    def merged_attribution(self) -> Dict[str, float]:
        """Fine-grained attribution summed over all regions."""
        return merge_attribution(self.regions)

    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.regions)


def normalized_region_time(
    parallel: SimResult, sequential: SimResult
) -> Tuple[float, Dict[str, float]]:
    """Region time of ``parallel`` normalized to ``sequential`` (=100).

    Returns ``(normalized_time, segments)`` where the segments dict has
    busy/fail/sync/other heights summing to the normalized time — the
    exact format of the paper's stacked bars (values below 100 are
    region speedups).
    """
    seq_cycles = sequential.region_cycles()
    par_cycles = parallel.region_cycles()
    if seq_cycles <= 0:
        raise ValueError("sequential run has no region cycles")
    height = 100.0 * par_cycles / seq_cycles
    segments = parallel.merged_region_slots().normalized(height)
    return height, segments


def normalized_attribution(
    parallel: SimResult, sequential: SimResult
) -> Dict[str, float]:
    """Fine-grained attribution on the stacked-bar scale.

    Each cause's slots scaled so all causes together sum to the bar's
    normalized region time — the same scale ``normalized_region_time``
    puts the coarse busy/fail/sync/other segments on, so e.g. the
    ``sync.*`` causes decompose a bar's ``sync`` segment in place.
    """
    seq_cycles = sequential.region_cycles()
    if seq_cycles <= 0:
        raise ValueError("sequential run has no region cycles")
    height = 100.0 * parallel.region_cycles() / seq_cycles
    total = sum(r.slots.total for r in parallel.regions)
    if total <= 0:
        return {}
    return {
        cause: height * slots / total
        for cause, slots in parallel.merged_attribution().items()
    }
