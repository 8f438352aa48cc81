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
from typing import Dict, List, Optional, Tuple

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
    #: fine-grained slot attribution: named cause -> slots, computed by
    #: the engine during execution (see docs/analysis.md for the
    #: category taxonomy).  Sums exactly to ``slots.total`` — the
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
        merged: Dict[str, float] = {}
        for region in self.regions:
            for cause, slots in region.attribution.items():
                merged[cause] = merged.get(cause, 0.0) + slots
        return merged

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
        for cause, slots in sorted(parallel.merged_attribution().items())
    }
