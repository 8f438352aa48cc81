"""Machine and scheme configuration (paper Table 1 plus mode flags).

The timing model is a graduation-slot model of the paper's simulated
machine: single-chip processing cores, each out-of-order and multi-way
issue, with private L1 data caches, a unified second-level cache
behind a crossbar, and TLS support in the coherence protocol.  The
*machine* half of the configuration — core count, issue width, cache
geometry, interconnect and TLS mechanism costs — lives in the
validated :class:`MachineConfig`; the paper's 4-core machine
(:data:`PAPER_MACHINE`, Table 1) is the default and every default
simulation is byte-identical to the historical hard-wired model.
:class:`SimConfig` carries the same machine fields (flat, so cache
keys, job overrides, and serialized states stay stable) plus the
scheme flags, and exposes the machine slice as ``config.machine``.

Every experiment mode in the evaluation maps onto a :class:`SimConfig`:

==== =======================================================================
bar  configuration
==== =======================================================================
U    untransformed program (scalar sync only), no hardware sync
O    ``oracle_mode='all'`` — perfect forwarding of every memory value
T/C  program transformed with train/ref profile, ``compiler_mem_sync``
E    transformed program, ``oracle_mode='sync'`` — perfect synchronized
     values (no memory sync stall)
L    transformed program, ``l_mode_stall`` — synchronized loads stall
     until the previous epoch completes
H    untransformed program, ``hw_sync`` on
P    untransformed program, ``prediction`` on (last-value predictor)
PS   untransformed program, ``prediction`` on, stride predictor
PC   untransformed program, ``prediction`` on, context (FCM) predictor
B    transformed program, ``hw_sync`` on (compiler+hardware hybrid)
==== =======================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, FrozenSet, Tuple

from repro.tlssim.prediction import PREDICTORS

#: Hard ceiling on the modeled core count.  The sweep lab targets the
#: 2-32 range; anything past 64 is outside the single-chip CMP the
#: timing model describes and is rejected loudly.
MAX_CORES = 64


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine, validated (paper Table 1 as defaults).

    Field names deliberately match :class:`SimConfig`'s machine fields
    one-to-one so sweep-grid axes, job overrides, and serialized
    states name machine parameters the same way everywhere.
    Non-power-of-two ``issue_width`` is *legal* here — the vector
    backend's dyadic cost gate (``repro.ir.lower``) falls back to the
    tuples backend for such machines instead of anything raising.
    """

    # ---- chip (Table 1) -------------------------------------------------
    num_cores: int = 4
    issue_width: int = 4
    reorder_buffer: int = 128  # documented; the slot model does not queue

    # ---- instruction latencies, cycles (Table 1 pipeline parameters) ---
    lat_int: int = 1
    lat_mul: int = 3
    lat_div: int = 12
    lat_branch: int = 1
    lat_tls_op: int = 1

    # ---- memory system (Table 1 memory parameters) ----------------------
    words_per_line: int = 8          # 32B lines / 4B words
    l1_lines: int = 1024             # 32KB per-core data cache
    l2_lines: int = 65536            # 2MB unified secondary cache
    lat_l1: int = 1
    lat_l2: int = 10                 # minimum miss latency to secondary cache
    lat_mem: int = 75                # minimum miss latency to local memory

    # ---- TLS mechanism costs -------------------------------------------
    spawn_cost: float = 5.0          # epoch fork latency down the chain
    commit_base: float = 5.0         # homefree token + commit bookkeeping
    commit_per_line: float = 1.0     # write-back per speculatively modified line
    violation_penalty: float = 25.0  # squash, refetch and restart cost
    forward_latency: float = 10.0    # signal->wait crossbar hop
    signal_buffer_entries: int = 10  # signal address buffer capacity

    def __post_init__(self):
        if not 1 <= self.num_cores <= MAX_CORES:
            raise ValueError(
                f"num_cores must be between 1 and {MAX_CORES} "
                f"(got {self.num_cores})"
            )
        if self.issue_width < 1:
            raise ValueError(
                f"issue_width must be >= 1 (got {self.issue_width}); "
                "non-power-of-two widths are legal — the vector backend "
                "falls back to tuples for them"
            )
        if self.reorder_buffer < 1:
            raise ValueError(
                f"reorder_buffer must be >= 1 (got {self.reorder_buffer})"
            )
        if not _is_power_of_two(self.words_per_line):
            raise ValueError(
                "words_per_line (cache line size in words) must be a "
                f"power of two (got {self.words_per_line})"
            )
        if self.l1_lines < 1:
            raise ValueError(f"l1_lines must be >= 1 (got {self.l1_lines})")
        if self.l2_lines < 1:
            raise ValueError(f"l2_lines must be >= 1 (got {self.l2_lines})")
        if self.signal_buffer_entries < 1:
            raise ValueError(
                "signal_buffer_entries must be >= 1 — a zero-size signal "
                "address buffer cannot track forwarded addresses "
                f"(got {self.signal_buffer_entries})"
            )
        for name in (
            "lat_int", "lat_mul", "lat_div", "lat_branch", "lat_tls_op",
            "lat_l1", "lat_l2", "lat_mem", "spawn_cost", "commit_base",
            "commit_per_line", "violation_penalty", "forward_latency",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0 (got {value})")

    @property
    def machine(self) -> "MachineConfig":
        """Self — so config-or-machine arguments thread uniformly."""
        return self

    @classmethod
    def from_config(cls, config: "SimConfig") -> "MachineConfig":
        """The machine slice of a :class:`SimConfig` (re-validated)."""
        return cls(**{name: getattr(config, name) for name in MACHINE_FIELDS})

    def overrides(self) -> Dict[str, object]:
        """Field dict suitable for ``SimConfig.with_mode(**...)``."""
        return {name: getattr(self, name) for name in MACHINE_FIELDS}


#: Machine parameter names, in declaration order (the SimConfig fields
#: MachineConfig mirrors) — the sweep grid validates axes against this.
MACHINE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(MachineConfig)
)

#: The paper's evaluated machine (Table 1) — the byte-identical default.
PAPER_MACHINE = MachineConfig()


@dataclass(frozen=True)
class SimConfig:
    """All machine parameters and scheme flags for one simulation."""

    # ---- machine (see MachineConfig; kept flat for stable keys) ---------
    num_cores: int = 4
    issue_width: int = 4
    reorder_buffer: int = 128  # documented; the slot model does not queue

    # ---- instruction latencies, cycles (Table 1 pipeline parameters) ---
    lat_int: int = 1
    lat_mul: int = 3
    lat_div: int = 12
    lat_branch: int = 1
    lat_tls_op: int = 1

    # ---- memory system (Table 1 memory parameters) ----------------------
    words_per_line: int = 8          # 32B lines / 4B words
    l1_lines: int = 1024             # 32KB per-core data cache
    l2_lines: int = 65536            # 2MB unified secondary cache
    lat_l1: int = 1
    lat_l2: int = 10                 # minimum miss latency to secondary cache
    lat_mem: int = 75                # minimum miss latency to local memory

    # ---- violation detection granularity ---------------------------------
    #: 'line' (the paper's substrate: invalidation-based coherence sees
    #: whole cache lines, so false sharing violates) or 'word' (ideal
    #: per-word access bits, as in Cintra & Torrellas' per-word scheme).
    violation_granularity: str = "line"

    # ---- TLS mechanism costs -------------------------------------------
    spawn_cost: float = 5.0          # epoch fork latency down the chain
    commit_base: float = 5.0         # homefree token + commit bookkeeping
    commit_per_line: float = 1.0     # write-back per speculatively modified line
    violation_penalty: float = 25.0  # squash, refetch and restart cost
    forward_latency: float = 10.0    # signal->wait crossbar hop
    signal_buffer_entries: int = 10  # signal address buffer capacity

    # ---- compiler-inserted synchronization ------------------------------
    #: Honor memory-resident wait/signal protocol (C/T/B/E/L bars).  When
    #: False, memory-channel waits return NULL immediately (marking runs).
    compiler_mem_sync: bool = True
    #: L bars: synchronized loads stall until the previous epoch commits
    #: instead of waiting for a point-to-point forward.
    l_mode_stall: bool = False

    # ---- hardware-inserted synchronization [25] -------------------------
    hw_sync: bool = False
    hw_table_size: int = 32
    #: violations before a load is synchronized by the hardware
    hw_sync_threshold: int = 2
    #: committed epochs between periodic table resets
    hw_reset_interval: int = 64

    # ---- hybrid refinements (paper Section 4.2 items (iii)/(iv)) ---------
    #: (iii) the hardware filters out compiler-inserted synchronization
    #: whose forwarded address rarely survives the runtime check:
    #: channels with a low check-success rate stop stalling consumers.
    hybrid_filter: bool = False
    filter_min_samples: int = 16
    filter_min_success: float = 0.2
    #: (iv) compiler-marked loads survive the periodic table reset.
    hw_hint_persistent: bool = False

    # ---- hardware value prediction [25] ---------------------------------
    prediction: bool = False
    #: last-value confidence needed before a prediction is used
    prediction_confidence: int = 2
    #: which prediction scheme backs the P-family bars: a name from the
    #: ``repro.tlssim.prediction.PREDICTORS`` registry ('last',
    #: 'stride', 'context').  Only consulted when ``prediction`` is on.
    predictor: str = "last"

    # ---- idealized oracle modes -----------------------------------------
    #: 'off' | 'all' (O bars) | 'sync' (E bars) | 'set' (Figure 6 sweeps)
    oracle_mode: str = "off"
    #: load origin-iids perfectly predicted when oracle_mode == 'set'
    oracle_set: FrozenSet[int] = field(default_factory=frozenset)

    # ---- safety limits ---------------------------------------------------
    max_epoch_steps: int = 500_000
    max_region_steps: int = 100_000_000

    # ---- simulator implementation (no effect on simulated results) ------
    #: Use the decoded-dispatch / block-batching / event-heap execution
    #: layer.  Results are byte-identical to the slow path; this flag
    #: exists so equivalence tests and benchmarks can compare the two.
    fast_path: bool = True
    #: Execution backend for the decoded fast path: ``"tuples"`` (the
    #: reference per-op dispatch loop) or ``"vector"`` (region-lowered
    #: fused superops, see ``repro.ir.lower``; falls back to tuples when
    #: the cost model fails the exactness gate).
    #: Byte-identical results either way; requires ``fast_path=True``
    #: to have any effect.
    backend: str = "tuples"

    def with_mode(self, **overrides) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def machine(self) -> MachineConfig:
        """The validated machine slice of this configuration."""
        return MachineConfig.from_config(self)

    def with_machine(self, machine: MachineConfig) -> "SimConfig":
        """Copy with every machine field taken from ``machine``."""
        return replace(self, **machine.overrides())

    def __post_init__(self):
        # Machine-parameter validation lives in MachineConfig; building
        # the slice here makes every SimConfig a validated machine too.
        MachineConfig.from_config(self)
        if self.oracle_mode not in ("off", "all", "sync", "set"):
            raise ValueError(f"bad oracle_mode {self.oracle_mode!r}")
        if self.violation_granularity not in ("line", "word"):
            raise ValueError(
                f"bad violation_granularity {self.violation_granularity!r}"
            )
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; valid predictors: "
                + ", ".join(repr(name) for name in sorted(PREDICTORS))
            )
        if self.backend not in ("tuples", "vector"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "valid backends: 'tuples', 'vector'"
            )


#: Human-readable Table 1 rows, for the config self-check benchmark.
TABLE1 = {
    "Issue Width": "4",
    "Functional Units": "modeled via per-class latencies",
    "Reorder Buffer Size": "128",
    "Integer Multiply": "3 cycles",
    "Integer Divide": "12 cycles",
    "All Other Integer": "1 cycle",
    "Cache Line Size": "32B",
    "Instruction Cache": "not modeled (perfect)",
    "Data Cache": "32KB private per core",
    "Unified Secondary Cache": "2MB shared",
    "Minimum Miss Latency to Secondary Cache": "10 cycles",
    "Minimum Miss Latency to Local Memory": "75 cycles",
    "Crossbar Interconnect": "10-cycle forwarding latency",
}
