"""Discrete-event TLS chip-multiprocessor engine.

Executes a module with timing: sequential segments run on core 0;
when control enters a loop annotated as speculatively parallelized, the
engine switches to epoch-parallel execution across all cores.

Execution model
---------------

* Epoch *k* runs on core ``k % num_cores``.  A core starts its next
  epoch once the previous occupant commits; epoch *k* additionally
  cannot start before epoch *k-1* started plus the spawn latency.
* Speculative stores go to a private per-run write buffer; speculative
  loads read the run's own buffer, else committed memory.  Exposed
  loads (those not satisfied by the run's own buffer) record their
  cache line in the run's exposed set.
* **Violations** are detected at cache-line granularity, mirroring the
  invalidation-based coherence extension of the paper's substrate:
  (a) a store by epoch *e* squashes any logically-later in-flight epoch
  with the line exposed, and (b) at *e*'s commit its dirty lines squash
  later epochs that exposed them meanwhile (loads that read committed
  state while *e*'s store was still buffered).  Squashing an epoch also
  squashes every logically-later in-flight epoch (conservative, as in
  Figure 1(b)).  Rule granularity is what makes false sharing visible
  (the M88KSIM effect).
* Epochs commit strictly in logical order.  The epoch that takes a
  loop-exit edge ends the region when it commits; later in-flight
  epochs are control-squashed.
* ``wait``/``signal`` implement the Section 2.2 forwarding protocol
  with the signal address buffer and the ``use_forwarded_value`` flag;
  at epoch end, unsignalled channels are auto-flushed (scalars forward
  the current register value; memory channels re-forward or send NULL),
  which both implements the paper's NULL-signal path and pipelines
  values across non-producing epochs.

Accounting follows the paper's graduation-slot breakdown: each
graduated instruction is one *busy* slot; wait/stall cycles accumulate
*sync* slots; all slots consumed by squashed runs become *fail*; the
remainder of ``cycles x issue_width x cores`` is *other*.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.decode import (
    OP_ALLOC,
    OP_BINOP,
    OP_CALL,
    OP_CHECK,
    OP_CONDBR,
    OP_CONST,
    OP_DIVMOD,
    OP_JUMP,
    OP_LOAD,
    OP_MOVE,
    OP_RESUME,
    OP_RET,
    OP_SELECT,
    OP_SIGNAL,
    OP_STORE,
    OP_UNOP,
    OP_WAIT,
    DecodedProgram,
)

from repro.ir.evalops import eval_binop, eval_unop
from repro.ir.instructions import (
    Alloc,
    BinOp,
    Call,
    Check,
    CondBr,
    Const,
    Jump,
    Load,
    Move,
    Resume,
    Ret,
    Select,
    Signal,
    Store,
    UnOp,
    Wait,
)
from repro.ir.interpreter import Frame, _CalleeMissing
from repro.ir.loops import LoopForest
from repro.ir.memimage import MemoryImage
from repro.ir.module import Module, ParallelLoop
from repro.ir.operands import GlobalRef, Imm
from repro.obs.bus import EventBus
from repro.obs.registry import engine_counters
from repro.tlssim.cache import CacheHierarchy
from repro.tlssim.config import SimConfig
from repro.tlssim.costs import instruction_latency
from repro.tlssim.forwarding import ChannelBank, SignalAddressBuffer
from repro.tlssim.hwsync import ViolatingLoadTable
from repro.tlssim.oracle import ValueOracle
from repro.tlssim.prediction import make_predictor
from repro.tlssim.stats import RegionStats, SimResult, SlotLedger, ViolationRecord


class EngineError(Exception):
    """Engine invariant broken or unsupported construct executed."""


@dataclass
class _LoopInfo:
    annotation: ParallelLoop
    blocks: frozenset


class EpochRun:
    """One (re-)execution attempt of one epoch."""

    __slots__ = (
        "logical", "generation", "core", "clock", "start_clock", "frames",
        "state", "wait_channel", "wait_kind", "wait_started",
        "wait_cause", "wait_iid",
        "write_buffer", "dirty_lines", "exposed_lines", "exposed_loads",
        "busy_slots", "sync_scalar", "sync_mem", "sync_hw", "sync_lmode",
        "mem_stall",
        "cursors", "received", "signal_counts", "sab",
        "fwd_flag", "fwd_addr", "last_mem_channel", "exited", "exit_target",
        "steps", "predictions", "load_values", "oracle_occ",
        "no_predict", "park_reason", "trace",
    )

    def __init__(
        self,
        logical: int,
        generation: int,
        core: int,
        clock: float,
        frame: Frame,
        sab_capacity: int,
    ):
        self.logical = logical
        self.generation = generation
        self.core = core
        self.clock = clock
        self.start_clock = clock
        self.frames: List[Frame] = [frame]
        self.state = "ready"
        self.wait_channel: Optional[str] = None
        self.wait_kind: Optional[str] = None
        self.wait_started: float = clock
        #: why the run is stalled ('scalar'/'mem'/'hw'/'lmode') and the
        #: iid of the stalling wait/load — attribution metadata only.
        self.wait_cause: Optional[str] = None
        self.wait_iid: Optional[int] = None
        self.write_buffer: Dict[int, int] = {}
        self.dirty_lines: Set[int] = set()
        self.exposed_lines: Set[int] = set()
        self.exposed_loads: Dict[int, List[int]] = {}
        self.busy_slots = 0.0
        self.sync_scalar = 0.0
        self.sync_mem = 0.0
        self.sync_hw = 0.0
        #: portion of sync_hw caused by l-mode synchronized waits
        self.sync_lmode = 0.0
        #: extra cache latency beyond an L1 hit, in slots
        self.mem_stall = 0.0
        self.cursors: Dict[Tuple[str, str], int] = {}
        self.received: Dict[Tuple[str, str], int] = {}
        self.signal_counts: Dict[Tuple[str, str], int] = {}
        self.sab = SignalAddressBuffer(sab_capacity)
        self.fwd_flag = False
        self.fwd_addr = 0
        self.last_mem_channel: Optional[str] = None
        self.exited = False
        self.exit_target: Optional[str] = None
        self.steps = 0
        self.predictions: List[Tuple[int, int, int]] = []
        self.load_values: Dict[int, int] = {}
        self.oracle_occ: Dict[int, int] = {}
        self.no_predict = False
        self.park_reason: Optional[str] = None
        #: fast path only: start clock of every private instruction
        #: executed since the run's last shared-state operation, so a
        #: squash can roll the clock back to the exact boundary the
        #: slow-path scheduler would have descheduled this run at.
        self.trace: List[float] = []

    @property
    def sync_cycles(self) -> float:
        return self.sync_scalar + self.sync_mem + self.sync_hw


def _decode_dt(config: SimConfig) -> Callable[[object], float]:
    """Pre-divided clock charge for the decode pass.

    Memory instructions carry 0.0: their latency comes from the cache
    model at execution time.  The division happens once per static
    instruction, with exactly the float operation
    :meth:`_RegionExecution._charge` performs, so accumulated clocks
    stay bit-identical between the two region schedulers.  Closed over
    the config alone, so a decoded program never refers back to its
    engine.
    """

    def dt_of(instr) -> float:
        if isinstance(instr, (Load, Store)):
            return 0.0
        return instruction_latency(config, instr) / config.issue_width

    return dt_of


class TLSEngine:
    """Whole-program simulator; see module docstring."""

    def __init__(
        self,
        module: Module,
        config: Optional[SimConfig] = None,
        oracle: Optional[ValueOracle] = None,
        parallel: bool = True,
        obs: Optional[EventBus] = None,
    ):
        self.module = module
        self.config = config or SimConfig()
        self.oracle = oracle
        #: optional repro.obs.bus.EventBus; None (the default) keeps
        #: every emission site on a single-branch no-op path.
        self.obs = obs
        #: False = sequential baseline: same cost model on one core,
        #: regions tracked (for normalization) but not parallelized.
        self.parallel = parallel
        self._seq_region: Optional[Tuple[_LoopInfo, int, float]] = None
        if self.config.oracle_mode != "off" and oracle is None:
            raise EngineError("oracle_mode set but no oracle supplied")
        self.memory = MemoryImage(module)
        #: the validated machine slice of the config; every structural
        #: hardware model below (caches, forwarding, hwsync) is built
        #: from it rather than reaching into the flat config.
        self.machine = self.config.machine
        self.caches = CacheHierarchy(self.machine, bus=obs)
        self.hw_table = ViolatingLoadTable.for_config(
            self.config,
            persistent=(
                module.sync_loads if self.config.hw_hint_persistent else ()
            ),
            bus=obs,
        )
        #: channel -> [checks, address matches] for the hybrid filter
        self.channel_stats: Dict[str, List[int]] = {}
        self.predictor = make_predictor(
            self.config.predictor,
            confidence_threshold=self.config.prediction_confidence,
            bus=obs,
        )
        self.sync_loads: Set[int] = set(module.sync_loads)
        self.clock = 0.0
        self.regions: List[RegionStats] = []
        self._region_counter = 0
        #: dynamic instructions executed (sequential + epoch steps);
        #: benchmark-only, deliberately kept out of SimResult.
        self.instructions = 0
        #: every positive synchronization stall length (cycles), for the
        #: p50/p95/p99 gauges engine_counters derives; stalls are rare
        #: events, so the list stays small and off the hot path.
        self._stall_samples: List[float] = []
        #: False = regions run on the per-op scheduler (the oracle);
        #: sequential code always runs the decoded program.
        self.fast = bool(self.config.fast_path)
        #: resolved execution backend ("tuples" unless the vector
        #: backend was requested *and* is available here); fused-region
        #: counters only feed coverage figures, like ``instructions``.
        self.backend = "tuples"
        self.fused_instructions = 0
        self.fused_regions = 0
        self._program = DecodedProgram(
            module, self.memory.addr_of, _decode_dt(self.config)
        )
        #: function name -> decoded/lowered blocks dict; lazily filled
        #: flat cache so the hot loops pay one dict lookup per function
        #: switch instead of a method call per block fetch.
        self._fn_blocks: Dict[str, Dict] = {}
        if self.fast and self.config.backend == "vector":
            from repro.ir import lower as lower_mod

            reason = lower_mod.unavailable_reason(self.config)
            if reason is None:
                self._program = lower_mod.lowered_for(
                    self._program, self.config
                )
                self.backend = "vector"
            else:
                lower_mod.note_backend_fallback(reason)
        self._loop_infos: Dict[Tuple[str, str], _LoopInfo] = {}
        for annotation in module.parallel_loops:
            cfg = CFG(module.function(annotation.function))
            forest = LoopForest(cfg)
            loop = forest.loop_of(annotation.header)
            if loop is None:
                raise EngineError(
                    f"parallel annotation on non-loop "
                    f"{annotation.function}:{annotation.header}"
                )
            if self.parallel:
                self._check_scalar_channels(annotation, cfg, loop)
            self._loop_infos[(annotation.function, annotation.header)] = _LoopInfo(
                annotation=annotation, blocks=frozenset(loop.blocks)
            )

    def _check_scalar_channels(self, annotation, cfg, loop) -> None:
        """Every loop-carried register must have a scalar channel.

        Without one, each epoch would start from the region-entry
        register values and the region could never make progress — a
        transformation bug better reported than simulated.
        """
        from repro.ir.dataflow import live_in

        function = self.module.function(annotation.function)
        header_live = live_in(cfg)[annotation.header]
        defined = set()
        for label in loop.blocks:
            for instr in function.block(label).instructions:
                defined.update(instr.defs())
        channelled = {
            self.module.channels[name].scalar
            for name in annotation.scalar_channels
            if name in self.module.channels
        }
        missing = sorted(
            reg.name for reg in header_live & defined
            if reg.name not in channelled
        )
        if missing:
            raise EngineError(
                f"loop {annotation.function}:{annotation.header} has "
                f"loop-carried scalars with no forwarding channel: "
                f"{', '.join(missing)} (run scalar synchronization first)"
            )

    # ------------------------------------------------------------------
    # whole-program driver
    # ------------------------------------------------------------------

    def run(self, function: str = "main", args: Tuple[int, ...] = ()) -> SimResult:
        entry = self.module.function(function)
        frames: List[Frame] = [
            Frame(
                function_name=function,
                regs={p.name: v for p, v in zip(entry.params, args)},
                block=entry.entry_label,
            )
        ]
        return_value = self._run_sequential(frames)
        region_cycles = sum(r.cycles for r in self.regions)
        return SimResult(
            return_value=return_value,
            program_cycles=self.clock,
            sequential_cycles=self.clock - region_cycles,
            regions=self.regions,
            memory_checksum=self.memory.checksum(),
            counters=engine_counters(self),
        )

    # ------------------------------------------------------------------
    # sequential execution (core 0), with region hand-off
    # ------------------------------------------------------------------

    def _close_seq_region(self) -> None:
        """Record a sequentially-executed region (baseline runs)."""
        info, _depth, start = self._seq_region  # type: ignore[misc]
        stats = RegionStats(
            function=info.annotation.function,
            header=info.annotation.header,
            start_time=start,
            end_time=self.clock,
        )
        cycles = max(0.0, self.clock - start)
        stats.slots.total = cycles * self.config.issue_width
        if stats.slots.total:
            # Single category: the whole region ran sequentially.
            stats.attribution = {"seq": stats.slots.total}
        self.regions.append(stats)
        self._seq_region = None

    def _run_sequential(self, frames: List[Frame]) -> Optional[int]:
        """Run code outside parallelized regions on core 0.

        Dispatches the decoded program (integer opcodes, pre-resolved
        operands) for both ``fast_path`` values: only region execution
        has a per-op oracle twin.  The engine clock is mirrored into a
        local for the duration and written back on every region
        hand-off and on exit; on any exit, error exits included, the
        executed steps (the one that broke the budget too) are added to
        ``instructions``.
        """
        config = self.config
        dprog = self._program
        memory = self.memory
        mem_load = memory.load
        mem_store = memory.store
        caches = self.caches
        access = caches.access
        line_of = caches.line_of
        obs = self.obs
        width = config.issue_width
        max_steps = config.max_region_steps
        loop_infos = self._loop_infos
        return_value: Optional[int] = None
        steps = 0
        fused_i = 0
        fused_r = 0
        clock = self.clock
        fn_blocks = self._fn_blocks
        fname = None
        fblocks = None
        try:
            while frames:
                frame = frames[-1]
                if frame.function_name != fname:
                    fname = frame.function_name
                    fblocks = fn_blocks.get(fname)
                    if fblocks is None:
                        fblocks = fn_blocks[fname] = dprog.function(
                            fname
                        ).blocks
                ops = fblocks[frame.block].ops
                regs = frame.regs
                i = frame.index
                region_info = None
                try:
                    while True:
                        op = ops[i]
                        code = op[0]
                        if code < 0:
                            # Fused region head (vector backend): an
                            # OP_FUSED2 superblock kernel.  When fuel
                            # could run out inside the region, re-
                            # dispatch the original head op (interior
                            # indices hold the original tuples) so fuel
                            # exhaustion replays the tuple path exactly.
                            # The kernel returns None on a missing
                            # live-in, or (label, index, clock,
                            # executed) — the resume point after running
                            # as much of the path as its guards allowed.
                            # With zero ops executed the head op replays
                            # per-op (guaranteed progress).
                            n = op[5]
                            if steps + n > max_steps:
                                op = op[2]
                                code = op[0]
                            else:
                                res = op[4](
                                    regs, clock, self, frames, mem_load,
                                    mem_store, access, line_of, obs,
                                )
                                if res is None:
                                    op = op[2]
                                    code = op[0]
                                else:
                                    label, idx, clock, executed = res
                                    steps += executed
                                    if executed:
                                        fused_i += executed
                                        fused_r += 1
                                    if executed == 0:
                                        op = op[2]
                                        code = op[0]
                                    elif label is None:
                                        i = idx
                                        continue
                                    else:
                                        frame.block = label
                                        frame.index = idx
                                        break
                        steps += 1
                        if steps > max_steps:
                            raise EngineError("sequential fuel exhausted")
                        if code == OP_BINOP or code == OP_DIVMOD:
                            a, b = op[5], op[6]
                            regs[op[3]] = op[4](
                                a if type(a) is int else regs[a],
                                b if type(b) is int else regs[b],
                            )
                            clock += op[1]
                            i += 1
                        elif code == OP_LOAD:
                            a = op[4]
                            addr = (a if type(a) is int else regs[a]) + op[5]
                            regs[op[3]] = memory.load(addr)
                            if obs is not None:
                                obs.now = clock
                            clock += access(0, line_of(addr)) / width
                            i += 1
                        elif code == OP_STORE:
                            a = op[3]
                            addr = (a if type(a) is int else regs[a]) + op[4]
                            v = op[5]
                            memory.store(addr, v if type(v) is int else regs[v])
                            if obs is not None:
                                obs.now = clock
                            clock += access(0, line_of(addr)) / width
                            i += 1
                        elif code == OP_CONST:
                            regs[op[3]] = op[4]
                            clock += op[1]
                            i += 1
                        elif code == OP_MOVE:
                            s = op[4]
                            regs[op[3]] = s if type(s) is int else regs[s]
                            clock += op[1]
                            i += 1
                        elif code == OP_UNOP:
                            s = op[5]
                            regs[op[3]] = op[4](s if type(s) is int else regs[s])
                            clock += op[1]
                            i += 1
                        elif code == OP_JUMP or code == OP_CONDBR:
                            if code == OP_JUMP:
                                target = op[3]
                            else:
                                c = op[3]
                                cond = c if type(c) is int else regs[c]
                                target = op[4] if cond else op[5]
                            clock += op[1]
                            seq = self._seq_region
                            if (
                                seq is not None
                                and len(frames) == seq[1]
                                and target not in seq[0].blocks
                            ):
                                self.clock = clock
                                self._close_seq_region()
                            info = loop_infos.get((frame.function_name, target))
                            if info is not None and self._seq_region is None:
                                if self.parallel:
                                    frame.index = i
                                    region_info = info
                                    break
                                self._seq_region = (info, len(frames), clock)
                            frame.block = target
                            frame.index = 0
                            break
                        elif code == OP_CALL:
                            if op[6] is None:
                                raise _CalleeMissing(op[4])
                            values = [
                                a if type(a) is int else regs[a] for a in op[5]
                            ]
                            clock += op[1]
                            frame.index = i
                            frames.append(
                                Frame(
                                    function_name=op[4],
                                    regs=dict(zip(op[6], values)),
                                    block=op[7],
                                    call_instr=op[2],
                                )
                            )
                            break
                        elif code == OP_RET:
                            v = op[3]
                            value = (
                                None
                                if v is None
                                else (v if type(v) is int else regs[v])
                            )
                            clock += op[1]
                            if (
                                self._seq_region is not None
                                and len(frames) == self._seq_region[1]
                            ):
                                self.clock = clock
                                self._close_seq_region()
                            popped = frames.pop()
                            if frames:
                                caller = frames[-1]
                                call = popped.call_instr
                                if call.dest is not None:
                                    if value is None:
                                        raise EngineError(
                                            f"void return into %{call.dest.name}"
                                        )
                                    caller.regs[call.dest.name] = value
                                caller.index += 1
                            else:
                                return_value = value
                            break
                        elif code == OP_ALLOC:
                            s = op[4]
                            regs[op[3]] = memory.alloc(
                                s if type(s) is int else regs[s]
                            )
                            clock += op[1]
                            i += 1
                        elif code == OP_WAIT:
                            regs[op[3]] = regs.get(op[3], 0)
                            clock += op[1]
                            i += 1
                        elif code == OP_SELECT:
                            m = op[5]
                            regs[op[3]] = m if type(m) is int else regs[m]
                            clock += op[1]
                            i += 1
                        else:  # Signal / Check / Resume: charge-only
                            clock += op[1]
                            i += 1
                except _CalleeMissing as exc:
                    raise KeyError(exc.args[0]) from None
                except KeyError as exc:
                    raise EngineError(
                        f"{frame.function_name}: read of undefined register "
                        f"%{exc.args[0]}"
                    ) from None
                if region_info is not None:
                    self.clock = clock
                    _RegionExecution(self, frame, region_info).execute()
                    clock = self.clock
        finally:
            self.clock = clock
            self.instructions += steps
            self.fused_instructions += fused_i
            self.fused_regions += fused_r
        return return_value


class _RegionExecution:
    """Epoch-parallel execution of one parallelized-region instance."""

    def __init__(self, engine: TLSEngine, frame: Frame, info: _LoopInfo):
        self.engine = engine
        self.module = engine.module
        self.config = engine.config
        self.frame = frame
        self.info = info
        self.function = self.module.function(frame.function_name)
        self.start_time = engine.clock
        self.channels = ChannelBank.for_machine(engine.machine, bus=engine.obs)
        self.region_index = engine._region_counter
        engine._region_counter += 1
        self.stats = RegionStats(
            function=frame.function_name,
            header=info.annotation.header,
            start_time=self.start_time,
        )
        self.active: Dict[int, EpochRun] = {}
        self.committed_upto = -1
        self.last_commit_end = self.start_time
        self.core_free = [self.start_time] * self.config.num_cores
        self.first_start: Dict[int, float] = {}
        self.next_logical = 0
        self.finished = False
        self.exit_run: Optional[EpochRun] = None
        self.total_steps = 0
        self.fail_slots = 0.0
        self.fast = engine.fast
        #: hot-path constants (charged per wait/signal instruction)
        self._lat_tls = float(self.config.lat_tls_op)
        self._tls_dt = self._lat_tls / self.config.issue_width
        self._lat_l1 = float(self.config.lat_l1)
        self._num_cores = self.config.num_cores
        self._unit_is_line = self.config.violation_granularity == "line"
        #: committed_upto watermark below which _try_spawn cannot make
        #: progress; -2 forces the first attempt (see _try_spawn).
        self._spawn_blocked_at = -2
        #: channel names declared with kind "mem" (constant per module)
        self._mem_channels = frozenset(
            name
            for name, info in self.module.channels.items()
            if info.kind == "mem"
        )
        #: event heap: (eff, logical, seq, run, action) with lazy
        #: deletion — entries are validated against _event_for on pop.
        self._heap: List[Tuple[float, int, int, EpochRun, str]] = []
        self._heap_seq = 0
        #: event time of the shared-state operation currently being
        #: performed; squash rollbacks compare run traces against it.
        self._now = self.start_time
        cores = self.config.num_cores
        self.ledger = SlotLedger(self.start_time, cores, self.config.issue_width)
        if engine.obs is not None:
            engine.obs.now = self.start_time
            engine.obs.emit(
                "region_start",
                self.start_time,
                function=frame.function_name,
                header=info.annotation.header,
                num_cores=cores,
                issue_width=self.config.issue_width,
            )
        self._seed_channels()

    # -- setup -------------------------------------------------------------

    def _seed_channels(self) -> None:
        annotation = self.info.annotation
        for channel in annotation.scalar_channels:
            chan_info = self.module.channels[channel]
            value = self.frame.regs.get(chan_info.scalar or "", 0)
            self.channels.seed(channel, 0, "value", value)
        for channel in annotation.mem_channels:
            self.channels.seed(channel, 0, "addr", 0)
            self.channels.seed(channel, 0, "value", 0)

    # -- spawning -----------------------------------------------------------

    def _try_spawn(self) -> None:
        cores = self._num_cores
        while True:
            k = self.next_logical
            if k > 0:
                # The core must be free — its previous occupant
                # committed.  Cheapest test first: it is the common
                # early-out on the per-turn call from the drive loop.
                previous = k - cores
                if previous >= 0 and previous > self.committed_upto:
                    break
                if (k - 1) not in self.first_start:
                    break
            oldest = self.active.get(self.committed_upto + 1)
            if oldest is not None and oldest.exited:
                break  # definite loop exit: stop speculating further
            core = k % cores
            start = max(self.core_free[core], self.start_time)
            if k > 0:
                start = max(start, self.first_start[k - 1] + self.config.spawn_cost)
            run = EpochRun(
                logical=k,
                generation=0,
                core=core,
                clock=start,
                frame=Frame(
                    function_name=self.frame.function_name,
                    regs=dict(self.frame.regs),
                    block=self.info.annotation.header,
                ),
                sab_capacity=self.engine.machine.signal_buffer_entries,
            )
            self.active[k] = run
            self.first_start[k] = start
            self.next_logical += 1
            if self.fast:
                self._wake(k)
            if self.engine.obs is not None:
                self.engine.obs.emit(
                    "epoch_start", start, epoch=k, generation=0, core=core
                )
        # Every blocking condition above can only clear when another
        # epoch commits (oldest.exited is sticky until its commit, and
        # a core frees only on commit), so the drive loop may skip the
        # next attempts until committed_upto moves past this watermark.
        self._spawn_blocked_at = self.committed_upto

    # -- main loop -----------------------------------------------------------

    def execute(self) -> None:
        self._try_spawn()
        if self.fast:
            self._drive_fast()
        else:
            self._drive_slow()
        # region complete: hand control back to the sequential engine
        assert self.exit_run is not None
        self.frame.regs = self.exit_run.frames[0].regs
        self.frame.block = self.exit_run.exit_target
        self.frame.index = 0
        end = self.stats.end_time
        self.engine.clock = end
        cycles = max(0.0, end - self.start_time)
        slots = self.stats.slots
        slots.total = cycles * self.config.issue_width * self.config.num_cores
        slots.fail = self.fail_slots
        self.stats.attribution = self.ledger.finalize(end)
        self.engine.regions.append(self.stats)
        self.engine.instructions += self.total_steps

    def _drive_slow(self) -> None:
        while not self.finished:
            run, eff, action = self._pick()
            if run is None:
                raise self._deadlock_error()
            self._perform(run, eff, action)
            if self.finished:
                return  # don't spawn past the final commit (matches fast path)
            self._try_spawn()

    def _drive_fast(self) -> None:
        """Event-heap main loop.

        Invariant: every run's current event has a live heap entry
        (possibly among stale duplicates).  It is maintained by
        *targeted* pushes at every transition that creates or changes
        an event — spawns (_try_spawn), squash replacements (_squash),
        sends and message replacements (_exec_signal, the SAB store
        path, _auto_flush), commits exposing a new oldest epoch
        (_finalize_commit), and the post-turn reinsertion below.
        Stale entries are discarded on pop by re-deriving the run's
        current event.  An exhausted heap with a runnable run left is
        a scheduler bug and reported loudly rather than masked.
        """
        active = self.active
        heap = self._heap
        while not self.finished:
            event = self._pop_event()
            if event is None:
                run, eff, action = self._pick()
                if run is not None:  # pragma: no cover - defensive
                    raise EngineError(
                        f"fast-path scheduler missed a wakeup for epoch "
                        f"{run.logical} ({action} at t={eff})"
                    )
                raise self._deadlock_error()
            run, eff, action = event
            while True:
                if action == "step":
                    self._run_turn(run)
                else:
                    self._now = eff
                    self._perform(run, eff, action)
                if self.finished:
                    return
                if self.committed_upto != self._spawn_blocked_at:
                    self._try_spawn()
                # Self-run fast path: when this run's next event is
                # strictly earlier than every heap entry, pushing it
                # and popping it right back is a no-op round trip
                # (a fresh push always carries the largest seq, so a
                # strictly smaller (eff, logical) key wins the pop
                # unconditionally) — keep running it directly.
                if run.state == "ready" and active.get(run.logical) is run:
                    if not heap or (
                        (run.clock, run.logical) < (heap[0][0], heap[0][1])
                    ):
                        eff = run.clock
                        action = "step"
                        continue
                self._wake(run.logical)
                break

    def _deadlock_error(self) -> EngineError:
        return EngineError(
            f"region deadlock at t={self.last_commit_end}: "
            + ", ".join(
                f"e{r.logical}g{r.generation}:{r.state}"
                f"@{r.wait_channel or ''}"
                for r in self.active.values()
            )
        )

    def _event_for(self, run: EpochRun) -> Optional[Tuple[float, str]]:
        """The (effective time, action) of ``run``'s next transition."""
        state = run.state
        if state == "ready":
            return run.clock, "step"
        if state == "wait_msg":
            message = self.channels.peek(
                run.wait_channel,
                run.logical,
                run.wait_kind,
                run.cursors.get((run.wait_channel, run.wait_kind), 0),
            )
            if message is None:
                return None
            return (
                max(run.clock, self.channels.arrival_time(message)),
                "unblock_msg",
            )
        if run.logical != self.committed_upto + 1:
            return None
        eff = max(run.clock, self.last_commit_end)
        if state == "wait_oldest":
            return eff, "unblock_oldest"
        if state == "done":
            return eff, "commit"
        if state == "parked":
            return eff, "restart_parked"
        return None  # pragma: no cover - defensive

    def _wake(self, logical: int) -> None:
        """(Re-)insert ``logical``'s current event into the heap."""
        run = self.active.get(logical)
        if run is None:
            return
        if run.state == "ready":  # common case: skip _event_for
            eff = run.clock
            action = "step"
        else:
            event = self._event_for(run)
            if event is None:
                return
            eff, action = event
        self._heap_seq += 1
        heappush(self._heap, (eff, logical, self._heap_seq, run, action))

    def _pop_event(self) -> Optional[Tuple[EpochRun, float, str]]:
        heap = self._heap
        active = self.active
        while heap:
            eff, logical, _seq, run, action = heappop(heap)
            if active.get(logical) is not run:
                continue  # squashed or committed since the push
            if action == "step":  # common case: validate without _event_for
                if run.state == "ready" and run.clock == eff:
                    return run, eff, action
                continue
            event = self._event_for(run)
            if event is None or event[0] != eff or event[1] != action:
                continue  # state moved on; a fresher entry exists
            return run, eff, action
        return None

    def _peek_horizon(self, current: EpochRun) -> Tuple[Optional[float], int]:
        """(eff, logical) of the earliest event of any *other* run.

        Discards stale heap entries (and ``current``'s own duplicates
        — its event is re-pushed after the turn) from the top while
        peeking, so the amortized cost stays O(log heap).
        """
        heap = self._heap
        active = self.active
        while heap:
            eff, logical, _seq, run, action = heap[0]
            if run is current or active.get(logical) is not run:
                heappop(heap)
                continue
            if action == "step":  # common case: validate without _event_for
                if run.state == "ready" and run.clock == eff:
                    return eff, logical
                heappop(heap)
                continue
            event = self._event_for(run)
            if event is None or event[0] != eff or event[1] != action:
                heappop(heap)
                continue
            return eff, logical
        return None, 0

    def _pick(self):
        active = self.active
        if len(active) == 1:
            # Single in-flight run (tail of a region, tiny loops):
            # skip the scan/heap entirely.
            (run,) = active.values()
            event = self._event_for(run)
            if event is None:
                return None, 0.0, None
            return run, event[0], event[1]
        best = None
        best_eff = 0.0
        best_action = None
        for run in active.values():
            event = self._event_for(run)
            if event is None:
                continue
            eff, action = event
            if best is None or (eff, run.logical) < (best_eff, best.logical):
                best, best_eff, best_action = run, eff, action
        return best, best_eff, best_action

    def _perform(self, run: EpochRun, eff: float, action: str) -> None:
        if action == "step":
            self._step(run)
        elif action == "unblock_msg":
            stall = eff - run.wait_started
            self._account_wait_stall(run, stall)
            if self.engine.obs is not None:
                self.engine.obs.emit(
                    "fwd_unblock",
                    eff,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    channel=run.wait_channel,
                    msg_kind=run.wait_kind,
                    stall=max(0.0, stall),
                    cause=run.wait_cause,
                    wait_iid=run.wait_iid,
                )
            run.clock = eff
            run.state = "ready"  # re-executes the wait; message now local
        elif action == "unblock_oldest":
            stall = max(0.0, eff - run.wait_started)
            run.sync_hw += stall
            if run.wait_cause == "lmode":
                run.sync_lmode += stall
            if stall > 0:
                self.engine._stall_samples.append(stall)
            if self.engine.obs is not None:
                self.engine.obs.emit(
                    "sync_unblock",
                    eff,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    stall=stall,
                    cause=run.wait_cause,
                    load_iid=run.wait_iid,
                )
            run.clock = eff
            run.state = "ready"
        elif action == "commit":
            self._commit(run, eff)
        elif action == "restart_parked":
            # A parked speculative fault may be a side effect of stale
            # data: restart conservatively now that the epoch is oldest.
            self._violate_from(
                run.logical, eff, reason="parked", load_iid=None
            )
        else:  # pragma: no cover - defensive
            raise EngineError(f"unknown action {action!r}")

    def _account_wait_stall(self, run: EpochRun, stall: float) -> None:
        if stall <= 0:
            return
        kind = self.module.channels.get(run.wait_channel)
        if kind is not None and kind.kind == "mem":
            run.sync_mem += stall
        else:
            run.sync_scalar += stall
        self.engine._stall_samples.append(stall)

    # -- violations -----------------------------------------------------------

    def _violate_from(
        self,
        victim: int,
        time: float,
        reason: str,
        load_iid: Optional[int],
        collateral_only: bool = False,
        unit: Optional[int] = None,
    ) -> None:
        """Squash epoch ``victim`` and all logically-later in-flight runs."""
        if not collateral_only:
            marked_hw = self.engine.hw_table.should_synchronize(load_iid)
            marked_c = load_iid in self.engine.sync_loads or reason == "sab"
            self.stats.violations.append(
                ViolationRecord(
                    epoch=victim,
                    time=time,
                    reason=reason,
                    load_iid=load_iid,
                    compiler_marked=marked_c,
                    hardware_marked=marked_hw,
                )
            )
            obs = self.engine.obs
            if obs is not None:
                obs.now = time
                victim_run = self.active.get(victim)
                obs.emit(
                    "violation",
                    time,
                    epoch=victim,
                    generation=(
                        victim_run.generation if victim_run is not None else 0
                    ),
                    core=victim_run.core if victim_run is not None else -1,
                    reason=reason,
                    load_iid=load_iid,
                    unit=unit,
                )
            if load_iid is not None:
                self.engine.hw_table.record_violation(load_iid)
        for logical in sorted(k for k in self.active if k >= victim):
            run = self.active[logical]
            self._squash(run, time, restart=True, cause=reason)

    def _squash(
        self, run: EpochRun, time: float, restart: bool, cause: str
    ) -> None:
        trace = run.trace
        if trace:
            # Fast path: the victim free-ran private instructions past
            # the squashing operation's event time ``self._now``.  The
            # slow scheduler would have descheduled it at the first
            # instruction boundary not strictly before that event
            # (victims are always logically later than the violator,
            # so ties lose), which is where its clock — and therefore
            # the fail-slot accounting below — must stand.
            #
            # Fused kernels append (base clock, offset table) *chunks*
            # instead of flat per-op entries (repro.ir.lower); only
            # squashes read the trace, so flatten here — base + off is
            # exactly the float a per-op append would have produced.
            flat: List[float] = []
            extend = flat.extend
            append = flat.append
            fused_spans: List[Tuple[int, int]] = []
            for entry in trace:
                if type(entry) is tuple:
                    base = entry[0]
                    start = len(flat)
                    extend([base + off for off in entry[1]])
                    fused_spans.append((start, len(flat)))
                else:
                    append(entry)
            k = bisect_left(flat, self._now)
            overshoot = len(flat) - k
            if overshoot:
                run.clock = flat[k]
                self.total_steps -= overshoot
                # Keep the fused counter consistent with the step
                # rollback: discard the chunk entries past the cut so
                # fused coverage never exceeds the net instruction
                # count (coverage bookkeeping only).
                if fused_spans:
                    fused_over = sum(
                        end - max(start, k)
                        for start, end in fused_spans
                        if end > k
                    )
                    if fused_over:
                        self.engine.fused_instructions -= fused_over
        obs = self.engine.obs
        if obs is not None:
            obs.now = time
            obs.emit(
                "squash",
                time,
                epoch=run.logical,
                generation=run.generation,
                core=run.core,
                reason="restart" if restart else "control",
                cause=cause,
                clock=run.clock,
            )
        self.fail_slots += self.ledger.squash(
            core=run.core, start=run.start_clock, clock=run.clock,
            time=time, cause=cause,
        )
        self.stats.epochs_squashed += 1
        self.stats.max_signal_buffer = max(
            self.stats.max_signal_buffer, run.sab.high_water
        )
        self.channels.withdraw_generation(run.logical, run.generation)
        if restart:
            replacement = EpochRun(
                logical=run.logical,
                generation=run.generation + 1,
                core=run.core,
                clock=time + self.config.violation_penalty,
                frame=Frame(
                    function_name=self.frame.function_name,
                    regs=dict(self.frame.regs),
                    block=self.info.annotation.header,
                ),
                sab_capacity=self.engine.machine.signal_buffer_entries,
            )
            replacement.no_predict = run.no_predict
            self.active[run.logical] = replacement
            if self.fast:
                self._wake(run.logical)
            if obs is not None:
                obs.emit(
                    "restart",
                    time,
                    epoch=run.logical,
                    generation=replacement.generation,
                    core=run.core,
                    penalty=self.config.violation_penalty,
                )
                obs.emit(
                    "epoch_start",
                    replacement.clock,
                    epoch=replacement.logical,
                    generation=replacement.generation,
                    core=replacement.core,
                )
        else:
            del self.active[run.logical]

    # -- commit -----------------------------------------------------------------

    def _commit(self, run: EpochRun, eff: float) -> None:
        config = self.config
        obs = self.engine.obs
        commit_end = (
            eff + config.commit_base + config.commit_per_line * len(run.dirty_lines)
        )
        if obs is not None:
            obs.now = commit_end
        # Verify value predictions against committed state first.
        for load_iid, addr, predicted in run.predictions:
            actual = self.engine.memory.load(addr) if addr else 0
            correct = actual == predicted
            self.engine.predictor.record_outcome(correct, load_iid)
            self.engine.predictor.train(load_iid, actual)
            if not correct:
                self._violate_from(
                    run.logical, commit_end, reason="prediction", load_iid=load_iid
                )
                self.active[run.logical].no_predict = True
                return
        # Flush the write buffer (intra-epoch ordering already merged).
        if obs is not None and run.write_buffer:
            obs.emit(
                "commit_flush",
                commit_end,
                epoch=run.logical,
                generation=run.generation,
                core=run.core,
                lines=len(run.dirty_lines),
                words=len(run.write_buffer),
            )
        for addr, value in run.write_buffer.items():
            self.engine.memory.store(addr, value)
        # Rule (b): dirty lines squash later epochs that exposed the line
        # before this commit made the stored value visible.
        victims: List[Tuple[int, Optional[int], int]] = []
        for line in run.dirty_lines:
            for other in self.active.values():
                if other.logical > run.logical and line in other.exposed_lines:
                    loads = other.exposed_loads.get(line) or [None]
                    victims.append((other.logical, loads[0], line))
        self._finalize_commit(run, commit_end)
        if victims and not self.finished:
            victims.sort(key=lambda v: v[0])
            first_victim, load_iid, unit = victims[0]
            self._violate_from(
                first_victim, commit_end, reason="commit", load_iid=load_iid,
                unit=unit,
            )

    def _finalize_commit(self, run: EpochRun, commit_end: float) -> None:
        config = self.config
        width = config.issue_width
        if config.prediction:
            for load_iid, value in run.load_values.items():
                self.engine.predictor.train(load_iid, value)
        # The scheduler's effective commit time (commit-token grant):
        # identical to the eff _event_for derived for this commit.
        eff = max(run.clock, self.last_commit_end)
        self.ledger.commit(
            core=run.core, start=run.start_clock, done=run.clock, eff=eff,
            end=commit_end, busy=run.busy_slots,
            sync_scalar=run.sync_scalar, sync_mem=run.sync_mem,
            sync_hw=run.sync_hw, sync_lmode=run.sync_lmode,
            mem_stall=run.mem_stall,
        )
        self.stats.slots.busy += run.busy_slots
        self.stats.slots.sync += run.sync_cycles * width
        self.stats.sync_scalar += run.sync_scalar * width
        self.stats.sync_memory += run.sync_mem * width
        self.stats.sync_hw += run.sync_hw * width
        self.stats.epochs_committed += 1
        self.stats.max_signal_buffer = max(
            self.stats.max_signal_buffer, run.sab.high_water
        )
        obs = self.engine.obs
        if obs is not None:
            obs.now = commit_end
        self.engine.hw_table.on_commit()
        if obs is not None:
            obs.emit(
                "commit",
                commit_end,
                epoch=run.logical,
                generation=run.generation,
                core=run.core,
                dirty_lines=len(run.dirty_lines),
                busy=run.busy_slots,
                done_clock=run.clock,
                sync_scalar=run.sync_scalar,
                sync_mem=run.sync_mem,
                sync_hw=run.sync_hw,
                sync_lmode=run.sync_lmode,
                mem_stall=run.mem_stall,
            )
        del self.active[run.logical]
        self.committed_upto = run.logical
        self.last_commit_end = commit_end
        self.core_free[run.core] = commit_end
        if self.fast and not run.exited:
            # The next epoch is now oldest: its gated events go live.
            self._wake(run.logical + 1)
        if run.exited:
            self.exit_run = run
            self.stats.end_time = commit_end
            self.finished = True
            for logical in sorted(self.active):
                self._squash(
                    self.active[logical], commit_end,
                    restart=False, cause="control",
                )
            self.active.clear()
            if obs is not None:
                obs.emit("region_end", commit_end)

    # -- epoch end -----------------------------------------------------------

    def _finish_epoch(self, run: EpochRun, exited: bool, target: str) -> None:
        self._auto_flush(run)
        run.exited = exited
        run.exit_target = target if exited else None
        run.state = "done"
        if self.fast:
            # Auto-flush may have satisfied the next epoch's pending wait.
            self._wake(run.logical + 1)

    def _auto_flush(self, run: EpochRun) -> None:
        annotation = self.info.annotation
        consumer = run.logical + 1
        clock = run.clock
        for channel in annotation.scalar_channels:
            if run.signal_counts.get((channel, "value")):
                continue
            chan_info = self.module.channels[channel]
            reg = chan_info.scalar or ""
            if reg in run.frames[0].regs:
                payload = run.frames[0].regs[reg]
            elif (channel, "value") in run.received:
                payload = run.received[(channel, "value")]
            else:
                continue
            self.channels.send(
                channel, consumer, "value", payload, clock,
                run.logical, run.generation,
            )
        if not self.config.compiler_mem_sync:
            return
        obs = self.engine.obs
        for channel in annotation.mem_channels:
            if run.signal_counts.get((channel, "addr")):
                continue
            addr = run.received.get((channel, "addr"), 0)
            if addr and addr in run.write_buffer:
                value = run.write_buffer[addr]
            else:
                value = run.received.get((channel, "value"), 0)
            if obs is not None and addr == 0:
                obs.emit(
                    "fwd_null_signal",
                    clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    channel=channel,
                    consumer=consumer,
                )
            self.channels.send(
                channel, consumer, "addr", addr, clock,
                run.logical, run.generation,
            )
            self.channels.send(
                channel, consumer, "value", value, clock,
                run.logical, run.generation,
            )

    # -- one instruction ---------------------------------------------------------

    def _is_oldest(self, run: EpochRun) -> bool:
        return run.logical == self.committed_upto + 1

    def _charge(self, run: EpochRun, latency: float) -> None:
        run.clock += latency / self.config.issue_width
        run.busy_slots += 1.0

    def _park(self, run: EpochRun, reason: str) -> None:
        run.state = "parked"
        run.park_reason = reason
        if self.engine.obs is not None:
            self.engine.obs.emit(
                "epoch_park",
                run.clock,
                epoch=run.logical,
                generation=run.generation,
                core=run.core,
                reason=reason,
            )

    def _null_fault(self, run: EpochRun, frame: Frame, what: str) -> None:
        """NULL address: fatal for the oldest epoch, parked otherwise."""
        if self._is_oldest(run):
            raise EngineError(
                f"NULL pointer {what} in epoch {run.logical} "
                f"({frame.function_name})"
            )
        self._park(run, "null")

    def _branch(self, run: EpochRun, frame: Frame, target: str) -> None:
        """Take a (conditional) branch, detecting epoch/region ends."""
        if len(run.frames) == 1:
            if target == self.info.annotation.header:
                self._finish_epoch(run, exited=False, target=target)
                return
            if target not in self.info.blocks:
                self._finish_epoch(run, exited=True, target=target)
                return
        frame.block = target
        frame.index = 0

    def _step(self, run: EpochRun) -> None:
        """Execute ``run``'s next instruction: the per-op scheduler's
        one step, and the one copy of every park and fault rule (the
        turn loop hands its parks and faults here)."""
        engine = self.engine
        config = self.config
        run.steps += 1
        self.total_steps += 1
        if run.steps > config.max_epoch_steps:
            if self._is_oldest(run):
                raise EngineError(
                    f"oldest epoch {run.logical} exceeded step limit "
                    f"(non-terminating loop body?)"
                )
            self._park(run, "fuel")
            return
        if self.total_steps > config.max_region_steps:
            raise EngineError("region step limit exceeded")

        frame = run.frames[-1]
        block = self.module.function(frame.function_name).block(frame.block)
        instr = block.instructions[frame.index]

        def value(op) -> int:
            if isinstance(op, Imm):
                return op.value
            if isinstance(op, GlobalRef):
                return engine.memory.addr_of(op.name)
            try:
                return frame.regs[op.name]
            except KeyError:
                raise EngineError(
                    f"epoch {run.logical}: read of undefined register %{op.name} "
                    f"in {frame.function_name}"
                ) from None

        if isinstance(instr, Const):
            frame.regs[instr.dest.name] = instr.value
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, Move):
            frame.regs[instr.dest.name] = value(instr.src)
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, BinOp):
            lhs, rhs = value(instr.lhs), value(instr.rhs)
            if instr.op in ("div", "mod") and rhs == 0 and not self._is_oldest(run):
                self._park(run, "div0")
                return
            frame.regs[instr.dest.name] = eval_binop(instr.op, lhs, rhs)
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, UnOp):
            frame.regs[instr.dest.name] = eval_unop(instr.op, value(instr.src))
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, Load):
            addr = value(instr.addr) + instr.offset
            if addr == 0:
                self._null_fault(run, frame, "dereference")
                return
            self._exec_load(run, frame, instr, addr)
        elif isinstance(instr, Store):
            addr = value(instr.addr) + instr.offset
            if addr == 0:
                self._null_fault(run, frame, "store")
                return
            self._exec_store(run, frame, instr, addr, value(instr.value))
        elif isinstance(instr, Alloc):
            raise EngineError(
                "alloc inside a speculative epoch is not supported; "
                "pre-allocate memory before the parallelized loop"
            )
        elif isinstance(instr, Call):
            callee = self.module.function(instr.callee)
            values = [value(a) for a in instr.args]
            self._charge(run, instruction_latency(config, instr))
            run.frames.append(
                Frame(
                    function_name=instr.callee,
                    regs={p.name: v for p, v in zip(callee.params, values)},
                    block=callee.entry_label,
                    call_instr=instr,
                )
            )
        elif isinstance(instr, Ret):
            if len(run.frames) == 1:
                raise EngineError("return from inside a parallelized loop")
            retval = value(instr.value) if instr.value is not None else None
            self._charge(run, instruction_latency(config, instr))
            run.frames.pop()
            caller = run.frames[-1]
            call = self.module.function(caller.function_name).block(
                caller.block
            ).instructions[caller.index]
            if call.dest is not None:
                if retval is None:
                    raise EngineError(f"void return into %{call.dest.name}")
                caller.regs[call.dest.name] = retval
            caller.index += 1
        elif isinstance(instr, (Jump, CondBr)):
            if isinstance(instr, Jump):
                target = instr.target
            else:
                target = (
                    instr.true_target if value(instr.cond) else instr.false_target
                )
            self._charge(run, instruction_latency(config, instr))
            self._branch(run, frame, target)
        elif isinstance(instr, Wait):
            self._exec_wait(run, frame, instr)
        elif isinstance(instr, Signal):
            self._exec_signal(run, frame, instr, value(instr.value))
        elif isinstance(instr, Check):
            self._exec_check(
                run, value(instr.f_addr), value(instr.m_addr) + instr.offset
            )
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, Select):
            chosen = instr.f_value if run.fwd_flag else instr.m_value
            frame.regs[instr.dest.name] = value(chosen)
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        elif isinstance(instr, Resume):
            run.fwd_flag = False
            run.fwd_addr = 0
            self._charge(run, instruction_latency(config, instr))
            frame.index += 1
        else:
            raise EngineError(f"cannot execute {type(instr).__name__} in epoch")

    def _run_turn(self, run: EpochRun) -> None:
        """Decoded twin of :meth:`_step` executing a whole *turn*.

        Instructions split into two classes (the decode pass numbers
        opcodes so one comparison separates them):

        * **Private** (``code <= OP_CONDBR``): arithmetic, moves,
          selects, calls, returns and non-epoch-ending branches.  They
          touch only the run's registers, frames and clock, so no
          other epoch — and none of the violation rules — can observe
          them.  The turn executes these *freely*, even past other
          runs' pending events; each one's start clock is appended to
          ``run.trace`` so that, should the run later be squashed, its
          clock can be rolled back to the exact boundary where the
          slow-path scheduler would have descheduled it (see
          :meth:`_squash`).
        * **Shared-state** (loads, stores, waits, signals, checks and
          epoch-ending branches): these must execute in exact global
          ``(clock, logical)`` order.  Before each one the turn
          re-checks the *horizon* — the earliest pending event of any
          other run, constant during the turn because the turn ends on
          any operation that could move it — and ends the turn with the
          instruction unexecuted once the run is no longer the
          scheduler's minimum.  When one does execute, the trace is
          cleared: the run is globally ordered again.

        An instruction that cannot complete freely — either step limit,
        a zero divisor, a missing callee, a return out of the region or
        a void return into a register, an ``alloc``, an undefined
        register — parks the run or faults, and that decision depends
        on whether the run is the oldest, i.e. on global commit
        progress.  The turn stops with the instruction uncounted,
        synchronizes on the horizon like any shared-state operation and
        hands the instruction to :meth:`_step`, the one copy of every
        park and fault rule.

        The turn also ends when the run leaves the ready state or
        executes an operation that can change another run's pending
        event (a signal, or a store that squashed someone or corrected
        a forwarded value); the main loop then re-enters via the heap.
        """
        engine = self.engine
        config = self.config
        dprog = engine._program
        h_eff, h_log = self._peek_horizon(run)
        if h_eff is None:
            h_eff = float("inf")
            h_log = 0
        logical = run.logical
        max_epoch = config.max_epoch_steps
        max_region = config.max_region_steps
        header = self.info.annotation.header
        blocks = self.info.blocks
        frames = run.frames
        trace = run.trace
        append = trace.append
        fn_blocks = engine._fn_blocks
        fname = None
        fblocks = None
        handoff = False
        while not handoff:
            frame = frames[-1]
            if frame.function_name != fname:
                fname = frame.function_name
                fblocks = fn_blocks.get(fname)
                if fblocks is None:
                    fblocks = fn_blocks[fname] = dprog.function(fname).blocks
            ops = fblocks[frame.block].ops
            regs = frame.regs
            i = frame.index
            clock = run.clock
            busy = run.busy_slots
            steps = run.steps
            tsteps = self.total_steps
            try:
                while True:
                    op = ops[i]
                    code = op[0]
                    if code < 0:
                        # Fused region head (vector backend): an
                        # OP_FUSED2 superblock kernel.  Kernels append
                        # (base, offsets) rollback chunks to the trace,
                        # so squash rollback is unchanged.  When either
                        # step limit could trip inside the region,
                        # re-dispatch the original head op (interior
                        # indices keep their tuples) and the tuple path
                        # replays the limit exactly.  The kernel
                        # returns None on a missing live-in; otherwise
                        # (label, index, clock, busy, executed, ended).
                        # ``ended`` means the kernel already handed the
                        # run to the engine (park/fault/squash/SAB)
                        # with run state and step counters synced —
                        # return without touching them.  A bail with
                        # zero ops executed replays the head op
                        # (guaranteed progress).
                        n = op[5]
                        if steps + n > max_epoch or tsteps + n > max_region:
                            op = op[2]
                            code = op[0]
                        else:
                            res = op[3](
                                regs, trace, clock, busy, steps,
                                tsteps, run, frame, self, h_eff,
                                h_log, logical, op[6],
                            )
                            if res is None:
                                op = op[2]
                                code = op[0]
                            else:
                                label, idx, clock, busy, executed, \
                                    ended = res
                                if executed:
                                    engine.fused_instructions += executed
                                    engine.fused_regions += 1
                                if ended:
                                    return
                                steps += executed
                                tsteps += executed
                                if executed == 0:
                                    op = op[2]
                                    code = op[0]
                                elif label is None:
                                    i = idx
                                    continue
                                else:
                                    run.clock = clock
                                    run.busy_slots = busy
                                    run.steps = steps
                                    self.total_steps = tsteps
                                    frame.block = label
                                    frame.index = idx
                                    break
                    steps += 1
                    tsteps += 1
                    if steps > max_epoch or tsteps > max_region:
                        handoff = True
                        break
                    if code <= OP_RESUME:  # pure: free-running
                        if code == OP_BINOP:
                            a, b = op[5], op[6]
                            regs[op[3]] = op[4](
                                a if type(a) is int else regs[a],
                                b if type(b) is int else regs[b],
                            )
                        elif code == OP_CONST:
                            regs[op[3]] = op[4]
                        elif code == OP_MOVE:
                            s = op[4]
                            regs[op[3]] = s if type(s) is int else regs[s]
                        elif code == OP_UNOP:
                            s = op[5]
                            regs[op[3]] = op[4](s if type(s) is int else regs[s])
                        elif code == OP_DIVMOD:
                            a, b = op[5], op[6]
                            rhs = b if type(b) is int else regs[b]
                            if rhs == 0:
                                handoff = True
                                break
                            regs[op[3]] = op[4](
                                a if type(a) is int else regs[a], rhs
                            )
                        elif code == OP_SELECT:
                            s = op[4] if run.fwd_flag else op[5]
                            regs[op[3]] = s if type(s) is int else regs[s]
                        else:  # OP_RESUME
                            run.fwd_flag = False
                            run.fwd_addr = 0
                        append(clock)
                        clock += op[1]
                        busy += 1.0
                        i += 1
                        continue
                    if code <= OP_CONDBR:  # private control flow
                        if code >= OP_JUMP:
                            if code == OP_JUMP:
                                target = op[3]
                            else:
                                c = op[3]
                                target = (
                                    op[4]
                                    if (c if type(c) is int else regs[c])
                                    else op[5]
                                )
                            if len(frames) > 1 or (
                                target != header and target in blocks
                            ):
                                append(clock)
                                clock += op[1]
                                busy += 1.0
                                run.clock = clock
                                run.busy_slots = busy
                                run.steps = steps
                                self.total_steps = tsteps
                                frame.block = target
                                frame.index = 0
                                break  # refetch the decoded block
                            # epoch boundary: shared-state, below
                        elif code == OP_CALL:
                            if op[6] is None:
                                handoff = True
                                break
                            values = [
                                a if type(a) is int else regs[a] for a in op[5]
                            ]
                            append(clock)
                            clock += op[1]
                            busy += 1.0
                            run.clock = clock
                            run.busy_slots = busy
                            run.steps = steps
                            self.total_steps = tsteps
                            frame.index = i
                            frames.append(
                                Frame(
                                    function_name=op[4],
                                    regs=dict(zip(op[6], values)),
                                    block=op[7],
                                    call_instr=op[2],
                                )
                            )
                            break  # enter the callee's decoded block
                        else:  # OP_RET
                            v = op[3]
                            retval = (
                                None if v is None
                                else (v if type(v) is int else regs[v])
                            )
                            call = frame.call_instr
                            if len(frames) == 1 or (
                                call.dest is not None and retval is None
                            ):
                                handoff = True
                                break
                            append(clock)
                            clock += op[1]
                            busy += 1.0
                            run.clock = clock
                            run.busy_slots = busy
                            run.steps = steps
                            self.total_steps = tsteps
                            frames.pop()
                            caller = frames[-1]
                            if call.dest is not None:
                                caller.regs[call.dest.name] = retval
                            caller.index += 1
                            break  # back to the caller's decoded block
                    # shared-state: synchronize on the horizon first
                    run.clock = clock
                    run.busy_slots = busy
                    frame.index = i
                    if not (
                        clock < h_eff or (clock == h_eff and logical < h_log)
                    ):
                        run.steps = steps - 1
                        self.total_steps = tsteps - 1
                        return  # another run's event is due first
                    del trace[:]
                    self._now = clock
                    run.steps = steps
                    self.total_steps = tsteps
                    if code == OP_LOAD:
                        a = op[4]
                        addr = (a if type(a) is int else regs[a]) + op[5]
                        if addr == 0:
                            self._null_fault(run, frame, "dereference")
                            return
                        self._exec_load(run, frame, op[2], addr)
                        if run.state != "ready":
                            return
                    elif code == OP_STORE:
                        a = op[3]
                        addr = (a if type(a) is int else regs[a]) + op[4]
                        if addr == 0:
                            self._null_fault(run, frame, "store")
                            return
                        v = op[5]
                        squashed_before = self.stats.epochs_squashed
                        self._exec_store(
                            run, frame, op[2], addr,
                            v if type(v) is int else regs[v],
                        )
                        if self.stats.epochs_squashed != squashed_before:
                            return  # squashes changed other runs' events
                        if run.sab._entries.get(addr) is not None:
                            return  # SAB path may have replaced a message
                    elif code == OP_WAIT:
                        self._exec_wait(run, frame, op[2])
                        if run.state != "ready":
                            return
                    elif code == OP_SIGNAL:
                        v = op[5]
                        self._exec_signal(
                            run, frame, op[2], v if type(v) is int else regs[v]
                        )
                        return  # sent/replaced a message: consumer event moved
                    elif code == OP_CHECK:
                        f = op[3]
                        m = op[4]
                        self._exec_check(
                            run,
                            f if type(f) is int else regs[f],
                            (m if type(m) is int else regs[m]) + op[5],
                        )
                        run.clock = clock + op[1]
                        run.busy_slots = busy + 1.0
                        frame.index = i + 1
                    elif code == OP_ALLOC:
                        handoff = True
                        break
                    else:  # the epoch-ending branch
                        run.clock = clock + op[1]
                        run.busy_slots = busy + 1.0
                        self._finish_epoch(
                            run, exited=(target != header), target=target
                        )
                        return
                    # executed with the run still ready in the same
                    # frame: resume free-running after it.
                    clock = run.clock
                    busy = run.busy_slots
                    steps = run.steps
                    tsteps = self.total_steps
                    i = frame.index
            except KeyError:
                handoff = True  # an undefined register
        # A park or fault: uncount the instruction and hand it to the
        # per-op rules once the run is ordered before the horizon.
        run.clock = clock
        run.busy_slots = busy
        run.steps = steps - 1
        self.total_steps = tsteps - 1
        frame.index = i
        if clock < h_eff or (clock == h_eff and logical < h_log):
            del trace[:]
            self._now = clock
            self._step(run)

    # -- memory instructions -------------------------------------------------

    def _exec_load(
        self, run: EpochRun, frame: Frame, instr: Load, addr: int
    ) -> None:
        """Execute a load at resolved non-NULL address ``addr``."""
        engine = self.engine
        config = self.config
        obs = engine.obs
        if obs is not None:
            obs.now = run.clock
        # Static load identity: the instruction id acts as the PC, so a
        # cloned procedure's loads are distinct (as they are in hardware).
        load_id = instr.iid

        line = engine.caches.line_of(addr)
        # Violation-detection unit: whole line (coherence-based, false
        # sharing visible) or single word (ideal per-word access bits).
        unit = line if self._unit_is_line else addr

        # Track dynamic occurrences so oracle lookups stay aligned with
        # the sequential trace (which records *every* dynamic load).
        occurrence: Optional[int] = None
        if config.oracle_mode != "off":
            occurrence = run.oracle_occ.get(load_id, 0)
            run.oracle_occ[load_id] = occurrence + 1

        # Own speculative buffer: not exposed.
        if addr in run.write_buffer:
            if run.fwd_flag and addr == run.fwd_addr:
                run.fwd_flag = False  # value locally overwritten
            frame.regs[instr.dest.name] = run.write_buffer[addr]
            self._charge(run, self._lat_l1)
            frame.index += 1
            return

        # Oracle modes: perfect forwarding for the configured load set.
        oracled = False
        if config.oracle_mode == "all":
            oracled = True
        elif config.oracle_mode == "sync" and load_id in engine.sync_loads:
            oracled = True
        elif config.oracle_mode == "set" and load_id in config.oracle_set:
            oracled = True
        if oracled:
            oracle_value = engine.oracle.lookup(
                self.region_index, run.logical, load_id, occurrence
            )
            if oracle_value is not None:
                frame.regs[instr.dest.name] = oracle_value
                self._charge(run, self._lat_l1)
                frame.index += 1
                return

        # Forwarded-value protocol: a load under the use_forwarded_value
        # flag accesses only the speculative cache and is not exposed.
        if run.fwd_flag and addr == run.fwd_addr:
            frame.regs[instr.dest.name] = engine.memory.load(addr)
            self._charge(run, self._lat_l1)
            frame.index += 1
            return

        # Hardware-inserted synchronization: stall tracked loads until
        # this epoch is the oldest in flight.
        if (
            config.hw_sync
            and not self._is_oldest(run)
            and engine.hw_table.should_synchronize(load_id)
        ):
            run.state = "wait_oldest"
            run.wait_started = run.clock
            run.wait_cause = "hw"
            run.wait_iid = load_id
            if obs is not None:
                obs.emit(
                    "sync_stall",
                    run.clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    cause="hw",
                    load_iid=load_id,
                )
            return

        # Hardware value prediction for violating loads.
        if (
            config.prediction
            and not run.no_predict
            and not self._is_oldest(run)
            and engine.hw_table.is_tracked(load_id)
        ):
            predicted = engine.predictor.predict(load_id)
            if predicted is not None:
                run.predictions.append((load_id, addr, predicted))
                frame.regs[instr.dest.name] = predicted
                if obs is not None:
                    obs.emit(
                        "pred_use",
                        run.clock,
                        epoch=run.logical,
                        generation=run.generation,
                        core=run.core,
                        load_iid=load_id,
                        value=predicted,
                    )
                self._charge(run, self._lat_l1)
                frame.index += 1
                return

        # Ordinary exposed speculative load: read committed memory.
        loaded = engine.memory.load(addr)
        frame.regs[instr.dest.name] = loaded
        run.load_values[load_id] = loaded
        if unit not in run.exposed_lines:
            run.exposed_lines.add(unit)
            run.exposed_loads[unit] = [load_id]
        else:
            loads = run.exposed_loads[unit]
            if load_id not in loads:
                loads.append(load_id)
        latency = engine.caches.access(run.core, line)
        run.mem_stall += latency - self._lat_l1
        self._charge(run, latency)
        frame.index += 1

    def _exec_store(
        self, run: EpochRun, frame: Frame, instr: Store, addr: int, stored: int
    ) -> None:
        """Execute a store of ``stored`` at resolved non-NULL ``addr``."""
        engine = self.engine
        config = self.config
        obs = engine.obs
        if obs is not None:
            obs.now = run.clock
        line = engine.caches.line_of(addr)
        unit = line if config.violation_granularity == "line" else addr
        latency = engine.caches.access(run.core, line)
        run.mem_stall += latency - self._lat_l1

        # Signal address buffer: correcting a forwarded value.
        # (Direct _entries lookup: channel_for is a dict.get wrapper
        # and this runs once per dynamic store.)
        channel = run.sab._entries.get(addr)
        if channel is not None and config.compiler_mem_sync:
            if obs is not None:
                obs.emit(
                    "sab_hit",
                    run.clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    addr=addr,
                    channel=channel,
                )
            replaced = self.channels.replace_last(
                channel, run.logical + 1, "value", stored, run.clock
            )
            consumer = self.active.get(run.logical + 1)
            stale_consumed = (
                replaced is not None
                and consumer is not None
                and replaced.consumed_gen == consumer.generation
            )
            run.write_buffer[addr] = stored
            run.dirty_lines.add(unit)
            self._charge(run, latency)
            frame.index += 1
            if stale_consumed or (replaced is None and consumer is not None):
                self._violate_from(
                    run.logical + 1, run.clock, reason="sab", load_iid=None
                )
            if self.fast:
                self._wake(run.logical + 1)
            return

        run.write_buffer[addr] = stored
        run.dirty_lines.add(unit)
        self._charge(run, latency)
        frame.index += 1

        # Rule (a): eager cross-epoch violation detection at store time.
        # With only this run in flight there can be no victims.
        active = self.active
        if len(active) > 1:
            first = None
            logical = run.logical
            for other in active.values():
                if other.logical > logical and unit in other.exposed_lines:
                    if first is None or other.logical < first:
                        first = other.logical
            if first is not None:
                loads = active[first].exposed_loads.get(unit) or [None]
                self._violate_from(
                    first, run.clock, reason="store", load_iid=loads[0], unit=unit
                )

    # -- synchronization instructions ------------------------------------------

    def _exec_wait(self, run: EpochRun, frame: Frame, instr: Wait) -> None:
        config = self.config
        channel = instr.channel
        kind = instr.kind
        is_mem = channel in self._mem_channels
        obs = self.engine.obs
        if obs is not None:
            obs.now = run.clock

        if is_mem and kind == "addr":
            run.last_mem_channel = channel
        if is_mem and not config.compiler_mem_sync:
            frame.regs[instr.dest.name] = 0
            run.clock += self._tls_dt; run.busy_slots += 1.0
            frame.index += 1
            return
        if is_mem and config.hybrid_filter and self._channel_filtered(channel):
            # Refinement (iii): the hardware has learned this channel's
            # forwards rarely check out; stop stalling for it.
            frame.regs[instr.dest.name] = 0
            run.clock += self._tls_dt; run.busy_slots += 1.0
            frame.index += 1
            return
        if is_mem and config.oracle_mode == "sync":
            # E bars: synchronized values arrive for free via the oracle.
            frame.regs[instr.dest.name] = 0
            run.clock += self._tls_dt; run.busy_slots += 1.0
            frame.index += 1
            return
        if (
            is_mem
            and config.l_mode_stall
            and kind == "addr"
            and not self._is_oldest(run)
        ):
            run.state = "wait_oldest"
            run.wait_started = run.clock
            run.wait_cause = "lmode"
            run.wait_iid = instr.iid
            if obs is not None:
                obs.emit(
                    "sync_stall",
                    run.clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    cause="lmode",
                    load_iid=None,
                )
            return

        cursor_key = (channel, kind)
        cursor = run.cursors.get(cursor_key, 0)
        message = self.channels.peek(channel, run.logical, kind, cursor)
        if message is not None:
            arrival = self.channels.arrival_time(message)
            if arrival <= run.clock:
                message.consumed_gen = run.generation
                run.cursors[cursor_key] = cursor + 1
                run.received[cursor_key] = message.payload
                frame.regs[instr.dest.name] = message.payload
                if obs is not None:
                    obs.emit(
                        "fwd_wait",
                        run.clock,
                        epoch=run.logical,
                        generation=run.generation,
                        core=run.core,
                        channel=channel,
                        msg_kind=kind,
                        payload=message.payload,
                    )
                run.clock += self._tls_dt; run.busy_slots += 1.0
                frame.index += 1
                return
            # Message in flight: stall until it arrives.
            run.state = "wait_msg"
            run.wait_channel = channel
            run.wait_kind = kind
            run.wait_started = run.clock
            run.wait_cause = "mem" if is_mem else "scalar"
            run.wait_iid = instr.iid
            if obs is not None:
                obs.emit(
                    "fwd_stall",
                    run.clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    channel=channel,
                    msg_kind=kind,
                    cause=run.wait_cause,
                    wait_iid=instr.iid,
                )
            return
        if cursor_key in run.received:
            # Re-executed wait within the same epoch: reuse the value.
            frame.regs[instr.dest.name] = run.received[cursor_key]
            run.clock += self._tls_dt; run.busy_slots += 1.0
            frame.index += 1
            return
        run.state = "wait_msg"
        run.wait_channel = channel
        run.wait_kind = kind
        run.wait_started = run.clock
        run.wait_cause = "mem" if is_mem else "scalar"
        run.wait_iid = instr.iid
        if obs is not None:
            obs.emit(
                "fwd_stall",
                run.clock,
                epoch=run.logical,
                generation=run.generation,
                core=run.core,
                channel=channel,
                msg_kind=kind,
                cause=run.wait_cause,
                wait_iid=instr.iid,
            )

    def _channel_filtered(self, channel: str) -> bool:
        stats = self.engine.channel_stats.get(channel)
        if stats is None or stats[0] < self.config.filter_min_samples:
            return False
        return stats[1] / stats[0] < self.config.filter_min_success

    def _exec_check(self, run: EpochRun, f_addr: int, m_addr: int) -> None:
        """Set the forwarding flag and count the check against the
        channel of the run's last memory wait."""
        run.fwd_flag = bool(f_addr != 0 and f_addr == m_addr)
        run.fwd_addr = f_addr
        if run.last_mem_channel is not None:
            stats = self.engine.channel_stats.setdefault(
                run.last_mem_channel, [0, 0]
            )
            stats[0] += 1
            if run.fwd_flag:
                stats[1] += 1

    def _exec_signal(
        self, run: EpochRun, frame: Frame, instr: Signal, payload: int
    ) -> None:
        config = self.config
        channel = instr.channel
        kind = instr.kind
        is_mem = channel in self._mem_channels
        run.clock += self._tls_dt; run.busy_slots += 1.0
        frame.index += 1
        obs = self.engine.obs
        if obs is not None:
            obs.now = run.clock
        if is_mem and not config.compiler_mem_sync:
            return  # marking mode: synchronization not enforced
        key = (channel, kind)
        count = run.signal_counts.get(key, 0)
        consumer = run.logical + 1
        if count:
            # Re-signal on the same channel: correct the earlier message
            # and restart the consumer if it already used the stale one.
            replaced = self.channels.replace_last(
                channel, consumer, kind, payload, run.clock
            )
            consumer_run = self.active.get(consumer)
            if (
                replaced is not None
                and consumer_run is not None
                and replaced.consumed_gen == consumer_run.generation
            ):
                self._violate_from(consumer, run.clock, reason="sab", load_iid=None)
            if self.fast:
                self._wake(consumer)
            return
        run.signal_counts[key] = count + 1
        self.channels.send(
            channel, consumer, kind, payload, run.clock, run.logical, run.generation
        )
        if kind == "addr":
            was_overflowed = run.sab.overflowed
            run.sab.record(payload, channel)
            if obs is not None and run.sab.overflowed and not was_overflowed:
                obs.emit(
                    "sab_overflow",
                    run.clock,
                    epoch=run.logical,
                    generation=run.generation,
                    core=run.core,
                    addr=payload,
                )
        if self.fast:
            self._wake(consumer)
