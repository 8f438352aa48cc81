"""The full TLS compilation pipeline (paper Section 3.1).

Phases, in order:

1. **Deciding where to parallelize** — profile all candidate loops and
   select those meeting the coverage/trip-count/epoch-size heuristics.
2. **Loop unrolling** — small epochs are unrolled to amortize
   speculation overheads.
3. **Transforming to exploit TLS** — scalar synchronization insertion
   plus forwarding-path scheduling (the substrate from [32]).
4. **Inserting synchronization for memory-resident values** — the
   subject of the paper: dependence profiling, grouping, procedure
   cloning, and wait/signal insertion.

The pipeline produces every binary the evaluation needs:

* ``seq`` — the original program (sequential baseline),
* ``baseline`` — scalar-synced TLS program (the U bars),
* ``sync_ref`` — memory-synced with a ref-input profile (C bars),
* ``sync_train`` — memory-synced with a train-input profile (T bars).

All four are built under :class:`repro.ir.basicblock.deterministic_iids`
from the same builder, so instruction ids correspond across binaries
and across profiling inputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.compiler.loop_selection import LoopStats, select_loops
from repro.compiler.memdep.graph import (
    DEFAULT_THRESHOLD,
    DependenceGroup,
    group_dependences,
)
from repro.compiler.memdep.profiler import (
    LoopDependenceProfile,
    profile_dependences,
)
from repro.compiler.memdep.sync_insertion import MemSyncReport, insert_memory_sync
from repro.compiler.opt.driver import optimize_module
from repro.compiler.scalar_sync import ScalarSyncReport, insert_all_scalar_sync
from repro.compiler.scheduling import SchedulingReport, schedule_all
from repro.compiler.unroll import choose_unroll_factor, unroll_loop
from repro.ir.basicblock import deterministic_iids
from repro.ir.module import Module, ParallelLoop
from repro.ir.verifier import verify_module

#: A builder: maps an input spec (opaque to the pipeline) to a Module.
Builder = Callable[[object], Module]

LoopKey = Tuple[str, str]


@dataclass
class CompiledWorkload:
    """Every binary and artifact the experiments consume."""

    name: str
    seq: Module
    baseline: Module
    sync_ref: Module
    sync_train: Module
    loop_stats: List[LoopStats]
    selected: List[LoopKey]
    unroll_factors: Dict[LoopKey, int]
    profile_ref: Dict[LoopKey, LoopDependenceProfile]
    profile_train: Dict[LoopKey, LoopDependenceProfile]
    groups_ref: Dict[LoopKey, List[DependenceGroup]]
    groups_train: Dict[LoopKey, List[DependenceGroup]]
    scalar_reports: List[ScalarSyncReport] = field(default_factory=list)
    scheduling_reports: List[SchedulingReport] = field(default_factory=list)
    memsync_reports_ref: List[MemSyncReport] = field(default_factory=list)
    memsync_reports_train: List[MemSyncReport] = field(default_factory=list)


def _attach_loops(module: Module, selected: List[LoopKey]) -> None:
    module.parallel_loops = [
        ParallelLoop(function=fn, header=header) for fn, header in selected
    ]


def compile_workload(
    name: str,
    build: Builder,
    train_input: object,
    ref_input: object,
    threshold: float = DEFAULT_THRESHOLD,
    unroll: bool = True,
    optimize: bool = False,
    fuel: int = 50_000_000,
) -> CompiledWorkload:
    """Run the whole pipeline for one workload.

    ``build`` must be structurally deterministic: the two inputs may
    change global initializers (data) but not the instruction sequence.
    ``optimize`` additionally runs the scalar optimization passes
    (constant folding, DCE, CFG simplification — the "backend -O"
    stage) on all four binaries after transformation; off by default so
    reported slot counts correspond to the unoptimized instruction
    stream, as a source-to-source system's would.
    """
    # One outer deterministic id context covers the *whole* pipeline:
    # instructions created after the builds (memory-sync insertion,
    # procedure cloning) must also receive ids that do not depend on
    # what else this process happened to compile first — simulation
    # results carry instruction ids and are cached and compared across
    # worker processes.
    with deterministic_iids():
        return _run_pipeline(
            name, build, train_input, ref_input, threshold, unroll,
            optimize, fuel,
        )


def _run_pipeline(
    name: str,
    build: Builder,
    train_input: object,
    ref_input: object,
    threshold: float,
    unroll: bool,
    optimize: bool,
    fuel: int,
) -> CompiledWorkload:
    # Phase 1: selection decisions on a scratch train-input build.
    with deterministic_iids():
        scratch = build(train_input)
    selected_loops, loop_stats = select_loops(scratch, fuel=fuel)
    selected = [(l.function, l.header) for l in selected_loops]
    stats_by_key = {(s.function, s.header): s for s in loop_stats}
    unroll_factors: Dict[LoopKey, int] = {}
    for key in selected:
        factor = 1
        if unroll:
            factor = choose_unroll_factor(stats_by_key[key].insns_per_epoch)
        unroll_factors[key] = factor

    # Phase 2+3: deterministic prep per input.
    scalar_reports: List[ScalarSyncReport] = []
    scheduling_reports: List[SchedulingReport] = []

    def prep(input_spec, record: bool) -> Module:
        with deterministic_iids():
            module = build(input_spec)
            _attach_loops(module, selected)
            for loop in module.parallel_loops:
                unroll_loop(
                    module, loop, unroll_factors[(loop.function, loop.header)]
                )
            s_reports = insert_all_scalar_sync(module)
            d_reports = schedule_all(module)
        if record:
            scalar_reports.extend(s_reports)
            scheduling_reports.extend(d_reports)
        verify_module(module)
        return module

    baseline_train = prep(train_input, record=False)
    baseline_ref = prep(ref_input, record=True)
    with deterministic_iids():
        seq = build(ref_input)
        _attach_loops(seq, selected)
    verify_module(seq)

    # Phase 4: dependence profiles with both inputs.
    profile_train = profile_dependences(baseline_train, fuel=fuel)
    profile_ref = profile_dependences(baseline_ref, fuel=fuel)

    groups_train = {
        key: group_dependences(profile, threshold)
        for key, profile in profile_train.items()
    }
    groups_ref = {
        key: group_dependences(profile, threshold)
        for key, profile in profile_ref.items()
    }

    def transform(groups_by_key) -> Tuple[Module, List[MemSyncReport]]:
        module = copy.deepcopy(baseline_ref)
        reports = []
        for loop in module.parallel_loops:
            key = (loop.function, loop.header)
            reports.append(
                insert_memory_sync(module, loop, groups_by_key.get(key, []))
            )
        verify_module(module)
        return module, reports

    sync_ref, reports_ref = transform(groups_ref)
    sync_train, reports_train = transform(groups_train)

    if optimize:
        for binary in (seq, baseline_ref, sync_ref, sync_train):
            optimize_module(binary)

    return CompiledWorkload(
        name=name,
        seq=seq,
        baseline=baseline_ref,
        sync_ref=sync_ref,
        sync_train=sync_train,
        loop_stats=loop_stats,
        selected=selected,
        unroll_factors=unroll_factors,
        profile_ref=profile_ref,
        profile_train=profile_train,
        groups_ref=groups_ref,
        groups_train=groups_train,
        scalar_reports=scalar_reports,
        scheduling_reports=scheduling_reports,
        memsync_reports_ref=reports_ref,
        memsync_reports_train=reports_train,
    )
