"""Memory-resident synchronization insertion (paper Sections 2.2-2.3).

For every dependence group the pass allocates one forwarding channel
and transforms the program exactly as Figure 3(b)/4(b):

Consumer side — before each synchronized load::

    f_addr = wait.addr ch
    check f_addr, <load address>       # sets use_forwarded_value
    f_value = wait.value ch
    m_value = load <address>           # original load, now under the flag
    <dest> = select f_value, m_value
    resume

Producer side — a ``signal.addr``/``signal.value`` pair is placed after
the *last* store of the group on each path through the containing
function, found with the same later-definitions data-flow used for
scalar signals.  The producer still performs the store itself (other
code may read the location from memory), and the forwarded address
enters the signal address buffer so a later conflicting store restarts
the consumer.  Paths that store nothing are covered by the runtime's
epoch-end auto-flush (the paper's NULL signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.memdep.cloning import specialize_call_paths
from repro.compiler.memdep.graph import DependenceGroup
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Check,
    Load,
    Resume,
    Select,
    Signal,
    Store,
    Wait,
)
from repro.ir.dataflow import blocks_with_later_defs
from repro.ir.loops import LoopForest
from repro.ir.module import ChannelInfo, Module, ParallelLoop
from repro.ir.operands import Imm


@dataclass
class MemSyncReport:
    """What the pass did to one loop."""

    loop: ParallelLoop
    groups: int = 0
    loads_synchronized: int = 0
    signal_sites: int = 0
    clones_created: int = 0
    channels: List[str] = field(default_factory=list)


def _match_key(instr, in_root: bool) -> int:
    if in_root:
        return instr.iid
    return instr.origin_iid if instr.origin_iid is not None else instr.iid


def _locate(
    function: Function, iid: int, in_root: bool, want_type
) -> Tuple[str, int]:
    for label, block in function.blocks.items():
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, want_type) and _match_key(instr, in_root) == iid:
                return label, index
    raise ValueError(
        f"no {want_type.__name__} with id {iid} in {function.name!r}"
    )


def _guard_load(
    function: Function, channel: str, iid: int, in_root: bool, used: Set[str]
) -> int:
    """Wrap one load in the wait/check/select protocol.  Returns its iid.

    ``used`` is the function's register names; minted ones join it.
    """
    label, index = _locate(function, iid, in_root, Load)
    block = function.block(label)
    load = block.instructions[index]
    assert isinstance(load, Load)
    f_addr = function.fresh_reg("f.addr", used)
    f_value = function.fresh_reg("f.val", used)
    m_value = function.fresh_reg("m.val", used)
    original_dest = load.dest
    load.dest = m_value
    block.insert(index, Wait(f_addr, channel, kind="addr"))
    block.insert(index + 1, Check(f_addr, load.addr, load.offset))
    block.insert(index + 2, Wait(f_value, channel, kind="value"))
    # load is now at index + 3
    block.insert(index + 4, Select(original_dest, f_value, m_value))
    block.insert(index + 5, Resume())
    return load.iid


def _place_signals(
    function: Function,
    channel: str,
    store_ids: Set[int],
    in_root: bool,
    loop_blocks: Optional[frozenset],
    backedges,
    used: Set[str],
) -> int:
    """Insert signal pairs after last group stores.  Returns site count."""
    cfg = CFG(function)

    def is_group_store(instr) -> bool:
        return isinstance(instr, Store) and _match_key(instr, in_root) in store_ids

    region = loop_blocks if loop_blocks is not None else frozenset(cfg.reachable)
    later = blocks_with_later_defs(
        cfg, is_group_store, region, exclude_edges=backedges or ()
    )
    sites = 0
    for label in sorted(region):
        block = function.block(label)
        last_index = None
        for index, instr in enumerate(block.instructions):
            if is_group_store(instr):
                last_index = index
        if last_index is None or label in later:
            continue
        store = block.instructions[last_index]
        assert isinstance(store, Store)
        addr_operand = store.addr
        insert_at = last_index + 1
        if store.offset:
            computed = function.fresh_reg("sig.addr", used)
            block.insert(
                insert_at, BinOp(computed, "add", store.addr, Imm(store.offset))
            )
            addr_operand = computed
            insert_at += 1
        block.insert(insert_at, Signal(channel, addr_operand, kind="addr"))
        block.insert(insert_at + 1, Signal(channel, store.value, kind="value"))
        sites += 1
    return sites


def insert_memory_sync(
    module: Module,
    loop: ParallelLoop,
    groups: List[DependenceGroup],
) -> MemSyncReport:
    """Synchronize all dependence ``groups`` of ``loop`` in place."""
    report = MemSyncReport(loop=loop, groups=len(groups))
    if not groups:
        return report

    stacks = sorted(
        {stack for group in groups for (_iid, stack) in group.members if stack}
    )
    functions_before = len(module.functions)
    materialized = specialize_call_paths(module, loop, stacks)
    report.clones_created = len(module.functions) - functions_before

    function = module.function(loop.function)
    forest = LoopForest(CFG(function))
    natural = forest.loop_of(loop.header)
    assert natural is not None
    loop_blocks = frozenset(natural.blocks)
    backedges = [(latch, loop.header) for latch in natural.latches]

    # One register-name set per function, scanned once: the pass only
    # adds the registers it mints, so the set stays exact.
    register_names: Dict[str, Set[str]] = {}

    def used_in(name: str) -> Set[str]:
        if name not in register_names:
            register_names[name] = {
                reg.name for reg in module.function(name).registers()
            }
        return register_names[name]

    for group in groups:
        channel = f"mem:{loop.function}:{loop.header}:{group.index}"
        module.add_channel(
            ChannelInfo(
                name=channel,
                kind="mem",
                members=tuple(sorted(group.member_iids())),
            )
        )
        loop.mem_channels.append(channel)
        report.channels.append(channel)

        # Consumer side.
        for iid, stack in sorted(group.loads):
            target = materialized[tuple(stack)]
            in_root = stack == ()
            guarded = _guard_load(
                module.function(target), channel, iid, in_root, used_in(target)
            )
            module.sync_loads.add(guarded)
            report.loads_synchronized += 1

        # Producer side.  The paper's placement constraint is epoch
        # scoped: a signal "should occur after the last store
        # instruction from that group has been issued".  We first run
        # the placement data-flow over the *root* loop treating both
        # root-level group stores and calls leading to group stores as
        # producer sites — only sites not followed by another producer
        # site on some path may signal (clones reached from suppressed
        # call sites get no signals; the runtime auto-flush re-forwards
        # their locally-updated value at epoch end).  Within each
        # allowed function the same data-flow places the signal after
        # the function's last group store.
        root_sites: Dict[int, str] = {}
        for iid, stack in sorted(group.stores):
            if stack:
                root_sites[stack[0]] = "call"
            else:
                root_sites[iid] = "store"
        function = module.function(loop.function)
        root_cfg = CFG(function)

        def is_producer_site(instr) -> bool:
            return instr.iid in root_sites

        later = blocks_with_later_defs(
            root_cfg, is_producer_site, loop_blocks, exclude_edges=backedges
        )
        allowed_sites: Set[int] = set()
        for label in sorted(loop_blocks):
            if label in later:
                continue
            last = None
            for instr in function.block(label).instructions:
                if instr.iid in root_sites:
                    last = instr.iid
            if last is not None:
                allowed_sites.add(last)

        stores_by_function: Dict[str, Set[int]] = {}
        for iid, stack in sorted(group.stores):
            site = stack[0] if stack else iid
            if site not in allowed_sites:
                continue  # suppressed: a later producer site follows
            target = materialized[tuple(stack)]
            stores_by_function.setdefault(target, set()).add(iid)
        for target, store_ids in sorted(stores_by_function.items()):
            in_root = target == loop.function
            report.signal_sites += _place_signals(
                module.function(target),
                channel,
                store_ids,
                in_root,
                loop_blocks if in_root else None,
                backedges if in_root else None,
                used_in(target),
            )
    return report
