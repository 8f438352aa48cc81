"""Call-path specialization by procedure cloning (paper Section 2.3).

"When a load with a particular call stack is chosen for
synchronization, ideally the corresponding synchronization code would
only be executed when the load has been reached on a path matching that
call stack ...  for any node containing frequently-occurring
dependences, that node and its parents are all cloned, and the original
call instructions are modified to refer to these cloned procedures."

Each distinct call stack leading to a synchronized reference gets its
own chain of clones, so synchronization inserted into a clone runs only
on that call path.  The root (the function containing the parallelized
loop) is modified in place rather than cloned.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.compiler.clone import clone_function, fresh_clone_name
from repro.ir.callgraph import CallStack, CallTree
from repro.ir.cfg import CFG
from repro.ir.instructions import Call
from repro.ir.loops import LoopForest
from repro.ir.module import Module, ParallelLoop


class CloningError(Exception):
    """A profiled call stack has no matching static call path."""


def _find_call(module: Module, function_name: str, site: int, by_iid: bool) -> Call:
    function = module.function(function_name)
    for instr in function.instructions():
        if not isinstance(instr, Call):
            continue
        key = (
            instr.iid
            if by_iid
            else (instr.origin_iid if instr.origin_iid is not None else instr.iid)
        )
        if key == site:
            return instr
    raise CloningError(
        f"no call site {site} in {function_name!r} "
        f"({'iid' if by_iid else 'origin'} match)"
    )


def specialize_call_paths(
    module: Module,
    loop: ParallelLoop,
    stacks: Iterable[CallStack],
) -> Dict[CallStack, str]:
    """Clone procedures along every stack in ``stacks``.

    Returns the materialization map: call stack -> name of the function
    that now executes at that stack (the empty stack maps to the loop's
    own function).  Mutates the module.
    """
    function = module.function(loop.function)
    cfg = CFG(function)
    forest = LoopForest(cfg)
    natural = forest.loop_of(loop.header)
    if natural is None:
        raise ValueError(f"{loop.function}:{loop.header} is not a loop header")
    tree = CallTree(module, loop.function, loop_blocks=natural.blocks)

    needed = set()
    for stack in stacks:
        for depth in range(1, len(stack) + 1):
            needed.add(tuple(stack[:depth]))

    materialized: Dict[CallStack, str] = {(): loop.function}
    for stack in sorted(needed, key=len):
        node = tree.node_for_stack(stack)
        if node is None:
            raise CloningError(
                f"profiled stack {stack} has no call path from "
                f"{loop.function}:{loop.header}"
            )
        parent_stack = stack[:-1]
        parent_name = materialized[parent_stack]
        # At the root the call site is matched by its own iid (loop
        # unrolling can duplicate a site, and each copy is a distinct
        # profiled context); inside clones, by origin.
        call = _find_call(
            module, parent_name, stack[-1], by_iid=(parent_stack == ())
        )
        clone_name = fresh_clone_name(module, node.function, tag="sync")
        clone_function(module, call.callee, clone_name)
        call.callee = clone_name
        materialized[stack] = clone_name
    return materialized
