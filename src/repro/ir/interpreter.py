"""Sequential reference interpreter.

Runs a module from ``main`` with functional (untimed) semantics.  Three
clients build on it:

* the **dependence profiler** (paper Section 2.3) — via the load/store
  hooks and the epoch/region tracking;
* **oracle collection** — the perfect-value-forwarding experiments
  (Figures 2, 6, 9) replay sequentially-observed load values inside the
  TLS simulator;
* **correctness tests** — the TLS simulator's committed memory must
  match the interpreter's final memory for every program and scheme.

TLS synchronization instructions get *sequential* semantics that make a
transformed program observationally identical to the original: ``wait``
yields 0, ``signal``/``check``/``resume`` are no-ops and ``select``
always chooses the memory value.  (Under sequential execution the
memory value is by definition the correct one, so the forwarding
protocol degenerates away.)

Two execution paths produce identical results: the *slow path* walks
``Instruction`` objects with ``isinstance`` dispatch, the default *fast
path* (``fast_path=True``) runs the one-time-decoded tuple form from
:mod:`repro.ir.decode`.  Hook callbacks, step counts, region events and
error behaviour are preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
from repro.ir.evalops import (  # noqa: F401  (re-exported legacy API)
    MASK,
    InterpreterError,
    eval_binop,
    eval_unop,
)
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
from repro.ir.loops import LoopForest
from repro.ir.memimage import MemoryImage
from repro.ir.module import Module
from repro.ir.operands import GlobalRef, Imm, Reg


class _CalleeMissing(Exception):
    """Internal: a decoded call names a function absent from the module."""


@dataclass
class Frame:
    """One activation record."""

    function_name: str
    regs: Dict[str, int]
    block: str
    index: int = 0
    call_instr: Optional[Call] = None
    #: Interned call-stack context handle (context-handle hooks only):
    #: index into the interpreter's ``context_table``, 0 = empty stack.
    ctx: int = 0


@dataclass
class RegionState:
    """Tracks the active parallelized-loop instance."""

    loop_function: str
    header: str
    loop_blocks: frozenset
    frame_depth: int
    epoch: int = 0
    instance: int = 0


@dataclass
class RunResult:
    """Outcome of a sequential run."""

    return_value: Optional[int]
    steps: int
    memory: MemoryImage
    epochs_per_region: Dict[Tuple[str, str], int] = field(default_factory=dict)


class Hooks:
    """Optional observation callbacks; subclass and override as needed.

    ``stack`` arguments are tuples of call-site iids rooted at the
    active parallelized loop (empty when no region is active or the
    access happens in the loop body itself) — exactly the naming scheme
    of paper Section 2.3.

    Hook classes that set ``context_handles = True`` opt into the fast
    profiling protocol: instead of a freshly-built tuple, ``on_load``/
    ``on_store`` receive an **interned integer handle** identifying the
    call stack.  Handle 0 is the empty stack; equal handles mean equal
    stacks within one run, and the interpreter's ``context_table``
    (handle -> tuple of call-site iids) materializes them afterwards.
    This skips the per-access tuple construction that dominates
    profiling time and is only available on the decoded fast path.
    """

    #: When True, load/store hooks receive interned int context handles
    #: instead of call-stack tuples (fast path only).
    context_handles = False

    def on_instruction(self, instr, in_region: bool) -> None:
        pass

    def on_load(self, instr: Load, stack, addr: int, value: int, epoch: Optional[int]) -> None:
        pass

    def on_store(self, instr: Store, stack, addr: int, value: int, epoch: Optional[int]) -> None:
        pass

    def on_region_enter(self, function: str, header: str, instance: int) -> None:
        pass

    def on_epoch_start(self, epoch: int) -> None:
        pass

    def on_region_exit(self, function: str, header: str, epochs: int) -> None:
        pass


class Interpreter:
    """Executes a module sequentially; see module docstring."""

    def __init__(
        self,
        module: Module,
        hooks: Optional[Hooks] = None,
        fuel: int = 50_000_000,
        fast_path: bool = True,
    ):
        self.module = module
        self.hooks = hooks or Hooks()
        self.fuel = fuel
        self.fast_path = fast_path
        self.memory = MemoryImage(module)
        self._decoded: Optional[DecodedProgram] = None
        #: handle -> call-stack tuple, filled by context-handle runs.
        self.context_table: List[Tuple[int, ...]] = [()]
        self._loop_blocks: Dict[Tuple[str, str], frozenset] = {}
        for loop in module.parallel_loops:
            cfg = CFG(module.function(loop.function))
            forest = LoopForest(cfg)
            natural = forest.loop_of(loop.header)
            if natural is None:
                raise InterpreterError(
                    f"parallel annotation on non-loop header "
                    f"{loop.function}:{loop.header}"
                )
            self._loop_blocks[(loop.function, loop.header)] = frozenset(natural.blocks)

    # -- operand evaluation ---------------------------------------------

    def _value(self, frame: Frame, operand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, GlobalRef):
            return self.memory.addr_of(operand.name)
        if isinstance(operand, Reg):
            try:
                return frame.regs[operand.name]
            except KeyError:
                raise InterpreterError(
                    f"{frame.function_name}: read of undefined register "
                    f"%{operand.name}"
                ) from None
        raise InterpreterError(f"bad operand {operand!r}")

    # -- main loop ---------------------------------------------------------

    def run(self, function: str = "main", args: Tuple[int, ...] = ()) -> RunResult:
        if self.fast_path:
            return self._run_fast(function, args)
        if getattr(self.hooks, "context_handles", False):
            raise InterpreterError(
                "context-handle hooks require the decoded fast path"
            )
        return self._run_slow(function, args)

    def _entry_frames(self, function: str, args: Tuple[int, ...]) -> List[Frame]:
        entry = self.module.function(function)
        if len(args) != len(entry.params):
            raise InterpreterError(
                f"{function} expects {len(entry.params)} args, got {len(args)}"
            )
        return [
            Frame(
                function_name=function,
                regs={p.name: v for p, v in zip(entry.params, args)},
                block=entry.entry_label,
            )
        ]

    def _run_slow(self, function: str, args: Tuple[int, ...]) -> RunResult:
        module = self.module
        frames = self._entry_frames(function, args)
        region: Optional[RegionState] = None
        region_instances: Dict[Tuple[str, str], int] = {}
        epochs_per_region: Dict[Tuple[str, str], int] = {}
        steps = 0
        return_value: Optional[int] = None

        def context_stack() -> Tuple[int, ...]:
            if region is None:
                return ()
            # Stacks are keyed by the call instructions' own iids:
            # loop-unrolled copies of a call site are distinct static
            # call points and must profile separately.
            return tuple(
                f.call_instr.iid  # type: ignore[union-attr]
                for f in frames[region.frame_depth:]
                if f.call_instr is not None
            )

        while frames:
            frame = frames[-1]
            func = module.function(frame.function_name)
            block = func.block(frame.block)
            if frame.index >= len(block.instructions):
                raise InterpreterError(
                    f"{frame.function_name}:{frame.block} fell off block end"
                )
            instr = block.instructions[frame.index]
            steps += 1
            if steps > self.fuel:
                raise InterpreterError(f"fuel exhausted after {steps} steps")
            self.hooks.on_instruction(instr, region is not None)

            def goto(target: str) -> None:
                """Transfer control within the current frame, tracking
                parallelized-region entry/backedge/exit events."""
                nonlocal region
                key = (frame.function_name, target)
                # Within the region's own frame, a branch to the header
                # is a backedge (new epoch) and a branch out of the loop
                # blocks ends the region instance.
                if region is not None and len(frames) == region.frame_depth:
                    if target not in region.loop_blocks:
                        epochs_key = (region.loop_function, region.header)
                        epochs_per_region[epochs_key] = (
                            epochs_per_region.get(epochs_key, 0) + region.epoch + 1
                        )
                        self.hooks.on_region_exit(
                            region.loop_function, region.header, region.epoch + 1
                        )
                        region = None
                    elif target == region.header:
                        region.epoch += 1
                        self.hooks.on_epoch_start(region.epoch)
                if region is None and key in self._loop_blocks:
                    instance = region_instances.get(key, 0)
                    region_instances[key] = instance + 1
                    region = RegionState(
                        loop_function=frame.function_name,
                        header=target,
                        loop_blocks=self._loop_blocks[key],
                        frame_depth=len(frames),
                        instance=instance,
                    )
                    self.hooks.on_region_enter(frame.function_name, target, instance)
                    self.hooks.on_epoch_start(0)
                frame.block = target
                frame.index = 0

            if isinstance(instr, Const):
                frame.regs[instr.dest.name] = instr.value
                frame.index += 1
            elif isinstance(instr, Move):
                frame.regs[instr.dest.name] = self._value(frame, instr.src)
                frame.index += 1
            elif isinstance(instr, BinOp):
                frame.regs[instr.dest.name] = eval_binop(
                    instr.op,
                    self._value(frame, instr.lhs),
                    self._value(frame, instr.rhs),
                )
                frame.index += 1
            elif isinstance(instr, UnOp):
                frame.regs[instr.dest.name] = eval_unop(
                    instr.op, self._value(frame, instr.src)
                )
                frame.index += 1
            elif isinstance(instr, Load):
                addr = self._value(frame, instr.addr) + instr.offset
                value = self.memory.load(addr)
                frame.regs[instr.dest.name] = value
                self.hooks.on_load(
                    instr,
                    context_stack(),
                    addr,
                    value,
                    region.epoch if region is not None else None,
                )
                frame.index += 1
            elif isinstance(instr, Store):
                addr = self._value(frame, instr.addr) + instr.offset
                value = self._value(frame, instr.value)
                self.memory.store(addr, value)
                self.hooks.on_store(
                    instr,
                    context_stack(),
                    addr,
                    value,
                    region.epoch if region is not None else None,
                )
                frame.index += 1
            elif isinstance(instr, Alloc):
                size = self._value(frame, instr.size)
                frame.regs[instr.dest.name] = self.memory.alloc(size)
                frame.index += 1
            elif isinstance(instr, Call):
                callee = module.function(instr.callee)
                values = [self._value(frame, a) for a in instr.args]
                frames.append(
                    Frame(
                        function_name=instr.callee,
                        regs={p.name: v for p, v in zip(callee.params, values)},
                        block=callee.entry_label,
                        call_instr=instr,
                    )
                )
            elif isinstance(instr, Ret):
                value = (
                    self._value(frame, instr.value)
                    if instr.value is not None
                    else None
                )
                if region is not None and len(frames) == region.frame_depth:
                    # Returning out of the frame that owns the region.
                    epochs_key = (region.loop_function, region.header)
                    epochs_per_region[epochs_key] = (
                        epochs_per_region.get(epochs_key, 0) + region.epoch + 1
                    )
                    self.hooks.on_region_exit(
                        region.loop_function, region.header, region.epoch + 1
                    )
                    region = None
                frames.pop()
                if frames:
                    caller = frames[-1]
                    call = module.function(caller.function_name).block(
                        caller.block
                    ).instructions[caller.index]
                    assert isinstance(call, Call)
                    if call.dest is not None:
                        if value is None:
                            raise InterpreterError(
                                f"void return into %{call.dest.name}"
                            )
                        caller.regs[call.dest.name] = value
                    caller.index += 1
                else:
                    return_value = value
            elif isinstance(instr, Jump):
                goto(instr.target)
            elif isinstance(instr, CondBr):
                cond = self._value(frame, instr.cond)
                goto(instr.true_target if cond else instr.false_target)
            elif isinstance(instr, Wait):
                # Sequential semantics: the destination of a scalar wait
                # is the communicating scalar itself, which already
                # holds the previous iteration's value — preserve it.
                frame.regs[instr.dest.name] = frame.regs.get(instr.dest.name, 0)
                frame.index += 1
            elif isinstance(instr, Signal):
                self._value(frame, instr.value)  # validate operand
                frame.index += 1
            elif isinstance(instr, Check):
                self._value(frame, instr.f_addr)
                self._value(frame, instr.m_addr)
                frame.index += 1
            elif isinstance(instr, Select):
                frame.regs[instr.dest.name] = self._value(frame, instr.m_value)
                frame.index += 1
            elif isinstance(instr, Resume):
                frame.index += 1
            else:
                raise InterpreterError(
                    f"cannot interpret {type(instr).__name__}"
                )

        return RunResult(
            return_value=return_value,
            steps=steps,
            memory=self.memory,
            epochs_per_region=epochs_per_region,
        )

    # -- decoded fast path -------------------------------------------------

    def _run_fast(self, function: str, args: Tuple[int, ...]) -> RunResult:
        module = self.module
        memory = self.memory
        hooks = self.hooks
        hooks_cls = type(hooks)
        fire_instr = hooks_cls.on_instruction is not Hooks.on_instruction
        fire_load = hooks_cls.on_load is not Hooks.on_load
        fire_store = hooks_cls.on_store is not Hooks.on_store
        use_ctx = bool(getattr(hooks, "context_handles", False))
        # Interned call-stack contexts: a child context is keyed by
        # (parent handle, call-site iid), so each distinct stack is
        # built exactly once per run instead of per memory access.
        ctx_children: Dict[Tuple[int, int], int] = {}
        ctx_table: List[Tuple[int, ...]] = [()]
        self.context_table = ctx_table
        if self._decoded is None:
            self._decoded = DecodedProgram(module, memory.addr_of)
        dprog = self._decoded
        loop_blocks = self._loop_blocks
        fuel = self.fuel
        frames = self._entry_frames(function, args)
        region: Optional[RegionState] = None
        region_instances: Dict[Tuple[str, str], int] = {}
        epochs_per_region: Dict[Tuple[str, str], int] = {}
        steps = 0
        return_value: Optional[int] = None

        def context_stack() -> Tuple[int, ...]:
            if region is None:
                return ()
            return tuple(
                f.call_instr.iid  # type: ignore[union-attr]
                for f in frames[region.frame_depth:]
                if f.call_instr is not None
            )

        def close_region() -> None:
            nonlocal region
            epochs_key = (region.loop_function, region.header)
            epochs_per_region[epochs_key] = (
                epochs_per_region.get(epochs_key, 0) + region.epoch + 1
            )
            hooks.on_region_exit(
                region.loop_function, region.header, region.epoch + 1
            )
            region = None

        def goto(frame: Frame, target: str) -> None:
            nonlocal region
            key = (frame.function_name, target)
            if region is not None and len(frames) == region.frame_depth:
                if target not in region.loop_blocks:
                    close_region()
                elif target == region.header:
                    region.epoch += 1
                    hooks.on_epoch_start(region.epoch)
            if region is None and key in loop_blocks:
                instance = region_instances.get(key, 0)
                region_instances[key] = instance + 1
                region = RegionState(
                    loop_function=frame.function_name,
                    header=target,
                    loop_blocks=loop_blocks[key],
                    frame_depth=len(frames),
                    instance=instance,
                )
                hooks.on_region_enter(frame.function_name, target, instance)
                hooks.on_epoch_start(0)
            frame.block = target
            frame.index = 0

        while frames:
            frame = frames[-1]
            ops = dprog.block(frame.function_name, frame.block).ops
            n = len(ops)
            regs = frame.regs
            i = frame.index
            try:
                while True:
                    if i >= n:
                        raise InterpreterError(
                            f"{frame.function_name}:{frame.block} "
                            f"fell off block end"
                        )
                    op = ops[i]
                    code = op[0]
                    steps += 1
                    if steps > fuel:
                        raise InterpreterError(f"fuel exhausted after {steps} steps")
                    if fire_instr:
                        hooks.on_instruction(op[2], region is not None)
                    if code == OP_BINOP or code == OP_DIVMOD:
                        a, b = op[5], op[6]
                        regs[op[3]] = op[4](
                            a if type(a) is int else regs[a],
                            b if type(b) is int else regs[b],
                        )
                        i += 1
                    elif code == OP_CONST:
                        regs[op[3]] = op[4]
                        i += 1
                    elif code == OP_MOVE:
                        s = op[4]
                        regs[op[3]] = s if type(s) is int else regs[s]
                        i += 1
                    elif code == OP_LOAD:
                        a = op[4]
                        addr = (a if type(a) is int else regs[a]) + op[5]
                        value = memory.load(addr)
                        regs[op[3]] = value
                        if fire_load:
                            if region is None:
                                hooks.on_load(
                                    op[2], 0 if use_ctx else (), addr, value, None
                                )
                            else:
                                hooks.on_load(
                                    op[2],
                                    (
                                        frame.ctx
                                        if len(frames) > region.frame_depth
                                        else 0
                                    )
                                    if use_ctx
                                    else context_stack(),
                                    addr,
                                    value,
                                    region.epoch,
                                )
                        i += 1
                    elif code == OP_STORE:
                        a = op[3]
                        addr = (a if type(a) is int else regs[a]) + op[4]
                        v = op[5]
                        value = v if type(v) is int else regs[v]
                        memory.store(addr, value)
                        if fire_store:
                            if region is None:
                                hooks.on_store(
                                    op[2], 0 if use_ctx else (), addr, value, None
                                )
                            else:
                                hooks.on_store(
                                    op[2],
                                    (
                                        frame.ctx
                                        if len(frames) > region.frame_depth
                                        else 0
                                    )
                                    if use_ctx
                                    else context_stack(),
                                    addr,
                                    value,
                                    region.epoch,
                                )
                        i += 1
                    elif code == OP_UNOP:
                        s = op[5]
                        regs[op[3]] = op[4](s if type(s) is int else regs[s])
                        i += 1
                    elif code == OP_JUMP:
                        frame.index = i
                        goto(frame, op[3])
                        break
                    elif code == OP_CONDBR:
                        c = op[3]
                        cond = c if type(c) is int else regs[c]
                        frame.index = i
                        goto(frame, op[4] if cond else op[5])
                        break
                    elif code == OP_CALL:
                        if op[6] is None:
                            raise _CalleeMissing(op[4])
                        values = [
                            a if type(a) is int else regs[a] for a in op[5]
                        ]
                        frame.index = i
                        callee_frame = Frame(
                            function_name=op[4],
                            regs=dict(zip(op[6], values)),
                            block=op[7],
                            call_instr=op[2],
                        )
                        if use_ctx and region is not None:
                            parent = (
                                frame.ctx
                                if len(frames) > region.frame_depth
                                else 0
                            )
                            ckey = (parent, op[2].iid)
                            child = ctx_children.get(ckey)
                            if child is None:
                                child = len(ctx_table)
                                ctx_children[ckey] = child
                                ctx_table.append(
                                    ctx_table[parent] + (op[2].iid,)
                                )
                            callee_frame.ctx = child
                        frames.append(callee_frame)
                        break
                    elif code == OP_RET:
                        v = op[3]
                        value = (
                            None if v is None
                            else (v if type(v) is int else regs[v])
                        )
                        if region is not None and len(frames) == region.frame_depth:
                            close_region()
                        popped = frames.pop()
                        if frames:
                            caller = frames[-1]
                            call = popped.call_instr
                            if call.dest is not None:
                                if value is None:
                                    raise InterpreterError(
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
                        i += 1
                    elif code == OP_WAIT:
                        # Sequential semantics: preserve the scalar.
                        regs[op[3]] = regs.get(op[3], 0)
                        i += 1
                    elif code == OP_SIGNAL:
                        s = op[5]
                        if type(s) is not int:
                            regs[s]  # noqa: B018 — validate operand
                        i += 1
                    elif code == OP_CHECK:
                        f = op[3]
                        if type(f) is not int:
                            regs[f]  # noqa: B018 — validate operand
                        m = op[4]
                        if type(m) is not int:
                            regs[m]  # noqa: B018 — validate operand
                        i += 1
                    elif code == OP_SELECT:
                        m = op[5]
                        regs[op[3]] = m if type(m) is int else regs[m]
                        i += 1
                    elif code == OP_RESUME:
                        i += 1
                    else:  # pragma: no cover - decode covers the full ISA
                        raise InterpreterError(
                            f"cannot interpret {type(op[2]).__name__}"
                        )
            except _CalleeMissing as exc:
                raise KeyError(exc.args[0]) from None
            except KeyError as exc:
                raise InterpreterError(
                    f"{frame.function_name}: read of undefined register "
                    f"%{exc.args[0]}"
                ) from None

        return RunResult(
            return_value=return_value,
            steps=steps,
            memory=self.memory,
            epochs_per_region=epochs_per_region,
        )


def run_module(
    module: Module,
    hooks: Optional[Hooks] = None,
    fuel: int = 50_000_000,
    fast_path: bool = True,
) -> RunResult:
    """Convenience wrapper: interpret ``module`` from ``main``."""
    return Interpreter(
        module, hooks=hooks, fuel=fuel, fast_path=fast_path
    ).run()
