"""One-time lowering of IR instructions into pre-resolved dispatch tuples.

Walking ``Instruction`` objects (as the engine's per-op region oracle
still does) pays an ``isinstance`` chain, operand-kind dispatch and an
operator-string lookup for *every dynamic instruction*.  The decode pass pays those
costs once per *static* instruction instead, producing flat tuples::

    (opcode, dt, instr, ...operands)

* ``opcode`` is a small int dispatched with integer comparisons;
* ``dt`` is the pre-divided clock charge (``latency / issue_width``,
  computed with exactly the float operations the slow region scheduler
  performs, so accumulated clocks stay bit-identical); memory
  instructions carry ``0.0`` because their latency comes from the cache
  model at run time;
* ``instr`` is the original instruction (needed for iids, hook
  callbacks and error messages);
* operands are encoded as ``int`` for compile-time-known values
  (immediates and resolved global addresses) or ``str`` for register
  names — resolved at run time with ``v if type(v) is int else regs[v]``.

Each :class:`DecodedBlock` also carries ``chunk_end``: for every
instruction index ``i``, the end of the maximal run of *pure*
instructions starting at ``i`` (``chunk_end[i] == i`` when the
instruction is ordering-relevant).  Pure instructions touch only the
executing run's private registers and clock, so the TLS scheduler may
execute a whole chunk in one iteration without changing which
interleavings the violation rules can observe; see
``docs/simulator.md``.

Decoded programs are cached per *engine instance*, never on the module:
compiler passes mutate modules in place between runs, and decode is
cheap (one pass over the static instructions actually executed).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.ir.evalops import BINOP_FUNCS, UNOP_FUNCS
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
from repro.ir.module import Module
from repro.ir.operands import GlobalRef, Imm, Reg

# Opcodes, ordered by how much of the machine they can touch.  Pure
# instructions (only run-local registers and clock) come first, then
# private control flow (frames and the program counter — still
# invisible to other epochs), and from OP_LOAD on the shared-state
# instructions the TLS scheduler must order globally.  The engine's
# free-running turn loop relies on this layout: ``code <= OP_CONDBR``
# means "no other epoch can observe this instruction".
# Negative opcode reserved for the vector backend's fused superops
# (see repro.ir.lower and repro.ir.codegen): ``code < 0`` dispatches
# before every ordinary comparison.  A generated kernel pair keeps
# executing across guarded branches, memory and synchronization ops.
# Layout: ``(OP_FUSED2, 0.0, head_op, fn_epoch, fn_seq, n, instrs,
# region)`` — ``head_op`` is the original tuple at the region head (the
# engines fall back to it for per-op execution), ``n`` the static op
# count; ``instrs`` holds the Instr records of the path's loads,
# stores, waits and signals in order (the kernels index it for engine
# delegation).
OP_FUSED2 = -2

OP_CONST = 0
OP_MOVE = 1
OP_BINOP = 2
OP_DIVMOD = 3   # like OP_BINOP but may fault on a zero divisor
OP_UNOP = 4
OP_SELECT = 5
OP_RESUME = 6
OP_CALL = 7
OP_RET = 8
OP_JUMP = 9
OP_CONDBR = 10
OP_LOAD = 11
OP_STORE = 12
OP_ALLOC = 13
OP_WAIT = 14
OP_SIGNAL = 15
OP_CHECK = 16

#: Opcodes that touch only the executing run's registers and clock.
PURE_OPCODES = frozenset(
    (OP_CONST, OP_MOVE, OP_BINOP, OP_DIVMOD, OP_UNOP, OP_SELECT, OP_RESUME)
)

#: Largest opcode that touches no shared state (registers, clock,
#: frames and branch targets only) — see the layout comment above.
MAX_PRIVATE_OPCODE = OP_CONDBR


class DecodeError(Exception):
    """An instruction the decoder cannot lower."""


class DecodedBlock:
    """Flat tuple form of one basic block plus its pure-chunk table."""

    __slots__ = ("ops", "chunk_end")

    def __init__(self, ops: List[tuple]):
        self.ops = ops
        n = len(ops)
        chunk_end = [0] * n
        for i in range(n - 1, -1, -1):
            if ops[i][0] in PURE_OPCODES:
                if i + 1 < n and ops[i + 1][0] in PURE_OPCODES:
                    chunk_end[i] = chunk_end[i + 1]
                else:
                    chunk_end[i] = i + 1
            else:
                chunk_end[i] = i
        self.chunk_end = chunk_end


class DecodedFunction:
    """Decoded blocks of one function, keyed by label."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Dict[str, DecodedBlock]):
        self.blocks = blocks


class DecodedProgram:
    """Lazily-decoded module: functions decode on first execution."""

    def __init__(
        self,
        module: Module,
        addr_of: Callable[[str], int],
        dt_of: Optional[Callable[[object], float]] = None,
    ):
        self.module = module
        self.addr_of = addr_of
        self.dt_of = dt_of or (lambda _instr: 0.0)
        self._functions: Dict[str, DecodedFunction] = {}

    def function(self, name: str) -> DecodedFunction:
        decoded = self._functions.get(name)
        if decoded is None:
            decoded = self._decode_function(name)
            self._functions[name] = decoded
        return decoded

    def block(self, function_name: str, label: str) -> DecodedBlock:
        decoded = self._functions.get(function_name)
        if decoded is None:
            decoded = self._decode_function(function_name)
            self._functions[function_name] = decoded
        return decoded.blocks[label]

    # -- lowering -------------------------------------------------------

    def _operand(self, operand):
        """Encode an operand: int = known value, str = register name."""
        if isinstance(operand, Reg):
            return operand.name
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, GlobalRef):
            return self.addr_of(operand.name)
        raise DecodeError(f"bad operand {operand!r}")

    def _decode_function(self, name: str) -> DecodedFunction:
        function = self.module.function(name)
        blocks = {
            label: DecodedBlock(
                [self._decode(instr) for instr in block.instructions]
            )
            for label, block in function.blocks.items()
        }
        return DecodedFunction(blocks)

    def _decode(self, instr) -> tuple:
        dt = self.dt_of(instr)
        if isinstance(instr, Const):
            return (OP_CONST, dt, instr, instr.dest.name, instr.value)
        if isinstance(instr, Move):
            return (OP_MOVE, dt, instr, instr.dest.name, self._operand(instr.src))
        if isinstance(instr, BinOp):
            opcode = OP_DIVMOD if instr.op in ("div", "mod") else OP_BINOP
            return (
                opcode,
                dt,
                instr,
                instr.dest.name,
                BINOP_FUNCS[instr.op],
                self._operand(instr.lhs),
                self._operand(instr.rhs),
            )
        if isinstance(instr, UnOp):
            return (
                OP_UNOP,
                dt,
                instr,
                instr.dest.name,
                UNOP_FUNCS[instr.op],
                self._operand(instr.src),
            )
        if isinstance(instr, Select):
            return (
                OP_SELECT,
                dt,
                instr,
                instr.dest.name,
                self._operand(instr.f_value),
                self._operand(instr.m_value),
            )
        if isinstance(instr, Resume):
            return (OP_RESUME, dt, instr)
        if isinstance(instr, Load):
            return (
                OP_LOAD,
                dt,
                instr,
                instr.dest.name,
                self._operand(instr.addr),
                instr.offset,
            )
        if isinstance(instr, Store):
            return (
                OP_STORE,
                dt,
                instr,
                self._operand(instr.addr),
                instr.offset,
                self._operand(instr.value),
            )
        if isinstance(instr, Alloc):
            return (OP_ALLOC, dt, instr, instr.dest.name, self._operand(instr.size))
        if isinstance(instr, Call):
            callee = self.module.functions.get(instr.callee)
            if callee is None:
                # Defer the failure to execution time, where the slow
                # path would raise its KeyError.
                param_names, entry_label = None, None
            else:
                param_names = tuple(p.name for p in callee.params)
                entry_label = callee.entry_label
            return (
                OP_CALL,
                dt,
                instr,
                instr.dest.name if instr.dest is not None else None,
                instr.callee,
                tuple(self._operand(a) for a in instr.args),
                param_names,
                entry_label,
            )
        if isinstance(instr, Ret):
            return (
                OP_RET,
                dt,
                instr,
                self._operand(instr.value) if instr.value is not None else None,
            )
        if isinstance(instr, Jump):
            return (OP_JUMP, dt, instr, instr.target)
        if isinstance(instr, CondBr):
            return (
                OP_CONDBR,
                dt,
                instr,
                self._operand(instr.cond),
                instr.true_target,
                instr.false_target,
            )
        if isinstance(instr, Wait):
            return (
                OP_WAIT,
                dt,
                instr,
                instr.dest.name,
                instr.channel,
                instr.kind,
            )
        if isinstance(instr, Signal):
            return (
                OP_SIGNAL,
                dt,
                instr,
                instr.channel,
                instr.kind,
                self._operand(instr.value),
            )
        if isinstance(instr, Check):
            return (
                OP_CHECK,
                dt,
                instr,
                self._operand(instr.f_addr),
                self._operand(instr.m_addr),
                instr.offset,
            )
        raise DecodeError(f"cannot decode {type(instr).__name__}")
