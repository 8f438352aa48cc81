"""Local constant folding and copy propagation.

Within each basic block, registers holding known constants (from
``const`` or folded arithmetic) are substituted into later operand
positions, and pure operations whose operands are all constants are
folded into ``const``.  The analysis is block-local (no values are
assumed across block boundaries), which keeps it trivially sound in the
presence of loops without any data-flow machinery; the driver iterates
passes to a fixed point so folding feeds DCE and vice versa.

Instructions with memory or synchronization semantics (loads, stores,
calls, waits, signals, checks, selects) are never removed or folded —
only their operands are simplified — so the TLS structure the earlier
passes created survives verbatim.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.evalops import InterpreterError, eval_binop, eval_unop
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Const, Move, UnOp
from repro.ir.operands import Imm, Reg


def _substitute(instr, env: Dict[str, int]) -> None:
    """Replace register operands with immediates where known."""
    for attr in ("src", "lhs", "rhs", "addr", "value", "size", "cond",
                 "f_addr", "m_addr", "f_value", "m_value"):
        operand = getattr(instr, attr, None)
        if isinstance(operand, Reg) and operand.name in env:
            setattr(instr, attr, Imm(env[operand.name]))
    args = getattr(instr, "args", None)
    if args is not None:
        for index, operand in enumerate(args):
            if isinstance(operand, Reg) and operand.name in env:
                args[index] = Imm(env[operand.name])


def _fold_one(instr) -> Optional[int]:
    """Constant value computed by ``instr``, if statically known."""
    if isinstance(instr, Const):
        return instr.value
    if isinstance(instr, Move) and isinstance(instr.src, Imm):
        return instr.src.value
    if (
        isinstance(instr, BinOp)
        and isinstance(instr.lhs, Imm)
        and isinstance(instr.rhs, Imm)
    ):
        try:
            return eval_binop(instr.op, instr.lhs.value, instr.rhs.value)
        except InterpreterError:
            return None  # division by a constant zero: leave it to trap
    if isinstance(instr, UnOp) and isinstance(instr.src, Imm):
        return eval_unop(instr.op, instr.src.value)
    return None


def fold_constants(function: Function) -> int:
    """Fold and propagate constants in every block.  Returns a count of
    instructions rewritten (operand substitutions + foldings)."""
    changed = 0
    for block in function.blocks.values():
        env: Dict[str, int] = {}
        for index, instr in enumerate(block.instructions):
            before = repr_operands(instr)
            _substitute(instr, env)
            if repr_operands(instr) != before:
                changed += 1
            value = _fold_one(instr)
            defs = instr.defs()
            if value is not None:
                dest = defs[0]
                if not isinstance(instr, Const) or instr.value != value:
                    replacement = Const(dest, value)
                    replacement.iid = instr.iid
                    replacement.origin_iid = instr.origin_iid
                    block.instructions[index] = replacement
                    changed += 1
                env[dest.name] = value
            else:
                for reg in defs:
                    env.pop(reg.name, None)
    return changed


def repr_operands(instr) -> tuple:
    return tuple(repr(op) for op in instr.operands())
