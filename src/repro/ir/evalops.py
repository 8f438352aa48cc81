"""Arithmetic/logical operator semantics shared by all execution engines.

64-bit wrapping integer arithmetic with C-style truncated division,
used by the sequential interpreter, the TLS engine and the decoded
fast paths.  ``BINOP_FUNCS``/``UNOP_FUNCS`` expose one callable per
operator so the decode pass can bind the handler once instead of
re-dispatching on the operator string at every execution.
"""

from __future__ import annotations


class InterpreterError(Exception):
    """Semantic error during interpretation (bad register, fuel, ...)."""


MASK = (1 << 64) - 1

# Each wrapping handler is a single call: a result already in the
# signed 64-bit range returns as is, anything else takes the wrap
# formula of ``repro.ir.codegen.wrap_expr``.  The constants fold at
# compile time.  Division truncates toward zero, as in C.


def _op_add(lhs: int, rhs: int) -> int:
    value = lhs + rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_sub(lhs: int, rhs: int) -> int:
    value = lhs - rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_mul(lhs: int, rhs: int) -> int:
    value = lhs * rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise InterpreterError("division by zero")
    value = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        value = -value
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise InterpreterError("modulo by zero")
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    value = lhs - quotient * rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_and(lhs: int, rhs: int) -> int:
    value = lhs & rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_or(lhs: int, rhs: int) -> int:
    value = lhs | rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_xor(lhs: int, rhs: int) -> int:
    value = lhs ^ rhs
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_shl(lhs: int, rhs: int) -> int:
    value = lhs << (rhs & 63)
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_shr(lhs: int, rhs: int) -> int:
    value = lhs >> (rhs & 63)
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_eq(lhs: int, rhs: int) -> int:
    return int(lhs == rhs)


def _op_ne(lhs: int, rhs: int) -> int:
    return int(lhs != rhs)


def _op_lt(lhs: int, rhs: int) -> int:
    return int(lhs < rhs)


def _op_le(lhs: int, rhs: int) -> int:
    return int(lhs <= rhs)


def _op_gt(lhs: int, rhs: int) -> int:
    return int(lhs > rhs)


def _op_ge(lhs: int, rhs: int) -> int:
    return int(lhs >= rhs)


def _op_neg(value: int) -> int:
    value = -value
    if -(1 << 63) <= value < 1 << 63:
        return value
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _op_not(value: int) -> int:
    return int(not value)


#: Operator name -> handler, bound once at decode time.
BINOP_FUNCS = {
    "add": _op_add,
    "sub": _op_sub,
    "mul": _op_mul,
    "div": _op_div,
    "mod": _op_mod,
    "and": _op_and,
    "or": _op_or,
    "xor": _op_xor,
    "shl": _op_shl,
    "shr": _op_shr,
    "eq": _op_eq,
    "ne": _op_ne,
    "lt": _op_lt,
    "le": _op_le,
    "gt": _op_gt,
    "ge": _op_ge,
    "min": min,
    "max": max,
}

UNOP_FUNCS = {
    "neg": _op_neg,
    "not": _op_not,
}


def eval_binop(op: str, lhs: int, rhs: int) -> int:
    """Evaluate a binary operator with 64-bit wrapping semantics."""
    fn = BINOP_FUNCS.get(op)
    if fn is None:
        raise InterpreterError(f"unknown binary op {op!r}")
    return fn(lhs, rhs)


def eval_unop(op: str, value: int) -> int:
    fn = UNOP_FUNCS.get(op)
    if fn is None:
        raise InterpreterError(f"unknown unary op {op!r}")
    return fn(value)
