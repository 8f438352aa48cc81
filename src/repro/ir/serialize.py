"""JSON-able codecs for modules (the compiled-artifact store's substrate).

A compiled binary is fully determined by its instruction stream, its
instruction ids, and its TLS annotations — everything else (CFGs, loop
forests, decoded programs) is derived on demand.  This module encodes a
:class:`~repro.ir.module.Module` into plain lists/dicts and decodes it
back **preserving instruction identity**: iids and origin iids survive
the round trip, block order and entry labels are kept, and operands use
the textual convention of the IR printer (``int`` = immediate,
``"%name"`` = register, ``"@name"`` = global reference) so the encoded
form is stable, compact, and human-greppable.

Identity preservation matters because everything downstream is keyed by
iid: dependence profiles, channel members, ``sync_loads``, oracle
lookups, and the simulation results the cache compares byte-for-byte.
``BasicBlock._attach`` only assigns a fresh iid when ``instr.iid is
None``, so the decoder sets ids *before* appending.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloc,
    BinOp,
    Call,
    Check,
    CondBr,
    Const,
    Instruction,
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
from repro.ir.module import ChannelInfo, Module, ParallelLoop
from repro.ir.operands import GlobalRef, Imm, Reg


class SerializeError(ValueError):
    """Raised when a payload cannot be decoded back into a module."""


# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------


def _enc_operand(operand) -> object:
    if operand is None:
        return None
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg):
        return "%" + operand.name
    if isinstance(operand, GlobalRef):
        return "@" + operand.name
    raise SerializeError(f"cannot encode operand {operand!r}")


def _dec_operand(state) -> object:
    if state is None:
        return None
    if isinstance(state, int):
        return Imm(state)
    if isinstance(state, str):
        if state.startswith("%"):
            return Reg(state[1:])
        if state.startswith("@"):
            return GlobalRef(state[1:])
    raise SerializeError(f"cannot decode operand {state!r}")


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

#: kind tag -> (encode fields, decode from fields).  Every instruction
#: serializes as ``[kind, iid, origin_iid, *fields]``.
_CODECS = {
    "const": (
        lambda i: [_enc_operand(i.dest), i.value],
        lambda f: Const(_dec_operand(f[0]), f[1]),
    ),
    "move": (
        lambda i: [_enc_operand(i.dest), _enc_operand(i.src)],
        lambda f: Move(_dec_operand(f[0]), _dec_operand(f[1])),
    ),
    "binop": (
        lambda i: [_enc_operand(i.dest), i.op, _enc_operand(i.lhs), _enc_operand(i.rhs)],
        lambda f: BinOp(_dec_operand(f[0]), f[1], _dec_operand(f[2]), _dec_operand(f[3])),
    ),
    "unop": (
        lambda i: [_enc_operand(i.dest), i.op, _enc_operand(i.src)],
        lambda f: UnOp(_dec_operand(f[0]), f[1], _dec_operand(f[2])),
    ),
    "load": (
        lambda i: [_enc_operand(i.dest), _enc_operand(i.addr), i.offset],
        lambda f: Load(_dec_operand(f[0]), _dec_operand(f[1]), offset=f[2]),
    ),
    "store": (
        lambda i: [_enc_operand(i.addr), _enc_operand(i.value), i.offset],
        lambda f: Store(_dec_operand(f[0]), _dec_operand(f[1]), offset=f[2]),
    ),
    "alloc": (
        lambda i: [_enc_operand(i.dest), _enc_operand(i.size)],
        lambda f: Alloc(_dec_operand(f[0]), _dec_operand(f[1])),
    ),
    "call": (
        lambda i: [
            _enc_operand(i.dest), i.callee, [_enc_operand(a) for a in i.args]
        ],
        lambda f: Call(_dec_operand(f[0]), f[1], [_dec_operand(a) for a in f[2]]),
    ),
    "ret": (
        lambda i: [_enc_operand(i.value)],
        lambda f: Ret(_dec_operand(f[0])),
    ),
    "jump": (
        lambda i: [i.target],
        lambda f: Jump(f[0]),
    ),
    "condbr": (
        lambda i: [_enc_operand(i.cond), i.true_target, i.false_target],
        lambda f: CondBr(_dec_operand(f[0]), f[1], f[2]),
    ),
    "wait": (
        lambda i: [_enc_operand(i.dest), i.channel, i.kind],
        lambda f: Wait(_dec_operand(f[0]), f[1], kind=f[2]),
    ),
    "signal": (
        lambda i: [i.channel, _enc_operand(i.value), i.kind],
        lambda f: Signal(f[0], _dec_operand(f[1]), kind=f[2]),
    ),
    "check": (
        lambda i: [_enc_operand(i.f_addr), _enc_operand(i.m_addr), i.offset],
        lambda f: Check(_dec_operand(f[0]), _dec_operand(f[1]), offset=f[2]),
    ),
    "select": (
        lambda i: [_enc_operand(i.dest), _enc_operand(i.f_value), _enc_operand(i.m_value)],
        lambda f: Select(_dec_operand(f[0]), _dec_operand(f[1]), _dec_operand(f[2])),
    ),
    "resume": (
        lambda i: [],
        lambda f: Resume(),
    ),
}

_KIND_OF = {
    Const: "const", Move: "move", BinOp: "binop", UnOp: "unop",
    Load: "load", Store: "store", Alloc: "alloc", Call: "call",
    Ret: "ret", Jump: "jump", CondBr: "condbr", Wait: "wait",
    Signal: "signal", Check: "check", Select: "select", Resume: "resume",
}


def instruction_to_state(instr: Instruction) -> List:
    kind = _KIND_OF.get(type(instr))
    if kind is None:
        raise SerializeError(f"cannot encode {type(instr).__name__}")
    encode, _decode = _CODECS[kind]
    return [kind, instr.iid, instr.origin_iid] + encode(instr)


def instruction_from_state(state: List) -> Instruction:
    try:
        kind, iid, origin_iid = state[0], state[1], state[2]
        _encode, decode = _CODECS[kind]
        instr = decode(state[3:])
    except (KeyError, IndexError, TypeError) as exc:
        raise SerializeError(f"bad instruction state {state!r}") from exc
    # Set ids *before* block attachment: _attach only assigns when None.
    instr.iid = iid
    instr.origin_iid = origin_iid
    return instr


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def module_to_state(module: Module) -> Dict:
    """Encode a module (with all TLS annotations) as JSON-able state."""
    return {
        "name": module.name,
        "globals": [
            [g.name, g.size, list(g.init) if g.init is not None else None]
            for g in module.globals.values()
        ],
        "functions": [
            {
                "name": fn.name,
                "params": [p.name for p in fn.params],
                "entry": fn.entry_label,
                "cloned_from": fn.cloned_from,
                "blocks": [
                    [
                        block.label,
                        [instruction_to_state(i) for i in block.instructions],
                    ]
                    for block in fn.blocks.values()
                ],
            }
            for fn in module.functions.values()
        ],
        "parallel_loops": [
            [
                loop.function,
                loop.header,
                list(loop.scalar_channels),
                list(loop.mem_channels),
                loop.unroll_factor,
            ]
            for loop in module.parallel_loops
        ],
        "channels": [
            [c.name, c.kind, c.scalar, list(c.members)]
            for c in module.channels.values()
        ],
        "sync_loads": sorted(module.sync_loads),
    }


def module_from_state(state: Dict) -> Module:
    """Inverse of :func:`module_to_state`, preserving iids and order."""
    try:
        module = Module(state["name"])
        for name, size, init in state["globals"]:
            module.add_global(name, size, list(init) if init is not None else None)
        for fstate in state["functions"]:
            fn = Function(fstate["name"], params=list(fstate["params"]))
            fn.cloned_from = fstate["cloned_from"]
            for label, instrs in fstate["blocks"]:
                block = fn.add_block(label)
                for istate in instrs:
                    block.append(instruction_from_state(istate))
            entry: Optional[str] = fstate["entry"]
            if entry is not None and entry not in fn.blocks:
                raise SerializeError(
                    f"{fn.name}: entry block {entry!r} missing"
                )
            fn.entry_label = entry
            module.add_function(fn)
        for function, header, scalar_chs, mem_chs, factor in state["parallel_loops"]:
            module.parallel_loops.append(
                ParallelLoop(
                    function=function,
                    header=header,
                    scalar_channels=list(scalar_chs),
                    mem_channels=list(mem_chs),
                    unroll_factor=factor,
                )
            )
        for name, kind, scalar, members in state["channels"]:
            module.add_channel(
                ChannelInfo(name=name, kind=kind, scalar=scalar,
                            members=tuple(members))
            )
        module.sync_loads = set(state["sync_loads"])
    except SerializeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializeError(f"bad module state: {exc}") from exc
    return module
