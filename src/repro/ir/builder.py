"""Fluent construction API for the mini-IR.

Workloads and tests build programs through :class:`FunctionBuilder`
rather than instantiating instructions directly.  The builder maintains
a *current block*, auto-generates temporary registers, and returns the
destination register of each value-producing instruction so expressions
compose naturally::

    fb = FunctionBuilder(module, "main")
    fb.block("entry")
    i = fb.const(0)
    fb.jump("loop")
    fb.block("loop")
    ...
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.function import Function
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
from repro.ir.operands import Reg, as_operand


class FunctionBuilder:
    """Builds one function, appending to a current block."""

    def __init__(self, module: Module, name: str, params: Sequence[str] = ()):
        self.module = module
        self.function = Function(name, list(params))
        module.add_function(self.function)
        self._current = None
        self._temp_index = 0

    # -- blocks --------------------------------------------------------

    def block(self, label: str):
        """Create a new block and make it current.  Returns the block."""
        self._current = self.function.add_block(label)
        return self._current

    @property
    def current(self):
        if self._current is None:
            raise ValueError("no current block; call block() first")
        return self._current

    # -- registers -----------------------------------------------------

    def temp(self) -> Reg:
        """Return a fresh temporary register."""
        self._temp_index += 1
        return Reg(f"t{self._temp_index}")

    def _dest(self, dest) -> Reg:
        if dest is None:
            return self.temp()
        op = as_operand(dest)
        if not isinstance(op, Reg):
            raise TypeError("destination must name a register")
        return op

    # -- value-producing instructions -----------------------------------

    def const(self, value: int, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Const(reg, value))
        return reg

    def move(self, src, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Move(reg, as_operand(src)))
        return reg

    def binop(self, op: str, lhs, rhs, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(BinOp(reg, op, as_operand(lhs), as_operand(rhs)))
        return reg

    def add(self, lhs, rhs, dest=None) -> Reg:
        return self.binop("add", lhs, rhs, dest)

    def sub(self, lhs, rhs, dest=None) -> Reg:
        return self.binop("sub", lhs, rhs, dest)

    def mul(self, lhs, rhs, dest=None) -> Reg:
        return self.binop("mul", lhs, rhs, dest)

    def div(self, lhs, rhs, dest=None) -> Reg:
        return self.binop("div", lhs, rhs, dest)

    def mod(self, lhs, rhs, dest=None) -> Reg:
        return self.binop("mod", lhs, rhs, dest)

    def unop(self, op: str, src, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(UnOp(reg, op, as_operand(src)))
        return reg

    def load(self, addr, offset: int = 0, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Load(reg, as_operand(addr), offset))
        return reg

    def alloc(self, size, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Alloc(reg, as_operand(size)))
        return reg

    def call(self, callee: str, args: Sequence = (), dest=None) -> Optional[Reg]:
        """Emit a call; pass ``dest=False`` for a void call."""
        if dest is False:
            self.current.append(Call(None, callee, [as_operand(a) for a in args]))
            return None
        reg = self._dest(dest)
        self.current.append(Call(reg, callee, [as_operand(a) for a in args]))
        return reg

    # -- side-effect instructions ---------------------------------------

    def store(self, addr, value, offset: int = 0) -> None:
        self.current.append(Store(as_operand(addr), as_operand(value), offset))

    def ret(self, value=None) -> None:
        self.current.append(Ret(as_operand(value) if value is not None else None))

    def jump(self, target: str) -> None:
        self.current.append(Jump(target))

    def condbr(self, cond, true_target: str, false_target: str) -> None:
        self.current.append(CondBr(as_operand(cond), true_target, false_target))

    # -- TLS synchronization ---------------------------------------------

    def wait(self, channel: str, kind: str = "value", dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Wait(reg, channel, kind))
        return reg

    def signal(self, channel: str, value, kind: str = "value") -> None:
        self.current.append(Signal(channel, as_operand(value), kind))

    def check(self, f_addr, m_addr, offset: int = 0) -> None:
        self.current.append(Check(as_operand(f_addr), as_operand(m_addr), offset))

    def select(self, f_value, m_value, dest=None) -> Reg:
        reg = self._dest(dest)
        self.current.append(Select(reg, as_operand(f_value), as_operand(m_value)))
        return reg

    def resume(self) -> None:
        self.current.append(Resume())


class ModuleBuilder:
    """Convenience wrapper owning a module and its function builders."""

    def __init__(self, name: str = "module"):
        self.module = Module(name)

    def global_var(self, name: str, size: int = 1, init=None):
        return self.module.add_global(name, size, init)

    def function(self, name: str, params: Sequence[str] = ()) -> FunctionBuilder:
        return FunctionBuilder(self.module, name, params)

    def build(self) -> Module:
        return self.module
