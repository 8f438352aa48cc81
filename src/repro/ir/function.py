"""Functions: parameter lists plus an ordered collection of blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.operands import Reg


class Function:
    """A function with named parameters and labelled basic blocks.

    The first block added is the entry block.  Block order is preserved
    (it is the textual order, not a CFG ordering).
    """

    def __init__(self, name: str, params: Optional[List] = None):
        self.name = name
        self.params: List[Reg] = [
            p if isinstance(p, Reg) else Reg(p) for p in (params or [])
        ]
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry_label: Optional[str] = None
        #: Name of the function this one was cloned from, if any.
        self.cloned_from: Optional[str] = None

    # -- construction -------------------------------------------------

    def add_block(self, label: str) -> BasicBlock:
        """Create, register and return a new block with ``label``."""
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label, function=self)
        self.blocks[label] = block
        if self.entry_label is None:
            self.entry_label = label
        return block

    def remove_block(self, label: str) -> None:
        if label == self.entry_label:
            raise ValueError("cannot remove the entry block")
        del self.blocks[label]

    # -- queries ------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry_label]

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks.values():
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def registers(self) -> List[Reg]:
        """All registers referenced anywhere in the function."""
        seen: Dict[Reg, None] = {}
        for param in self.params:
            seen.setdefault(param)
        for instr in self.instructions():
            for reg in instr.defs() + instr.uses():
                seen.setdefault(reg)
        return list(seen)

    def fresh_label(self, base: str) -> str:
        """Return a block label derived from ``base`` not yet in use."""
        if base not in self.blocks:
            return base
        index = 1
        while f"{base}.{index}" in self.blocks:
            index += 1
        return f"{base}.{index}"

    def fresh_reg(self, base: str = "t", used: Optional[Set[str]] = None) -> Reg:
        """Return a register name derived from ``base`` not yet in use.

        ``used`` lets a pass that mints several registers scan the
        function once: pass the set of its register names, and each
        minted name is added to it.  Without it, every call rescans.
        """
        if used is None:
            used = {r.name for r in self.registers()}
        name, index = base, 0
        while name in used:
            index += 1
            name = f"{base}.{index}"
        used.add(name)
        return Reg(name)

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"
