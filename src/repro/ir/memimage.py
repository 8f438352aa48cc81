"""Word-addressed memory image shared by interpreter and simulator.

Addresses are integers in *word* units.  Address 0 is reserved as NULL
(the sentinel forwarded when a producer epoch takes a path that never
produces the value, paper Section 2.2).  Globals are laid out from
``GLOBAL_BASE`` upward in declaration order; the heap grows from the end
of the globals.

The cache-line geometry lives here because both the dependence profiler
(word granularity) and the simulator's violation detection (line
granularity, the source of M88KSIM-style false sharing) need a common
notion of which words share a line.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.module import Module

#: Words per cache line (paper Table 1: 32 B lines / 4 B words).
WORDS_PER_LINE = 8

#: First address handed to globals; keeps NULL and low addresses free.
GLOBAL_BASE = 64


def line_of(addr: int) -> int:
    """Cache line index of a word address."""
    return addr // WORDS_PER_LINE


class MemoryImage:
    """Sparse word-addressed memory with global layout and a bump heap."""

    def __init__(self, module: Module):
        self.module = module
        self._words: Dict[int, int] = {}
        self._globals: Dict[str, int] = {}
        addr = GLOBAL_BASE
        for var in module.globals.values():
            # Line-align every global so distinct globals never share a
            # line by accident; workloads create false sharing
            # deliberately via offsets within one global.
            if addr % WORDS_PER_LINE:
                addr += WORDS_PER_LINE - addr % WORDS_PER_LINE
            self._globals[var.name] = addr
            for index, word in enumerate(var.initial_words()):
                if word:
                    self._words[addr + index] = word
            addr += var.size
        self._heap_next = addr + WORDS_PER_LINE

    # -- layout ---------------------------------------------------------

    def addr_of(self, name: str) -> int:
        """Address of global ``name``."""
        return self._globals[name]

    def alloc(self, size: int) -> int:
        """Bump-pointer allocation of ``size`` words; returns the base."""
        if size < 1:
            raise ValueError("allocation size must be >= 1")
        base = self._heap_next
        self._heap_next += size
        return base

    # -- access -----------------------------------------------------------

    def load(self, addr: int) -> int:
        if addr == 0:
            raise NullDereference("load from NULL")
        return self._words.get(addr, 0)

    def store(self, addr: int, value: int) -> None:
        if addr == 0:
            raise NullDereference("store to NULL")
        self._words[addr] = value

    def snapshot(self) -> Dict[int, int]:
        """Copy of all non-zero words (for checksums and comparisons)."""
        return dict(self._words)

    def checksum(self) -> int:
        """Order-independent digest of memory contents."""
        total = 0
        for addr, value in self._words.items():
            if value:
                total ^= hash((addr, value)) & 0xFFFFFFFFFFFF
        return total

    def global_words(self, name: str) -> List[int]:
        """Current contents of global ``name``."""
        base = self._globals[name]
        size = self.module.globals[name].size
        return [self._words.get(base + i, 0) for i in range(size)]


class NullDereference(Exception):
    """A NULL (address 0) load or store, mirroring a segfault."""
