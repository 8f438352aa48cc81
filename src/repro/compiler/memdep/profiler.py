"""Instrumentation-based data dependence profiling (paper Section 2.3).

"To acquire the profile information, we first associate a unique
identifier with each static load and store instruction, and each
procedure call point.  During execution each load and store instruction
can be named by the combination of the instruction identifier and the
current call stack (the call stack for an instruction, rooted at the
parallelized loop, is the list of procedure calls invoked when that
instruction is executed).  During profiling, each load is matched with
any store on which it depends, and the frequency of each dependence is
recorded."

The profile is context-sensitive (two references with the same
instruction id but different call stacks are distinct vertices) and
flow-insensitive, exactly as described.  Dependences are tracked at
word granularity — which is why the compiler cannot see false sharing,
while the line-granularity hardware can (Section 4.2's M88KSIM
discussion).

One sequential run of the interpreter feeds :class:`_DependenceHooks`
a call-stack tuple with every load and store inside a parallelized
loop; the hooks match each load with the last store to its word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interpreter import Hooks, Interpreter
from repro.ir.module import Module

#: A context-sensitive reference: (instruction id, call stack of
#: call-site ids rooted at the parallelized loop).
MemRef = Tuple[int, Tuple[int, ...]]

#: A dependence arc from producing store context to consuming load context.
DepPair = Tuple[MemRef, MemRef]


@dataclass
class LoopDependenceProfile:
    """All dependence statistics for one parallelized loop."""

    function: str
    header: str
    total_epochs: int = 0
    #: (store ctx, load ctx) -> number of epochs in which the dependence occurred
    pair_epochs: Dict[DepPair, int] = field(default_factory=dict)
    #: load ctx -> number of epochs with any inter-epoch dependence on it
    load_epochs: Dict[MemRef, int] = field(default_factory=dict)
    #: load instruction id (flow-insensitive) -> epochs with a dependence
    load_iid_epochs: Dict[int, int] = field(default_factory=dict)
    #: dependence distance (in epochs) -> dynamic occurrence count
    distance_hist: Dict[int, int] = field(default_factory=dict)

    def pair_frequency(self, pair: DepPair) -> float:
        if not self.total_epochs:
            return 0.0
        return self.pair_epochs.get(pair, 0) / self.total_epochs

    def frequent_pairs(self, threshold: float) -> List[DepPair]:
        """Dependences occurring in more than ``threshold`` of epochs."""
        return sorted(
            pair
            for pair, count in self.pair_epochs.items()
            if self.total_epochs and count / self.total_epochs > threshold
        )

    def loads_above(self, threshold: float) -> Set[int]:
        """Static load iids with dependences in > ``threshold`` of epochs."""
        return {
            iid
            for iid, count in self.load_iid_epochs.items()
            if self.total_epochs and count / self.total_epochs > threshold
        }

    def distance_fractions(self) -> Dict[str, float]:
        """Fractions of dependences at distance 1, 2, and >2 (Figure 7)."""
        total = sum(self.distance_hist.values())
        if not total:
            return {"1": 0.0, "2": 0.0, ">2": 0.0}
        one = self.distance_hist.get(1, 0)
        two = self.distance_hist.get(2, 0)
        return {
            "1": one / total,
            "2": two / total,
            ">2": (total - one - two) / total,
        }


class _DependenceHooks(Hooks):
    """Matches inter-epoch store->load pairs during interpretation."""

    def __init__(self, profiles: Dict[Tuple[str, str], LoopDependenceProfile]):
        self.profiles = profiles
        self._active: Optional[LoopDependenceProfile] = None
        self._instance_key = 0
        #: word address -> (store MemRef, epoch, instance key)
        self._last_store: Dict[int, Tuple[MemRef, int, int]] = {}
        self._epoch_pairs: Set[DepPair] = set()
        self._epoch_loads: Set[MemRef] = set()
        self._epoch_load_iids: Set[int] = set()

    def _flush_epoch(self) -> None:
        profile = self._active
        if profile is None:
            return
        for pair in self._epoch_pairs:
            profile.pair_epochs[pair] = profile.pair_epochs.get(pair, 0) + 1
        for ref in self._epoch_loads:
            profile.load_epochs[ref] = profile.load_epochs.get(ref, 0) + 1
        for iid in self._epoch_load_iids:
            profile.load_iid_epochs[iid] = profile.load_iid_epochs.get(iid, 0) + 1
        self._epoch_pairs = set()
        self._epoch_loads = set()
        self._epoch_load_iids = set()

    def on_region_enter(self, function, header, instance):
        self._active = self.profiles.get((function, header))
        self._instance_key += 1

    def on_epoch_start(self, epoch):
        self._flush_epoch()
        if self._active is not None:
            self._active.total_epochs += 1

    def on_region_exit(self, function, header, epochs):
        self._flush_epoch()
        self._active = None

    def on_store(self, instr, stack, addr, value, epoch):
        if self._active is None or epoch is None:
            return
        ref: MemRef = (instr.iid, tuple(stack))
        self._last_store[addr] = (ref, epoch, self._instance_key)

    def on_load(self, instr, stack, addr, value, epoch):
        if self._active is None or epoch is None:
            return
        last = self._last_store.get(addr)
        if last is None:
            return
        store_ref, store_epoch, instance = last
        if instance != self._instance_key or store_epoch >= epoch:
            return  # same-epoch or cross-instance: not an inter-epoch dep
        load_ref: MemRef = (instr.iid, tuple(stack))
        distance = epoch - store_epoch
        profile = self._active
        profile.distance_hist[distance] = profile.distance_hist.get(distance, 0) + 1
        self._epoch_pairs.add((store_ref, load_ref))
        self._epoch_loads.add(load_ref)
        self._epoch_load_iids.add(instr.iid)


def profile_dependences(
    module: Module, fuel: int = 50_000_000
) -> Dict[Tuple[str, str], LoopDependenceProfile]:
    """Profile all annotated parallel loops of ``module`` in one run.

    The module should be the post-scalar-sync program (the program whose
    loads and stores will be transformed); contexts are keyed by the
    instruction ids of that module.
    """
    profiles = {
        (loop.function, loop.header): LoopDependenceProfile(
            function=loop.function, header=loop.header
        )
        for loop in module.parallel_loops
    }
    Interpreter(module, hooks=_DependenceHooks(profiles), fuel=fuel).run()
    return profiles
