"""Seeded input generators for the ``sim-grid`` and ``serve`` workloads.

A point is ``(workload, bar, machine)`` where ``machine`` is a sorted
tuple of ``(MachineConfig field, value)`` pairs.  A generator never
yields the same point twice, so no simulation can be served from a
memo or result cache.

Points come in cycles that visit every (workload, bar) pair once.
Pair ``k`` is ``(WORKLOADS[k % 15], BARS[k % 11])``; as 15 and 11 are
coprime, ``k = 0..164`` covers each pair exactly once, and every
15 consecutive ``k`` hold each workload once.  A cycle is cut into
such blocks of 15, and the seed shuffles the points within each block
and picks each pair's machine.  So any prefix of whole blocks
simulates the same (workload, bar) mix whatever the seed.  The
slowest tenth of the points (the p90) is then steady across seeds,
which it is not when the mix itself is drawn.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, Sequence, Tuple

#: The paper's 15 workloads (``repro.workloads`` registry order).
WORKLOADS = (
    "go", "m88ksim", "ijpeg", "gzip_comp", "gzip_decomp", "vpr_place",
    "gcc", "mcf", "crafty", "parser", "perlbmk", "gap", "bzip2_comp",
    "bzip2_decomp", "twolf",
)

#: Bars the grids draw from (every bar but the sequential baseline).
BARS = ("U", "C", "T", "H", "P", "PS", "PC", "B", "E", "L", "O")

#: sim-grid machine axes.  Only fields outside the vector backend's
#: cost signature vary (no latency, no issue width), so the kernels
#: warmed in set-up stay valid for every point.
GRID_AXES: Dict[str, Sequence[int]] = {
    "num_cores": (2, 4, 8),
    "signal_buffer_entries": (4, 10, 16),
    "l1_lines": (256, 1024),
    "l2_lines": (16384, 65536),
}

#: serve machine axes: every request overrides ``forward_latency``.
SERVE_AXES: Dict[str, Sequence[int]] = {
    "forward_latency": tuple(range(2, 41)),
    "num_cores": (2, 4, 8),
}

Point = Tuple[str, str, Tuple[Tuple[str, int], ...]]


def machine_space(axes: Dict[str, Sequence[int]]):
    """Every machine of the axes' product, as sorted field tuples."""
    names = sorted(axes)
    return [
        tuple(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def points(seed: int, axes: Dict[str, Sequence[int]]) -> Iterator[Point]:
    """Distinct points, cycle by cycle; stops when the space is spent.

    Pair ``k`` gets machine ``(offset[k] + cycle) % len(machines)``, so
    a pair never meets the same machine twice, and each cycle spreads
    the machines evenly over the pairs.
    """
    rng = random.Random(seed)
    machines = machine_space(axes)
    pairs = len(WORKLOADS) * len(BARS)
    offset = rng.sample(range(pairs), pairs)
    block = len(WORKLOADS)
    for cycle in range(len(machines)):
        for start in range(0, pairs, block):
            ks = list(range(start, min(start + block, pairs)))
            rng.shuffle(ks)
            for k in ks:
                machine = machines[(offset[k] + cycle) % len(machines)]
                yield WORKLOADS[k % len(WORKLOADS)], BARS[k % len(BARS)], machine
