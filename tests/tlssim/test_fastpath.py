"""The fast path must be invisible: identical results, bit for bit.

The decoded-dispatch / free-running-turn / event-heap execution layer
(``SimConfig.fast_path``, on by default) is a pure implementation
optimization, and so is the fused-region vector backend layered on
top of it (``SimConfig.backend="vector"``).  These tests run every
workload under every bar label with each fast backend against
``fast_path=False`` on the same compiled program and require the full
serialized :class:`SimResult` — cycles, slot breakdowns, violation
records, memory checksum — plus the dynamic instruction count to
match exactly.

The matrix deliberately spans every scheme family because each one
exercises a different engine subsystem: U/O squash-heavy speculation,
C/T/B/E/L the wait/signal forwarding and signal address buffer, H/P
the hardware sync table and value predictor.  Code between regions
runs the one decoded sequential loop under both ``fast_path`` values,
so SEQ checks the vector backend's ``_seq`` kernels against that
tuple loop; the golden digests (``tests/golden/results.json``) pin
the tuple loop itself.

The slow run of each cell comes from the session's ``slow_runs``
memo, so it is the bus-attached run ``test_event_stream.py`` also
checks; ``test_bus_does_not_change_results`` pins that attaching the
bus leaves results unchanged.
"""

import pytest

from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
from repro.tlssim.engine import TLSEngine
from repro.workloads import all_workloads

BARS = ("U", "C", "T", "H", "P", "B", "E", "L", "O", "SEQ")
WORKLOADS = tuple(w.name for w in all_workloads())


@pytest.mark.parametrize("backend", ("tuples", "vector"))
@pytest.mark.parametrize("name", WORKLOADS)
def test_fast_path_equivalent_on_every_bar(name, backend, slow_runs):
    bundle = bundle_for(name)
    for bar in BARS:
        config = config_for(bar)
        oracle = None
        if config.oracle_mode != "off":
            oracle = bundle.oracle_for(BAR_PROGRAM[bar])
        fast_engine = TLSEngine(
            bundle.program(bar),
            config=config.with_mode(fast_path=True, backend=backend),
            oracle=oracle, parallel=(bar != "SEQ"),
        )
        fast_result = fast_engine.run()
        slow_result, slow_instructions, _ = slow_runs.run(name, bar)
        assert fast_result.to_state() == slow_result.to_state(), (
            f"{name}/{bar}: fast path ({backend}) diverged"
        )
        assert fast_engine.instructions == slow_instructions, (
            f"{name}/{bar}: dynamic instruction counts differ ({backend})"
        )
