"""Shared builders for TLS-engine tests."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.module import ChannelInfo, ParallelLoop
from repro.ir.verifier import verify_module


def make_counted_loop(
    iters=40,
    body=None,
    scalars=("i",),
    mem_channels=(),
    globals_spec=(),
    filler=0,
    verify=True,
):
    """A hand-transformed parallel loop.

    ``body(fb)`` emits the epoch body right after the scalar waits (so
    its memory accesses sit early in the epoch), followed by ``filler``
    straight-line ALU instructions; the induction variable ``i`` is
    communicated with an early signal (the scheduled form).
    ``verify=False`` skips the verifier, for fault tests that call an
    unknown function.
    """
    mb = ModuleBuilder("t")
    for name, size, init in globals_spec:
        mb.global_var(name, size, init)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    for reg in scalars:
        fb.wait(f"scalar:{reg}", dest=reg)
    fb.add("i", 1, dest="i.fwd")
    fb.signal("scalar:i", "i.fwd")
    if body is not None:
        body(fb)
    if filler:
        acc = fb.const(1)
        for k in range(filler):
            acc = fb.binop(("add", "xor", "mul", "sub")[k % 4], acc, k % 13 + 1)
    fb.move("i.fwd", dest="i")
    cond = fb.binop("lt", "i", iters)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    fb.ret("i")
    module = mb.build()
    loop = ParallelLoop(
        function="main",
        header="loop",
        scalar_channels=[f"scalar:{r}" for r in scalars],
        mem_channels=list(mem_channels),
    )
    module.parallel_loops.append(loop)
    for reg in scalars:
        module.add_channel(
            ChannelInfo(name=f"scalar:{reg}", kind="scalar", scalar=reg)
        )
    for channel in mem_channels:
        module.add_channel(ChannelInfo(name=channel, kind="mem"))
    if verify:
        verify_module(module)
    return module


@pytest.fixture
def counted_loop_factory():
    return make_counted_loop


class SlowRuns:
    """The ``fast_path=False`` run of each (workload, bar, machine)
    cell, simulated once per session with a collector attached.

    The fast/slow identity tests compare every backend against the
    same slow run.  Each cell keeps its result and dynamic instruction
    count for the session; event streams are kept only for the
    workload last simulated, since its parameters run back to back.
    """

    def __init__(self):
        self._cells = {}
        self._streams = {}

    def run(self, name, bar, machine=(), stream=False):
        """``(result, instructions, stream)`` of one cell; ``stream``
        (the event keys) is None unless asked for."""
        key = (name, bar, machine)
        if key not in self._cells or (stream and key not in self._streams):
            self._simulate(key)
        return (*self._cells[key], self._streams[key] if stream else None)

    def _simulate(self, key):
        from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
        from repro.obs.bus import CollectorSink, EventBus
        from repro.tlssim.engine import TLSEngine

        name, bar, machine = key
        bundle = bundle_for(name)
        config = config_for(bar).with_mode(**dict(machine), fast_path=False)
        oracle = None
        if config.oracle_mode != "off":
            oracle = bundle.oracle_for(BAR_PROGRAM[bar])
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        engine = TLSEngine(
            bundle.program(bar), config=config, oracle=oracle,
            parallel=(bar != "SEQ"), obs=bus,
        )
        result = engine.run()
        self._cells[key] = (result, engine.instructions)
        self._streams = {
            other: keys for other, keys in self._streams.items()
            if other[0] == name
        }
        self._streams[key] = [event.key() for event in collector.events]


@pytest.fixture(scope="session")
def slow_runs():
    return SlowRuns()
