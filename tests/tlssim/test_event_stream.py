"""Fast/slow path event-stream equivalence (the obs acceptance gate).

The observability bus must not break the fast path's invisibility:
with a collector attached, the slow path (the object-walking region
scheduler) and the fast path (decoded dispatch + event heap) must
emit identical event streams for the same program and config.  These
tests pin that for every workload under every bar label — the
epoch-lifecycle subset byte-identical as the hard acceptance
criterion, and in fact the full stream (forwarding, cache, hwsync,
prediction events included), which currently holds and is asserted
too so any future reordering is loud.  Both paths run code between
regions on the one decoded sequential loop, so the cache events
emitted there come from one runner on both sides.

Same matrix rationale as ``test_fastpath.py``: each scheme family
exercises a different engine subsystem and therefore different
emission sites.

Both sweeps also pin the slow-path result of every cell to its digest
in ``tests/golden/results.json`` (the ``result_digests`` fixture), so
a change that moves the fast and slow paths together still shows.
Each slow cell is simulated once per session (the ``slow_runs``
fixture) and shared by both backends here and by ``test_fastpath.py``.
"""

import pytest

from repro.experiments.bars import BARS
from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
from repro.obs.bus import CollectorSink, EventBus
from repro.obs.events import EPOCH_KINDS
from repro.tlssim.engine import TLSEngine
from repro.workloads import all_workloads

WORKLOADS = tuple(w.name for w in all_workloads())

#: machine-model points for the parameterized-machine identity matrix
MACHINE_POINTS = (
    {"num_cores": 2},
    {"num_cores": 8, "signal_buffer_entries": 4},
)
MACHINE_WORKLOADS = ("go", "m88ksim", "gzip_decomp")


def _machine_id(machine):
    return "-".join(f"{k}{v}" for k, v in sorted(machine.items()))


def _stream(program, config, oracle, parallel):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(
        program, config=config, oracle=oracle, parallel=parallel, obs=bus
    ).run()
    return [e.key() for e in collector.events], result


@pytest.mark.parametrize("backend", ("tuples", "vector"))
@pytest.mark.parametrize("name", WORKLOADS)
def test_event_streams_identical_on_every_bar(
    name, backend, result_digests, slow_runs
):
    bundle = bundle_for(name)
    for bar in BARS:
        program = bundle.program(bar)
        config = config_for(bar)
        oracle = None
        if config.oracle_mode != "off":
            oracle = bundle.oracle_for(BAR_PROGRAM[bar])
        parallel = bar != "SEQ"
        fast_stream, fast_result = _stream(
            program,
            config.with_mode(fast_path=True, backend=backend),
            oracle, parallel,
        )
        slow_result, _, slow_stream = slow_runs.run(name, bar, stream=True)
        fast_epoch = [k for k in fast_stream if k[0] in EPOCH_KINDS]
        slow_epoch = [k for k in slow_stream if k[0] in EPOCH_KINDS]
        assert fast_epoch == slow_epoch, (
            f"{name}/{bar}: epoch-level event streams diverged ({backend})"
        )
        assert fast_stream == slow_stream, (
            f"{name}/{bar}: full event streams diverged ({backend})"
        )
        # attaching the bus must not perturb the simulation itself
        assert fast_result.to_state() == slow_result.to_state(), (
            f"{name}/{bar}: results diverged with the bus attached ({backend})"
        )
        result_digests(f"{name}/{bar}", slow_result)


@pytest.mark.parametrize("backend", ("tuples", "vector"))
@pytest.mark.parametrize("machine", MACHINE_POINTS, ids=_machine_id)
@pytest.mark.parametrize("name", MACHINE_WORKLOADS)
def test_event_streams_identical_off_default_machine(
    name, machine, backend, result_digests, slow_runs
):
    """Byte-identity holds away from the paper's 4-core default too.

    The machine-model axes (core count, SAB capacity) change the
    schedule, so this pins the fast/slow contract at the sweep lab's
    off-default points — the prediction bars included, since the
    predictors are the other new emission sites.
    """
    bundle = bundle_for(name)
    for bar in ("U", "P", "PS", "PC"):
        program = bundle.program(bar)
        config = config_for(bar).with_mode(**machine)
        fast_stream, fast_result = _stream(
            program,
            config.with_mode(fast_path=True, backend=backend),
            None, True,
        )
        slow_result, _, slow_stream = slow_runs.run(
            name, bar, tuple(sorted(machine.items())), stream=True
        )
        assert fast_stream == slow_stream, (
            f"{name}/{bar}: event streams diverged at {machine} ({backend})"
        )
        assert fast_result.to_state() == slow_result.to_state(), (
            f"{name}/{bar}: results diverged at {machine} ({backend})"
        )
        result_digests(f"{name}/{bar}/{_machine_id(machine)}", slow_result)


def test_bus_does_not_change_results():
    """A collector-observed run equals an unobserved run bit for bit."""
    bundle = bundle_for("go")
    program = bundle.program("C")
    config = config_for("C")
    _, observed = _stream(program, config, None, True)
    plain = TLSEngine(program, config=config, parallel=True).run()
    assert observed.to_state() == plain.to_state()
