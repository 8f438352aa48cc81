"""Faults inside a speculative epoch, on both ``fast_path`` values.

A fault in a speculative epoch parks it until it is the oldest; the
oldest epoch then raises.  The per-op region scheduler and the
free-running turn loop must reach the same decision: each case runs
the same program on both paths and asserts the same exception type,
message and event stream up to the fault.  Every epoch of these loops
faults, so each case also passes through the speculative parks.
"""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.interpreter import InterpreterError
from repro.obs.bus import CollectorSink, EventBus
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import EngineError, TLSEngine

from tests.tlssim.conftest import make_counted_loop


def _fault(module, **config):
    """``(type, args, event keys)`` of each path's failing run; the two
    must agree."""
    outcomes = []
    for fast_path in (True, False):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        engine = TLSEngine(
            module, config=SimConfig(fast_path=fast_path, **config), obs=bus
        )
        with pytest.raises(Exception) as caught:
            engine.run()
        outcomes.append(
            (
                type(caught.value),
                caught.value.args,
                [event.key() for event in collector.events],
            )
        )
    fast, slow = outcomes
    assert fast[:2] == slow[:2]
    assert fast[2] == slow[2]
    return fast[0], fast[1]


def _spin(fb):
    """An inner loop that never exits; it loads on every trip so that
    a step limit can trip on a shared-state op as well as a private
    one."""
    fb.const(0, dest="j")
    fb.jump("spin")
    fb.block("spin")
    fb.add("j", 1, dest="j")
    fb.load("@g")
    c = fb.binop("ge", "j", 0)
    fb.condbr(c, "spin", "out")
    fb.block("out")


@pytest.mark.parametrize("limit", (200, 201, 202, 203))
def test_oldest_epoch_over_max_epoch_steps(limit):
    module = make_counted_loop(iters=8, body=_spin, globals_spec=[("g", 1, 0)])
    kind, args = _fault(module, max_epoch_steps=limit)
    assert kind is EngineError
    assert len(args) == 1
    assert args[0].startswith("oldest epoch ")
    assert args[0].endswith(" exceeded step limit (non-terminating loop body?)")


def _load_then_filler(fb):
    fb.load("@g")
    fb.add("i", 2)


@pytest.mark.parametrize("limit", (300, 301, 302, 303, 304, 305))
def test_max_region_steps_exceeded(limit):
    module = make_counted_loop(
        iters=40, body=_load_then_filler, globals_spec=[("g", 1, 0)], filler=6
    )
    kind, args = _fault(module, max_region_steps=limit)
    assert (kind, args) == (EngineError, ("region step limit exceeded",))


@pytest.mark.parametrize(
    "op, message", (("div", "division by zero"), ("mod", "modulo by zero"))
)
def test_oldest_epoch_divides_by_zero(op, message):
    def body(fb):
        d = fb.load("@zero")
        fb.binop(op, 100, d)

    module = make_counted_loop(
        iters=8, body=body, globals_spec=[("zero", 1, 0)], filler=4
    )
    kind, args = _fault(module)
    assert (kind, args) == (InterpreterError, (message,))


def test_unknown_callee_in_epoch():
    def body(fb):
        fb.call("nowhere", ("i",), dest="b")

    module = make_counted_loop(iters=8, body=body, verify=False)
    kind, args = _fault(module)
    assert (kind, args) == (KeyError, ("nowhere",))


def test_void_return_into_register_in_epoch():
    def body(fb):
        nothing = FunctionBuilder(fb.module, "nothing")
        nothing.block("entry")
        nothing.ret()
        fb.call("nothing", (), dest="x")

    module = make_counted_loop(iters=8, body=body, filler=4)
    kind, args = _fault(module)
    assert (kind, args) == (EngineError, ("void return into %x",))


@pytest.mark.parametrize("reader", ("binop", "call", "load", "store", "check"))
def test_undefined_register_in_epoch(reader):
    """A private op (binop, call arguments) and a shared-state op
    (load address, stored value, check) reading a register no path
    defines."""

    def body(fb):
        if reader == "binop":
            fb.add("ghost", 1)
        elif reader == "load":
            fb.load("ghost")
        elif reader == "store":
            fb.store("@g", "ghost")
        elif reader == "check":
            fb.check("ghost", "@g")
        else:
            callee = FunctionBuilder(fb.module, "callee", ("a",))
            callee.block("entry")
            callee.ret("a")
            fb.call("callee", ("ghost",), dest="r")

    module = make_counted_loop(
        iters=8, body=body, globals_spec=[("g", 1, 0)], filler=4
    )
    kind, args = _fault(module)
    assert kind is EngineError
    assert len(args) == 1
    assert args[0].startswith("epoch ")
    assert args[0].endswith(": read of undefined register %ghost in main")


def test_alloc_in_epoch():
    def body(fb):
        fb.alloc(4)

    module = make_counted_loop(iters=8, body=body, filler=4)
    kind, args = _fault(module)
    assert (kind, args) == (
        EngineError,
        (
            "alloc inside a speculative epoch is not supported; "
            "pre-allocate memory before the parallelized loop",
        ),
    )
