"""Error paths of the engine's sequential runner, on both ``fast_path``
values.

``fast_path`` only switches the region scheduler; code outside
parallelized loops runs through one sequential runner either way, so
each fault must carry the same message, leave the same clock and
count the same instructions.
"""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import EngineError, TLSEngine


@pytest.fixture(params=(True, False), ids=("fast", "slow"))
def fast_path(request):
    return request.param


def _engine(module, fast_path, **config):
    return TLSEngine(
        module, config=SimConfig(fast_path=fast_path, **config), parallel=False
    )


def _spin_module():
    """``main`` counts forever: only the step budget stops it."""
    mb = ModuleBuilder("spin")
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    fb.add("i", 1, dest="i")
    fb.jump("loop")
    return mb.build()


@pytest.mark.parametrize("limit", (50, 51))
def test_fuel_exhaustion(fast_path, limit):
    engine = _engine(_spin_module(), fast_path, max_region_steps=limit)
    with pytest.raises(EngineError, match="^sequential fuel exhausted$"):
        engine.run()
    # The step that breaks the budget is counted, on both paths.
    assert engine.instructions == limit + 1
    # const + jump, then (add + jump) pairs up to the budget; every
    # instruction here costs one cycle on a 4-wide core.
    assert engine.clock == limit / 4


def test_void_return_into_register(fast_path):
    mb = ModuleBuilder("void")
    fb = mb.function("nothing")
    fb.block("entry")
    fb.ret()
    fb = mb.function("main")
    fb.block("entry")
    fb.call("nothing", (), dest="x")
    fb.ret("x")
    engine = _engine(mb.build(), fast_path)
    with pytest.raises(EngineError, match="^void return into %x$"):
        engine.run()
    assert engine.instructions == 2
    assert engine.clock == 0.5


def test_undefined_register(fast_path):
    mb = ModuleBuilder("ghost")
    fb = mb.function("main")
    fb.block("entry")
    fb.const(1, dest="a")
    fb.add("ghost", "a", dest="b")
    fb.ret("b")
    engine = _engine(mb.build(), fast_path)
    with pytest.raises(
        EngineError, match="^main: read of undefined register %ghost$"
    ):
        engine.run()
    assert engine.instructions == 2
    assert engine.clock == 0.25


def test_unknown_callee(fast_path):
    mb = ModuleBuilder("nocallee")
    fb = mb.function("main")
    fb.block("entry")
    fb.const(1, dest="a")
    fb.call("nowhere", ("a",), dest="b")
    fb.ret("b")
    engine = _engine(mb.build(), fast_path)
    with pytest.raises(KeyError) as caught:
        engine.run()
    assert caught.value.args == ("nowhere",)
    assert engine.instructions == 2
    assert engine.clock == 0.25
