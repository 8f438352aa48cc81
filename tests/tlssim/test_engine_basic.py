"""TLS engine: sequential semantics, epoch execution, violations, commits."""

import gc
import weakref

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.interpreter import run_module
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import EngineError, TLSEngine
from repro.tlssim.sequential import simulate_sequential, simulate_tls

from tests.tlssim.conftest import make_counted_loop


def seq_equivalent(module):
    """Engine (both modes) must agree with the reference interpreter."""
    reference = run_module(module)
    tls = simulate_tls(module)
    seq = simulate_sequential(module)
    assert tls.return_value == reference.return_value
    assert seq.return_value == reference.return_value
    assert tls.memory_checksum == reference.memory.checksum()
    assert seq.memory_checksum == reference.memory.checksum()
    return tls, seq


class TestSequentialExecution:
    def test_plain_program(self):
        mb = ModuleBuilder()
        mb.global_var("g", 4)
        fb = mb.function("main")
        fb.block("entry")
        fb.store("@g", 10, offset=2)
        v = fb.load("@g", offset=2)
        r = fb.mul(v, 3)
        fb.ret(r)
        tls, seq = seq_equivalent(mb.build())
        assert tls.return_value == 30
        assert tls.program_cycles > 0

    def test_calls_charge_time(self):
        mb = ModuleBuilder()
        fb = mb.function("leaf", ["x"])
        fb.block("entry")
        r = fb.add("x", 1)
        fb.ret(r)
        fb = mb.function("main")
        fb.block("entry")
        r = fb.call("leaf", [41])
        fb.ret(r)
        tls, _seq = seq_equivalent(mb.build())
        assert tls.return_value == 42

    def test_sequential_baseline_tracks_regions(self):
        module = make_counted_loop(iters=20)
        seq = simulate_sequential(module)
        assert len(seq.regions) == 1
        assert seq.regions[0].cycles > 0
        assert seq.sequential_cycles >= 0


class TestEpochExecution:
    def test_counted_loop_result(self):
        module = make_counted_loop(iters=30)
        tls, _ = seq_equivalent(module)
        region = tls.regions[0]
        assert region.epochs_committed == 30

    def test_independent_epochs_speed_up(self):
        def body(fb):
            offset = fb.mul("i", 8)
            addr = fb.add("@out", offset)
            fb.store(addr, "i")

        module = make_counted_loop(
            iters=60,
            body=body,
            globals_spec=[("out", 60 * 8, None)],
            filler=80,
        )
        tls, seq = seq_equivalent(module)
        speedup = seq.region_cycles() / tls.region_cycles()
        assert speedup > 2.0, f"expected parallel speedup, got {speedup:.2f}"

    def test_raw_dependence_causes_violations(self):
        def body(fb):
            v = fb.load("@shared")
            v2 = fb.add(v, 1)
            fb.store("@shared", v2)

        module = make_counted_loop(
            iters=40, body=body, globals_spec=[("shared", 1, 0)], filler=40
        )
        tls, _ = seq_equivalent(module)
        region = tls.regions[0]
        assert len(region.violations) > 10
        assert region.slots.fail > 0
        # Restarted epochs all eventually commit with correct data.
        assert region.epochs_committed == 40

    def test_distant_dependences_rarely_violate(self):
        """A distance-3 dependence (producer long committed) is safe."""

        def body(fb):
            phase = fb.mod("i", 4)
            w = fb.mul(phase, 8)
            waddr = fb.add("@slots4", w)
            fb.store(waddr, "i")
            rbase = fb.add("i", 1)
            rphase = fb.mod(rbase, 4)
            r = fb.mul(rphase, 8)
            raddr = fb.add("@slots4", r)
            fb.load(raddr)

        module = make_counted_loop(
            iters=40, body=body, globals_spec=[("slots4", 32, None)], filler=60
        )
        tls, _ = seq_equivalent(module)
        # distance-3 deps: producers committed before the exposed read
        assert len(tls.regions[0].violations) <= 4

    def test_exit_registers_flow_to_sequential_code(self):
        module = make_counted_loop(iters=13)
        tls = simulate_tls(module)
        assert tls.return_value == 13  # final i observed after the loop

    def test_multiple_region_instances(self):
        mb = ModuleBuilder()
        mb.global_var("acc", 1)
        fb = mb.function("inner", ["n"])
        fb.block("entry")
        fb.const(0, dest="i")
        fb.jump("loop")
        fb.block("loop")
        fb.wait("scalar:inner", dest="i")
        fb.add("i", 1, dest="i.f")
        fb.signal("scalar:inner", "i.f")
        v = fb.load("@acc")
        v2 = fb.add(v, "i")
        fb.store("@acc", v2)
        fb.move("i.f", dest="i")
        c = fb.binop("lt", "i", "n")
        fb.condbr(c, "loop", "out")
        fb.block("out")
        fb.ret("i")
        fb = mb.function("main")
        fb.block("entry")
        fb.call("inner", [5])
        fb.call("inner", [7])
        r = fb.load("@acc")
        fb.ret(r)
        module = mb.build()
        from repro.ir.module import ChannelInfo, ParallelLoop

        module.parallel_loops.append(
            ParallelLoop(
                function="inner", header="loop",
                scalar_channels=["scalar:inner"],
            )
        )
        module.add_channel(
            ChannelInfo(name="scalar:inner", kind="scalar", scalar="i")
        )
        tls, _ = seq_equivalent(module)
        assert len(tls.regions) == 2
        assert tls.return_value == sum(range(5)) + sum(range(7))


class TestCommitsAndSlots:
    def test_commit_order_and_counts(self):
        module = make_counted_loop(iters=25, filler=30)
        tls = simulate_tls(module)
        region = tls.regions[0]
        assert region.epochs_committed == 25
        assert region.end_time > region.start_time

    def test_slot_accounting_is_consistent(self):
        module = make_counted_loop(iters=25, filler=30)
        tls = simulate_tls(module)
        slots = tls.regions[0].slots
        assert slots.total > 0
        assert slots.busy > 0
        assert slots.busy + slots.fail + slots.sync <= slots.total + 1e-6
        assert slots.other >= 0

    def test_total_slots_match_geometry(self):
        config = SimConfig()
        module = make_counted_loop(iters=25, filler=30)
        tls = simulate_tls(module, config=config)
        region = tls.regions[0]
        expected = region.cycles * config.issue_width * config.num_cores
        assert abs(region.slots.total - expected) < 1e-6


class TestLifetime:
    @pytest.mark.parametrize("fast_path", (True, False), ids=("fast", "slow"))
    def test_run_engine_is_freed_without_the_cycle_collector(self, fast_path):
        """A run engine is in no reference cycle (its decoded program
        once kept a bound method of it): dropping the last reference
        frees it at once, so back-to-back engines do not pile up
        between collections."""

        def body(fb):
            v = fb.load("@g")
            fb.store("@g", fb.add(v, 1))

        module = make_counted_loop(
            iters=8, body=body, globals_spec=[("g", 1, 0)], filler=4
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = TLSEngine(module, config=SimConfig(fast_path=fast_path))
            engine.run()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestEngineErrors:
    def test_alloc_in_epoch_rejected(self):
        def body(fb):
            fb.alloc(4)

        module = make_counted_loop(iters=4, body=body)
        with pytest.raises(EngineError, match="alloc"):
            simulate_tls(module)

    def test_oracle_mode_requires_oracle(self):
        module = make_counted_loop(iters=4)
        with pytest.raises(EngineError, match="oracle"):
            TLSEngine(module, config=SimConfig(oracle_mode="all"))

    def test_null_dereference_in_oldest_epoch_is_fatal(self):
        def body(fb):
            z = fb.const(0)
            fb.load(z)

        module = make_counted_loop(iters=4, body=body)
        with pytest.raises(EngineError, match="NULL"):
            simulate_tls(module)
