"""Engine edge cases: parked runs, tiny regions, odd machine shapes."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.interpreter import run_module
from repro.ir.module import ChannelInfo, ParallelLoop
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.tlssim.sequential import simulate_tls

from tests.tlssim.conftest import make_counted_loop


def _both_paths(module, config=None):
    """Simulate ``module`` on both ``fast_path`` values; the per-op
    scheduler and the turn loop must agree on every park and restart."""
    config = config or SimConfig()
    fast, slow = (
        simulate_tls(module, config=config.with_mode(fast_path=fast_path))
        for fast_path in (True, False)
    )
    assert fast.to_state() == slow.to_state()
    return fast


class TestSpeculativeFaults:
    def test_speculative_division_fault_heals(self):
        """A div-by-zero caused by a stale speculative value parks the
        run; the restart with fresh data succeeds."""

        def body(fb):
            # divisor starts at 1 and is rotated 1 -> 2 -> 1 by epochs;
            # a stale read can see 0 mid-update only speculatively
            d = fb.load("@divisor")
            q = fb.div(100, d)
            nd = fb.sub(3, d)   # 1 <-> 2
            fb.store("@divisor", nd)
            fb.store("@divisor", nd)  # rewrite (keeps value valid)
            fb.add(q, 0)

        module = make_counted_loop(
            iters=20, body=body, globals_spec=[("divisor", 1, 1)], filler=30
        )
        reference = run_module(module)
        result = _both_paths(module)
        assert result.return_value == reference.return_value

    def test_null_in_speculative_tail_is_survivable(self):
        """Control-speculated tail epochs may read garbage; a NULL
        dereference there parks the run and the region still finishes."""

        def body(fb):
            # pointer table: entry i valid for i < 20, then 0 (NULL)
            addr = fb.add("@ptrs", "i")
            p = fb.load(addr)
            ok = fb.binop("ne", p, 0)
            fb.condbr(ok, "deref", "skip")
            fb.block("deref")
            fb.load(p)
            fb.jump("skip")
            fb.block("skip")

        # ptrs[i] points at scratch for the 20 real epochs; beyond the
        # exit the loop is never (non-speculatively) reached.
        module = make_counted_loop(
            iters=20,
            body=body,
            globals_spec=[("ptrs", 32, None), ("scratch", 8, None)],
            filler=20,
        )
        result = _both_paths(module)
        assert result.regions[0].epochs_committed == 20

    def test_runaway_speculative_loop_is_parked_and_squashed(self):
        """A speculative run that never terminates (stale bound) hits
        the per-run step limit, parks, and gets restarted when oldest."""

        def body(fb):
            bound = fb.load("@bound")
            fb.const(0, dest="j")
            fb.jump("inner")
            fb.block("inner")
            fb.add("j", 1, dest="j")
            c = fb.binop("lt", "j", bound)
            fb.condbr(c, "inner", "out")
            fb.block("out")
            nb = fb.add(bound, 0)
            fb.store("@bound", nb)

        module = make_counted_loop(
            iters=8, body=body, globals_spec=[("bound", 1, 3)], filler=10
        )
        config = SimConfig().with_mode(max_epoch_steps=2000)
        result = _both_paths(module, config)
        assert result.regions[0].epochs_committed == 8


class TestTinyRegions:
    def test_single_epoch_region(self):
        module = make_counted_loop(iters=1, filler=10)
        result = simulate_tls(module)
        assert result.regions[0].epochs_committed == 1
        assert result.return_value == 1

    def test_two_epochs_on_four_cores(self):
        module = make_counted_loop(iters=2, filler=10)
        result = simulate_tls(module)
        assert result.regions[0].epochs_committed == 2
        assert result.return_value == 2

    def test_zero_iteration_loop(self):
        """The first epoch immediately takes the exit edge."""
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        fb.const(5, dest="i")
        fb.jump("loop")
        fb.block("loop")
        fb.wait("scalar:i", dest="i")
        fb.add("i", 1, dest="i.f")
        fb.signal("scalar:i", "i.f")
        fb.move("i.f", dest="i")
        c = fb.binop("lt", "i", 3)   # 6 < 3: false on epoch 0
        fb.condbr(c, "loop", "done")
        fb.block("done")
        fb.ret("i")
        module = mb.build()
        module.parallel_loops.append(
            ParallelLoop(
                function="main", header="loop", scalar_channels=["scalar:i"]
            )
        )
        module.add_channel(ChannelInfo(name="scalar:i", kind="scalar", scalar="i"))
        result = simulate_tls(module)
        assert result.return_value == 6
        assert result.regions[0].epochs_committed == 1


class TestMachineShapes:
    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_core_counts(self, cores):
        module = make_counted_loop(iters=20, filler=30)
        reference = run_module(module)
        result = TLSEngine(module, config=SimConfig(num_cores=cores)).run()
        assert result.return_value == reference.return_value
        assert result.memory_checksum == reference.memory.checksum()

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_issue_widths(self, width):
        module = make_counted_loop(iters=12, filler=20)
        reference = run_module(module)
        result = TLSEngine(module, config=SimConfig(issue_width=width)).run()
        assert result.return_value == reference.return_value

    def test_word_granularity_removes_false_sharing(self):
        def body(fb):
            slot = fb.mod("i", 4)
            raddr = fb.add("@packed", slot)
            fb.load(raddr)
            wslot = fb.add(slot, 4)
            waddr = fb.add("@packed", wslot)
            fb.store(waddr, "i")

        module = make_counted_loop(
            iters=40, body=body, globals_spec=[("packed", 8, None)], filler=40
        )
        line_mode = simulate_tls(module)
        word_mode = TLSEngine(
            module, config=SimConfig(violation_granularity="word")
        ).run()
        assert word_mode.return_value == line_mode.return_value
        assert len(word_mode.regions[0].violations) == 0
        assert len(line_mode.regions[0].violations) > 5

    def test_word_granularity_keeps_true_dependences(self):
        def body(fb):
            v = fb.load("@shared")
            fb.store("@shared", fb.add(v, 1))

        module = make_counted_loop(
            iters=30, body=body, globals_spec=[("shared", 1, 0)], filler=40
        )
        word_mode = TLSEngine(
            module, config=SimConfig(violation_granularity="word")
        ).run()
        assert len(word_mode.regions[0].violations) > 5
        assert word_mode.return_value == run_module(module).return_value


class TestMultiLatchLoops:
    def build(self, transformed=True):
        """A loop with a 'continue'-style second backedge."""
        mb = ModuleBuilder()
        mb.global_var("acc", 1)
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="i")
        fb.jump("loop")
        fb.block("loop")
        if transformed:
            fb.wait("scalar:i", dest="i")
            fb.add("i", 1, dest="i.f")
            fb.signal("scalar:i", "i.f")
            fb.move("i.f", dest="i")
        else:
            fb.add("i", 1, dest="i")
        parity = fb.mod("i", 3)
        skip = fb.binop("eq", parity, 0)
        fb.condbr(skip, "cont", "work")
        fb.block("cont")  # second latch: early continue
        c1 = fb.binop("lt", "i", 30)
        fb.condbr(c1, "loop", "done")
        fb.block("work")
        v = fb.load("@acc")
        fb.store("@acc", fb.add(v, "i"))
        c2 = fb.binop("lt", "i", 30)
        fb.condbr(c2, "loop", "done")
        fb.block("done")
        r = fb.load("@acc")
        fb.ret(r)
        module = mb.build()
        module.parallel_loops.append(
            ParallelLoop(
                function="main",
                header="loop",
                scalar_channels=["scalar:i"] if transformed else [],
            )
        )
        if transformed:
            module.add_channel(
                ChannelInfo(name="scalar:i", kind="scalar", scalar="i")
            )
        return module

    def test_both_backedges_bound_epochs(self):
        module = self.build()
        reference = run_module(self.build())
        result = simulate_tls(module)
        assert result.return_value == reference.return_value
        assert result.regions[0].epochs_committed == 30

    def test_scalar_sync_pass_handles_multiple_latches(self):
        from repro.compiler.scalar_sync import insert_all_scalar_sync
        from repro.compiler.scheduling import schedule_all

        module = self.build(transformed=False)
        reference = run_module(self.build(transformed=False)).return_value
        insert_all_scalar_sync(module)
        schedule_all(module)
        assert run_module(module).return_value == reference
        assert simulate_tls(module).return_value == reference
