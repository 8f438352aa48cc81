"""Region lowering (vector backend): codegen identity, segmentation,
fallback behaviour, persistence, and the backend selection surface.

The contract under test is invisibility: the fused superops emitted by
``repro.ir.lower`` must be bit-identical to the per-tuple path — same
results, same step counts, same diagnostics at the same step — and
every way the backend can be unavailable must degrade to ``tuples``
loudly (``backend_fallback`` counter) but correctly.
"""

import pytest

from repro.ir import codegen, lower
from repro.ir.builder import ModuleBuilder
from repro.ir.decode import OP_FUSED2, DecodedProgram
from repro.ir.evalops import BINOP_FUNCS, UNOP_FUNCS
from repro.ir.interpreter import run_module
from repro.ir.module import ChannelInfo, ParallelLoop
from repro.obs.registry import process_registry
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import EngineError, TLSEngine

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Edge-heavy operand sweep: wrap boundaries, signs, shift counts.
VALUES = (
    INT64_MIN, INT64_MIN + 1, -(1 << 32), -97, -2, -1, 0, 1, 2, 3,
    63, 64, 65, 97, (1 << 32), INT64_MAX - 1, INT64_MAX,
)


def _eval_template(expr: str, **bindings):
    namespace = {"__builtins__": {}}
    namespace.update(bindings)
    return eval(expr, namespace)


class TestCodegenIdentity:
    """Generated expressions must mirror evalops bit for bit."""

    @pytest.mark.parametrize("opname", sorted(codegen.BINOP_TEMPLATES))
    def test_binop_templates_match_evalops(self, opname):
        template = codegen.BINOP_TEMPLATES[opname]
        reference = BINOP_FUNCS[opname]
        for a in VALUES:
            for b in VALUES:
                got = _eval_template(template("a", "b"), a=a, b=b)
                assert got == reference(a, b), f"{opname}({a}, {b})"

    @pytest.mark.parametrize("opname", sorted(codegen.UNOP_TEMPLATES))
    def test_unop_templates_match_evalops(self, opname):
        template = codegen.UNOP_TEMPLATES[opname]
        reference = UNOP_FUNCS[opname]
        for a in VALUES:
            got = _eval_template(template("a"), a=a)
            assert got == reference(a), f"{opname}({a})"

    @pytest.mark.parametrize("divisor", (-7, -3, -1, 1, 2, 3, 7, 64))
    def test_trunc_div_expr_matches_evalops(self, divisor):
        # The quotient expression pre-wrap must equal _trunc_div; the
        # wrapped forms equal div/mod (incl. the INT64_MIN // -1 wrap).
        expr = codegen.trunc_div_expr("a", divisor)
        for a in VALUES:
            div = _eval_template(codegen.wrap_expr(expr), a=a)
            assert div == BINOP_FUNCS["div"](a, divisor), f"{a} div {divisor}"
            mod_expr = codegen.wrap_expr(
                f"a - {expr} * {codegen.atom(divisor)}"
            )
            mod = _eval_template(mod_expr, a=a)
            assert mod == BINOP_FUNCS["mod"](a, divisor), f"{a} mod {divisor}"


def _ops(codes):
    """Decoded-tuple stand-ins carrying only an opcode."""
    return [(code,) for code in codes]


class TestSegmentation:
    def test_fusible_runs_basic(self):
        # 0 = const, 8 = ret (a breaker), 11 = load (fusible)
        runs = lower._fusible_runs(_ops([0, 11, 8, 0, 0, 0, 8, 0]))
        assert runs == [(0, 2), (3, 6), (7, 8)]

    def test_fusible_runs_min_len_filters_singletons(self):
        # Single fusible ops form runs, but no region is planted there:
        # only the two-op run at the end becomes a superop.
        decoded = _decoded(_breaker_module())
        block = lower.LoweredProgram(decoded).block("main", "entry")
        fused_at = [i for i, op in enumerate(block.ops) if op[0] < 0]
        assert [r.length for r in lower.block_regions(block)] == [2]
        assert fused_at == [lower.block_regions(block)[0].start]

    def test_divmod_constant_divisor_fuses(self):
        program = _decoded(_divmod_module(divisor=3))
        block = lower.LoweredProgram(program).block("work", "entry")
        assert any(op[0] == OP_FUSED2 for op in block.ops)

    def test_divmod_register_divisor_breaks_region(self):
        from repro.ir.decode import OP_DIVMOD

        program = _decoded(_divmod_module(divisor=None))
        block = lower.LoweredProgram(program).block("work", "entry")
        codes = [op[0] for op in block.ops]
        assert OP_DIVMOD in codes
        divmod_at = codes.index(OP_DIVMOD)
        # A register-divisor div can fault, so no region may span it.
        for region in lower.block_regions(block):
            assert not (region.start <= divmod_at
                        < region.start + region.length)

    def test_dyadic_gate(self):
        assert lower.signature_exact((4.0, 1.0, 2.0, 12.0))
        assert not lower.signature_exact((3.0, 1.0, 2.0))
        assert not lower.signature_exact((4.0, 1.5))


def _breaker_module():
    """One block: singleton fusible ops between calls, then a pair."""
    mb = ModuleBuilder("t")
    fb = mb.function("leaf")
    fb.block("entry")
    fb.ret(0)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(1, dest="a")
    fb.call("leaf", (), dest="b")
    fb.add("a", "b", dest="c")
    fb.call("leaf", (), dest="d")
    fb.add("c", "d", dest="e")
    fb.add("e", 1, dest="f")
    fb.ret("f")
    return mb.build()


def _arith_module(n=50):
    """A loop whose body is one long fusible run (plus the backedge)."""
    mb = ModuleBuilder("t")
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.const(0, dest="acc")
    fb.jump("loop")
    fb.block("loop")
    fb.mul("i", 3, dest="a")
    fb.add("a", 7, dest="b")
    fb.div("b", 5, dest="q")
    fb.mod("b", 5, dest="r")
    fb.binop("xor", "q", "r", dest="x")
    fb.add("acc", "x", dest="acc")
    fb.add("i", 1, dest="i")
    c = fb.binop("lt", "i", n)
    fb.condbr(c, "loop", "done")
    fb.block("done")
    fb.ret("acc")
    return mb.build()


def _mem_loop_module(n=40):
    """A loop whose body mixes pure runs with a load and a store.

    The sites make the block an extended region with mid-path resume
    points, so lowering plants suffix kernels at the load index and at
    the store index / store index + 1.
    """
    mb = ModuleBuilder("t")
    mb.global_var("buf", 8)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    fb.mul("i", 3, dest="a")
    fb.add("a", 7, dest="b")
    fb.load("@buf", offset=3, dest="v")
    fb.binop("xor", "b", "v", dest="c")
    fb.add("c", 1, dest="c2")
    fb.store("@buf", "c2", offset=3)
    fb.add("c2", 5, dest="d")
    fb.binop("and", "d", 255, dest="e")
    fb.add("i", 1, dest="i")
    cond = fb.binop("lt", "i", n)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    fb.ret(fb.load("@buf", offset=3))
    return mb.build()


def _divmod_module(divisor):
    mb = ModuleBuilder("t")
    fb = mb.function("work", params=("x",))
    fb.block("entry")
    if divisor is None:
        fb.const(3, dest="d")
        fb.div("x", "d", dest="q")   # register divisor: not fusible
    else:
        fb.div("x", divisor, dest="q")
    fb.add("q", 1, dest="y")
    fb.ret("y")
    fb2 = mb.function("main")
    fb2.block("entry")
    r = fb2.call("work", (INT64_MIN,), dest="r")
    fb2.ret(r)
    return mb.build()


def _decoded(module):
    return DecodedProgram(module, addr_of=lambda name: 0)


class TestInterpreterBackend:
    """The per-op interpreter is the reference both engine backends match."""

    def test_divmod_wrap_inside_region(self):
        # INT64_MIN / -1 wraps back to INT64_MIN; the fused kernel must
        # reproduce the evalops wrap on a live-in (non-folded) operand.
        module = _divmod_module(divisor=-1)
        ref = run_module(module)
        assert ref.return_value == INT64_MIN + 1
        for backend in ("tuples", "vector"):
            engine = TLSEngine(module, config=SimConfig(backend=backend))
            assert engine.run().return_value == ref.return_value, backend
        assert engine.backend == "vector"
        assert engine.fused_regions > 0


class TestBackendGate:
    def test_unknown_simconfig_backend_rejected(self):
        with pytest.raises(ValueError, match="valid backends"):
            SimConfig(backend="bogus")

    def test_non_dyadic_cost_model_unavailable(self):
        assert lower.unavailable_reason(SimConfig()) is None
        reason = lower.unavailable_reason(SimConfig(issue_width=3))
        assert reason is not None and "dyadic" in reason

    def test_vector_engine_imports_no_numpy(self):
        # Lowering is pure Python: building and running a vector engine
        # must not pull numpy into the process.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "from repro.experiments.runner import bundle_for, config_for\n"
            "from repro.tlssim.engine import TLSEngine\n"
            "program = bundle_for('go').program('U')\n"
            "config = config_for('U').with_mode(backend='vector')\n"
            "engine = TLSEngine(program, config=config, parallel=True)\n"
            "engine.run()\n"
            "assert engine.backend == 'vector', engine.backend\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def test_engine_selects_and_falls_back(self):
        from repro.experiments.runner import bundle_for, config_for

        bundle = bundle_for("go")
        program = bundle.program("U")
        vector = config_for("U").with_mode(backend="vector")
        engine = TLSEngine(program, config=vector, parallel=True)
        got = engine.run()
        assert engine.backend == "vector"
        assert engine.fused_instructions > 0
        ref = TLSEngine(
            program, config=vector.with_mode(backend="tuples"), parallel=True
        ).run()
        assert got.to_state() == ref.to_state()
        # A non-dyadic cost model (issue width 3) refuses to lower and
        # degrades to the tuple path with identical results.
        counter = process_registry().counter(
            "backend_fallback", reason="cost model off the dyadic grid"
        )
        before = counter.value
        odd = vector.with_mode(issue_width=3)
        fallback_engine = TLSEngine(program, config=odd, parallel=True)
        fallback = fallback_engine.run()
        assert fallback_engine.backend == "tuples"
        assert fallback_engine.fused_instructions == 0
        assert counter.value == before + 1
        odd_ref = TLSEngine(
            program, config=odd.with_mode(backend="tuples"), parallel=True
        ).run()
        assert fallback.to_state() == odd_ref.to_state()


class TestPersistence:
    def test_state_round_trip(self):
        decoded = _decoded(_arith_module())
        program = lower.LoweredProgram(decoded).lower_all()
        state = program.to_state()
        rebuilt = lower.LoweredProgram.from_state(decoded, state).lower_all()
        original = [
            (f, l, r.to_state()) for f, l, r in program.region_table()
        ]
        restored = [
            (f, l, r.to_state()) for f, l, r in rebuilt.region_table()
        ]
        assert original and original == restored

    def test_rebuilt_program_executes_identically(self):
        module = _arith_module()
        engine = TLSEngine(
            module, config=SimConfig(backend="vector"), parallel=False
        )
        state = lower.LoweredProgram(
            engine._decoded, issue_width=int(engine.config.issue_width)
        ).lower_all().to_state()
        ref = TLSEngine(
            module, config=SimConfig(backend="tuples"), parallel=False
        ).run()
        # Plant the rebuilt program so the run walks it.
        engine._program = lower.LoweredProgram.from_state(
            engine._decoded, state
        ).lower_all()
        got = engine.run()
        assert got.to_state() == ref.to_state()
        assert engine.fused_instructions > 0

    def test_version_mismatch_raises(self):
        decoded = _decoded(_arith_module())
        state = lower.LoweredProgram(decoded).lower_all().to_state()
        state["version"] = 999
        with pytest.raises(lower.LowerError, match="version"):
            lower.LoweredProgram.from_state(decoded, state)

    def test_stale_region_span_raises(self):
        decoded = _decoded(_arith_module())
        state = lower.LoweredProgram(decoded).lower_all().to_state()
        (name, labels), = [
            (n, ls) for n, ls in state["functions"].items() if ls
        ]
        label, regions = next(iter(labels.items()))
        regions[0]["spans"][0][1] = len(decoded.block(name, label).ops) - 1
        with pytest.raises(lower.LowerError, match="does not match"):
            lower.LoweredProgram.from_state(decoded, state)

    def test_artifact_store_round_trip(self, tmp_path):
        from repro.experiments import artifacts as artifacts_mod

        module = _arith_module()
        decoded = _decoded(module)
        state = lower.LoweredProgram(decoded).lower_all().to_state()
        store = artifacts_mod.ArtifactStore(str(tmp_path / "store"))
        cost_sig = (4.0, 1.0, 3.0)
        assert store.load_kernels(module, cost_sig) is None
        store.save_kernels(module, cost_sig, state)
        assert store.load_kernels(module, cost_sig) == state
        assert store.load_kernels(module, (2.0, 1.0, 3.0)) is None


class TestSuffixKernels:
    """Suffix kernels: extended superops planted at mid-path resume
    indices so a turn ended at a site re-enters fused execution."""

    def _ext_program(self):
        module = _mem_loop_module()
        decoded = _decoded(module)
        program = lower.LoweredProgram(decoded, issue_width=4)
        return module, decoded, program

    def test_suffix_kernels_planted_at_resume_points(self):
        from repro.ir.decode import OP_FUSED2, OP_LOAD, OP_STORE

        _, decoded, program = self._ext_program()
        block = program.block("main", "loop")
        ops = decoded.function("main").blocks["loop"].ops
        load_at = next(i for i, op in enumerate(ops) if op[0] == OP_LOAD)
        store_at = next(i for i, op in enumerate(ops) if op[0] == OP_STORE)
        ext = [
            r for r in lower.block_regions(block)
            if isinstance(r, lower.ExtRegion)
        ]
        starts = {r.start for r in ext}
        assert 0 in starts           # the home region at the run head
        assert load_at in starts     # load park / horizon re-execute
        assert store_at in starts    # store re-execute
        assert store_at + 1 in starts  # post-store resume (SAB path)
        # Each region owns exactly one OP_FUSED2 superop at its start.
        fused_at = [
            i for i, op in enumerate(block.ops) if op[0] == OP_FUSED2
        ]
        assert fused_at == sorted(starts)

    def test_suffix_regions_survive_state_round_trip(self):
        _, decoded, program = self._ext_program()
        program.lower_all()
        state = program.to_state()
        rebuilt = lower.LoweredProgram.from_state(decoded, state).lower_all()
        assert rebuilt.issue_width == 4
        original = [
            (f, l, r.to_state()) for f, l, r in program.region_table()
        ]
        restored = [
            (f, l, r.to_state()) for f, l, r in rebuilt.region_table()
        ]
        assert any(r.get("kind") == "ext" for _, _, r in original)
        assert original == restored

    def test_round_trip_keeps_the_shared_sequential_slot(self):
        _, decoded, program = self._ext_program()
        rebuilt = lower.LoweredProgram.from_state(
            decoded, program.lower_all().to_state()
        ).lower_all()
        suffixes = 0
        for built in (program, rebuilt):
            for fname, label, region in built.region_table():
                superop = built.block(fname, label).ops[region.start]
                if region.has_seq:
                    assert superop[4].__name__ == f"{region.name}_seq"
                else:
                    assert f"def {region.name}_seq(" not in region.source
                    assert superop[4] is codegen.replay_seq
                    suffixes += 1
        assert suffixes >= 6  # three suffix heads in ``loop``, both sides
        assert [
            (f, l, r.has_seq) for f, l, r in program.region_table()
        ] == [(f, l, r.has_seq) for f, l, r in rebuilt.region_table()]

    def test_step_limit_replay_through_suffix_heads_matches_oracle(self):
        # Every sequential step budget that runs out in the first three
        # loop iterations: the home superop at the head of ``loop``
        # cannot fit, so the engine replays per-op and walks over the
        # suffix superops at the load, the store and just past it.
        _, _, program = self._ext_program()
        loop = program.block("main", "loop")
        assert len(lower.block_regions(loop)) == 4
        for limit in range(2, 40):
            engines, outcomes = [], []
            for mode in ({"backend": "vector"}, {"backend": "tuples"},
                         {"fast_path": False}):
                config = SimConfig(max_region_steps=limit, **mode)
                engine = TLSEngine(
                    _mem_loop_module(), config=config, parallel=False
                )
                with pytest.raises(EngineError) as caught:
                    engine.run()
                outcomes.append((str(caught.value), engine.clock))
                engines.append(engine)
            assert outcomes[0] == outcomes[1] == outcomes[2], limit
            vector, tuples, _ = engines
            assert vector.instructions == tuples.instructions == limit + 1

    def test_guard_bail_onto_a_suffix_head_replays_per_op(
        self, monkeypatch
    ):
        # The entry path stores, then jumps into a parallelized loop:
        # the _seq kernel bails at the jump, which is the post-store
        # suffix head, so the engine dispatches that suffix superop
        # sequentially — its shared slot answers None and the jump
        # replays per-op.
        calls = []
        replay = codegen.replay_seq

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(codegen, "replay_seq", counted)
        mb = ModuleBuilder("t")
        mb.global_var("buf", 8)
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="i")
        fb.const(7, dest="x")
        fb.store("@buf", "x", offset=1)
        fb.jump("loop")
        fb.block("loop")
        fb.wait("scalar:i", dest="i")
        fb.add("i", 1, dest="i.fwd")
        fb.signal("scalar:i", "i.fwd")
        value = fb.load("@buf", offset=1)
        fb.store("@buf", fb.add(value, "i"), offset=1)
        fb.move("i.fwd", dest="i")
        fb.condbr(fb.binop("lt", "i", 5), "loop", "done")
        fb.block("done")
        fb.ret(fb.load("@buf", offset=1))
        module = mb.build()
        module.parallel_loops.append(ParallelLoop(
            function="main", header="loop", scalar_channels=["scalar:i"]
        ))
        module.add_channel(
            ChannelInfo(name="scalar:i", kind="scalar", scalar="i")
        )
        engine = TLSEngine(
            module, config=SimConfig(backend="vector"), parallel=True
        )
        got = engine.run()
        ref = TLSEngine(
            module, config=SimConfig(fast_path=False), parallel=True
        ).run()
        assert got.to_state() == ref.to_state()
        assert len(calls) == 1
        assert engine.fused_instructions > 0

class TestKernelArtifacts:
    def test_kernel_store_round_trip_without_relower(
        self, tmp_path, monkeypatch
    ):
        # Acceptance criterion: a stored kernel table alone rebuilds
        # the vector program — loading must never re-run the lowering
        # analysis or the codegen emitters.
        from repro.experiments import artifacts as artifacts_mod

        module = _mem_loop_module()
        store = artifacts_mod.ArtifactStore(str(tmp_path / "store"))
        lower.set_persistence(store.load_kernels, store.save_kernels)
        try:
            ref = TLSEngine(
                _mem_loop_module(),
                config=SimConfig(backend="tuples"),
                parallel=False,
            ).run()
            config = SimConfig(backend="vector")
            first_engine = TLSEngine(module, config=config, parallel=False)
            first = first_engine.run()
            assert first_engine.backend == "vector"
            assert first.to_state() == ref.to_state()
            assert store.info()["kernels"] == 1

            # Drop the in-process memo and forbid relowering: the
            # second engine must come up entirely from the store.
            delattr(module, lower._MODULE_CACHE_ATTR)

            def relowered(*args, **kwargs):
                raise AssertionError("relowered instead of loading kernels")

            monkeypatch.setattr(codegen, "generate_extended", relowered)
            second_engine = TLSEngine(module, config=config, parallel=False)
            second = second_engine.run()
            assert second_engine.backend == "vector"
            assert second.to_state() == first.to_state()
        finally:
            lower.set_persistence(None, None)

    def test_old_schema_table_is_relowered_and_repersisted(self, tmp_path):
        # A table stored under the previous LOWER_SCHEMA_VERSION must
        # never be executed: its kernels here would raise if they ran.
        from repro.experiments import artifacts as artifacts_mod

        module = _mem_loop_module()
        config = SimConfig(backend="vector")
        cost_sig = lower.cost_signature(config)
        stale = lower.LoweredProgram(
            _decoded(module), issue_width=int(config.issue_width)
        ).lower_all().to_state()
        stale["version"] = lower.LOWER_SCHEMA_VERSION - 1
        for labels in stale["functions"].values():
            for regions in labels.values():
                for region in regions:
                    name = region["name"]
                    region["source"] = (
                        f"def {name}_epoch(*args):\n    return 1 // 0\n"
                        f"def {name}_seq(*args):\n    return 1 // 0\n"
                    )
        store = artifacts_mod.ArtifactStore(str(tmp_path / "store"))
        store.save_kernels(module, cost_sig, stale)
        lower.set_persistence(store.load_kernels, store.save_kernels)
        try:
            engine = TLSEngine(module, config=config, parallel=False)
            got = engine.run()
        finally:
            lower.set_persistence(None, None)
        ref = TLSEngine(
            _mem_loop_module(), config=SimConfig(backend="tuples"),
            parallel=False,
        ).run()
        assert engine.backend == "vector" and engine.fused_instructions > 0
        assert got.to_state() == ref.to_state()
        stored = store.load_kernels(module, cost_sig)
        assert stored["version"] == lower.LOWER_SCHEMA_VERSION
        assert stored == engine._program.to_state()


    def test_schema_4_table_is_relowered_and_overwritten(self, tmp_path):
        # Schema 4 tables carry suffix _seq bodies and epoch code past a
        # signal, and their regions have no "seq" flag: a store holding
        # one is relowered and the entry overwritten under schema 5.
        from repro.experiments import artifacts as artifacts_mod

        module = _mem_loop_module()
        config = SimConfig(backend="vector")
        cost_sig = lower.cost_signature(config)
        old = lower.LoweredProgram(
            _decoded(module), issue_width=int(config.issue_width)
        ).lower_all().to_state()
        old["version"] = 4
        for labels in old["functions"].values():
            for regions in labels.values():
                for region in regions:
                    del region["seq"]
        store = artifacts_mod.ArtifactStore(str(tmp_path / "store"))
        store.save_kernels(module, cost_sig, old)
        lower.set_persistence(store.load_kernels, store.save_kernels)
        try:
            engine = TLSEngine(module, config=config, parallel=False)
            got = engine.run()
        finally:
            lower.set_persistence(None, None)
        ref = TLSEngine(
            _mem_loop_module(), config=SimConfig(backend="tuples"),
            parallel=False,
        ).run()
        assert engine.fused_instructions > 0
        assert got.to_state() == ref.to_state()
        stored = store.load_kernels(module, cost_sig)
        assert lower.LOWER_SCHEMA_VERSION == 5
        assert stored["version"] == 5
        assert stored == engine._program.to_state()
        assert any(
            region["seq"] is False
            for labels in stored["functions"].values()
            for regions in labels.values()
            for region in regions
        )
