"""Codegen kernel layer (vector backend): compile/memo mechanics plus
seeded-random property fuzzing against ``evalops`` and the slow oracle.

The backend compiles per-region Python kernels; their contract is
bit-identity with the tuple path, whose arithmetic *is* ``evalops``.
Three fuzz surfaces pin that down:

* pure op soups — the degenerate one-span region with no guards and no
  sites — whose ``_seq``/``_epoch`` kernels are called directly on
  randomized live-in registers against a literal evalops walk of the
  decoded region (including the ``INT64_MIN // -1`` wrap), then run
  through the engine's sequential and epoch paths against
  ``fast_path=False`` (including the undefined-live-in replay and a
  step limit falling inside a region);
* whole randomized programs — guarded forward branches (so kernels
  both hit and miss their guards) and private loads/stores — under
  the ``vector`` vs ``tuples`` engine backends;
* randomized parallel TLS loops with scalar/memory wait-signal-check
  traffic and deliberately conflicting shared stores, so speculative
  store buffers fill, squash, and drain mid-kernel.

Every generator is seeded (``random.Random(seed)``) — failures replay.
"""

import ast

import pytest

from random import Random

from repro.ir import codegen, lower
from repro.ir.builder import ModuleBuilder
from repro.ir.decode import (
    OP_BINOP,
    OP_CONST,
    OP_DIVMOD,
    OP_FUSED2,
    OP_MOVE,
    OP_UNOP,
    DecodedProgram,
)
from repro.ir.evalops import BINOP_FUNCS
from repro.ir.module import ChannelInfo, ParallelLoop
from repro.ir.verifier import verify_module
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import EngineError, TLSEngine

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Operand pool biased toward wrap boundaries, sign flips, and shift
#: counts around the word size.
FUZZ_VALUES = (
    INT64_MIN, INT64_MIN + 1, -(1 << 32), -97, -3, -2, -1, 0, 1, 2, 3,
    5, 63, 64, 65, 97, (1 << 31), (1 << 32), INT64_MAX - 1, INT64_MAX,
)

#: Binops that cannot fault, whatever their operands.
PURE_BINOPS = (
    "add", "sub", "mul", "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
)

#: Constant divisors for div/mod (register divisors break regions).
DIVISORS = (-7, -3, -1, 2, 3, 5, 64)


def _decoded(module):
    return DecodedProgram(module, addr_of=lambda name: 0)


# ---------------------------------------------------------------------------
# compile layer
# ---------------------------------------------------------------------------


class TestCompileLayer:
    def test_compile_is_memoized_by_source(self):
        source = "def k_seq(regs):\n    regs['x'] = regs['x'] + 1\n"
        codegen.clear_memo()
        codegen.reset_stats()
        first = codegen.compile_source(source, "t")
        second = codegen.compile_source(source, "t")
        assert first is second
        stats = codegen.compile_stats()
        assert stats["compiles"] == 1
        assert stats["memo_hits"] == 1
        assert stats["memo_size"] == 1

    def test_namespace_is_builtin_free(self):
        # Kernels may touch only their arguments (plus len/KeyError for
        # the extended kernels' hoists); any builtin leak must raise.
        namespace = codegen.compile_source(
            "def k():\n    return abs(-1)\n", "t"
        )
        assert namespace["__builtins__"] == {}
        with pytest.raises(NameError):
            namespace["k"]()

    def test_clear_memo_resets_footprint(self):
        codegen.compile_source("def k():\n    return 1\n", "t")
        assert codegen.compile_stats()["memo_size"] >= 1
        codegen.clear_memo()
        assert codegen.compile_stats()["memo_size"] == 0


# ---------------------------------------------------------------------------
# pure op soups: kernels vs a literal evalops walk and the slow oracle
# ---------------------------------------------------------------------------

SOUP_SEEDS = 6


def _add_scalar_loop(mb, fb, iters, body):
    """Emit ``loop``/``done`` in ``main``: a parallel loop over ``i``.

    ``body(fb)`` emits the loop body between the ``scalar:i`` handoff
    and the back edge; the loop is annotated for the TLS engine.
    """
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    fb.wait("scalar:i", dest="i")
    fb.add("i", 1, dest="i.fwd")
    fb.signal("scalar:i", "i.fwd")
    body(fb)
    fb.move("i.fwd", dest="i")
    cond = fb.binop("lt", "i", iters)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    module = mb.module
    module.parallel_loops.append(
        ParallelLoop(
            function="main", header="loop", scalar_channels=["scalar:i"]
        )
    )
    module.add_channel(ChannelInfo(name="scalar:i", kind="scalar", scalar="i"))


def _pure_soup_module(rng, iters=6):
    """``work(s0..s5)`` is one all-pure op soup + ``ret``; a parallel
    loop in ``main`` calls it on fuzzed arguments read from ``@args``.

    Ending ``work`` with ``ret`` (a region breaker) keeps the soup a
    single-span pure run — the degenerate region, no guards and no
    sites — whose live-ins are the parameters, so its kernels compute
    on runtime values the constant folder cannot see.
    """
    mb = ModuleBuilder("fuzz")
    mb.global_var(
        "args", iters * SOUP_SEEDS,
        init=[rng.choice(FUZZ_VALUES) for _ in range(iters * SOUP_SEEDS)],
    )
    mb.global_var("out", iters * 8)
    regs = [f"s{k}" for k in range(SOUP_SEEDS)]
    fb = mb.function("work", params=tuple(regs))
    fb.block("entry")
    for k in range(rng.randrange(18, 36)):
        dest = f"t{k}"
        dice = rng.random()
        if dice < 0.15:
            fb.unop(rng.choice(("neg", "not")), rng.choice(regs), dest=dest)
        elif dice < 0.30:
            fb.binop(rng.choice(("div", "mod")), rng.choice(regs),
                     rng.choice(DIVISORS), dest=dest)
        else:
            rhs = (rng.choice(regs) if rng.random() < 0.7
                   else rng.choice(FUZZ_VALUES))
            fb.binop(rng.choice(PURE_BINOPS), rng.choice(regs), rhs,
                     dest=dest)
        regs.append(dest)
    acc = regs[-1]
    for name in regs[-8:]:
        acc = fb.binop("xor", acc, name)
    fb.ret(acc)

    fb = mb.function("main")
    fb.block("entry")

    def body(fb):
        base = fb.add("@args", fb.mul("i", SOUP_SEEDS))
        args = [fb.load(base, offset=k) for k in range(SOUP_SEEDS)]
        result = fb.call("work", args)
        fb.store(fb.add("@out", fb.mul("i", 8)), result)

    _add_scalar_loop(mb, fb, iters, body)
    fb.ret(fb.load("@out"))
    module = mb.build()
    verify_module(module)
    return module


def _read(regs, operand):
    return regs[operand] if isinstance(operand, str) else operand


def _evalops_walk(ops, start, length, live_ins):
    """Reference execution of a pure decoded span straight off evalops.

    Decoded binop/unop tuples carry the evalops callables themselves
    (``op[4]``), so this walk *is* the evalops semantics.
    """
    regs = dict(live_ins)
    for op in ops[start:start + length]:
        code = op[0]
        if code == OP_CONST:
            regs[op[3]] = op[4]
        elif code == OP_MOVE:
            regs[op[3]] = _read(regs, op[4])
        elif code in (OP_BINOP, OP_DIVMOD):
            regs[op[3]] = op[4](_read(regs, op[5]), _read(regs, op[6]))
        elif code == OP_UNOP:
            regs[op[3]] = op[4](_read(regs, op[5]))
        else:  # pragma: no cover - generator emits pure ops only
            raise AssertionError(f"unexpected opcode {code} in pure region")
    return regs


def _soup_kernels(module, function="work"):
    """(decoded, region, run) for the one-span region at ``function``'s
    entry block.

    ``run(regs)`` executes the region's ``_seq`` kernel on ``regs`` and
    its ``_epoch`` kernel on a copy, asserts both ran the whole region
    and agree, and returns the resulting registers.  A pure one-span
    kernel touches nothing but its registers, clock and trace, so the
    engine-side arguments may be None.
    """
    decoded = _decoded(module)
    block = lower.LoweredProgram(decoded).block(function, "entry")
    superop = block.ops[0]
    assert superop[0] == OP_FUSED2
    region = superop[7]
    n_ops = len(decoded.function(function).blocks["entry"].ops)
    assert region.spans == [("entry", 0, n_ops - 1)]  # all but the ret

    def run(regs):
        epoch_regs = dict(regs)
        seq = superop[4](regs, 0.0, None, None, None, None, None, None, None)
        trace = []
        epoch = superop[3](epoch_regs, trace, 0.0, 0.0, 0, 0, None, None,
                           None, 0.0, 0, 0, superop[6])
        assert seq[1] == epoch[1] == region.length  # resume index
        assert seq[3] == epoch[4] == region.length  # ops executed
        assert epoch[5] is False and len(trace) == 1
        assert epoch_regs == regs
        return regs

    return decoded, region, run


def _run_engines(module, parallel):
    """(vector engine, vector result, slow-oracle result)."""
    vec_engine = TLSEngine(
        module, config=SimConfig(backend="vector"), parallel=parallel
    )
    vec = vec_engine.run()
    slow = TLSEngine(
        module, config=SimConfig(fast_path=False), parallel=parallel
    ).run()
    return vec_engine, vec, slow


class TestClassicKernelFuzz:
    """Edge cases of straight-line, memory-free (classic) regions."""

    def test_divmod_wrap_on_live_in_operand(self):
        # INT64_MIN // -1 wraps back to INT64_MIN (and mod to 0); the
        # kernel must reproduce the evalops wrap on a *live-in* operand
        # the constant folder cannot see.
        mb = ModuleBuilder("wrap")
        fb = mb.function("work", params=("x",))
        fb.block("entry")
        fb.binop("div", "x", -1, dest="q")
        fb.binop("mod", "x", -1, dest="r")
        fb.binop("xor", "q", "r", dest="o")
        fb.ret("o")
        fb = mb.function("main")
        fb.block("entry")
        fb.ret(fb.call("work", (INT64_MIN,)))
        module = mb.build()
        _, _, run = _soup_kernels(module)
        for x in (INT64_MIN, INT64_MIN + 1, -1, 0, 7, INT64_MAX):
            regs = run({"x": x})
            assert regs["q"] == BINOP_FUNCS["div"](x, -1), x
            assert regs["r"] == BINOP_FUNCS["mod"](x, -1), x
        assert run({"x": INT64_MIN})["q"] == INT64_MIN  # the wrap itself
        vec_engine, vec, slow = _run_engines(module, parallel=False)
        assert vec.return_value == slow.return_value == INT64_MIN
        assert vec_engine.fused_regions > 0


class TestPureSoupFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_kernels_match_evalops_on_random_live_ins(self, seed):
        rng = Random(seed)
        decoded, region, run = _soup_kernels(_pure_soup_module(rng))
        ops = decoded.function("work").blocks["entry"].ops
        for _ in range(8):
            live_ins = {
                name: rng.choice(FUZZ_VALUES) for name in region.live_ins
            }
            got = run(dict(live_ins))
            assert got == _evalops_walk(ops, 0, region.length, live_ins)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("parallel", (False, True),
                             ids=("sequential", "epoch"))
    def test_engine_paths_match_slow_oracle(self, seed, parallel):
        module = _pure_soup_module(Random(seed))
        vec_engine, vec, slow = _run_engines(module, parallel)
        assert vec_engine.backend == "vector"
        assert vec.to_state() == slow.to_state()
        assert vec_engine.fused_regions > 0

    @pytest.mark.parametrize("parallel", (False, True),
                             ids=("sequential", "epoch"))
    def test_undefined_live_in_replays_exact_diagnostic(self, parallel):
        # The kernel returns None before touching any state; the engine
        # replays the region per-op, so the fault lands on the same op
        # with the slow oracle's exact message.
        mb = ModuleBuilder("t")
        fb = mb.function("work", params=("x",))
        fb.block("entry")
        fb.add("x", 1, dest="a")
        fb.add("ghost", "a", dest="b")
        fb.add("b", 2, dest="c")
        fb.ret("c")
        fb = mb.function("main")
        fb.block("entry")
        _add_scalar_loop(mb, fb, 3, lambda fb: fb.call("work", ("i",)))
        fb.ret(0)
        module = mb.build()
        errors = []
        for config in (SimConfig(backend="vector"), SimConfig(fast_path=False)):
            with pytest.raises(EngineError) as caught:
                TLSEngine(module, config=config, parallel=parallel).run()
            errors.append(str(caught.value))
        assert "undefined register %ghost" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("limit", (16, 25, 33))
    def test_step_limit_inside_region_identical(self, limit):
        # A sequential step budget that runs out inside ``work``'s
        # region (entered at step 15): the superop must fall back to
        # per-op dispatch so the fault fires at exactly the oracle's
        # step — same clock, same instruction count.
        module = _pure_soup_module(Random(0))
        engines = []
        for mode in ({"backend": "vector"}, {"backend": "tuples"},
                     {"fast_path": False}):
            config = SimConfig(max_region_steps=limit, **mode)
            engine = TLSEngine(module, config=config, parallel=False)
            with pytest.raises(EngineError, match="fuel exhausted"):
                engine.run()
            engines.append(engine)
        vector, tuples, slow = engines
        assert vector.clock == tuples.clock == slow.clock
        assert vector.instructions == tuples.instructions == limit + 1


# ---------------------------------------------------------------------------
# randomized guarded-branch + private-memory programs (interpreter)
# ---------------------------------------------------------------------------


def _branchy_memory_module(rng, chain=4, size=64):
    """A DAG of guarded blocks over random data with @buf loads/stores.

    All branches are forward (guaranteed termination); guard outcomes
    depend on fuzzed values, so the extended kernels' branch guards
    both hold and mispredict across seeds.  Addresses mix constant
    offsets with masked register arithmetic off the ``@buf`` global.
    """
    mb = ModuleBuilder("fuzz")
    mb.global_var("buf", size)
    fb = mb.function("main")
    fb.block("entry")
    # Seed registers are the only cross-block values: every block may
    # read them and may overwrite them (defined on every path), while
    # temporaries stay block-local — branches can skip whole blocks.
    seeds = []
    for k in range(5):
        fb.const(rng.choice(FUZZ_VALUES), dest=f"s{k}")
        seeds.append(f"s{k}")
    for _ in range(6):  # scatter initial data
        fb.store("@buf", rng.choice(seeds), offset=rng.randrange(size))
    fb.jump("b0")
    labels = [f"b{k}" for k in range(chain)] + ["done"]
    for i in range(chain):
        fb.block(labels[i])
        local = list(seeds)
        for _ in range(rng.randrange(4, 9)):
            rhs = (rng.choice(local) if rng.random() < 0.6
                   else rng.choice(FUZZ_VALUES))
            dest = rng.choice(seeds) if rng.random() < 0.3 else None
            value = fb.binop(rng.choice(PURE_BINOPS), rng.choice(local),
                             rhs, dest=dest)
            local.append(dest or value)
        if rng.random() < 0.5:  # constant-offset private access
            local.append(fb.load("@buf", offset=rng.randrange(size)))
        else:  # register-address access
            slot = fb.binop("and", rng.choice(local), size - 1)
            addr = fb.add("@buf", slot)
            local.append(fb.load(addr))
            if rng.random() < 0.5:
                fb.store(addr, rng.choice(local))
        cond = fb.binop(rng.choice(("lt", "eq", "gt", "le")),
                        rng.choice(local), rng.choice(local))
        on_false = rng.choice(labels[i + 1:])
        fb.condbr(cond, labels[i + 1], on_false)
    fb.block("done")
    slot = fb.binop("and", rng.choice(seeds), size - 1)
    out = fb.load(fb.add("@buf", slot))
    fb.ret(fb.binop("xor", out, rng.choice(seeds)))
    module = mb.build()
    verify_module(module)
    return module


class TestBranchyMemoryFuzz:
    @pytest.mark.parametrize("seed", range(10))
    def test_engine_vector_matches_tuples(self, seed):
        # Extended-region surface: the sequential engine dispatches
        # OP_FUSED2 kernels whose branch guards hold on the lowered
        # path and mispredict (bail to per-op dispatch) off it.
        module = _branchy_memory_module(Random(seed))
        vec_engine, vec = _run_engine(module, "vector", parallel=False)
        ref_engine, ref = _run_engine(module, "tuples", parallel=False)
        assert vec_engine.backend == "vector"
        assert vec.to_state() == ref.to_state()
        assert vec_engine.instructions == ref_engine.instructions
        assert vec_engine.fused_regions > 0

    def test_extended_regions_cover_guarded_memory_paths(self):
        module = _branchy_memory_module(Random(1))
        program = lower.LoweredProgram(_decoded(module), issue_width=4)
        codes = [
            op[0]
            for label in ("b0", "b1", "b2", "b3")
            for op in program.block("main", label).ops
        ]
        assert OP_FUSED2 in codes


# ---------------------------------------------------------------------------
# randomized parallel TLS loops (engine: wait/signal/check + drains)
# ---------------------------------------------------------------------------


def _parallel_fuzz_module(rng, iters=24, stride=None):
    """A forwarding-protocol loop with randomized body and conflicts.

    The ``mem:c`` channel forwards ``@counter`` (wait/check/select/
    resume consumer, store+signal producer); an *un-forwarded* random-
    stride read-modify-write over the tiny ``@shared`` array guarantees
    cross-epoch dependences, so epochs squash and their speculative
    store buffers drain mid-region.
    """
    if stride is None:
        stride = rng.choice((1, 3, 5, 7))
    mb = ModuleBuilder("pfuzz")
    mb.global_var("counter", 1, init=rng.randrange(1, 50))
    mb.global_var("shared", 8)
    mb.global_var("slots", iters * 8)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    fb.wait("scalar:i", dest="i")
    fb.add("i", 1, dest="i.fwd")
    fb.signal("scalar:i", "i.fwd")
    f_addr = fb.wait("mem:c", kind="addr")
    fb.check(f_addr, "@counter")
    f_val = fb.wait("mem:c", kind="value")
    m_val = fb.load("@counter")
    cur = fb.select(f_val, m_val)
    fb.resume()
    new = fb.add(cur, rng.randrange(1, 7))
    fb.store("@counter", new)
    fb.signal("mem:c", "@counter", kind="addr")
    fb.signal("mem:c", new, kind="value")
    slot = fb.mod(fb.mul("i", stride), 8)
    addr = fb.add("@shared", slot)
    fb.store(addr, fb.add(fb.load(addr), "i"))
    acc = fb.const(rng.randrange(1, 9))
    for k in range(rng.randrange(10, 24)):
        acc = fb.binop(rng.choice(("add", "xor", "mul", "sub", "and", "or")),
                       acc, rng.randrange(1, 13))
    fb.store(fb.add("@slots", fb.mul("i", 8)), fb.binop("xor", acc, cur))
    fb.move("i.fwd", dest="i")
    cond = fb.binop("lt", "i", iters)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    fb.ret(fb.load("@counter"))
    module = mb.build()
    module.parallel_loops.append(
        ParallelLoop(
            function="main",
            header="loop",
            scalar_channels=["scalar:i"],
            mem_channels=["mem:c"],
        )
    )
    module.add_channel(ChannelInfo(name="scalar:i", kind="scalar", scalar="i"))
    module.add_channel(ChannelInfo(name="mem:c", kind="mem"))
    verify_module(module)
    return module


def _run_engine(module, backend, parallel=True):
    engine = TLSEngine(
        module, config=SimConfig(backend=backend), parallel=parallel
    )
    result = engine.run()
    return engine, result


class TestParallelEngineFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_vector_matches_tuples_under_speculation(self, seed):
        module = _parallel_fuzz_module(Random(seed))
        vec_engine, vec = _run_engine(module, "vector")
        ref_engine, ref = _run_engine(module, "tuples")
        assert vec_engine.backend == "vector"
        assert vec.to_state() == ref.to_state()
        assert vec_engine.instructions == ref_engine.instructions
        assert vec_engine.fused_regions > 0

    def test_store_buffer_drain_path_is_exercised(self):
        # stride 1 writes every epoch into the same @shared cells, so
        # violations (and thus mid-region store-buffer drains) are
        # guaranteed, not just likely.
        module = _parallel_fuzz_module(Random(3), stride=1)
        vec_engine, vec = _run_engine(module, "vector")
        _, ref = _run_engine(module, "tuples")
        assert vec.total_violations() > 0
        assert vec.to_state() == ref.to_state()
        assert vec_engine.fused_regions > 0


# ---------------------------------------------------------------------------
# source shape over the workload suite: only reachable kernel code
# ---------------------------------------------------------------------------

#: The programs the workload bars run (perfbench ``sim-grid`` warms
#: exactly these, under the default cost model).
SHAPE_PROGRAMS = ("baseline", "sync_ref", "sync_train")

#: Ceilings on the distinct kernel source over the 15 workloads x
#: SHAPE_PROGRAMS, with headroom over today's 2.21 MB and 108 bytes per
#: fused instruction.
MAX_SOURCE_BYTES = 2_600_000
MAX_BYTES_PER_FUSED_INSTR = 110


@pytest.fixture(scope="module")
def suite_regions():
    """``(where, region, tree, superop, is_home, blocks)`` for every
    fused region of every workload program, as a vector engine lowers
    it (``tree`` is the parsed source, ``blocks`` the function's
    decoded blocks)."""
    from repro.experiments.runner import bundle_for
    from repro.workloads import all_workloads

    rows = []
    for workload in all_workloads():
        compiled = bundle_for(workload.name).compiled
        for attr in SHAPE_PROGRAMS:
            engine = TLSEngine(
                getattr(compiled, attr), config=SimConfig(backend="vector")
            )
            program = engine._program
            for fname, label, region in program.region_table():
                ops = program.decoded.block(fname, label).ops
                run_starts = {s for s, _ in lower._fusible_runs(ops)}
                rows.append((
                    f"{workload.name}/{attr}/{fname}:{label}:{region.name}",
                    region,
                    ast.parse(region.source),
                    program.block(fname, label).ops[region.start],
                    region.start in run_starts,
                    program.decoded.function(fname).blocks,
                ))
    return rows


def _null_checks_on_literals(tree):
    """Every ``if not <literal>:`` test in a kernel."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.If)
                and isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)):
            try:
                ast.literal_eval(node.test.operand)
            except ValueError:
                continue
            yield node


def _statements_after_return(tree):
    """Every statement that follows a ``return`` in the same block."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for k, stmt in enumerate(block[:-1]):
                if isinstance(stmt, ast.Return):
                    yield block[k + 1]


class TestSourceShape:
    def test_no_statement_follows_an_unconditional_return(
        self, suite_regions
    ):
        dead = []
        for where, _, tree, _, _, _ in suite_regions:
            for stmt in _statements_after_return(tree):
                dead.append(f"{where} line {stmt.lineno}")
        assert not dead, dead[:5]

    def test_epoch_kernels_end_at_their_first_signal(self, suite_regions):
        # A signal always ends the turn: its delegation is the kernel's
        # second-last top-level statement and the return the last.
        ended = 0
        for where, region, tree, _, _, _ in suite_regions:
            epoch = next(
                node for node in tree.body
                if node.name == f"{region.name}_epoch"
            )
            signals = [
                node for node in ast.walk(epoch)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_exec_signal"
            ]
            assert len(signals) <= 1, where
            if signals:
                assert isinstance(epoch.body[-1], ast.Return), where
                assert signals[0] in ast.walk(epoch.body[-2]), where
                ended += 1
        assert ended > 0

    def test_suffix_regions_define_no_seq_kernel(self, suite_regions):
        suffixes = 0
        for where, region, tree, superop, is_home, _ in suite_regions:
            defined = {
                node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
            }
            assert region.has_seq == is_home, where
            if is_home:
                assert defined == {f"{region.name}_epoch",
                                   f"{region.name}_seq"}, where
                assert superop[4].__name__ == f"{region.name}_seq", where
            else:
                assert defined == {f"{region.name}_epoch"}, where
                assert superop[4] is codegen.replay_seq, where
                suffixes += 1
        assert suffixes > 0

    def test_distinct_source_within_budget(self, suite_regions):
        lengths = {}
        for _, region, _, _, _, _ in suite_regions:
            lengths[region.source] = region.length
        total = sum(len(source.encode()) for source in lengths)
        fused = sum(lengths.values())
        assert total <= MAX_SOURCE_BYTES, total
        assert total / fused <= MAX_BYTES_PER_FUSED_INSTR, total / fused

    def test_suffix_regions_stop_at_their_next_site(self, suite_regions):
        # A suffix region is one segment: it ends ahead of the first
        # site past its first MIN_REGION_LEN ops.
        long_tails = []
        cut = 0
        for where, region, _, _, is_home, blocks in suite_regions:
            if is_home:
                continue
            position = 0
            for label, start, end in region.spans:
                ops = blocks[label].ops
                for k in range(start, end):
                    if (position >= lower.MIN_REGION_LEN
                            and ops[k][0] in codegen.SITE_OPCODES):
                        long_tails.append(f"{where} {label}@{k}")
                    position += 1
            label, _, end = region.spans[-1]
            if end < len(blocks[label].ops) and (
                blocks[label].ops[end][0] in codegen.SITE_OPCODES
            ):
                cut += 1
        assert not long_tails, long_tails[:5]
        assert cut > 0

    def test_no_null_check_on_a_constant_address(self, suite_regions):
        checks = []
        for where, _, tree, _, _, _ in suite_regions:
            for node in _null_checks_on_literals(tree):
                checks.append(f"{where} line {node.lineno}")
        assert not checks, checks[:5]


class TestNullChecks:
    """A memory op faults on a null address.  A nonzero constant
    address cannot be null, so its kernel carries no check; a constant
    zero keeps it and faults like the tuple path."""

    @staticmethod
    def _module(offset):
        mb = ModuleBuilder("t")
        mb.global_var("buf", 8)
        fb = mb.function("main")
        fb.block("entry")
        fb.const(5, dest="x")
        fb.store("@buf", "x", offset=offset)
        fb.load("@buf", offset=offset, dest="y")
        fb.add("y", 1, dest="z")
        fb.ret("z")
        return mb.build()

    def _epoch_tree(self, offset):
        program = lower.LoweredProgram(
            _decoded(self._module(offset)), issue_width=4
        )
        home = lower.block_regions(program.block("main", "entry"))[0]
        assert home.start == 0 and home.length == 4
        return ast.parse(home.source)

    def test_nonzero_constant_address_has_no_check(self):
        tree = self._epoch_tree(3)
        assert not list(_null_checks_on_literals(tree))
        assert "_null_fault" not in ast.unparse(tree)

    def test_zero_constant_address_keeps_both_checks(self):
        tree = self._epoch_tree(0)
        assert len(list(_null_checks_on_literals(tree))) == 2
        assert ast.unparse(tree).count("_null_fault") == 2
