"""Reference interpreter: semantics, hooks, region/epoch tracking."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.evalops import eval_binop, eval_unop
from repro.ir.interpreter import (
    Hooks,
    Interpreter,
    InterpreterError,
    run_module,
)
from repro.ir.memimage import NullDereference
from repro.ir.module import ParallelLoop


class TestEvalBinop:
    def test_basic_arithmetic(self):
        assert eval_binop("add", 2, 3) == 5
        assert eval_binop("sub", 2, 3) == -1
        assert eval_binop("mul", -4, 3) == -12

    def test_division_truncates_toward_zero(self):
        assert eval_binop("div", 7, 2) == 3
        assert eval_binop("div", -7, 2) == -3
        assert eval_binop("div", 7, -2) == -3

    def test_mod_sign_follows_dividend(self):
        assert eval_binop("mod", 7, 3) == 1
        assert eval_binop("mod", -7, 3) == -1
        assert eval_binop("mod", 7, -3) == 1

    def test_division_exact_for_huge_magnitudes(self):
        # Regression: float-based truncation lost precision above 2^53.
        big = -3103311621539391012
        assert eval_binop("mod", big, 7) == big - (-(-big // 7)) * 7
        assert -7 < eval_binop("mod", big, 7) <= 0

    def test_div_mod_identity(self):
        for lhs in (-(10**18), -13, -1, 1, 13, 10**18):
            for rhs in (-7, -2, 2, 7):
                q = eval_binop("div", lhs, rhs)
                r = eval_binop("mod", lhs, rhs)
                assert q * rhs + r == lhs

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            eval_binop("div", 1, 0)
        with pytest.raises(InterpreterError):
            eval_binop("mod", 1, 0)

    def test_wrapping_at_64_bits(self):
        top = (1 << 63) - 1
        assert eval_binop("add", top, 1) == -(1 << 63)

    def test_comparisons_return_0_or_1(self):
        assert eval_binop("lt", 1, 2) == 1
        assert eval_binop("ge", 1, 2) == 0
        assert eval_binop("eq", 5, 5) == 1
        assert eval_binop("ne", 5, 5) == 0

    def test_shifts_mask_the_count(self):
        assert eval_binop("shl", 1, 64) == 1  # count masked to 0
        assert eval_binop("shr", 8, 2) == 2

    def test_min_max(self):
        assert eval_binop("min", 3, -5) == -5
        assert eval_binop("max", 3, -5) == 3

    def test_unops(self):
        assert eval_unop("neg", 5) == -5
        assert eval_unop("not", 0) == 1
        assert eval_unop("not", 9) == 0


def _reference_wrap(value):
    """Signed 64-bit two's-complement wrap, by modular arithmetic."""
    return (value + 2**63) % 2**64 - 2**63


def _reference_div(lhs, rhs):
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


#: Operator -> (reference result before any wrap, whether it wraps).
REFERENCE_BINOPS = {
    "add": (lambda a, b: a + b, True),
    "sub": (lambda a, b: a - b, True),
    "mul": (lambda a, b: a * b, True),
    "div": (_reference_div, True),
    "mod": (lambda a, b: a - _reference_div(a, b) * b, True),
    "and": (lambda a, b: a & b, True),
    "or": (lambda a, b: a | b, True),
    "xor": (lambda a, b: a ^ b, True),
    "shl": (lambda a, b: a << (b & 63), True),
    "shr": (lambda a, b: a >> (b & 63), True),
    "eq": (lambda a, b: int(a == b), False),
    "ne": (lambda a, b: int(a != b), False),
    "lt": (lambda a, b: int(a < b), False),
    "le": (lambda a, b: int(a <= b), False),
    "gt": (lambda a, b: int(a > b), False),
    "ge": (lambda a, b: int(a >= b), False),
    "min": (min, False),
    "max": (max, False),
}

#: Operands at and beyond the 64-bit boundaries, of both signs.
BOUNDARY_VALUES = (
    0, 1, -1, 2, -3, 63, 64, 12345678901234567, -98765432109876543,
    2**62, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
    2**64 - 1, 2**64, -(2**64), 2**64 + 1, -(2**64) - 1,
)


class TestHandlersAtBoundaries:
    def test_every_binop_has_a_reference(self):
        from repro.ir.evalops import BINOP_FUNCS

        assert set(BINOP_FUNCS) == set(REFERENCE_BINOPS)

    @pytest.mark.parametrize("op", sorted(REFERENCE_BINOPS))
    def test_binop_matches_reference_wrap(self, op):
        from repro.ir.evalops import BINOP_FUNCS

        handler = BINOP_FUNCS[op]
        reference, wraps = REFERENCE_BINOPS[op]
        for lhs in BOUNDARY_VALUES:
            for rhs in BOUNDARY_VALUES:
                if op in ("div", "mod") and rhs == 0:
                    with pytest.raises(InterpreterError):
                        handler(lhs, rhs)
                    continue
                want = reference(lhs, rhs)
                if wraps:
                    want = _reference_wrap(want)
                assert handler(lhs, rhs) == want, f"{op}({lhs}, {rhs})"

    @pytest.mark.parametrize("op", ["neg", "not"])
    def test_unop_matches_reference_wrap(self, op):
        for value in BOUNDARY_VALUES:
            want = _reference_wrap(-value) if op == "neg" else int(not value)
            assert eval_unop(op, value) == want, f"{op}({value})"


def build_sum_loop(n=10, parallel=False):
    mb = ModuleBuilder()
    mb.global_var("acc", 1)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    v = fb.load("@acc")
    v2 = fb.add(v, "i")
    fb.store("@acc", v2)
    fb.add("i", 1, dest="i")
    c = fb.binop("lt", "i", n)
    fb.condbr(c, "loop", "done")
    fb.block("done")
    r = fb.load("@acc")
    fb.ret(r)
    module = mb.build()
    if parallel:
        module.parallel_loops.append(ParallelLoop(function="main", header="loop"))
    return module


class TestExecution:
    def test_sum_loop(self):
        assert run_module(build_sum_loop(10)).return_value == 45

    def test_calls_and_returns(self):
        mb = ModuleBuilder()
        fb = mb.function("double", ["x"])
        fb.block("entry")
        d = fb.mul("x", 2)
        fb.ret(d)
        fb = mb.function("main")
        fb.block("entry")
        r = fb.call("double", [21])
        fb.ret(r)
        assert run_module(mb.build()).return_value == 42

    def test_void_call(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1)
        fb = mb.function("poke", [])
        fb.block("entry")
        fb.store("@g", 9)
        fb.ret()
        fb = mb.function("main")
        fb.block("entry")
        fb.call("poke", [], dest=False)
        r = fb.load("@g")
        fb.ret(r)
        assert run_module(mb.build()).return_value == 9

    def test_undefined_register_rejected(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        fb.add("ghost", 1)
        fb.ret(0)
        with pytest.raises(InterpreterError, match="undefined register"):
            run_module(mb.build())

    def test_fuel_exhaustion(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        fb.jump("spin")
        fb.block("spin")
        fb.jump("spin")
        with pytest.raises(InterpreterError, match="fuel"):
            run_module(mb.build(), fuel=100)

    def test_null_dereference(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        z = fb.const(0)
        fb.load(z)
        fb.ret(0)
        with pytest.raises(NullDereference):
            run_module(mb.build())

    def test_alloc(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        p = fb.alloc(4)
        fb.store(p, 11, offset=3)
        r = fb.load(p, offset=3)
        fb.ret(r)
        assert run_module(mb.build()).return_value == 11

    def test_wrong_arg_count_rejected(self):
        module = build_sum_loop()
        with pytest.raises(InterpreterError):
            Interpreter(module).run(args=(1,))


class RecordingHooks(Hooks):
    def __init__(self):
        self.loads = []
        self.stores = []
        self.epochs = []
        self.regions = []

    def on_load(self, instr, stack, addr, value, epoch):
        self.loads.append((stack, addr, value, epoch))

    def on_store(self, instr, stack, addr, value, epoch):
        self.stores.append((stack, addr, value, epoch))

    def on_epoch_start(self, epoch):
        self.epochs.append(epoch)

    def on_region_enter(self, function, header, instance):
        self.regions.append(("enter", function, header, instance))

    def on_region_exit(self, function, header, epochs):
        self.regions.append(("exit", function, header, epochs))


class TestRegionTracking:
    def test_epoch_indices(self):
        hooks = RecordingHooks()
        Interpreter(build_sum_loop(5, parallel=True), hooks=hooks).run()
        assert hooks.epochs == [0, 1, 2, 3, 4]
        assert hooks.regions[0][:3] == ("enter", "main", "loop")
        assert hooks.regions[-1] == ("exit", "main", "loop", 5)

    def test_loads_tagged_with_epoch(self):
        hooks = RecordingHooks()
        Interpreter(build_sum_loop(3, parallel=True), hooks=hooks).run()
        in_region = [l for l in hooks.loads if l[3] is not None]
        assert [l[3] for l in in_region] == [0, 1, 2]

    def test_region_exit_count_in_result(self):
        result = Interpreter(build_sum_loop(7, parallel=True)).run()
        assert result.epochs_per_region[("main", "loop")] == 7

    def test_call_stack_context(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1)
        fb = mb.function("touch", [])
        fb.block("entry")
        v = fb.load("@g")
        fb.store("@g", v)
        fb.ret()
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="i")
        fb.jump("loop")
        fb.block("loop")
        fb.call("touch", [], dest=False)
        fb.add("i", 1, dest="i")
        c = fb.binop("lt", "i", 2)
        fb.condbr(c, "loop", "done")
        fb.block("done")
        fb.ret(0)
        module = mb.build()
        module.parallel_loops.append(ParallelLoop(function="main", header="loop"))
        hooks = RecordingHooks()
        Interpreter(module, hooks=hooks).run()
        region_loads = [l for l in hooks.loads if l[3] is not None]
        assert region_loads, "expected loads inside the region"
        for stack, _addr, _value, _epoch in region_loads:
            assert len(stack) == 1  # one call frame below the loop

    def test_parallel_annotation_on_non_loop_rejected(self):
        module = build_sum_loop()
        module.parallel_loops.append(ParallelLoop(function="main", header="done"))
        with pytest.raises(InterpreterError):
            Interpreter(module)


class TestTransformedEquivalence:
    def test_wait_preserves_register(self):
        """Sequential wait semantics keep the scalar's previous value."""
        module = build_sum_loop(6, parallel=True)
        from repro.compiler.scalar_sync import insert_all_scalar_sync

        reference = run_module(build_sum_loop(6)).return_value
        insert_all_scalar_sync(module)
        assert run_module(module).return_value == reference

    def test_select_takes_memory_value(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1, init=5)
        fb = mb.function("main")
        fb.block("entry")
        f_val = fb.wait("mem:x", kind="value")
        m_val = fb.load("@g")
        fb.check(f_val, "@g")
        r = fb.select(f_val, m_val)
        fb.resume()
        fb.ret(r)
        module = mb.build()
        from repro.ir.module import ChannelInfo

        module.add_channel(ChannelInfo(name="mem:x", kind="mem"))
        assert run_module(module).return_value == 5
