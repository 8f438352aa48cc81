"""Property-based tests (hypothesis) on core IR invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import ModuleBuilder
from repro.ir.cfg import CFG
from repro.ir.dominators import DominatorTree
from repro.ir.evalops import MASK, eval_binop
from repro.ir.interpreter import run_module
from repro.ir.loops import LoopForest
from repro.ir.parser import parse_module
from repro.ir.printer import format_module

int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
nonzero64 = int64.filter(lambda v: v != 0)


class TestArithmeticProperties:
    @given(st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]), int64, int64)
    def test_results_stay_in_64_bit_range(self, op, lhs, rhs):
        result = eval_binop(op, lhs, rhs)
        assert -(1 << 63) <= result < (1 << 63)

    @given(int64, nonzero64)
    def test_div_mod_identity(self, lhs, rhs):
        q = eval_binop("div", lhs, rhs)
        r = eval_binop("mod", lhs, rhs)
        assert (q * rhs + r) & MASK == lhs & MASK

    @given(int64, nonzero64)
    def test_mod_magnitude_bounded(self, lhs, rhs):
        assert abs(eval_binop("mod", lhs, rhs)) < abs(rhs)

    @given(int64, int64)
    def test_comparisons_boolean(self, lhs, rhs):
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            assert eval_binop(op, lhs, rhs) in (0, 1)

    @given(int64, int64)
    def test_comparison_trichotomy(self, lhs, rhs):
        assert eval_binop("lt", lhs, rhs) + eval_binop("gt", lhs, rhs) + eval_binop(
            "eq", lhs, rhs
        ) == 1

    @given(int64, int64)
    def test_min_max_partition(self, lhs, rhs):
        low = eval_binop("min", lhs, rhs)
        high = eval_binop("max", lhs, rhs)
        assert {low, high} == {lhs, rhs} or (low == high == lhs == rhs)
        assert low <= high

    @given(int64, int64)
    def test_add_commutes(self, lhs, rhs):
        assert eval_binop("add", lhs, rhs) == eval_binop("add", rhs, lhs)

    @given(int64, int64)
    def test_xor_self_inverse(self, lhs, rhs):
        once = eval_binop("xor", lhs, rhs)
        assert eval_binop("xor", once, rhs) == lhs


# -- random CFG generation --------------------------------------------------


@st.composite
def random_cfg_module(draw):
    """A function with N blocks and random (valid) branch structure.

    Block 0 is the entry; every block ends in a jump/condbr to random
    blocks or a return, so arbitrary CFG shapes (including loops and
    unreachable blocks) are produced.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    mb = ModuleBuilder()
    fb = mb.function("f", ["c"])
    labels = [f"b{i}" for i in range(count)]
    choices = []
    for index in range(count):
        kind = draw(st.sampled_from(["ret", "jump", "condbr"]))
        if kind == "jump":
            choices.append(("jump", draw(st.integers(0, count - 1))))
        elif kind == "condbr":
            choices.append(
                (
                    "condbr",
                    draw(st.integers(0, count - 1)),
                    draw(st.integers(0, count - 1)),
                )
            )
        else:
            choices.append(("ret",))
    for index, label in enumerate(labels):
        fb.block(label)
        choice = choices[index]
        if choice[0] == "ret":
            fb.ret(0)
        elif choice[0] == "jump":
            fb.jump(labels[choice[1]])
        else:
            fb.condbr("c", labels[choice[1]], labels[choice[2]])
    return mb.module.function("f")


class TestCFGProperties:
    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_postorder_is_permutation_of_reachable(self, function):
        cfg = CFG(function)
        order = cfg.postorder()
        assert sorted(order) == sorted(cfg.reachable)
        assert len(set(order)) == len(order)

    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_rpo_entry_first(self, function):
        cfg = CFG(function)
        assert cfg.reverse_postorder()[0] == cfg.entry

    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_entry_dominates_everything_reachable(self, function):
        cfg = CFG(function)
        tree = DominatorTree(cfg)
        for label in cfg.reachable:
            assert tree.dominates(cfg.entry, label)

    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_idom_strictly_dominates(self, function):
        cfg = CFG(function)
        tree = DominatorTree(cfg)
        for label, parent in tree.idom.items():
            if parent is not None:
                assert tree.strictly_dominates(parent, label)

    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_loop_headers_dominate_latches(self, function):
        cfg = CFG(function)
        tree = DominatorTree(cfg)
        forest = LoopForest(cfg, tree)
        for loop in forest.loops.values():
            for latch in loop.latches:
                assert tree.dominates(loop.header, latch)
            assert loop.header in loop.blocks
            assert set(loop.latches) <= loop.blocks

    @given(random_cfg_module())
    @settings(max_examples=80, deadline=None)
    def test_nested_loop_blocks_are_subsets(self, function):
        forest = LoopForest(CFG(function))
        for loop in forest.loops.values():
            if loop.parent is not None:
                assert loop.blocks <= loop.parent.blocks


# -- round-trip on random straight-line programs ------------------------------


@st.composite
def random_linear_program(draw):
    """A straight-line arithmetic program over two globals."""
    mb = ModuleBuilder()
    mb.global_var("a", 1, init=draw(st.integers(0, 100)))
    mb.global_var("b", 1, init=draw(st.integers(0, 100)))
    fb = mb.function("main")
    fb.block("entry")
    regs = [fb.load("@a"), fb.load("@b")]
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["add", "sub", "mul", "xor", "and", "or", "min", "max"]))
        lhs = draw(st.sampled_from(regs))
        rhs_choice = draw(st.integers(0, 1))
        rhs = draw(st.sampled_from(regs)) if rhs_choice else draw(st.integers(-50, 50))
        regs.append(fb.binop(op, lhs, rhs))
    fb.store("@a", regs[-1])
    fb.ret(regs[-1])
    return mb.build()


class TestRoundTripProperties:
    @given(random_linear_program())
    @settings(max_examples=60, deadline=None)
    def test_parse_format_preserves_behaviour(self, module):
        expected = run_module(module)
        reparsed = parse_module(format_module(module))
        actual = run_module(reparsed)
        assert actual.return_value == expected.return_value
        assert actual.memory.checksum() == expected.memory.checksum()

    @given(random_linear_program())
    @settings(max_examples=30, deadline=None)
    def test_format_parse_format_fixpoint(self, module):
        text = format_module(module)
        assert format_module(parse_module(text)) == text
