"""Basic blocks, functions, modules: containers and identities."""

import pytest

from repro.ir.basicblock import deterministic_iids
from repro.ir.function import Function
from repro.ir.instructions import Const, Jump, Ret
from repro.ir.module import ChannelInfo, GlobalVar, Module, ParallelLoop
from repro.ir.operands import Reg


def simple_function(name="f"):
    function = Function(name)
    block = function.add_block("entry")
    block.append(Const(Reg("x"), 1))
    block.append(Ret(Reg("x")))
    return function


class TestBasicBlock:
    def test_append_assigns_unique_iids(self):
        function = simple_function()
        iids = [i.iid for i in function.entry.instructions]
        assert all(i is not None for i in iids)
        assert len(set(iids)) == len(iids)

    def test_origin_iid_defaults_to_iid(self):
        function = simple_function()
        for instr in function.entry.instructions:
            assert instr.origin_iid == instr.iid

    def test_append_after_terminator_rejected(self):
        function = simple_function()
        with pytest.raises(ValueError):
            function.entry.append(Const(Reg("y"), 2))

    def test_insert_before_terminator(self):
        function = simple_function()
        function.entry.insert(1, Const(Reg("y"), 2))
        assert len(function.entry) == 3
        assert function.entry.terminator is not None

    def test_terminator_none_when_open(self):
        function = Function("g")
        block = function.add_block("entry")
        block.append(Const(Reg("x"), 1))
        assert block.terminator is None

    def test_successors(self):
        function = Function("g")
        block = function.add_block("entry")
        block.append(Jump("next"))
        assert block.successors() == ["next"]

    def test_body_excludes_terminator(self):
        function = simple_function()
        assert len(function.entry.body) == 1


class TestDeterministicIids:
    def test_two_builds_get_identical_iids(self):
        with deterministic_iids():
            first = simple_function()
        with deterministic_iids():
            second = simple_function()
        assert [i.iid for i in first.entry.instructions] == [
            i.iid for i in second.entry.instructions
        ]

    def test_counter_resumes_past_context(self):
        with deterministic_iids():
            inside = simple_function()
        outside = simple_function()
        inside_ids = {i.iid for i in inside.entry.instructions}
        outside_ids = {i.iid for i in outside.entry.instructions}
        assert not (inside_ids & outside_ids)


class TestFunction:
    def test_entry_is_first_block(self):
        function = Function("f")
        function.add_block("a")
        function.add_block("b")
        assert function.entry_label == "a"

    def test_duplicate_label_rejected(self):
        function = Function("f")
        function.add_block("a")
        with pytest.raises(ValueError):
            function.add_block("a")

    def test_registers_includes_params(self):
        function = Function("f", ["p"])
        function.add_block("entry").append(Ret(Reg("p")))
        assert Reg("p") in function.registers()

    def test_fresh_label_avoids_collisions(self):
        function = Function("f")
        function.add_block("x")
        assert function.fresh_label("x") == "x.1"
        assert function.fresh_label("y") == "y"

    def test_fresh_reg_avoids_collisions(self):
        function = Function("f", ["t"])
        function.add_block("entry").append(Ret())
        assert function.fresh_reg("t").name == "t.1"

    def test_fresh_reg_with_used_set_adds_minted_names(self):
        function = Function("f", ["t"])
        function.add_block("entry").append(Ret())
        used = {"t", "t.1"}
        assert function.fresh_reg("t", used).name == "t.2"
        assert function.fresh_reg("t", used).name == "t.3"
        assert function.fresh_reg("u", used).name == "u"
        assert used == {"t", "t.1", "t.2", "t.3", "u"}

    def test_instruction_count(self):
        assert simple_function().instruction_count() == 2

    def test_cannot_remove_entry(self):
        function = Function("f")
        function.add_block("entry")
        with pytest.raises(ValueError):
            function.remove_block("entry")


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module()
        module.add_function(simple_function("f"))
        with pytest.raises(ValueError):
            module.add_function(simple_function("f"))

    def test_duplicate_global_rejected(self):
        module = Module()
        module.add_global("g")
        with pytest.raises(ValueError):
            module.add_global("g")

    def test_global_int_init_promoted_to_list(self):
        module = Module()
        var = module.add_global("g", 4, init=7)
        assert var.initial_words() == [7, 0, 0, 0]

    def test_main_property(self):
        module = Module()
        with pytest.raises(ValueError):
            module.main
        module.add_function(simple_function("main"))
        assert module.main.name == "main"

    def test_parallel_loop_lookup(self):
        module = Module()
        loop = ParallelLoop(function="main", header="loop")
        module.parallel_loops.append(loop)
        assert module.parallel_loop_for("main", "loop") is loop
        assert module.parallel_loop_for("main", "other") is None

    def test_duplicate_channel_rejected(self):
        module = Module()
        module.add_channel(ChannelInfo(name="c", kind="scalar", scalar="r"))
        with pytest.raises(ValueError):
            module.add_channel(ChannelInfo(name="c", kind="mem"))


class TestGlobalVar:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            GlobalVar("g", 0)

    def test_oversized_init_rejected(self):
        with pytest.raises(ValueError):
            GlobalVar("g", 1, [1, 2])

    def test_channel_kind_validated(self):
        with pytest.raises(ValueError):
            ChannelInfo(name="c", kind="bogus")
