"""Optimization passes: folding, DCE, CFG simplification, driver."""

from hypothesis import given, settings

from repro.compiler.opt.constant_folding import fold_constants
from repro.compiler.opt.dce import eliminate_dead_code
from repro.compiler.opt.driver import optimize_module
from repro.compiler.opt.simplify_cfg import simplify_cfg
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import BinOp, Const, Load, Store
from repro.ir.interpreter import run_module
from repro.ir.module import ParallelLoop
from tests.ir.test_properties import random_linear_program


def instr_count(module, name="main"):
    return module.function(name).instruction_count()


class TestConstantFolding:
    def build(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1)
        fb = mb.function("main")
        fb.block("entry")
        a = fb.const(6)
        b = fb.const(7)
        c = fb.mul(a, b)          # foldable: 42
        d = fb.add(c, 0)          # foldable: 42
        e = fb.load("@g")
        f = fb.add(e, d)          # operand substitution only
        fb.store("@g", f)
        fb.ret(f)
        return mb.build()

    def test_folds_chains(self):
        module = self.build()
        fold_constants(module.function("main"))
        consts = [
            i for i in module.function("main").instructions()
            if isinstance(i, Const)
        ]
        assert any(i.value == 42 for i in consts)
        # no BinOp with two immediates survives
        for instr in module.function("main").instructions():
            if isinstance(instr, BinOp):
                assert instr.uses(), "all-immediate binop left unfolded"

    def test_behaviour_preserved(self):
        module = self.build()
        expected = run_module(self.build()).return_value
        fold_constants(module.function("main"))
        assert run_module(module).return_value == expected

    def test_iid_preserved_on_fold(self):
        module = self.build()
        before = [i.iid for i in module.function("main").instructions()]
        fold_constants(module.function("main"))
        after = [i.iid for i in module.function("main").instructions()]
        assert before == after

    def test_division_by_constant_zero_not_folded(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        z = fb.const(0)
        d = fb.div(5, z)
        fb.ret(d)
        module = mb.build()
        fold_constants(module.function("main"))
        assert any(
            isinstance(i, BinOp) and i.op == "div"
            for i in module.function("main").instructions()
        )

    def test_no_propagation_across_blocks(self):
        """Block-local env must reset (a loop may redefine the reg)."""
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="x")
        fb.jump("loop")
        fb.block("loop")
        fb.add("x", 1, dest="x")
        c = fb.binop("lt", "x", 3)
        fb.condbr(c, "loop", "done")
        fb.block("done")
        fb.ret("x")
        module = mb.build()
        expected = run_module(module).return_value
        fold_constants(module.function("main"))
        assert run_module(module).return_value == expected == 3


class TestDCE:
    def test_removes_dead_chain(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        a = fb.const(1)
        b = fb.add(a, 2)   # dead
        fb.mul(b, 3)       # dead
        live = fb.const(9)
        fb.ret(live)
        module = mb.build()
        removed = eliminate_dead_code(module.function("main"))
        assert removed == 3
        assert run_module(module).return_value == 9

    def test_keeps_loads_and_stores(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1, init=4)
        fb = mb.function("main")
        fb.block("entry")
        fb.load("@g")       # dead value, but loads are kept
        fb.store("@g", 5)
        fb.ret(0)
        module = mb.build()
        eliminate_dead_code(module.function("main"))
        kinds = [type(i).__name__ for i in module.function("main").instructions()]
        assert "Load" in kinds and "Store" in kinds

    def test_keeps_unsafe_division(self):
        mb = ModuleBuilder()
        fb = mb.function("main", )
        fb.block("entry")
        x = fb.load("@g")
        fb.div(10, x)  # dead but may trap
        fb.ret(0)
        mb.global_var("g", 1, init=0)
        module = mb.build()
        eliminate_dead_code(module.function("main"))
        assert any(
            isinstance(i, BinOp) and i.op == "div"
            for i in module.function("main").instructions()
        )

    def test_keeps_calls(self):
        mb = ModuleBuilder()
        mb.global_var("g", 1)
        fb = mb.function("effect", [])
        fb.block("entry")
        fb.store("@g", 1)
        fb.ret(7)
        fb = mb.function("main")
        fb.block("entry")
        fb.call("effect", [])  # result dead, call kept
        r = fb.load("@g")
        fb.ret(r)
        module = mb.build()
        eliminate_dead_code(module.function("main"))
        assert run_module(module).return_value == 1


class TestSimplifyCFG:
    def build_messy(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["c"])
        fb.block("entry")
        fb.condbr("c", "hop", "side")
        fb.block("hop")          # trivial: only a jump
        fb.jump("tail")
        fb.block("side")
        fb.const(5, dest="x")
        fb.jump("tail")
        fb.block("tail")
        fb.const(1, dest="y")
        fb.jump("merge_me")
        fb.block("merge_me")     # single predecessor: mergeable
        fb.ret("y")
        fb.block("orphan")       # unreachable
        fb.ret(0)
        return mb.build()

    def test_simplifies_everything(self):
        module = self.build_messy()
        function = module.function("main")
        changed = simplify_cfg(function)
        assert changed > 0
        assert "orphan" not in function.blocks
        assert "merge_me" not in function.blocks  # merged into tail

    def test_pinned_labels_survive(self):
        module = self.build_messy()
        function = module.function("main")
        simplify_cfg(function, pinned_labels={"merge_me"})
        assert "merge_me" in function.blocks

    def test_entry_never_removed(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        fb.jump("real")
        fb.block("real")
        fb.ret(3)
        module = mb.build()
        simplify_cfg(module.function("main"))
        assert module.function("main").entry_label == "entry"
        assert run_module(module).return_value == 3


class TestDriver:
    def test_region_headers_pinned(self):
        mb = ModuleBuilder()
        mb.global_var("out", 40 * 8)
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="i")
        fb.jump("loop")
        fb.block("loop")
        dead = fb.mul(3, 4)
        fb.add(dead, 1)
        off = fb.mul("i", 8)
        addr = fb.add("@out", off)
        fb.store(addr, "i")
        fb.add("i", 1, dest="i")
        c = fb.binop("lt", "i", 10)
        fb.condbr(c, "loop", "done")
        fb.block("done")
        fb.ret("i")
        module = mb.build()
        module.parallel_loops.append(ParallelLoop(function="main", header="loop"))
        expected = run_module(module).return_value
        report = optimize_module(module)
        assert report.total_changes() > 0
        assert "loop" in module.function("main").blocks
        assert run_module(module).return_value == expected

    def test_shrinks_synchronized_workload(self):
        from repro.compiler.pipeline import compile_workload
        from tests.compiler.test_clone_pipeline import tiny_workload
        import copy

        compiled = compile_workload(
            "tiny-opt", tiny_workload, {"seed": 3}, {"seed": 44}
        )
        module = copy.deepcopy(compiled.sync_ref)
        expected = run_module(module).return_value
        before = module.instruction_count()
        optimize_module(module)
        after = module.instruction_count()
        assert after <= before
        assert run_module(module).return_value == expected

    @given(random_linear_program())
    @settings(max_examples=50, deadline=None)
    def test_semantics_preserved_on_random_programs(self, module):
        expected = run_module(module)
        optimize_module(module)
        actual = run_module(module)
        assert actual.return_value == expected.return_value
        # memory effects preserved too (the final store must survive)
        assert actual.memory.global_words("a") == expected.memory.global_words("a")

    def test_tls_simulation_unchanged_semantics(self):
        """Optimizing a transformed program must not change results."""
        from repro.compiler.pipeline import compile_workload
        from repro.tlssim.sequential import simulate_tls
        from tests.compiler.test_clone_pipeline import tiny_workload
        import copy

        compiled = compile_workload(
            "tiny-opt2", tiny_workload, {"seed": 5}, {"seed": 46}
        )
        module = copy.deepcopy(compiled.sync_ref)
        reference = simulate_tls(compiled.sync_ref).return_value
        optimize_module(module)
        assert simulate_tls(module).return_value == reference
