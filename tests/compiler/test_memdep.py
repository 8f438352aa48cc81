"""The memory-resident dependence passes: profiler, grouping, cloning,
synchronization insertion (paper Sections 2.2-2.3)."""

import pytest

from repro.compiler.memdep.cloning import CloningError, specialize_call_paths
from repro.compiler.scalar_sync import insert_all_scalar_sync
from repro.compiler.scheduling import schedule_all
from repro.compiler.memdep.graph import group_dependences
from repro.compiler.memdep.profiler import profile_dependences
from repro.compiler.memdep.sync_insertion import insert_memory_sync
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import Load, Signal, Store, Wait
from repro.ir.interpreter import run_module
from repro.ir.module import ParallelLoop
from repro.ir.operands import Reg
from repro.ir.verifier import verify_module
from repro.tlssim.sequential import simulate_tls


def freelist_module(iters=60, use_rate=2):
    """Miniature Figure 4: free_element / work -> use_element."""
    mb = ModuleBuilder()
    mb.global_var("head", 1, init=0)
    mb.global_var("arena", 16)
    mb.global_var("rare", 1, init=0)
    fb = mb.function("free_element", ["e"])
    fb.block("entry")
    old = fb.load("@head")          # ld in free_element
    fb.store("e", old, offset=0)
    fb.store("@head", "e")          # st in free_element
    fb.ret()
    fb = mb.function("use_element", [])
    fb.block("entry")
    head = fb.load("@head")          # ld in use_element
    empty = fb.binop("eq", head, 0)
    fb.condbr(empty, "none", "pop")
    fb.block("pop")
    nxt = fb.load(head, offset=0)
    fb.store("@head", nxt)           # st in use_element
    fb.ret(head)
    fb.block("none")
    fb.ret(0)
    fb = mb.function("work", ["w"])
    fb.block("entry")
    odd = fb.mod("w", use_rate)
    fb.condbr(odd, "use", "idle")
    fb.block("use")
    r = fb.call("use_element", [])
    fb.ret(r)
    fb.block("idle")
    fb.ret(0)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    slot = fb.mod("i", 8)
    off = fb.mul(slot, 2)
    element = fb.add("@arena", off)
    fb.call("free_element", [element], dest=False)
    fb.call("work", ["i"])
    # an infrequent dependence that must NOT be grouped
    rare_cond = fb.binop("eq", "i", 7)
    fb.condbr(rare_cond, "touch", "cont")
    fb.block("touch")
    r = fb.load("@rare")
    r2 = fb.add(r, 1)
    fb.store("@rare", r2)
    fb.jump("cont")
    fb.block("cont")
    fb.add("i", 1, dest="i")
    c = fb.binop("lt", "i", iters)
    fb.condbr(c, "loop", "done")
    fb.block("done")
    final = fb.load("@head")
    fb.ret(final)
    module = mb.build()
    module.parallel_loops.append(ParallelLoop(function="main", header="loop"))
    return module


@pytest.fixture
def profiled():
    module = freelist_module()
    profiles = profile_dependences(module)
    return module, profiles[("main", "loop")]


class TestProfiler:
    def test_epoch_count(self, profiled):
        _module, profile = profiled
        assert profile.total_epochs == 60

    def test_finds_frequent_pairs(self, profiled):
        _module, profile = profiled
        frequent = profile.frequent_pairs(0.05)
        assert frequent, "expected frequent head dependences"

    def test_context_sensitivity(self, profiled):
        """use_element's store is named with the work->use call stack."""
        _module, profile = profiled
        stacks = {len(store[1]) for store, _load in profile.frequent_pairs(0.05)}
        assert 1 in stacks  # free_element, called directly from the loop
        assert 2 in stacks  # use_element via work

    def test_infrequent_dependence_below_threshold(self, profiled):
        module, profile = profiled
        rare_loads = [
            i.iid
            for i in module.function("main").instructions()
            if isinstance(i, Load) and getattr(i.addr, "name", None) == "rare"
        ]
        frequent_load_iids = {load[0] for _s, load in profile.frequent_pairs(0.05)}
        assert not (set(rare_loads) & frequent_load_iids)

    def test_intra_epoch_dependences_excluded(self):
        """A store followed by a load in the same epoch is not recorded."""
        mb = ModuleBuilder()
        mb.global_var("g", 1)
        fb = mb.function("main")
        fb.block("entry")
        fb.const(0, dest="i")
        fb.jump("loop")
        fb.block("loop")
        fb.store("@g", "i")
        fb.load("@g")  # sees its own epoch's store
        fb.add("i", 1, dest="i")
        c = fb.binop("lt", "i", 10)
        fb.condbr(c, "loop", "done")
        fb.block("done")
        fb.ret(0)
        module = mb.build()
        module.parallel_loops.append(ParallelLoop(function="main", header="loop"))
        profile = profile_dependences(module)[("main", "loop")]
        assert profile.pair_epochs == {}

    def test_distance_histogram(self, profiled):
        _module, profile = profiled
        assert sum(profile.distance_hist.values()) > 0
        fractions = profile.distance_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_loads_above(self, profiled):
        _module, profile = profiled
        assert profile.loads_above(0.05)
        assert profile.loads_above(0.05) >= profile.loads_above(0.25)


class TestGrouping:
    def test_head_accesses_form_one_group(self, profiled):
        _module, profile = profiled
        groups = group_dependences(profile, threshold=0.05)
        assert len(groups) == 1
        group = groups[0]
        assert len(group.loads) >= 1
        assert len(group.stores) >= 2  # free_element + use_element stores

    def test_high_threshold_may_prune(self, profiled):
        _module, profile = profiled
        low = group_dependences(profile, threshold=0.05)
        high = group_dependences(profile, threshold=0.9)
        low_members = {m for g in low for m in g.members}
        high_members = {m for g in high for m in g.members}
        assert high_members <= low_members

    def test_empty_profile_no_groups(self):
        from repro.compiler.memdep.profiler import LoopDependenceProfile

        profile = LoopDependenceProfile(function="f", header="h")
        assert group_dependences(profile) == []

    def test_deterministic_indices(self, profiled):
        _module, profile = profiled
        first = group_dependences(profile)
        second = group_dependences(profile)
        assert [g.member_iids() for g in first] == [g.member_iids() for g in second]
        assert [g.index for g in first] == list(range(len(first)))


class TestCloning:
    def test_chain_specialized(self, profiled):
        module, profile = profiled
        groups = group_dependences(profile)
        stacks = {stack for g in groups for (_iid, stack) in g.members if stack}
        before = set(module.functions)
        materialized = specialize_call_paths(
            module, module.parallel_loops[0], stacks
        )
        created = set(module.functions) - before
        # free_element clone + work clone + use_element clone
        assert len(created) == 3
        assert materialized[()] == "main"
        verify_module(module)

    def test_calls_redirected(self, profiled):
        module, profile = profiled
        groups = group_dependences(profile)
        stacks = {stack for g in groups for (_iid, stack) in g.members if stack}
        specialize_call_paths(module, module.parallel_loops[0], stacks)
        from repro.ir.instructions import Call

        loop_calls = {
            i.callee
            for i in module.function("main").instructions()
            if isinstance(i, Call)
        }
        assert any("$sync" in callee for callee in loop_calls)

    def test_behaviour_unchanged_by_cloning(self, profiled):
        module, profile = profiled
        reference = run_module(freelist_module()).return_value
        groups = group_dependences(profile)
        stacks = {stack for g in groups for (_iid, stack) in g.members if stack}
        specialize_call_paths(module, module.parallel_loops[0], stacks)
        assert run_module(module).return_value == reference

    def test_bogus_stack_rejected(self, profiled):
        module, _profile = profiled
        with pytest.raises(CloningError):
            specialize_call_paths(module, module.parallel_loops[0], [(424242,)])


class TestSyncInsertion:
    def transformed(self):
        module = freelist_module()
        profile = profile_dependences(module)[("main", "loop")]
        groups = group_dependences(profile)
        report = insert_memory_sync(module, module.parallel_loops[0], groups)
        verify_module(module)
        return module, report

    def test_report_counts(self):
        _module, report = self.transformed()
        assert report.groups == 1
        assert report.loads_synchronized >= 1
        assert report.signal_sites >= 1
        assert report.clones_created == 3
        assert report.channels == ["mem:main:loop:0"]

    def test_guard_structure_around_load(self):
        module, _report = self.transformed()
        guarded = None
        for name, function in module.functions.items():
            if "$sync" not in name and name != "main":
                continue
            for label, block in function.blocks.items():
                for index, instr in enumerate(block.instructions):
                    if isinstance(instr, Wait) and instr.kind == "addr":
                        guarded = block.instructions[index : index + 6]
                        break
        assert guarded is not None
        kinds = [type(i).__name__ for i in guarded]
        assert kinds == ["Wait", "Check", "Wait", "Load", "Select", "Resume"]

    def test_signals_follow_stores(self):
        module, _report = self.transformed()
        found_pair = False
        for function in module.functions.values():
            for block in function.blocks.values():
                for index, instr in enumerate(block.instructions):
                    if isinstance(instr, Signal) and instr.kind == "addr":
                        assert isinstance(block.instructions[index - 1], Store)
                        follow = block.instructions[index + 1]
                        assert isinstance(follow, Signal) and follow.kind == "value"
                        found_pair = True
        assert found_pair

    def test_sync_loads_marked(self):
        module, report = self.transformed()
        assert len(module.sync_loads) == report.loads_synchronized

    def test_behaviour_preserved(self):
        reference = run_module(freelist_module()).return_value
        module, _report = self.transformed()
        assert run_module(module).return_value == reference
        insert_all_scalar_sync(module)
        schedule_all(module)
        result = simulate_tls(module)
        assert result.return_value == reference

    def test_synchronization_reduces_failures(self):
        plain_module = freelist_module()
        insert_all_scalar_sync(plain_module)
        schedule_all(plain_module)
        plain = simulate_tls(plain_module)
        module, _ = self.transformed()
        insert_all_scalar_sync(module)
        schedule_all(module)
        synced = simulate_tls(module)
        assert len(synced.regions[0].violations) < len(plain.regions[0].violations)

    def test_engine_rejects_missing_scalar_channels(self):
        import pytest as _pytest
        from repro.tlssim.engine import EngineError

        with _pytest.raises(EngineError, match="forwarding channel"):
            simulate_tls(freelist_module())

    def test_no_groups_is_noop(self):
        module = freelist_module()
        before = module.instruction_count()
        report = insert_memory_sync(module, module.parallel_loops[0], [])
        assert report.groups == 0
        assert module.instruction_count() == before


def _compile_counting_scans(monkeypatch, fresh_reg=None):
    """Compile bzip2_comp; return its IR text and the ``registers()``
    scans made by each memory-sync insertion pass."""
    from repro.compiler import pipeline
    from repro.ir.function import Function
    from repro.ir.printer import format_module
    from repro.workloads import get_workload

    scans = [0]
    registers = Function.registers

    def counting(self):
        scans[0] += 1
        return registers(self)

    per_pass = []

    def insertion(module, loop, groups):
        before = scans[0]
        report = insert_memory_sync(module, loop, groups)
        per_pass.append((scans[0] - before, len(module.functions)))
        return report

    monkeypatch.setattr(Function, "registers", counting)
    monkeypatch.setattr(pipeline, "insert_memory_sync", insertion)
    if fresh_reg is not None:
        monkeypatch.setattr(Function, "fresh_reg", fresh_reg)
    workload = get_workload("bzip2_comp")
    compiled = pipeline.compile_workload(
        workload.name, workload.build, workload.train_input, workload.ref_input
    )
    text = "".join(
        format_module(getattr(compiled, attr))
        for attr in ("seq", "baseline", "sync_ref", "sync_train")
    )
    return text, per_pass


class TestRegisterMinting:
    def test_one_scan_per_function_per_insertion_pass(self, monkeypatch):
        _text, per_pass = _compile_counting_scans(monkeypatch)
        assert per_pass and any(scans for scans, _functions in per_pass)
        for scans, functions in per_pass:
            assert scans <= functions

    def test_names_match_a_rescan_per_mint(self, monkeypatch):
        """Minting from one kept set gives the names a full rescan
        before every mint gives, so the compiled IR is unchanged."""
        def rescanning(self, base="t", used=None):
            taken = {reg.name for reg in self.registers()}
            name, index = base, 0
            while name in taken:
                index += 1
                name = f"{base}.{index}"
            return Reg(name)

        text, per_pass = _compile_counting_scans(monkeypatch)
        with monkeypatch.context() as patch:
            reference, reference_passes = _compile_counting_scans(patch, rescanning)
        assert text == reference
        assert sum(s for s, _f in per_pass) < sum(s for s, _f in reference_passes)

