"""Workload infrastructure: input generation and builder scaffolding."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.interpreter import run_module
from repro.ir.verifier import verify_module
from repro.workloads.base import (
    SLOT_STRIDE,
    Workload,
    add_result_slots,
    emit_filler,
    emit_slot_store,
    lcg_stream,
    register,
    standard_region,
)
from repro.ir.builder import ModuleBuilder


class TestLcgStream:
    def test_deterministic(self):
        assert lcg_stream(42, 50, 100) == lcg_stream(42, 50, 100)

    def test_seed_changes_stream(self):
        assert lcg_stream(1, 50, 100) != lcg_stream(2, 50, 100)

    def test_range(self):
        for value in lcg_stream(7, 200, 13):
            assert 0 <= value < 13

    def test_low_bits_not_cyclic(self):
        """Regression: naive LCG low bits cycle with period <= 4, which
        turned probabilistic conditions into strict round-robins."""
        values = lcg_stream(11, 64, 4)
        period4 = all(
            values[i] == values[i % 4] for i in range(len(values))
        )
        assert not period4

    def test_roughly_uniform(self):
        values = lcg_stream(3, 4000, 10)
        counts = [values.count(b) for b in range(10)]
        assert min(counts) > 250 and max(counts) < 550

    def test_bad_mod_rejected(self):
        with pytest.raises(ValueError):
            lcg_stream(1, 5, 0)


class TestScaffolding:
    def build(self, iters=10):
        mb = ModuleBuilder()
        add_result_slots(mb, iters)

        def body(fb):
            value = emit_filler(fb, 8, salt=3)
            mixed = fb.add(value, "i")
            emit_slot_store(fb, mixed)

        standard_region(mb, iters, body)
        return mb.build()

    def test_verifies_and_runs(self):
        module = self.build()
        verify_module(module)
        result = run_module(module)
        assert result.return_value is not None

    def test_reduction_covers_every_slot(self):
        """Changing any epoch's deposit changes the program result."""
        base = run_module(self.build()).return_value
        mb = ModuleBuilder()
        add_result_slots(mb, 10)

        def body(fb):
            value = emit_filler(fb, 8, salt=3)
            mixed = fb.add(value, "i")
            bumped = fb.add(mixed, 1)  # perturb every deposit
            emit_slot_store(fb, bumped)

        standard_region(mb, 10, body)
        assert run_module(mb.build()).return_value != base

    def test_slots_are_a_line_apart(self):
        assert SLOT_STRIDE == 8  # one 32B line in words

    def test_filler_length(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        fb.block("entry")
        emit_filler(fb, 25, salt=1)
        fb.ret(0)
        assert mb.module.function("main").instruction_count() == 25 + 1

    def test_register_validation(self):
        with pytest.raises(ValueError, match="coverage"):
            register(
                Workload(
                    name="bogus",
                    spec_name="x",
                    build=lambda spec: None,
                    train_input=1,
                    ref_input=2,
                    coverage=1.5,
                    seq_overhead=0.9,
                    description="d",
                )
            )

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register(
                Workload(
                    name="go",  # already registered
                    spec_name="x",
                    build=lambda spec: None,
                    train_input=1,
                    ref_input=2,
                    coverage=0.5,
                    seq_overhead=0.9,
                    description="d",
                )
            )

    def test_suite_name_reserved_before_its_module_loads(self):
        """In a fresh process no builder module is loaded yet; a suite
        name registered from elsewhere must still be a duplicate, and
        the real workload must stay the registered one."""
        code = (
            "from repro.workloads.base import Workload, get_workload, register\n"
            "try:\n"
            "    register(Workload(name='go', spec_name='x', build=None,\n"
            "        train_input=1, ref_input=2, coverage=0.5,\n"
            "        seq_overhead=0.9, description='d'))\n"
            "except ValueError as exc:\n"
            "    assert 'duplicate' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('impostor registered as go')\n"
            "assert get_workload('go').spec_name == '099.go'\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        )
