"""Machine-model parameterization: validation, threading, fallbacks.

The sweep lab leans on :class:`MachineConfig` rejecting nonsense
configurations *before* any simulation runs, with messages precise
enough to act on — each rejection here pins its message.  The
threading tests check the machine slice actually reaches the engine's
subsystems (caches, forwarding, SAB), and the dyadic-gate test pins
the satellite rule that a non-power-of-two issue width *falls back*
to the tuple backend instead of raising.
"""

import pytest

from repro.tlssim.config import (
    MACHINE_FIELDS,
    PAPER_MACHINE,
    MachineConfig,
    SimConfig,
)
from repro.tlssim.engine import TLSEngine
from repro.tlssim.forwarding import SignalAddressBuffer


class TestMachineConfigValidation:
    def test_default_is_the_paper_machine(self):
        machine = MachineConfig()
        assert machine.num_cores == 4
        assert machine.issue_width == 4
        assert machine.signal_buffer_entries == 10
        assert machine == PAPER_MACHINE

    @pytest.mark.parametrize("cores", (0, -1, 65))
    def test_core_count_bounds(self, cores):
        with pytest.raises(ValueError, match="num_cores must be between"):
            MachineConfig(num_cores=cores)
        with pytest.raises(ValueError, match=f"got {cores}"):
            MachineConfig(num_cores=cores)

    def test_zero_size_signal_buffer(self):
        with pytest.raises(
            ValueError, match="signal_buffer_entries must be >= 1"
        ):
            MachineConfig(signal_buffer_entries=0)

    def test_non_power_of_two_cache_line(self):
        with pytest.raises(ValueError, match="must be a power of two"):
            MachineConfig(words_per_line=6)

    @pytest.mark.parametrize("lines_field", ("l1_lines", "l2_lines"))
    def test_cache_needs_at_least_one_line(self, lines_field):
        with pytest.raises(ValueError, match=f"{lines_field} must be >= 1"):
            MachineConfig(**{lines_field: 0})

    @pytest.mark.parametrize("name,value", (
        ("num_cores", 2.5), ("reorder_buffer", 64.5), ("words_per_line", 8.0),
        ("l1_lines", 3.5), ("l2_lines", 1024.25),
        ("signal_buffer_entries", 4.5),
    ))
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError) as caught:
            MachineConfig(**{name: value})
        assert str(caught.value) == f"{name} must be an integer (got {value!r})"

    def test_negative_latency(self):
        with pytest.raises(ValueError, match="lat_l1 must be >= 0"):
            MachineConfig(lat_l1=-1)

    def test_non_power_of_two_issue_width_is_legal(self):
        # the vector backend falls back for these; validation lets
        # them through so the tuple backend can model them
        machine = MachineConfig(issue_width=3)
        assert machine.issue_width == 3
        with pytest.raises(ValueError, match="issue_width must be >= 1"):
            MachineConfig(issue_width=0)

    def test_simconfig_validates_its_machine_slice(self):
        with pytest.raises(ValueError, match="num_cores must be between"):
            SimConfig(num_cores=0)
        with pytest.raises(
            ValueError, match=r"num_cores must be an integer \(got 2.5\)"
        ):
            SimConfig(num_cores=2.5)
        with pytest.raises(
            ValueError, match="signal_buffer_entries must be >= 1"
        ):
            SimConfig(signal_buffer_entries=0)

    def test_round_trip_through_simconfig(self):
        machine = MachineConfig(num_cores=8, signal_buffer_entries=4)
        config = SimConfig().with_machine(machine)
        assert config.machine == machine
        assert MachineConfig.from_config(config) == machine
        # non-machine fields unchanged
        assert config.prediction == SimConfig().prediction

    def test_machine_fields_cover_the_dataclass(self):
        assert set(MACHINE_FIELDS) == {
            name for name in MachineConfig.__dataclass_fields__
        }
        # every machine field exists on SimConfig under the same name
        default = SimConfig()
        for name in MACHINE_FIELDS:
            assert hasattr(default, name)

    def test_machine_property_is_idempotent(self):
        machine = MachineConfig(num_cores=2)
        assert machine.machine is machine


class TestSignalAddressBufferCapacity:
    @pytest.mark.parametrize("capacity", (0, -3))
    def test_rejects_zero_or_negative_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            SignalAddressBuffer(capacity)

    def test_for_machine_uses_the_configured_entries(self):
        sab = SignalAddressBuffer.for_machine(
            MachineConfig(signal_buffer_entries=3)
        )
        assert sab.capacity == 3


class TestMachineThreading:
    """The machine slice must actually reach the engine subsystems."""

    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.experiments.runner import bundle_for

        return bundle_for("go")

    def test_engine_holds_the_machine_slice(self, bundle):
        config = SimConfig(num_cores=2, signal_buffer_entries=4)
        engine = TLSEngine(
            bundle.program("U"), config=config, parallel=True
        )
        assert engine.machine.num_cores == 2
        assert engine.machine.signal_buffer_entries == 4
        assert engine.caches.machine.num_cores == 2

    def test_core_count_changes_the_schedule(self, bundle):
        program = bundle.program("U")
        results = {
            cores: TLSEngine(
                program, config=SimConfig(num_cores=cores), parallel=True
            ).run().program_cycles
            for cores in (1, 2, 4)
        }
        assert len(set(results.values())) > 1, (
            f"core count had no effect: {results}"
        )

    def test_sab_capacity_changes_behavior_or_is_benign(self, bundle):
        """A 1-entry SAB must simulate; usually it costs cycles."""
        program = bundle.program("C")
        tiny = TLSEngine(
            program, config=SimConfig(signal_buffer_entries=1),
            parallel=True,
        ).run()
        default = TLSEngine(
            program, config=SimConfig(), parallel=True
        ).run()
        assert tiny.program_cycles >= default.program_cycles

    def test_non_power_of_two_issue_width_falls_back_not_raises(
        self, bundle
    ):
        from repro.ir import lower as lower_mod

        config = SimConfig(
            issue_width=3, fast_path=True, backend="vector"
        )
        reason = lower_mod.unavailable_reason(config)
        assert reason is not None and "issue width" in reason
        engine = TLSEngine(bundle.program("U"), config=config, parallel=True)
        assert engine.backend == "tuples"
        tuples = TLSEngine(
            bundle.program("U"),
            config=config.with_mode(backend="tuples"),
            parallel=True,
        ).run()
        assert engine.run().to_state() == tuples.to_state()
