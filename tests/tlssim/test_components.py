"""Simulator components: caches, channels, SAB, hw table, predictor."""

import pytest

from repro.tlssim.cache import CacheHierarchy, LRUCache
from repro.experiments.runner import config_for
from repro.tlssim.config import TABLE1, SimConfig
from repro.tlssim.forwarding import ChannelBank, SignalAddressBuffer
from repro.tlssim.hwsync import ViolatingLoadTable
from repro.tlssim.prediction import LastValuePredictor
from repro.tlssim.stats import SimResult, SlotBreakdown, normalized_region_time, RegionStats


class TestLRUCache:
    def test_hit_after_fill(self):
        cache = LRUCache(4)
        assert not cache.access(1)
        assert cache.access(1)

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # 1 becomes most recent
        cache.access(3)  # evicts 2
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_counters(self):
        cache = LRUCache(2)
        cache.access(1)
        cache.access(1)
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidate(self):
        cache = LRUCache(2)
        cache.access(1)
        cache.invalidate(1)
        assert not cache.contains(1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestCacheHierarchy:
    def test_latency_ladder(self):
        config = SimConfig()
        caches = CacheHierarchy(config)
        first = caches.access(0, 7)
        second = caches.access(0, 7)
        assert first == config.lat_mem  # cold miss
        assert second == config.lat_l1  # now resident

    def test_l2_shared_between_cores(self):
        config = SimConfig()
        caches = CacheHierarchy(config)
        caches.access(0, 7)  # fills L2 (and core 0 L1)
        assert caches.access(1, 7) == config.lat_l2

    def test_line_mapping(self):
        caches = CacheHierarchy(SimConfig())
        assert caches.line_of(0) == 0
        assert caches.line_of(8) == 1


class TestChannelBank:
    def test_fifo_per_kind(self):
        bank = ChannelBank(forward_latency=10.0)
        bank.send("ch", 1, "value", 11, time=5.0, producer_epoch=0, generation=0)
        bank.send("ch", 1, "addr", 99, time=6.0, producer_epoch=0, generation=0)
        bank.send("ch", 1, "value", 22, time=7.0, producer_epoch=0, generation=0)
        assert bank.peek("ch", 1, "value", 0).payload == 11
        assert bank.peek("ch", 1, "value", 1).payload == 22
        assert bank.peek("ch", 1, "addr", 0).payload == 99
        assert bank.peek("ch", 1, "value", 2) is None

    def test_arrival_time_adds_latency(self):
        bank = ChannelBank(forward_latency=10.0)
        message = bank.send("ch", 1, "value", 1, 5.0, 0, 0)
        assert bank.arrival_time(message) == 15.0

    def test_seed_arrives_immediately(self):
        bank = ChannelBank(forward_latency=10.0)
        bank.seed("ch", 0, "value", 42)
        message = bank.peek("ch", 0, "value", 0)
        assert bank.arrival_time(message) == float("-inf")

    def test_replace_last(self):
        bank = ChannelBank(forward_latency=1.0)
        bank.send("ch", 1, "addr", 5, 1.0, 0, 0)
        bank.send("ch", 1, "value", 10, 1.0, 0, 0)
        replaced = bank.replace_last("ch", 1, "value", 20, 2.0)
        assert replaced.payload == 10
        assert bank.peek("ch", 1, "value", 0).payload == 20
        assert bank.peek("ch", 1, "addr", 0).payload == 5

    def test_replace_missing_returns_none(self):
        bank = ChannelBank(forward_latency=1.0)
        assert bank.replace_last("ch", 1, "value", 20, 2.0) is None

    def test_withdraw_generation(self):
        bank = ChannelBank(forward_latency=1.0)
        bank.send("ch", 1, "value", 1, 1.0, 0, 0)
        bank.send("ch", 1, "value", 2, 2.0, 0, 1)
        bank.withdraw_generation(0, 0)
        assert bank.peek("ch", 1, "value", 0).payload == 2
        assert bank.peek("ch", 1, "value", 1) is None


class TestSignalAddressBuffer:
    def test_record_and_lookup(self):
        sab = SignalAddressBuffer(4)
        sab.record(100, "ch0")
        assert sab.channel_for(100) == "ch0"
        assert sab.channel_for(101) is None

    def test_null_not_recorded(self):
        sab = SignalAddressBuffer(4)
        sab.record(0, "ch0")
        assert len(sab) == 0

    def test_high_water(self):
        sab = SignalAddressBuffer(4)
        for addr in (1, 2, 3):
            sab.record(addr, "ch")
        assert sab.high_water == 3

    def test_overflow_flagged(self):
        sab = SignalAddressBuffer(2)
        for addr in (1, 2, 3):
            sab.record(addr, "ch")
        assert sab.overflowed

    def test_clear(self):
        sab = SignalAddressBuffer(2)
        sab.record(1, "ch")
        sab.clear()
        assert sab.channel_for(1) is None


class TestViolatingLoadTable:
    def test_threshold(self):
        table = ViolatingLoadTable(threshold=2)
        table.record_violation(5)
        assert not table.should_synchronize(5)
        table.record_violation(5)
        assert table.should_synchronize(5)

    def test_is_tracked_before_threshold(self):
        table = ViolatingLoadTable(threshold=2)
        table.record_violation(5)
        assert table.is_tracked(5)
        assert not table.is_tracked(6)

    def test_lru_eviction(self):
        table = ViolatingLoadTable(size=2, threshold=1)
        table.record_violation(1)
        table.record_violation(2)
        table.record_violation(1)  # refresh 1
        table.record_violation(3)  # evicts 2
        assert table.is_tracked(1)
        assert not table.is_tracked(2)
        assert table.is_tracked(3)

    def test_periodic_reset(self):
        table = ViolatingLoadTable(threshold=1, reset_interval=3)
        table.record_violation(7)
        for _ in range(3):
            table.on_commit()
        assert not table.is_tracked(7)
        assert table.resets == 1

    def test_none_ignored(self):
        table = ViolatingLoadTable()
        table.record_violation(None)
        assert len(table) == 0
        assert not table.should_synchronize(None)


class TestLastValuePredictor:
    def test_needs_confidence(self):
        predictor = LastValuePredictor(confidence_threshold=2)
        predictor.train(1, 42)
        assert predictor.predict(1) is None
        predictor.train(1, 42)
        predictor.train(1, 42)
        assert predictor.predict(1) == 42

    def test_changing_values_reset_confidence(self):
        predictor = LastValuePredictor(confidence_threshold=1)
        predictor.train(1, 10)
        predictor.train(1, 10)
        assert predictor.predict(1) == 10
        predictor.train(1, 11)  # value changed
        assert predictor.predict(1) is None

    def test_outcome_counters(self):
        predictor = LastValuePredictor()
        predictor.record_outcome(True)
        predictor.record_outcome(False)
        assert predictor.predictions_used == 2
        assert predictor.mispredictions == 1

    def test_lru_bound(self):
        predictor = LastValuePredictor(size=2)
        for iid in (1, 2, 3):
            predictor.train(iid, 0)
        assert len(predictor) == 2


class TestConfig:
    def test_with_mode_returns_copy(self):
        base = SimConfig()
        variant = base.with_mode(hw_sync=True)
        assert variant.hw_sync and not base.hw_sync

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_cores=0)
        with pytest.raises(ValueError):
            SimConfig(oracle_mode="bogus")

    def test_config_for_bar(self):
        assert config_for("O").oracle_mode == "all"
        assert config_for("E").oracle_mode == "sync"
        assert config_for("H").hw_sync
        assert config_for("P").prediction
        assert config_for("L").l_mode_stall
        assert config_for("U") == SimConfig()
        with pytest.raises(ValueError):
            config_for("Z")

    def test_hashable_for_memoization(self):
        assert hash(SimConfig()) == hash(SimConfig())

    def test_table1_consistent_with_config(self):
        from repro.experiments.table1_config import verify

        assert verify() == []

    def test_table1_has_memory_rows(self):
        assert "Cache Line Size" in TABLE1


class TestStats:
    def test_other_is_remainder(self):
        slots = SlotBreakdown(busy=10, fail=5, sync=5, total=30)
        assert slots.other == 10

    def test_other_never_negative(self):
        slots = SlotBreakdown(busy=40, fail=0, sync=0, total=30)
        assert slots.other == 0

    def test_normalized_segments_sum_to_scale(self):
        slots = SlotBreakdown(busy=10, fail=20, sync=5, total=50)
        segments = slots.normalized(80.0)
        assert abs(sum(segments.values()) - 80.0) < 1e-9

    def test_normalized_region_time(self):
        parallel = SimResult(return_value=0, program_cycles=100)
        parallel.regions.append(
            RegionStats(function="f", header="h", start_time=0, end_time=50)
        )
        parallel.regions[0].slots.total = 800
        parallel.regions[0].slots.busy = 400
        sequential = SimResult(return_value=0, program_cycles=200)
        sequential.regions.append(
            RegionStats(function="f", header="h", start_time=0, end_time=100)
        )
        time, segments = normalized_region_time(parallel, sequential)
        assert time == 50.0
        assert segments["busy"] == 25.0


class TestSimResultExport:
    def test_to_dict_round_trips_through_json(self):
        import json

        from repro.tlssim.sequential import simulate_tls
        from tests.tlssim.conftest import make_counted_loop

        result = simulate_tls(make_counted_loop(iters=6, filler=10))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["return_value"] == result.return_value
        region = payload["regions"][0]
        assert region["epochs_committed"] == 6
        assert region["slots"]["total"] > 0
