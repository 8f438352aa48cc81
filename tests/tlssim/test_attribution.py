"""The accounting identity: every graduation slot has a named cause.

``RegionStats.attribution`` must sum *exactly* (float-equal, no
epsilon — all simulated times are dyadic rationals) to
``slots.total`` on every workload under every scheme, and the named
categories must be consistent with the coarse busy/fail/sync
breakdown.  Fast/slow attribution equality is already pinned by
``test_event_stream.py`` via ``SimResult.to_state()``.
"""

import warnings

import pytest

from repro.experiments.runner import bundle_for
from repro.tlssim.stats import (
    AccountingWarning,
    SimResult,
    SlotBreakdown,
    normalized_attribution,
)
from repro.workloads import all_workloads

WORKLOADS = tuple(w.name for w in all_workloads())
#: one bar per engine subsystem family (plain, compiler sync, hw sync,
#: hybrid, conservative l-mode) — the squash/sync/idle emission sites
BARS = ("U", "C", "H", "B", "L")


@pytest.mark.parametrize("name", WORKLOADS)
def test_identity_every_workload(name):
    bundle = bundle_for(name)
    for bar in BARS:
        result = bundle.simulate(bar)
        for region in result.regions:
            attr = region.attribution
            assert sum(attr.values()) == region.slots.total, (
                f"{name}/{bar}: attribution does not sum to total"
            )
            assert all(v >= 0.0 for v in attr.values()), (
                f"{name}/{bar}: negative category: "
                f"{ {k: v for k, v in attr.items() if v < 0} }"
            )
            fail = sum(v for k, v in attr.items() if k.startswith("fail."))
            assert fail == region.slots.fail, (
                f"{name}/{bar}: fail.* != slots.fail"
            )
            sync = sum(v for k, v in attr.items() if k.startswith("sync."))
            assert sync == region.slots.sync, (
                f"{name}/{bar}: sync.* != slots.sync"
            )
            assert attr.get("busy", 0.0) == region.slots.busy


def test_sequential_region_is_all_seq():
    result = bundle_for("go").simulate("SEQ")
    assert result.regions
    for region in result.regions:
        assert set(region.attribution) == {"seq"}
        assert region.attribution["seq"] == region.slots.total


def test_attribution_survives_state_round_trip():
    result = bundle_for("go").simulate("C")
    restored = SimResult.from_state(result.to_state())
    assert [r.attribution for r in restored.regions] == [
        r.attribution for r in result.regions
    ]


def test_merged_attribution_sums_regions():
    result = bundle_for("go").simulate("C")
    merged = result.merged_attribution()
    assert sum(merged.values()) == sum(
        r.slots.total for r in result.regions
    )


def test_normalized_attribution_matches_bar_height():
    from repro.tlssim.stats import normalized_region_time

    bundle = bundle_for("go")
    parallel = bundle.simulate("C")
    sequential = bundle.simulate("SEQ")
    height, _segments = normalized_region_time(parallel, sequential)
    normalized = normalized_attribution(parallel, sequential)
    assert sum(normalized.values()) == pytest.approx(height)


def test_counters_carry_attribution_gauges():
    result = bundle_for("go").simulate("C")
    slot_gauges = {
        k: v for k, v in result.counters.items() if k.startswith("slots{")
    }
    assert slot_gauges, "engine_counters lost the attribution gauges"
    assert sum(slot_gauges.values()) == sum(
        r.slots.total for r in result.regions
    )
    assert result.counters["slots_unattributed"] == 0.0
    assert result.counters["slots_imbalance"] == 0.0


class TestStrictAccounting:
    def test_strict_mode_warns_on_imbalance(self):
        slots = SlotBreakdown(busy=60.0, fail=30.0, sync=30.0, total=100.0)
        with pytest.warns(AccountingWarning):
            assert slots.other == 0.0  # clamped for rendering
        assert slots.unattributed == -20.0
        assert slots.imbalance == 20.0

    def test_strict_mode_silent_when_balanced(self):
        slots = SlotBreakdown(busy=40.0, fail=30.0, sync=20.0, total=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert slots.other == 10.0
        assert slots.imbalance == 0.0

    def test_suite_turns_the_warning_into_an_error(self):
        slots = SlotBreakdown(busy=60.0, fail=30.0, sync=30.0, total=100.0)
        with pytest.raises(AccountingWarning):
            slots.other
