"""Tests for repro.experiments.scheduler.

Covers the batch runner's job grouping (one group per compile key, in
first-appearance order; spec identity) and the service layer the
daemon builds on: admission control, same-key batching, single-flight
key leases and drain-with-inflight-jobs.
"""

import pytest

from repro.experiments.scheduler import (
    JobScheduler,
    JobSpec,
    QueueFull,
    SchedulerDrained,
    group_specs,
)

# ---------------------------------------------------------------------------
# job grouping
# ---------------------------------------------------------------------------


def test_graph_orders_compile_before_dependents():
    """Every spec lands in the one group of its compile key, so the
    group's compile runs before each of its simulations."""
    specs = [
        JobSpec(workload="go", label="U", program="baseline"),
        JobSpec(workload="go", label="C", program="sync_ref"),
        JobSpec(workload="compress", label="U", program="baseline"),
    ]
    groups = group_specs(specs)
    assert [(w, t) for w, t, _members in groups] == [
        ("go", 0.05), ("compress", 0.05),
    ]
    for workload, threshold, members in groups:
        assert all(spec.key == (workload, threshold) for spec in members)
    assert sorted(
        (spec for _w, _t, members in groups for spec in members), key=specs.index
    ) == specs


def test_graph_shares_compile_node_per_threshold():
    specs = [
        JobSpec(workload="go", label="U", program="baseline"),
        JobSpec(workload="go", label="C", program="sync_ref"),
        JobSpec(workload="go", label="U", program="baseline", threshold=0.2),
    ]
    assert group_specs(specs) == [
        ("go", 0.05, specs[:2]),
        ("go", 0.2, specs[2:]),
    ]


def test_graph_groups_by_compile_key_in_first_appearance_order():
    specs = [
        JobSpec(workload="go", label="U"),
        JobSpec(workload="compress", label="U"),
        JobSpec(workload="go", label="C"),
    ]
    groups = group_specs(specs)
    assert [(w, t, [s.label for s in batch]) for w, t, batch in groups] == [
        ("go", 0.05, ["U", "C"]),
        ("compress", 0.05, ["U"]),
    ]


def test_spec_id_distinguishes_every_field():
    """Spec identity (what the runner dedupes on) tells apart specs
    that differ in any one field, and only those."""
    base = JobSpec(workload="go")
    variants = [
        JobSpec(workload="go", label="U"),
        JobSpec(workload="go", threshold=0.1),
        JobSpec(workload="go", kind="custom"),
        JobSpec(workload="go", program="sync_ref"),
        JobSpec(workload="go", param=0.2),
        JobSpec(workload="go", overrides=(("num_cores", 8),)),
    ]
    assert len(set([base] + variants)) == len(variants) + 1
    assert len(set([base, JobSpec(workload="go")])) == 1


# ---------------------------------------------------------------------------
# JobScheduler: admission, batching, leases, drain
# ---------------------------------------------------------------------------


def test_scheduler_batches_same_key_fifo():
    scheduler = JobScheduler(capacity=10, batch_limit=2)
    scheduler.submit(("go", 0.05), "a")
    scheduler.submit(("go", 0.05), "b")
    scheduler.submit(("go", 0.05), "c")
    key, batch = scheduler.next_batch()
    assert key == ("go", 0.05)
    assert batch == ["a", "b"]  # FIFO, capped at batch_limit
    assert scheduler.queued == 1
    assert scheduler.inflight == 2


def test_scheduler_single_flight_lease_per_key():
    scheduler = JobScheduler(capacity=10, batch_limit=16)
    scheduler.submit(("go", 0.05), "a")
    key, batch = scheduler.next_batch()
    assert batch == ["a"]
    # A token arriving while the key is leased must NOT be handed out:
    # the cold compile for the key is already running.
    scheduler.submit(("go", 0.05), "b")
    assert scheduler.next_batch() is None
    scheduler.complete(key)
    key2, batch2 = scheduler.next_batch()
    assert (key2, batch2) == (key, ["b"])


def test_scheduler_leases_other_keys_while_one_is_busy():
    scheduler = JobScheduler(capacity=10)
    scheduler.submit(("go", 0.05), "a")
    scheduler.submit(("compress", 0.05), "b")
    key1, _ = scheduler.next_batch()
    key2, _ = scheduler.next_batch()
    assert {key1, key2} == {("go", 0.05), ("compress", 0.05)}
    assert scheduler.next_batch() is None
    assert set(scheduler.leased_keys) == {key1, key2}


def test_scheduler_queue_full_counts_only_unleased():
    scheduler = JobScheduler(capacity=2)
    scheduler.submit("k", 1)
    scheduler.submit("k", 2)
    with pytest.raises(QueueFull):
        scheduler.submit("k", 3)
    # Leasing frees queue capacity (the tokens became in-flight).
    scheduler.next_batch()
    scheduler.submit("k", 3)
    assert scheduler.queued == 1
    assert scheduler.inflight == 2


def test_scheduler_drain_with_inflight_jobs():
    scheduler = JobScheduler(capacity=10)
    scheduler.submit("k", 1)
    scheduler.submit("k", 2)
    key, batch = scheduler.next_batch()
    assert batch == [1, 2]
    scheduler.drain()
    with pytest.raises(SchedulerDrained):
        scheduler.submit("k", 3)
    # In-flight work keeps the scheduler busy until completed.
    assert not scheduler.idle()
    scheduler.complete(key)
    assert scheduler.idle()


def test_scheduler_drain_flushes_queued_work():
    scheduler = JobScheduler(capacity=10)
    scheduler.submit("a", 1)
    scheduler.submit("b", 2)
    scheduler.drain()
    served = []
    while True:
        leased = scheduler.next_batch()
        if leased is None:
            break
        served.extend(leased[1])
        scheduler.complete(leased[0])
    assert served == [1, 2]
    assert scheduler.idle()


def test_scheduler_complete_requires_lease():
    scheduler = JobScheduler()
    with pytest.raises(KeyError):
        scheduler.complete("nope")
