"""``SlotLedger``: the slot partition of one region, driven by hand.

The engine and ``repro analyze`` both feed the ledger; these tests pin
its arithmetic on small regions whose every slot is worked out here.
All times are dyadic, so every sum below is exact.
"""

from repro.tlssim.stats import SlotLedger

WIDTH = 4


def _commit(ledger, core, start, done, eff, end, busy=0.0, sync_scalar=0.0,
            sync_mem=0.0, sync_hw=0.0, sync_lmode=0.0, mem_stall=0.0):
    ledger.commit(
        core=core, start=start, done=done, eff=eff, end=end, busy=busy,
        sync_scalar=sync_scalar, sync_mem=sync_mem, sync_hw=sync_hw,
        sync_lmode=sync_lmode, mem_stall=mem_stall,
    )


def test_hand_driven_region_partitions_every_slot():
    ledger = SlotLedger(start=10.0, num_cores=2, issue_width=WIDTH)
    _commit(ledger, 0, start=12.0, done=20.0, eff=22.0, end=23.0, busy=16.0,
            sync_scalar=1.0, sync_mem=0.5, sync_hw=1.0, sync_lmode=0.25,
            mem_stall=2.0)
    consumed = ledger.squash(core=1, start=11.0, clock=15.0, time=16.0,
                             cause="store")
    _commit(ledger, 1, start=18.0, done=25.0, eff=25.0, end=26.0, busy=20.0)
    causes = ledger.finalize(30.0)
    assert consumed == (15.0 - 11.0) * WIDTH
    assert causes == {
        "busy": 16.0 + 20.0,
        "commit_flush": (23.0 - 22.0) * WIDTH + (26.0 - 25.0) * WIDTH,
        "commit_token": (22.0 - 20.0) * WIDTH,
        # (done - start) * width - busy - sync - mem_stall, per commit
        "exec_latency": (32.0 - 16.0 - 10.0 - 2.0) + (28.0 - 20.0),
        "fail.store": 16.0,
        "idle.drain": (30.0 - 23.0) * WIDTH + (30.0 - 26.0) * WIDTH,
        "idle.ramp": (12.0 - 10.0) * WIDTH + (11.0 - 10.0) * WIDTH,
        "idle.recovery": (18.0 - 16.0) * WIDTH,
        "mem_stall": 2.0,
        "squash_stall": (16.0 - 11.0) * WIDTH - 16.0,
        "sync.hw": 0.75 * WIDTH,
        "sync.lmode": 0.25 * WIDTH,
        "sync.mem": 0.5 * WIDTH,
        "sync.scalar": 1.0 * WIDTH,
    }
    assert list(causes) == sorted(causes)
    assert sum(causes.values()) == (30.0 - 10.0) * WIDTH * 2


def test_core_that_never_hosts_an_epoch_is_no_thread():
    ledger = SlotLedger(start=0.0, num_cores=3, issue_width=WIDTH)
    _commit(ledger, 0, start=0.0, done=8.0, eff=8.0, end=8.0, busy=32.0)
    causes = ledger.finalize(10.0)
    assert causes["idle.no_thread"] == 2 * 10.0 * WIDTH
    assert causes["idle.drain"] == 2.0 * WIDTH
    assert sum(causes.values()) == 10.0 * WIDTH * 3


def test_squash_before_start_and_cursor_is_clamped():
    ledger = SlotLedger(start=0.0, num_cores=1, issue_width=WIDTH)
    _commit(ledger, 0, start=0.0, done=16.0, eff=16.0, end=20.0, busy=64.0)
    # A successor spawned at 21 is squashed at 19, before its own start
    # and before the previous occupant's flush ended at 20.
    assert ledger.squash(core=0, start=21.0, clock=21.0, time=19.0,
                         cause="store") == 0.0
    assert ledger.cursor == [20.0]
    assert ledger.gap == ["recovery"]
    # A squash before the cursor but after the run's start still
    # returns the slots the run consumed; the interval stays clamped.
    assert ledger.squash(core=0, start=18.0, clock=19.0, time=19.5,
                         cause="commit") == (19.0 - 18.0) * WIDTH
    assert ledger.cursor == [20.0]
    causes = ledger.finalize(24.0)
    assert "idle.spawn" not in causes and "idle.recovery" not in causes
    assert causes["fail.commit"] == 4.0
    assert causes["squash_stall"] == -4.0
    assert causes["idle.drain"] == 4.0 * WIDTH
    assert sum(causes.values()) == 24.0 * WIDTH


def test_commit_after_the_token_wait_is_commit_token():
    ledger = SlotLedger(start=0.0, num_cores=1, issue_width=WIDTH)
    _commit(ledger, 0, start=0.0, done=6.0, eff=9.0, end=10.0, busy=24.0)
    causes = ledger.finalize(10.0)
    assert causes == {
        "busy": 24.0,
        "commit_flush": 1.0 * WIDTH,
        "commit_token": 3.0 * WIDTH,
    }
