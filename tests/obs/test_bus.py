"""Event bus semantics: envelopes, ambient time, sinks."""

import pytest

from repro.experiments.runner import bundle_for, config_for
from repro.obs.bus import CollectorSink, EventBus
from repro.obs.events import ENVELOPE_KEYS, EPOCH_KINDS, KINDS, Event
from repro.tlssim.engine import TLSEngine


class TestEventTaxonomy:
    def test_every_kind_has_category_and_fields(self):
        for kind, (category, fields, doc) in KINDS.items():
            assert category in (
                "epoch", "fwd", "sab", "hwsync", "pred", "cache"
            ), kind
            assert isinstance(fields, tuple), kind
            assert doc, f"{kind} has no doc string"

    def test_epoch_kinds_subset(self):
        assert "epoch_start" in EPOCH_KINDS
        assert "commit" in EPOCH_KINDS
        assert "violation" in EPOCH_KINDS
        assert "cache_miss" not in EPOCH_KINDS
        assert EPOCH_KINDS <= set(KINDS)

    def test_payload_fields_never_shadow_envelope(self):
        for kind, (_category, fields, _doc) in KINDS.items():
            assert not set(fields) & set(ENVELOPE_KEYS), kind

    def test_event_round_trips_through_dict(self):
        event = Event(
            seq=7, kind="violation", time=12.5, epoch=3, generation=1,
            core=2, fields={"reason": "store", "load_iid": 9, "unit": 1},
        )
        clone = Event.from_dict(event.to_dict())
        assert clone == event

    def test_key_ignores_seq(self):
        a = Event(seq=1, kind="commit", time=5.0, epoch=0)
        b = Event(seq=99, kind="commit", time=5.0, epoch=0)
        assert a.key() == b.key()


class TestEventBus:
    def test_emit_delivers_to_sinks_in_order(self):
        bus = EventBus()
        first, second = bus.attach(CollectorSink()), bus.attach(CollectorSink())
        bus.emit("commit", 10.0, epoch=0)
        assert len(first) == len(second) == 1
        assert first.events[0].kind == "commit"

    def test_seq_is_monotonic(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        for _ in range(5):
            bus.emit("commit", 1.0, epoch=0)
        assert [e.seq for e in collector.events] == [1, 2, 3, 4, 5]

    def test_ambient_now_stamps_time(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.now = 42.5
        bus.emit("cache_miss", level="l2", line=7)
        assert collector.events[0].time == 42.5

    def test_explicit_time_wins_over_now(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.now = 42.5
        bus.emit("commit", 50.0, epoch=1)
        assert collector.events[0].time == 50.0

    def test_envelope_shadowing_rejected(self):
        bus = EventBus()
        bus.attach(CollectorSink())
        with pytest.raises(ValueError):
            bus.emit("commit", 1.0, seq=5)

    def test_attach_requires_on_event(self):
        with pytest.raises(TypeError):
            EventBus().attach(object())

    def test_detach(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.detach(collector)
        bus.emit("commit", 1.0, epoch=0)
        assert len(collector) == 0

    def test_of_kind_filter(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.emit("commit", 1.0, epoch=0)
        bus.emit("squash", 2.0, epoch=1, reason="store")
        bus.emit("commit", 3.0, epoch=1)
        assert [e.time for e in collector.of_kind("commit")] == [1.0, 3.0]


#: The three engine paths: the slow oracle, per-op tuples, fused kernels.
ENGINE_MODES = {
    "slow": {"fast_path": False},
    "tuples": {"fast_path": True, "backend": "tuples"},
    "vector": {"fast_path": True, "backend": "vector"},
}


class TestDetachedBus:
    """Zero cost when absent: a detached engine builds no event at all."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every :class:`Event` constructed while the test runs."""
        events = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            events.append(self)

        monkeypatch.setattr(Event, "__init__", counting_init)
        return events

    @pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
    def test_detached_run_builds_no_events(self, mode, built):
        program = bundle_for("go").program("C")
        config = config_for("C").with_mode(**ENGINE_MODES[mode])

        TLSEngine(program, config=config, parallel=True, obs=None).run()
        assert built == []

        # Positive control: the same run with a bus attached builds
        # exactly the events its collector receives.
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        TLSEngine(program, config=config, parallel=True, obs=bus).run()
        assert collector.events
        assert built == collector.events
