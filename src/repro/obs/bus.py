"""The event bus: fan-out from the engine to attached sinks.

Design constraints, in priority order:

1. **Zero cost when absent.**  The engine holds ``obs = None`` by
   default and guards every emission with one ``is not None`` check;
   no bus, sink or event object is ever allocated on that path
   (``tests/obs/test_bus.py`` counts :class:`Event` constructions on a
   detached run).
2. **Path equivalence.**  All emission points live in engine code that
   executes in identical global order on the slow and fast paths, so
   an attached bus observes byte-identical streams from both.
3. **Ambient time.**  Module-level emitters (the cache hierarchy, the
   violating-load table, the predictor) have no clock of their own;
   the engine keeps :attr:`EventBus.now` current at every shared-state
   operation and ``emit`` stamps events with it when no explicit time
   is passed.

A *sink* is anything with an ``on_event(event)`` method, such as
:class:`CollectorSink` (whose stream every exporter reads) or
:class:`repro.obs.registry.MetricsSink`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.events import ENVELOPE_KEYS, Event


class EventBus:
    """Dispatches :class:`Event` objects to attached sinks in order."""

    __slots__ = ("now", "_sinks", "_seq")

    def __init__(self):
        #: ambient simulated time, kept current by the engine; used for
        #: emissions that do not pass an explicit ``time``
        self.now: float = 0.0
        self._sinks: List = []
        self._seq = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, sink):
        """Attach ``sink`` (any object with ``on_event``); returns it."""
        if not hasattr(sink, "on_event"):
            raise TypeError(
                f"sink {sink!r} has no on_event method"
            )
        self._sinks.append(sink)
        return sink

    def detach(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        kind: str,
        time: Optional[float] = None,
        epoch: int = -1,
        generation: int = 0,
        core: int = -1,
        **fields,
    ) -> Event:
        """Create an event and deliver it to every sink, in order."""
        for key in fields:
            if key in ENVELOPE_KEYS:
                raise ValueError(
                    f"event field {key!r} shadows an envelope key"
                )
        self._seq += 1
        event = Event(
            seq=self._seq,
            kind=kind,
            time=self.now if time is None else time,
            epoch=epoch,
            generation=generation,
            core=core,
            fields=fields,
        )
        for sink in self._sinks:
            sink.on_event(event)
        return event


class CollectorSink:
    """Appends every event to a list (the workhorse test/export sink)."""

    def __init__(self):
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, *kinds: str) -> List[Event]:
        wanted = frozenset(kinds)
        return [e for e in self.events if e.kind in wanted]

    def __len__(self) -> int:
        return len(self.events)
