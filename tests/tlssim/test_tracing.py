"""Engine event traces and timeline rendering over typed events."""

from repro.obs.bus import CollectorSink, EventBus
from repro.obs.events import Event
from repro.obs.export import SpanPairer, pair_spans, render_timeline
from repro.tlssim.engine import TLSEngine

from tests.tlssim.conftest import make_counted_loop


def traced_run(module):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(module, obs=bus).run()
    return collector.events, result


def of_kind(events, kind):
    return [e for e in events if e.kind == kind]


def runs(events):
    """(epoch, generation, core, start, end, committed) per closed run."""
    return [
        (start.epoch, start.generation, start.core, start.time, end.time,
         end.kind == "commit")
        for start, end in pair_spans(events)[0]
    ]


def stalls(events):
    """(epoch, generation, core, start, end) per stall.

    ``end`` is None for a stall its run's commit or squash cut short,
    and for one still open when the stream ends.
    """
    pairer = SpanPairer()
    found = []
    for event in events:
        for start, end in pairer.feed(event):
            if start.kind != "epoch_start":
                unblocked = end.kind.endswith("_unblock")
                found.append(
                    (start.epoch, start.generation, start.core, start.time,
                     end.time if unblocked else None)
                )
    for start in pairer.open_stalls.values():
        found.append(
            (start.epoch, start.generation, start.core, start.time, None)
        )
    return found


class TestTracer:
    def test_region_boundaries(self):
        events, _ = traced_run(make_counted_loop(iters=10, filler=20))
        assert len(of_kind(events, "region_start")) == 1
        assert len(of_kind(events, "region_end")) == 1
        start = of_kind(events, "region_start")[0]
        end = of_kind(events, "region_end")[0]
        assert start.time <= end.time

    def test_commit_per_epoch(self):
        events, _ = traced_run(make_counted_loop(iters=10, filler=20))
        commits = of_kind(events, "commit")
        assert sorted(e.epoch for e in commits)[:10] == list(range(10))

    def test_runs_pair_starts_with_ends(self):
        events, _ = traced_run(make_counted_loop(iters=10, filler=20))
        closed = runs(events)
        assert len(closed) >= 10
        for _epoch, _gen, core, start, end, _committed in closed:
            assert 0 <= core < 4
            assert end >= start

    def test_violations_and_squashes_traced(self):
        def body(fb):
            v = fb.load("@shared")
            fb.store("@shared", fb.add(v, 1))

        module = make_counted_loop(
            iters=20, body=body, globals_spec=[("shared", 1, 0)], filler=40
        )
        events, _ = traced_run(module)
        assert of_kind(events, "violation")
        squashed = [r for r in runs(events) if not r[5]]
        assert squashed
        # every squashed generation is eventually recommitted
        committed_epochs = {r[0] for r in runs(events) if r[5]}
        assert set(range(20)) <= committed_epochs

    def test_tracing_does_not_change_results(self):
        module = make_counted_loop(iters=15, filler=25)
        _, traced = traced_run(module)
        plain = TLSEngine(module).run()
        assert traced.return_value == plain.return_value
        assert traced.program_cycles == plain.program_cycles


class TestTimeline:
    def test_renders_rows_per_core(self):
        events, _ = traced_run(make_counted_loop(iters=12, filler=25))
        art = render_timeline(events, width=60)
        lines = art.splitlines()
        assert len(lines) == 5  # header + 4 cores
        assert lines[1].startswith("core 0 |")
        assert "=" in art

    def test_empty_tracer(self):
        assert "no epoch runs" in render_timeline([])

    def test_max_epoch_filter(self):
        events, _ = traced_run(make_counted_loop(iters=12, filler=25))
        short = render_timeline(events, width=60, max_epoch=3)
        full = render_timeline(events, width=60)
        assert short != full

    def test_squashes_drawn_differently(self):
        def body(fb):
            v = fb.load("@shared")
            fb.store("@shared", fb.add(v, 1))

        module = make_counted_loop(
            iters=20, body=body, globals_spec=[("shared", 1, 0)], filler=40
        )
        events, _ = traced_run(module)
        art = render_timeline(events, width=70)
        assert "x" in art and "=" in art


def event(kind, time, epoch, generation, core, **fields):
    return Event(0, kind, time, epoch, generation, core, fields)


#: tie order at one instant: a run opens before its stall, and a stall
#: unblocks before its run ends
_RANK = {"epoch_start": 0, "fwd_stall": 1, "fwd_unblock": 2}


def hand_tracer(runs, stalls=()):
    """An event stream built directly from (epoch, gen, core, start,
    end, committed) run tuples and (epoch, gen, core, start, end)
    stalls — no engine involved, so renderer behaviour is pinned
    exactly.  A stall whose ``end`` is None stays open until its run
    ends."""
    events = []
    for epoch, gen, core, start, end, committed in runs:
        events.append(event("epoch_start", start, epoch, gen, core))
        if committed:
            events.append(event("commit", end, epoch, gen, core))
        else:
            events.append(
                event("squash", end, epoch, gen, core, reason="store")
            )
    for epoch, gen, core, start, end in stalls:
        events.append(event("fwd_stall", start, epoch, gen, core))
        if end is not None:
            events.append(event("fwd_unblock", end, epoch, gen, core))
    events.sort(key=lambda e: (e.time, _RANK.get(e.kind, 3)))
    for seq, each in enumerate(events):
        each.seq = seq
    return events


class TestTimelineDirect:
    """Renderer unit tests over hand-built traces."""

    def test_stall_overdrawn_as_tilde(self):
        events = hand_tracer(
            runs=[(0, 0, 0, 0.0, 100.0, True)],
            stalls=[(0, 0, 0, 25.0, 75.0)],
        )
        art = render_timeline(events, width=40, num_cores=1)
        row = art.splitlines()[1]
        assert "~" in row and "=" in row
        # the stall sits strictly inside the run, not at its edges
        fill = row.split("|")[1]
        assert fill.strip()[0] != "~" and fill.strip()[-1] != "~"

    def test_open_stall_clipped_to_run_end(self):
        events = hand_tracer(
            runs=[(0, 0, 0, 0.0, 50.0, False)],
            stalls=[(0, 0, 0, 40.0, None)],  # squashed mid-stall
        )
        art = render_timeline(events, width=40, num_cores=1)
        assert "~" in art

    def test_stall_outside_run_extent_ignored(self):
        events = hand_tracer(
            runs=[(0, 0, 0, 0.0, 50.0, True)],
            stalls=[(9, 0, 0, 10.0, 20.0)],  # no such run
        )
        assert "~" not in render_timeline(events, width=40, num_cores=1)

    def test_zero_committed_epochs_tolerated(self):
        events = hand_tracer(
            runs=[(0, 0, 0, 0.0, 30.0, False), (1, 0, 1, 5.0, 30.0, False)]
        )
        art = render_timeline(events, width=40, num_cores=2)
        body = "\n".join(art.splitlines()[1:])
        assert "x" in body and "=" not in body

    def test_non_finite_runs_filtered(self):
        events = hand_tracer(runs=[(0, 0, 0, 0.0, 60.0, True)])
        events.append(event("epoch_start", float("-inf"), 1, 0, 1))
        events.append(event("commit", 10.0, 1, 0, 1))
        art = render_timeline(events, width=40, num_cores=2)
        assert art.splitlines()[0].startswith("t=0")

    def test_all_runs_non_finite_yields_placeholder(self):
        events = [
            event("epoch_start", float("-inf"), 0, 0, 0),
            event("commit", float("inf"), 0, 0, 0),
        ]
        assert "no epoch runs" in render_timeline(events)

    def test_num_cores_overrides_row_count(self):
        events = hand_tracer(runs=[(0, 0, 0, 0.0, 10.0, True)])
        art = render_timeline(events, width=40, num_cores=3)
        assert len(art.splitlines()) == 4  # header + 3 cores


class TestStallQuery:
    def test_closed_pair(self):
        events = hand_tracer(
            runs=[(0, 0, 0, 0.0, 100.0, True)],
            stalls=[(0, 0, 0, 10.0, 30.0)],
        )
        assert stalls(events) == [(0, 0, 0, 10.0, 30.0)]

    def test_run_end_closes_open_stall_with_none(self):
        events = [
            event("epoch_start", 0.0, 0, 0, 0),
            event("fwd_stall", 10.0, 0, 0, 0),
            event("squash", 40.0, 0, 0, 0, reason="store"),
        ]
        assert stalls(events) == [(0, 0, 0, 10.0, None)]

    def test_trailing_open_stall_reported(self):
        events = [
            event("epoch_start", 0.0, 0, 0, 0),
            event("fwd_stall", 5.0, 0, 0, 0),
        ]
        assert stalls(events) == [(0, 0, 0, 5.0, None)]
