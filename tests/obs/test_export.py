"""Exporters: JSONL round-trip, Chrome trace validity, HTML report."""

import json

import pytest

from repro.obs.bus import CollectorSink, EventBus
from repro.obs.events import Event
from repro.obs.export import (
    chrome_trace,
    html_report,
    jsonl_lines,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.tlssim.engine import TLSEngine

from tests.tlssim.conftest import make_counted_loop


def traced_events(module=None):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    engine = TLSEngine(
        module or make_counted_loop(iters=12, filler=25), obs=bus
    )
    engine.run()
    return collector.events


def violating_module():
    def body(fb):
        v = fb.load("@shared")
        fb.store("@shared", fb.add(v, 1))

    return make_counted_loop(
        iters=20, body=body, globals_spec=[("shared", 1, 0)], filler=40
    )


class TestJsonl:
    def test_round_trip(self, tmp_path):
        events = traced_events()
        path = str(tmp_path / "events.jsonl")
        write_jsonl(events, path, meta={"workload": "t"})
        header, loaded = read_jsonl(path)
        assert header["schema"] == 1
        assert header["stream"] == "repro.obs.events"
        assert header["workload"] == "t"
        assert loaded == events

    def test_every_line_is_valid_json(self):
        events = traced_events()
        for line in jsonl_lines(events):
            json.loads(line)

    def test_rejects_foreign_stream(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"stream": "not-ours", "schema": 1}\n')
        with pytest.raises(ValueError):
            read_jsonl(str(path))

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"stream": "repro.obs.events", "schema": 99}\n')
        with pytest.raises(ValueError):
            read_jsonl(str(path))


class TestChromeTrace:
    def test_valid_payload(self):
        payload = chrome_trace(traced_events(), num_cores=4)
        assert validate_chrome_trace(payload) == []

    def test_valid_with_violations(self):
        payload = chrome_trace(traced_events(violating_module()), num_cores=4)
        assert validate_chrome_trace(payload) == []
        instants = [
            e for e in payload["traceEvents"] if e.get("ph") == "i"
        ]
        assert any("violation" in e["name"] for e in instants)

    def test_epoch_slices_land_on_their_core_track(self):
        payload = chrome_trace(traced_events(), num_cores=4)
        slices = [
            e for e in payload["traceEvents"]
            if e.get("ph") == "X" and e["name"].startswith("epoch ")
        ]
        assert slices
        for entry in slices:
            epoch = int(entry["name"].split()[1])
            assert entry["tid"] == epoch % 4

    def test_per_track_ts_monotonic(self):
        payload = chrome_trace(traced_events(violating_module()), num_cores=4)
        last = {}
        for entry in payload["traceEvents"]:
            if entry.get("ph") != "X":
                continue
            key = (entry["pid"], entry["tid"])
            assert entry["ts"] >= last.get(key, float("-inf"))
            last[key] = entry["ts"]

    def test_flow_arrows_pair_up(self):
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.emit("fwd_send", 1.0, epoch=0, channel="ch", msg_kind="value",
                 payload=7, consumer=1)
        bus.emit("fwd_wait", 3.0, epoch=1, channel="ch", msg_kind="value",
                 payload=7)
        payload = chrome_trace(collector.events, num_cores=4)
        assert validate_chrome_trace(payload) == []
        flows = [e for e in payload["traceEvents"] if e.get("ph") in ("s", "f")]
        assert {e["ph"] for e in flows} == {"s", "f"}

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace({"traceEvents": []})
        bad = {
            "traceEvents": [
                {"ph": "Q", "ts": 0, "pid": 0, "tid": 0, "name": "?"},
                {"ph": "X", "pid": 0, "tid": 0, "name": "no-ts", "dur": 1},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 2

    def test_write_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(traced_events(), path, num_cores=4)
        payload = json.load(open(path))
        assert validate_chrome_trace(payload) == []
        assert payload["metadata"]["schema"] == 1


class TestHtmlReport:
    def test_self_contained_document(self):
        html = html_report(traced_events(), num_cores=4, title="t report")
        assert html.startswith("<!DOCTYPE html>" ) or "<html" in html
        assert "t report" in html
        assert "__DATA__" not in html and "__TITLE__" not in html
        assert "<script" in html and "src=" not in html.split("<script")[1][:40]


def cut_short_stall():
    """A run squashed while its wait is still stalled on a forward."""
    return [
        Event(0, "epoch_start", 0.0, 0, 0, 0),
        Event(1, "fwd_stall", 10.0, 0, 0, 0,
              {"channel": "i", "cause": "scalar"}),
        Event(2, "squash", 40.0, 0, 0, 0, {"reason": "restart"}),
    ]


class TestCutShortStall:
    def test_chrome_stall_slice_ends_at_the_squash(self):
        payload = chrome_trace(cut_short_stall(), num_cores=1)
        assert validate_chrome_trace(payload) == []
        stalls = [
            (e["tid"], e["ts"], e["ts"] + e["dur"])
            for e in payload["traceEvents"] if e.get("cat") == "stall"
        ]
        assert stalls == [(0, 10.0, 40.0)]

    def test_html_lists_the_stall(self):
        page = html_report(cut_short_stall(), num_cores=1)
        data = json.loads(page.split("const DATA = ", 1)[1].split(";\n", 1)[0])
        assert data["stalls"] == [{"core": 0, "start": 10.0, "end": 40.0}]
