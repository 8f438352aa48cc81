"""Offline attribution, critical path, grouping, diffs and reports.

The analyzer must reproduce the engine's online attribution
*bit-identically* from the event stream alone — that equivalence is
the module's acceptance gate — and its stall records / critical path
must name the synchronization structure the conftest loop was built
with.
"""

import json

import pytest

from repro.experiments.trace import run_traced
from repro.obs.analysis import (
    AnalysisError,
    GROUP_MODES,
    ascii_report,
    attribute_events,
    diff_analyses,
    diff_report,
    group_stalls,
    json_report,
    render_html,
)
from repro.obs.bus import CollectorSink, EventBus
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.workloads.base import WORKLOAD_NAMES

from tests.experiments.test_trace import GOLDEN_CELLS
from tests.tlssim.conftest import make_counted_loop

#: (workload, bar) cells checked against the engine: every workload at
#: C and H, plus go at U and L.  go's cells keep their bare bar ids.
ENGINE_CELLS = [("go", bar) for bar in ("U", "C", "H", "L")] + [
    (workload, bar)
    for workload in WORKLOAD_NAMES if workload != "go"
    for bar in ("C", "H")
]


def _traced(module, config=None):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(
        module, config=config or SimConfig(), parallel=True, obs=bus
    ).run()
    return result, collector.events


def _loop_with_mem_dependence(iters=24, filler=40):
    def body(fb):
        v = fb.load("@shared")
        fb.store("@shared", fb.add(v, 1))

    return make_counted_loop(
        iters=iters, body=body, globals_spec=[("shared", 1, 0)],
        filler=filler,
    )


class TestMatchesEngine:
    def test_synthetic_loop(self):
        result, events = _traced(_loop_with_mem_dependence())
        analysis = attribute_events(events)
        assert [r.attribution for r in analysis.regions] == [
            r.attribution for r in result.regions
        ]
        assert analysis.identity_error == 0.0

    @pytest.mark.parametrize(
        "workload,bar", ENGINE_CELLS,
        ids=[bar if workload == "go" else f"{workload}/{bar}"
             for workload, bar in ENGINE_CELLS],
    )
    def test_workload_bars(self, workload, bar):
        run = run_traced(workload, bar)
        analysis = attribute_events(run.events)
        engine_attr = [
            r.attribution for r in run.result.regions
            if set(r.attribution) != {"seq"}
        ]
        assert [r.attribution for r in analysis.regions] == engine_attr
        assert analysis.identity_error == 0.0

    def test_region_metadata(self):
        run = run_traced("go", "C")
        analysis = attribute_events(run.events)
        region = analysis.regions[0]
        assert region.num_cores == 4
        assert region.issue_width == 4
        assert region.function == "main"
        assert region.total_slots == region.cycles * 16


class TestStallRecords:
    def test_records_name_the_sync_pairs(self):
        _result, events = _traced(_loop_with_mem_dependence())
        analysis = attribute_events(events)
        stalls = analysis.all_stalls()
        assert stalls
        for record in stalls:
            assert record.producer == record.consumer - 1
            assert record.stall == record.end - record.start
        channels = {r.channel for r in stalls if r.channel}
        assert "scalar:i" in channels

    def test_grouping_modes_cover_all_stalls(self):
        run = run_traced("go", "C")
        analysis = attribute_events(run.events)
        stalls = analysis.all_stalls()
        total = sum(r.stall for r in stalls)
        for mode in GROUP_MODES:
            groups = group_stalls(stalls, mode)
            assert sum(g["cycles"] for g in groups) == total
            assert sum(g["count"] for g in groups) == len(stalls)
            # sorted by stalled cycles, heaviest first
            cycles = [g["cycles"] for g in groups]
            assert cycles == sorted(cycles, reverse=True)

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            group_stalls([], "bogus")

    def test_addresses_resolved_for_mem_stalls(self):
        run = run_traced("go", "C")
        analysis = attribute_events(run.events)
        addressed = [
            r for r in analysis.all_stalls()
            if r.cause == "mem" and r.addr is not None
        ]
        assert addressed, "no mem stall resolved to an address"


class TestCriticalPath:
    def test_chain_spans_committed_epochs(self):
        _result, events = _traced(_loop_with_mem_dependence())
        analysis = attribute_events(events)
        region = analysis.regions[0]
        path = region.critical_path()
        assert len(path["hops"]) == len(region.commits)
        assert path["signal_slack"] >= 0.0
        assert path["commit_slack"] >= 0.0
        assert path["bound_cycles"] <= path["cycles"]
        assert path["bound_cycles"] == (
            path["cycles"] - path["signal_slack"]
        )

    def test_signal_hops_carry_pair_detail(self):
        run = run_traced("go", "C")
        region = attribute_events(run.events).regions[0]
        signal_hops = [
            h for h in region.critical_path()["hops"]
            if h["edge"] == "signal"
        ]
        assert signal_hops, "go/C critical path shows no signal edges"
        for hop in signal_hops:
            assert hop["slack"] > 0.0
            assert hop["wait_iid"] is not None


class TestSchemaGuards:
    def test_truncated_stream_rejected(self):
        _result, events = _traced(_loop_with_mem_dependence())
        assert events[-1].kind == "region_end"
        with pytest.raises(AnalysisError):
            attribute_events(events[:-1])

    def test_pre_analysis_commit_events_rejected(self):
        _result, events = _traced(_loop_with_mem_dependence())
        for event in events:
            if event.kind == "commit":
                event.fields.pop("busy", None)
        with pytest.raises(AnalysisError):
            attribute_events(events)

    def test_missing_region_dimensions_rejected(self):
        _result, events = _traced(_loop_with_mem_dependence())
        for event in events:
            if event.kind == "region_start":
                event.fields.pop("num_cores", None)
                event.fields.pop("issue_width", None)
        with pytest.raises(AnalysisError):
            attribute_events(events)
        # explicit fallbacks recover old streams
        analysis = attribute_events(events, num_cores=4, issue_width=4)
        assert analysis.identity_error == 0.0


class TestDiff:
    def test_induced_sync_slowdown_is_explained(self):
        """The L bar stalls synchronized loads until the producer epoch
        completes (Figure 9's conservative lower bound) — the diff must
        name synchronization, specifically l-mode, as the regression."""
        fast = attribute_events(run_traced("go", "C").events)
        slow = attribute_events(run_traced("go", "L").events)
        delta = diff_analyses(fast, slow, label_a="C", label_b="L")
        assert delta["cycles_b"] > delta["cycles_a"]
        assert delta["top_regression"] == "sync.lmode"
        text = diff_report(delta)
        assert "largest regression: sync.lmode" in text

    def test_self_diff_is_flat(self):
        analysis = attribute_events(run_traced("go", "C").events)
        delta = diff_analyses(analysis, analysis)
        assert all(m["delta_slots"] == 0.0 for m in delta["movers"])
        assert all(
            m["delta_cycles"] == 0.0 for m in delta["pair_movers"]
        )


class TestReports:
    def test_json_report_schema(self):
        analysis = attribute_events(
            run_traced("go", "C").events,
            meta={"workload": "go", "bar": "C"},
        )
        payload = json_report(analysis, by="pair", top=5)
        assert payload["schema"] == 1
        assert payload["stream"] == "repro.obs.analysis"
        assert payload["totals"]["identity_error"] == 0.0
        assert payload["totals"]["attributed"] == payload["totals"]["slots"]
        assert len(payload["stalls"]["top"]) <= 5
        assert payload["regions"][0]["critical_path"]["hops"] > 0
        json.dumps(payload)  # must be serializable as-is

    def test_ascii_report_mentions_top_pair(self):
        analysis = attribute_events(
            run_traced("go", "C").events,
            meta={"workload": "go", "bar": "C"},
        )
        text = ascii_report(analysis)
        assert "identity error: 0" in text
        assert "busy" in text
        top = group_stalls(analysis.all_stalls(), "pair")[0]
        assert top["key"] in text
        assert "critical path" in text

    def test_html_report_self_contained(self):
        analysis = attribute_events(run_traced("go", "C").events)
        html = render_html(analysis, title="go C")
        assert html.startswith("<!DOCTYPE html>")
        assert "const DATA =" in html
        assert "http" not in html.split("<body>")[1]


class TestCli:
    def test_analyze_live(self, capsys):
        from repro.cli import main

        assert main(["analyze", "go:C", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "slot attribution" in out
        assert "identity error: 0" in out

    def test_analyze_jsonl_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "go_C.jsonl"
        assert main([
            "trace", "--workload", "go", "--bar", "C",
            "--format", "jsonl", "-o", str(log),
        ]) == 0
        report = tmp_path / "report.json"
        assert main([
            "analyze", str(log), "--format", "json",
            "-o", str(report), "--no-cache",
        ]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["schema"] == 1
        assert payload["totals"]["identity_error"] == 0.0

    @pytest.mark.parametrize("fmt", ("json", "ascii"))
    @pytest.mark.parametrize("cell", GOLDEN_CELLS, ids="/".join)
    def test_analyze_log_matches_golden(
        self, cell, fmt, tmp_path, monkeypatch, capsys, analysis_digests
    ):
        """The report bytes for a ``repro trace`` log are pinned."""
        from repro.cli import main

        workload, bar = cell
        monkeypatch.chdir(tmp_path)  # the report names the log it read
        log = f"trace_{workload}_{bar}.jsonl"
        assert main([
            "trace", "--workload", workload, "--bar", bar,
            "--format", "jsonl", "-o", log,
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", log, "--format", fmt, "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        analysis_digests(f"{workload}/{bar}/{fmt}", captured.out.encode())

    def test_analyze_diff_cli(self, capsys):
        from repro.cli import main

        assert main([
            "analyze", "--diff", "go:C", "go:L", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "largest regression: sync.lmode" in out

    def test_analyze_requires_target(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--no-cache"]) == 2
        assert "required" in capsys.readouterr().err


class TestCliErrors:
    """A bad ``repro analyze`` target exits 2 with one ``analyze:`` line."""

    @pytest.fixture(scope="class")
    def log_lines(self, tmp_path_factory):
        from repro.cli import main

        log = tmp_path_factory.mktemp("log") / "go_C.jsonl"
        assert main(["trace", "--workload", "go", "--bar", "C",
                     "--format", "jsonl", "-o", str(log)]) == 0
        return log.read_text().splitlines(keepends=True)

    def _rejects(self, capsys, *argv):
        from repro.cli import main

        capsys.readouterr()
        assert main(["analyze", *argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("analyze: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_missing_file(self, tmp_path, capsys):
        err = self._rejects(capsys, str(tmp_path / "missing.jsonl"))
        assert "missing.jsonl: No such file or directory" in err

    def test_malformed_line(self, tmp_path, capsys, log_lines):
        log = tmp_path / "bad.jsonl"
        log.write_text("".join(log_lines[:5]) + "{oops\n"
                       + "".join(log_lines[5:]))
        err = self._rejects(capsys, str(log))
        assert "bad.jsonl: line 6 column 2: Expecting property name" in err

    def test_log_cut_before_region_end(self, tmp_path, capsys, log_lines):
        log = tmp_path / "cut.jsonl"
        log.write_text("".join(
            line for line in log_lines if '"region_end"' not in line
        ))
        err = self._rejects(capsys, str(log))
        assert "cut.jsonl: stream ends inside a region" in err

    def test_unknown_workload(self, capsys):
        err = self._rejects(capsys, "nosuchwl:C")
        assert "unknown workload 'nosuchwl'" in err

    def test_unknown_bar(self, capsys):
        err = self._rejects(capsys, "mcf:Z")
        assert "unknown bar 'Z'" in err

    @pytest.mark.parametrize("side", (0, 1))
    def test_diff_operands(self, tmp_path, capsys, side):
        operands = ["go:C", "go:C"]
        operands[side] = str(tmp_path / "missing.jsonl")
        err = self._rejects(capsys, "--diff", *operands)
        assert "No such file or directory" in err
