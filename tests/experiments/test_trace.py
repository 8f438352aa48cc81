"""``repro trace``: traced runs and their export formats."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.trace import (
    TRACE_FORMATS,
    default_output,
    export,
    run_traced,
)
from repro.obs.export import read_jsonl, validate_chrome_trace

WORKLOAD = "go"  # small; the suite keeps its compiled bundle warm

#: (workload, bar) cells whose ``repro trace`` bytes are pinned in
#: ``tests/golden/traces.json``: compiler sync with forwarding stalls
#: (go, gzip_decomp) and squash-heavy plain TLS (perlbmk).
GOLDEN_CELLS = (("go", "C"), ("gzip_decomp", "C"), ("perlbmk", "U"))


class TestRunTraced:
    def test_collects_stream_and_metrics(self):
        run = run_traced(WORKLOAD, bar="C")
        assert run.events, "no events collected"
        kinds = {e.kind for e in run.events}
        assert {"region_start", "epoch_start", "commit"} <= kinds
        assert run.result.counters["epochs_committed"] > 0
        flat = run.registry.flat()
        assert any(k.startswith("events{") for k in flat)

    def test_timeline_renders(self):
        art = run_traced(WORKLOAD, bar="C").timeline(width=50)
        assert art.splitlines()[1].startswith("core 0 |")

    def test_oracle_bar(self):
        run = run_traced(WORKLOAD, bar="O")
        assert run.result.counters["epochs_committed"] > 0


class TestExportFormats:
    def test_default_output_names(self):
        assert default_output("go", "C", "chrome") == "trace_go_C.json"
        assert default_output("go", "C", "jsonl") == "trace_go_C.jsonl"
        assert default_output("go", "C", "html") == "trace_go_C.html"
        assert default_output("go", "C", "timeline") == "trace_go_C.txt"

    def test_chrome_export_validates(self, tmp_path):
        run = run_traced(WORKLOAD, bar="C")
        path = str(tmp_path / "t.json")
        export(run, "chrome", path)
        payload = json.load(open(path))
        assert validate_chrome_trace(payload) == []
        assert payload["metadata"]["num_cores"] == run.num_cores

    def test_jsonl_export_round_trips(self, tmp_path):
        run = run_traced(WORKLOAD, bar="C")
        path = str(tmp_path / "t.jsonl")
        export(run, "jsonl", path)
        header, events = read_jsonl(path)
        assert header["workload"] == WORKLOAD and header["bar"] == "C"
        assert events == run.events

    def test_html_export(self, tmp_path):
        run = run_traced(WORKLOAD, bar="C")
        path = str(tmp_path / "t.html")
        export(run, "html", path)
        html = open(path).read()
        assert "<html" in html and WORKLOAD in html

    def test_timeline_export(self, tmp_path):
        run = run_traced(WORKLOAD, bar="C")
        path = str(tmp_path / "t.txt")
        export(run, "timeline", path)
        assert "core 0 |" in open(path).read()


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace", "--workload", "go"])
        assert args.bar == "C" and args.format == "chrome"
        assert args.output is None

    def test_chrome_via_cli(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", "--workload", WORKLOAD, "--bar", "C",
             "--format", "chrome", "-o", str(out)]
        ) == 0
        assert validate_chrome_trace(json.load(open(out))) == []
        assert str(out) in capsys.readouterr().out

    def test_timeline_to_stdout(self, capsys):
        assert main(
            ["trace", "--workload", WORKLOAD, "--format", "timeline"]
        ) == 0
        assert "core 0 |" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids="/".join)
def test_trace_output_matches_golden(cell, fmt, tmp_path, trace_digests):
    """Every export format's bytes are pinned, not just its shape."""
    workload, bar = cell
    out = tmp_path / default_output(workload, bar, fmt)
    assert main(
        ["trace", "--workload", workload, "--bar", bar,
         "--format", fmt, "-o", str(out)]
    ) == 0
    trace_digests(f"{workload}/{bar}/{fmt}", out.read_bytes())
