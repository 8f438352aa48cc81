"""Command smoke: ``repro trace``, ``repro analyze`` and ``repro sweep``
driven through the CLI entry point as a user would, with the persistent
store on (in a temporary directory).

* trace: a Chrome trace of a synchronized run validates and has
  duration slices;
* analyze: every output format renders, the JSON report attributes
  every slot, and a diff against the stall-until-commit bar names a
  sync category as the largest regression;
* sweep: a sweep stopped by ``--max-points`` exits 3, the rerun resumes
  only the missing points, and a third run computes nothing.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.obs.export import validate_chrome_trace


@pytest.fixture(autouse=True)
def isolated_run(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.chdir(tmp_path)
    yield
    artifacts_mod.configure(False)
    artifacts_mod.reset_counters()
    metrics_mod.reset()


def test_trace_chrome_export(tmp_path):
    out = tmp_path / "trace_smoke.json"
    assert main(
        ["trace", "--workload", "gzip_decomp", "--bar", "C",
         "--format", "chrome", "-o", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    problems = validate_chrome_trace(payload)
    assert not problems, "\n".join(problems)
    slices = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert slices, "trace has no duration slices"
    assert payload["metadata"]["schema"] == 1


def test_analyze_reports_and_diff(tmp_path, capsys):
    report = tmp_path / "analyze_smoke.json"
    html = tmp_path / "analyze_smoke.html"
    assert main(["analyze", "go:C"]) == 0
    assert main(["analyze", "go:C", "--format", "json", "-o", str(report)]) == 0
    assert main(["analyze", "go:C", "--format", "html", "-o", str(html)]) == 0
    assert html.stat().st_size > 0
    capsys.readouterr()
    # an induced sync-cost slowdown, between two cached runs
    assert main(["analyze", "--diff", "go:C", "go:L"]) == 0
    assert "largest regression: sync." in capsys.readouterr().out

    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["stream"] == "repro.obs.analysis"
    totals = payload["totals"]
    assert totals["identity_error"] == 0.0, (
        f"accounting identity violated: {totals['identity_error']}"
    )
    assert totals["attributed"] == totals["slots"]
    attribution = payload["attribution"]
    assert attribution and all(v >= 0 for v in attribution.values())
    assert sum(attribution.values()) == totals["slots"]
    assert payload["stalls"]["top"], "no stall groups reported"
    for region in payload["regions"]:
        assert region["identity_error"] == 0.0
        path = region["critical_path"]
        assert path["bound_cycles"] <= path["cycles"]


def test_sweep_stops_resumes_and_reruns(tmp_path, capsys):
    grid = tmp_path / "sweep_grid.json"
    grid.write_text(json.dumps({
        "workloads": ["go"],
        "bars": ["P", "PS"],
        "threshold": 0.05,
        "axes": {"num_cores": [2, 8]},
    }))
    sweep = ["sweep", "--grid", str(grid), "-o", str(tmp_path / "sweep_out")]
    html = tmp_path / "sweep_surface.html"

    # an incomplete sweep must exit 3 so wrappers know to resume
    assert main(sweep + ["--max-points", "2"]) == 3
    capsys.readouterr()
    assert main(sweep + ["--html", str(html)]) == 0
    resumed = capsys.readouterr()
    assert "4 point(s) — 2 resumed, 2 to run" in resumed.err
    assert main(sweep) == 0
    assert "0 computed, 4 resumed, 4 total" in capsys.readouterr().err

    state = json.loads((tmp_path / "sweep_out" / "sweep_state.json").read_text())
    assert state["schema"] == 1
    assert len(state["points"]) == 4, sorted(state["points"])
    for record in state["points"].values():
        metrics = record["metrics"]
        assert metrics["region_time"] > 0
        assert metrics["speedup"] > 0
        assert record["bar"] in ("P", "PS")
        cores = record["overrides"].get("num_cores")
        assert cores in (2, 8), record["overrides"]

    assert "scaling surface" in resumed.out
    text = html.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "scaling surface" in text and "</table>" in text
