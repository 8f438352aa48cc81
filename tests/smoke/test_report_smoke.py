"""Report smoke: the parallel runner and the persistent store, end to end.

Runs ``repro report`` as subprocesses, as a user would.  A cold
parallel run fills a fresh store; a warm rerun must be served entirely
from it; both, and a run at the default ``--jobs``, must match a
serial (``--jobs 1``) run byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
WORKLOADS = "go,mcf"


def _report(work: Path, name: str, *options: str):
    """Run ``repro report`` in ``work``; returns (output bytes, run metrics)."""
    out = work / f"report_{name}.md"
    metrics = work / f"run_metrics_{name}.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "report", "--workloads", WORKLOADS,
         "--metrics-out", str(metrics), "-o", str(out), *options],
        cwd=work, env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True,
    )
    return out.read_bytes(), json.loads(metrics.read_text())


@pytest.fixture(scope="module")
def serial_report(tmp_path_factory):
    work = tmp_path_factory.mktemp("serial")
    text, _metrics = _report(
        work, "serial", "--jobs", "1", "--cache-dir", str(work / "store")
    )
    return text


def test_cold_then_warm_parallel(tmp_path, serial_report):
    store = ("--cache-dir", str(tmp_path / "store"))
    cold_text, cold = _report(tmp_path, "cold", "--jobs", "2", *store)
    warm_text, warm = _report(tmp_path, "warm", "--jobs", "2", *store)
    assert cold["cache"]["misses"] > 0, "cold run should compute jobs"
    assert warm["cache"]["misses"] == 0, (
        f"warm run recomputed {warm['cache']['misses']} jobs"
    )
    assert warm["cache"]["hits"] > 0, "warm run should hit the cache"
    assert warm["cache"]["hit_rate"] == 1.0
    assert cold_text == warm_text
    assert cold_text == serial_report


def test_default_jobs_matches_serial(tmp_path, serial_report):
    text, _metrics = _report(
        tmp_path, "default", "--cache-dir", str(tmp_path / "store")
    )
    assert text == serial_report
