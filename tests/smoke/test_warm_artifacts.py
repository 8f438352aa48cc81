"""Warm artifact store: zero recompiles, byte-identical output.

Runs ``repro figure 10 --jobs 2`` three times on one store, as
subprocesses: cold (compiles everything and fills the store), warm
(stored results serve every simulation) and with the results cleared
(every simulation reruns, but every compile and oracle is a load of a
stored artifact).  The three outputs must be identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _repro(work: Path, *argv: str) -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--cache-dir", str(work / "store")],
        cwd=work, env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True,
    ).stdout


def _figure10(work: Path, name: str):
    """(stdout bytes, run metrics) of one ``figure 10 --jobs 2`` run."""
    metrics = work / f"metrics_{name}.json"
    text = _repro(work, "figure", "10", "--jobs", "2", "--metrics-out", str(metrics))
    return text, json.loads(metrics.read_text())


def _pipeline_jobs(run):
    return [job for job in run["per_job"] if job["kind"] in ("compile", "oracle")]


def test_warm_and_artifact_only_runs_never_recompile(tmp_path):
    cold_text, cold = _figure10(tmp_path, "cold")
    warm_text, warm = _figure10(tmp_path, "warm")
    _repro(tmp_path, "cache", "clear", "--only", "results")
    artifact_text, artifact = _figure10(tmp_path, "artifact")

    assert cold_text == warm_text
    assert cold_text == artifact_text

    cold_compiles = [
        job for job in _pipeline_jobs(cold) if job["source"] in ("computed", "worker")
    ]
    assert cold_compiles, "cold run should compile"

    # Fully warm: every simulation is a stored-result hit, so the
    # pipeline never even loads an artifact.
    assert warm["cache"]["misses"] == 0, "warm run recomputed jobs"
    assert not [
        job for job in _pipeline_jobs(warm) if job["source"] in ("computed", "worker")
    ], "warm run recompiled"

    # Results cleared: every simulation recomputes, but every compile
    # is an artifact-store load — zero recompiles.
    loads = _pipeline_jobs(artifact)
    assert loads, "artifact run should load compiled artifacts"
    bad = [job for job in loads if job["source"] != "cache"]
    assert not bad, f"recompiled instead of loading: {bad}"
