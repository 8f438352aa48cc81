"""Serve smoke: a real ``repro serve`` process, driven over HTTP.

One daemon (``python -m repro serve --port 0 --workers 2``) runs for
the whole module in its own session, so teardown can kill its process
group.  The tests run in file order against it and check that:

* figure-10 bars U/P/H/C/B on go, mcf and gzip_decomp are served
  byte-identical to a batch run into a separate store;
* ``/v1/metrics`` counts every job finished so far as done;
* SIGUSR2 to a busy worker process writes flight-recorder dumps, one
  naming the in-flight job;
* ``repro trace --job`` merges the service and simulation tracks;
* a drain ends the daemon with exit code 0 and takes its workers along.

The in-process daemon tests in ``tests/serve/`` cover the rest of the
HTTP surface.  A failing test here prints the tail of the daemon log.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.runner import bundle_for
from repro.obs import prom
from repro.serve.client import ServeClient
from repro.serve.protocol import DONE, JobRequest, canonical_result_bytes

SRC = Path(__file__).resolve().parents[2] / "src"
WORKLOADS = ("go", "mcf", "gzip_decomp")
FIG10_BARS = ("U", "P", "H", "C", "B")
LISTENING = re.compile(r"listening .*url=(\S+)")


class Daemon:
    """The daemon process, its log and store, and the jobs it finished."""

    def __init__(self, work: Path):
        self.log = work / "serve.log"
        self.cache = work / "serve-cache"
        self.finished = 0
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2", "--cache-dir", str(self.cache)],
                cwd=work, stdout=log, stderr=subprocess.STDOUT,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                start_new_session=True,
            )
        self.url = ""

    def tail(self, lines: int = 30) -> str:
        text = self.log.read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def wait_for_url(self, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        raise RuntimeError(f"daemon did not start listening:\n{self.tail()}")

    def result(self, client: ServeClient, job_id: str) -> bytes:
        """Wait for a job to finish and return its result bytes."""
        status = client.wait(job_id, timeout=300.0)
        assert status["state"] == DONE, status.get("error")
        self.finished += 1
        return client.result_bytes(job_id)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then kill whatever is left."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    handle = Daemon(tmp_path_factory.mktemp("serve-smoke"))
    try:
        handle.url = handle.wait_for_url()
        yield handle
    finally:
        handle.stop()


@pytest.fixture(autouse=True)
def isolated_run(daemon, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield
    artifacts_mod.configure(False)
    artifacts_mod.reset_counters()
    metrics_mod.reset()
    print(daemon.tail())  # pytest shows it only for a failed test


@pytest.fixture(scope="module")
def batch_store(tmp_path_factory):
    """Cold bundle memos and a store of the batch side's own."""
    saved = dict(runner._BUNDLES)
    runner._BUNDLES.clear()
    root = tmp_path_factory.mktemp("batch-store")
    yield lambda: artifacts_mod.configure(True, str(root))
    runner._BUNDLES.clear()
    runner._BUNDLES.update(saved)


def _batch_bytes(workload: str, bar: str) -> bytes:
    result = bundle_for(workload, threshold=0.05).simulate(bar)
    return canonical_result_bytes(result.to_state())


def test_fig10_served_byte_identical_to_batch(daemon, batch_store):
    batch_store()
    with ServeClient(daemon.url) as client:
        jobs = {
            (workload, bar): client.submit(
                JobRequest(workload=workload, bar=bar)
            )
            for workload in WORKLOADS
            for bar in FIG10_BARS
        }
        for (workload, bar), job_id in jobs.items():
            assert daemon.result(client, job_id) == _batch_bytes(
                workload, bar
            ), f"{workload}/{bar}: daemon diverged from batch"


def test_metrics_count_every_finished_job(daemon):
    with ServeClient(daemon.url) as client:
        samples = prom.parse_prometheus_text(client.metrics_text())
        assert client.stats()["jobs"]["states"].get("failed", 0) == 0
    done = prom.sample_value(samples, "serve_jobs_total", state="done")
    assert done >= daemon.finished, (
        f"{daemon.finished} job(s) finished, metrics say {done} done"
    )


def _busy_worker(client: ServeClient, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for worker in client.stats()["worker_states"]:
            if worker["state"] == "busy":
                return worker["pid"]
        time.sleep(0.02)
    raise AssertionError("no worker went busy")


def test_sigusr2_dumps_name_the_inflight_job(daemon):
    with ServeClient(daemon.url) as client:
        # Traced runs cost a real simulation each, so the workers stay
        # busy long enough to catch one mid-job.
        jobs = [
            client.submit(JobRequest(workload="go", bar=bar, events=True))
            for bar in ("U", "C", "H", "P", "B")
        ]
        os.kill(_busy_worker(client), signal.SIGUSR2)
        for job_id in jobs:
            daemon.result(client, job_id)
    dumps = sorted((daemon.cache / "flightrec").glob("flightrec-*.json"))
    assert dumps, "no flight-recorder dumps on disk"
    named = set()
    for path in dumps:
        dump = json.loads(path.read_text())
        assert dump["schema"] == 1, dump
        assert dump["stream"] == "repro.obs.flightrec", dump
        assert isinstance(dump["records"], list)
        named.add((dump.get("inflight") or {}).get("job"))
    assert named & set(jobs), f"no dump named an in-flight job: {named}"


def test_trace_job_merges_service_and_sim_tracks(daemon, tmp_path):
    with ServeClient(daemon.url) as client:
        job_id = client.submit(JobRequest(workload="go", bar="C", events=True))
        daemon.result(client, job_id)
    out = tmp_path / "trace_job.json"
    assert main(
        ["trace", "--job", job_id, "--url", daemon.url, "-o", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    pids = {event.get("pid") for event in payload["traceEvents"]}
    assert {0, 1} <= pids, f"missing sim or service track: {pids}"
    assert payload["metadata"]["trace_id"]


def test_drain_exits_cleanly_with_its_workers(daemon):
    with ServeClient(daemon.url) as client:
        workers = [w["pid"] for w in client.stats()["worker_states"]]
        assert client.drain(timeout=120.0)["drained"] is True
    assert daemon.proc.wait(timeout=10.0) == 0
    assert "drained" in daemon.log.read_text()
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
