"""``serve``: a closed loop of 2 ``ServeClient`` connections against a
``repro serve --workers 2`` subprocess.

Each caller submits a request, waits for it (``ServeClient.wait``
polls every 10 ms) and reads the result, then sends its next one.
Every request is a distinct (workload, bar, machine) point with a
``forward_latency`` override and the default backend, so each must
come back ``source == "computed"``; anything else counts as a memo
hit.  Set-up boots the daemon and sends one warm-up request per
workload (compiles happen in the workers); it is repeated three times
on fresh daemons and cache dirs, and the last daemon serves the timed
loop, in :data:`ROUNDS` rounds.  After each round the results are
checked against slow-oracle digests from two reference workers.  An
operation is one request; the traced run puts the per-hop split on the
``detail`` line.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.serve.client import JobRejected, ServeClient, wait_until_healthy
from repro.serve.protocol import DONE, JobRequest

import gen
import lib
import probe
import refs

CLIENTS = 2
WORKERS = 2
SETUP_REPEATS = 3

#: Requests always timed, whatever ``--seconds`` says: p90 needs at
#: least 10 samples beyond it, and 7 whole blocks of the generator
#: keep the (workload, bar) mix the same for every seed.
MIN_REQUESTS = 105

#: The timed requests are split into rounds with the reference check
#: between them, so one run's samples span more of the host's speed
#: drift (tens of seconds on a shared 2-vCPU machine).
ROUNDS = 4

#: Timed requests whose points the traced run simulates in process:
#: one block of the generator, the same mix for every seed.
PROBE_POINTS = len(gen.WORKLOADS)

#: The daemon spans whose self time is a hop, in causal order.
HOPS = ("http.submit", "job.queued", "batch.execute", "worker.execute", "simulate")

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` subprocess with a fresh cache dir."""

    def __init__(self, ctx, index: int):
        self.log = os.path.join(ctx.work, f"serve-{index}.log")
        cache = os.path.join(ctx.work, f"serve-{index}")
        with open(self.log, "wb") as log:
            self.proc = lib.spawn(
                [ctx.python, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--cache-dir", cache, "--log-json"],
                cwd=ctx.work, env=ctx.env, stdout=log, stderr=log,
            )
        try:
            self.url = self._await_url()
            wait_until_healthy(self.url, timeout=BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise

    def _await_url(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}")
            with open(self.log) as handle:
                for line in handle:
                    if '"listening"' in line:
                        return json.loads(line)["url"]
            time.sleep(0.02)
        raise TimeoutError("repro serve did not report its address")

    def stop(self) -> None:
        """Drain the daemon and wait for it to exit."""
        try:
            with ServeClient(self.url, timeout=30.0) as client:
                client.drain(timeout=30.0)
            lib.reap(self.proc, 30.0)
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the daemon's process group (its workers included)."""
        lib.kill_group(self.proc)
        if self.proc.returncode is None:
            self.proc.wait()


def _request(point) -> JobRequest:
    workload, bar, machine = point
    return JobRequest(workload=workload, bar=bar, machine=machine)


def closed_loop(url: str, draw: Iterator, minimum: int, seconds: float,
                fetch_spans: bool) -> Tuple[List[Dict], float]:
    """Run :data:`CLIENTS` callers until ``minimum`` requests were sent
    and ``seconds`` passed.  Returns (one record per request, seconds)."""
    lock = threading.Lock()
    records: List[Dict] = []
    errors: List[Exception] = []
    started = time.perf_counter()

    def take() -> Optional[Tuple]:
        with lock:
            if len(records) >= minimum and time.perf_counter() - started >= seconds:
                return None
            point = next(draw, None)
            if point is None:
                return None
            record = {"point": point}
            records.append(record)
            return point, record

    def caller() -> None:
        try:
            with ServeClient(url, timeout=REQUEST_TIMEOUT_S) as client:
                while True:
                    taken = take()
                    if taken is None:
                        return
                    point, record = taken
                    record["wall_start"] = time.time()
                    t0 = time.perf_counter()
                    try:
                        job = client.submit(_request(point))
                        status = client.wait(job, timeout=REQUEST_TIMEOUT_S)
                        data = client.result_bytes(job) if status["state"] == DONE else b""
                    except JobRejected:
                        record["rejected"] = True
                        continue
                    record["latency_s"] = time.perf_counter() - t0
                    record["wall_end"] = time.time()
                    record["state"] = status["state"]
                    record["source"] = status.get("source", "")
                    record["digest"] = lib.digest_bytes(data) if data else ""
                    if fetch_spans:
                        record["spans"] = client.spans(job)["spans"]
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, time.perf_counter() - started


def run(ctx) -> Dict:
    tracer = ctx.tracer
    draw = gen.points(ctx.seed, gen.SERVE_AXES)
    setups = []
    daemons: List[Daemon] = []
    pool = None
    try:
        for index in range(SETUP_REPEATS):
            started = time.perf_counter()
            daemons.append(Daemon(ctx, index))
            warmups, _s = closed_loop(
                daemons[-1].url, draw, len(gen.WORKLOADS), 0.0, False)
            setups.append(time.perf_counter() - started)
            bad = [r for r in warmups if r.get("source") != "computed"]
            if bad:
                raise RuntimeError(f"warm-up request failed: {bad[0]}")
            if index < SETUP_REPEATS - 1:
                daemons[-1].stop()
        records: List[Dict] = []
        expected: Dict[str, str] = {}
        loop_s = 0.0
        for round_index in range(ROUNDS):
            quota = math.ceil(MIN_REQUESTS * (round_index + 1) / ROUNDS)
            fresh, spent = closed_loop(
                daemons[-1].url, draw, quota - len(records),
                ctx.seconds / ROUNDS, tracer.enabled)
            loop_s += spent
            for record in fresh:
                record["id"] = str(len(records))
                records.append(record)
            if round_index == ROUNDS - 1:
                peak_rss_mb = lib.group_peak_rss_mb(daemons[-1].proc.pid)
                daemons[-1].stop()
            if pool is None:
                pool = refs.RefPool(ctx.work, ctx.env)
            expected.update(pool.compute(
                [[r["id"], *r["point"]] for r in fresh if "latency_s" in r]))
    finally:
        for daemon in daemons:
            daemon.kill()
        if pool is not None:
            pool.close()

    done = [r for r in records if "latency_s" in r]
    failed = memo_hits = rejected = 0
    for record in records:
        if record.get("rejected"):
            rejected += 1
            failed += 1
        elif record["digest"] != expected.get(record["id"]):
            failed += 1
            ctx.note(f"serve: {record['point']} result differs from the slow oracle")
        if record.get("state") == DONE and record["source"] != "computed":
            memo_hits += 1
    latencies = [r["latency_s"] * 1e3 for r in done]
    e2e = {
        "setup_s": (lib.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "p50_ms": (lib.percentile(latencies, 50), "ms"),
        "p90_ms": (lib.tail_percentile(latencies, 90), "ms"),
        "ops_per_s": (len(done) / loop_s, "1/s"),
    }
    ctx.note(
        f"serve: {len(done)} requests by {CLIENTS} callers in {loop_s:.1f} s; "
        f"set-ups {', '.join(f'{s:.2f}' for s in setups)} s"
    )
    layers: Dict = {"samples": (len(done), "count")}
    detail: Dict[str, float] = {}
    if tracer.enabled:
        detail = _hops(tracer, done)
        detail["serve.memo_hits"] = memo_hits
        detail["serve.rejected"] = rejected
        _walls, imports = probe.import_probe(ctx)
        layers["import.cli_s"] = (lib.median(imports), "s")
        measured, mismatched = probe.in_process(
            ctx, [r["point"] for r in records[:PROBE_POINTS]])
        layers.update(measured)
        failed += mismatched
        attempted = len(records) + PROBE_POINTS
    else:
        attempted = len(records)
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "detail": detail}


def _hops(tracer: lib.Tracer, done: List[Dict]) -> Dict[str, float]:
    """Per-hop self times from the daemon's own spans, fetched via
    ``GET /v1/jobs/{id}/spans`` after each request."""
    parts: Dict[str, List[float]] = {name: [] for name in (*HOPS, "client")}
    batches: Dict = {}
    worst = 0.0
    for index, record in enumerate(done):
        start, end = record["wall_start"], record["wall_end"]
        split = lib.attribute_window(record["spans"], start, end, HOPS)
        worst = max(worst, abs(sum(split.values()) - (end - start)))
        for name, seconds in split.items():
            parts[name].append(seconds * 1e3)
        op = f"request-{index}"
        root = tracer.add("request", "client", start, end, op=op)
        ids = {}
        for span in sorted(record["spans"], key=lambda s: s["start_s"]):
            ids[span["span_id"]] = tracer.add(
                span["name"], "serve", span["start_s"], span["end_s"], op=op,
                parent=ids.get(span.get("parent_id"), root))
            if span["name"] == "batch.execute":
                batch = span["attrs"].get("batch")
                batches[batch] = batches.get(batch, 0) + 1
    detail = {
        f"serve.hop.{name.replace('.', '_')}_ms": lib.median(values)
        for name, values in parts.items()
    }
    detail["serve.hop_sum_error_ms"] = worst * 1e3
    detail["serve.batch_size_mean"] = len(done) / max(1, len(batches))
    return detail
