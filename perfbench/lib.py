"""Helpers shared by the benchmark's workloads.

Statistics (the percentile rule), in-memory spans with a Chrome-trace
writer, self-time and per-request hop attribution, result digests,
simulated-count totals and subprocess control (per-child peak RSS, process-group cleanup).
Nothing here imports ``repro``: the helpers are unit-tested on their
own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A timing percentile is reported only when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10

#: Percentiles the rule chooses among, highest last.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_percentile(count: int) -> Optional[float]:
    """The highest percentile in :data:`PERCENTILES` that has at least
    :data:`MIN_BEYOND` samples beyond it, or None if even the median
    has fewer."""
    best = None
    for pct in PERCENTILES:
        if beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def tail_percentile(values: Sequence[float], pct: float) -> float:
    """``percentile(values, pct)``, refusing a tail the sample count
    cannot support (fewer than :data:`MIN_BEYOND` samples beyond)."""
    if beyond(len(values), pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples give {beyond(len(values), pct)}"
        )
    return percentile(values, pct)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span records its name, layer, operation id, parent and start/end
    on the wall clock (``time.time``, the clock the serve daemon's own
    spans use).  Spans of one operation share its ``op`` id.  A
    disabled tracer records nothing, so untraced runs pay one branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[Tuple[int, str]] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, layer: str, op: str = "", **attrs):
        if not self.enabled:
            yield None
            return
        span_id = self._new_id()
        parent, parent_op = self._stack[-1] if self._stack else (None, "")
        op = op or parent_op
        record = {
            "id": span_id, "parent": parent, "name": name, "layer": layer,
            "op": op, "start": time.time(), "end": None, "attrs": dict(attrs),
        }
        self._stack.append((span_id, op))
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.time()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, layer: str, start: float, end: float,
            op: str = "", parent: Optional[int] = None) -> int:
        """Record a finished span measured elsewhere (another thread
        or a subprocess); returns its id so children can hang on it."""
        span_id = self._new_id()
        if self.enabled:
            with self._lock:
                self.spans.append({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "op": op, "start": start, "end": end,
                    "attrs": {},
                })
        return span_id

    def write_chrome(self, path: str) -> None:
        """All spans as one Chrome trace (``chrome://tracing``/Perfetto)."""
        ops: Dict[str, int] = {}
        events = []
        for record in sorted(self.spans, key=lambda r: r["start"]):
            tid = ops.setdefault(record["op"], len(ops) + 1)
            events.append({
                "name": record["name"], "cat": record["layer"], "ph": "X",
                "ts": record["start"] * 1e6,
                "dur": max(0.0, record["end"] - record["start"]) * 1e6,
                "pid": 1, "tid": tid,
                "args": dict(record["attrs"], op=record["op"],
                             id=record["id"], parent=record["parent"]),
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict]) -> Dict:
    """Span id -> its duration minus the part of its interval that its
    direct children cover (children clipped to the parent)."""
    children: Dict = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(record)
    result = {}
    for record in spans:
        start, end = record["start"], record["end"]
        kids = [
            (max(start, kid["start"]), min(end, kid["end"]))
            for kid in children.get(record["id"], ())
        ]
        result[record["id"]] = (end - start) - covered(kids)
    return result


def self_time_by(spans: Sequence[Dict], key: str = "layer") -> Dict[str, float]:
    """Self time summed per ``key`` (``"layer"`` or ``"name"``)."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for record in spans:
        totals[record[key]] = totals.get(record[key], 0.0) + own[record["id"]]
    return totals


def attribute_window(
    spans: Sequence[Dict], start: float, end: float,
    hops: Sequence[str], outside: str = "client",
) -> Dict[str, float]:
    """Split the window ``[start, end]`` across named hops.

    ``spans`` are serve-style dicts (``name``, ``span_id``,
    ``parent_id``, ``start_s``, ``end_s``).  Every instant of the
    window goes to the deepest span active then (a span outside
    ``hops`` counts for its nearest ancestor in ``hops``); instants no
    span covers go to ``outside``.  The parts therefore sum to
    ``end - start`` exactly, and for nested spans each hop's part is
    its self time: its span minus what its child hops cover.
    """
    by_id = {span["span_id"]: span for span in spans}

    def depth(span) -> int:
        seen, d = set(), 0
        while span.get("parent_id") in by_id and span["span_id"] not in seen:
            seen.add(span["span_id"])
            span = by_id[span["parent_id"]]
            d += 1
        return d

    def hop_of(span) -> str:
        seen = set()
        while span["name"] not in hops:
            seen.add(span["span_id"])
            parent = by_id.get(span.get("parent_id"))
            if parent is None or parent["span_id"] in seen:
                return outside
            span = parent
        return span["name"]

    clipped = []
    for span in spans:
        s = max(start, span["start_s"])
        e = min(end, span["end_s"])
        if e > s:
            clipped.append((s, e, depth(span), span["start_s"], hop_of(span)))
    parts = {name: 0.0 for name in hops}
    parts[outside] = 0.0
    cuts = sorted({start, end, *(c[0] for c in clipped), *(c[1] for c in clipped)})
    for left, right in zip(cuts, cuts[1:]):
        active = [c for c in clipped if c[0] <= left and c[1] >= right]
        if active:
            owner = max(active, key=lambda c: (c[2], c[3]))[4]
        else:
            owner = outside
        parts[owner] += right - left
    return parts


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def model_counts(records: Sequence[Dict]) -> Dict[str, float]:
    """Simulated counts summed over ``records`` (deterministic)."""
    total: Dict[str, float] = {}
    high_water = 0.0
    for record in records:
        for name, value in record["counters"].items():
            if name == "signal_buffer_high_water":
                high_water = max(high_water, value)
            else:
                total[name] = total.get(name, 0.0) + value
    committed = total.get("epochs_committed", 0.0)
    squashed = total.get("epochs_squashed", 0.0)

    def ratio(level: str) -> float:
        hits = total.get(f"cache_hits{{level={level}}}", 0.0)
        misses = total.get(f"cache_misses{{level={level}}}", 0.0)
        return misses / (hits + misses) if hits + misses else 0.0

    return {
        "engine.instructions": sum(r["instructions"] for r in records),
        "engine.epochs_committed": committed,
        "engine.epochs_squashed": squashed,
        "engine.violations": sum(
            value for name, value in total.items() if name.startswith("violations")
        ),
        "engine.epoch_useful_ratio": committed / (committed + squashed),
        "model.l1_miss_ratio": ratio("l1"),
        "model.l2_miss_ratio": ratio("l2"),
        "model.sab_high_water": high_water,
        "model.hwsync_insertions": total.get("hwsync_insertions", 0.0),
        "model.predictions_used": total.get("predictions_used", 0.0),
        "model.mispredictions": total.get("mispredictions", 0.0),
    }


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def spawn(argv: List[str], cwd: str, env: Dict[str, str],
          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
          stdin=subprocess.DEVNULL) -> subprocess.Popen:
    """Start ``argv`` in its own process group (so cleanup can reach
    every process it forks)."""
    return subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
        stdin=stdin, start_new_session=True,
    )


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB).

    The peak comes from ``wait4`` on this child, so it covers the child
    and the descendants it reaped, and nothing else.  Past ``timeout``
    the whole process group is killed and the wait raises.
    """
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        kill_group(proc)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise TimeoutError(f"{proc.args[:4]} killed after {timeout}s")
    return proc.returncode, usage.ru_maxrss / 1024.0


def kill_group(proc: subprocess.Popen, wait_s: float = 5.0) -> None:
    """SIGKILL ``proc``'s whole process group and wait (up to
    ``wait_s``) until none of its processes runs any more."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + wait_s
    while group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)


def group_members(pgid: int) -> List[int]:
    """Pids of the live (not yet exited) processes in a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # Fields after the parenthesised command: state, ppid, pgrp.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def group_peak_rss_mb(pgid: int) -> float:
    """Sum of the peak RSS (``VmHWM``) of every live process in a
    process group, in MB."""
    total_kb = 0
    for pid in group_members(pgid):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue  # exited while we looked
    return total_kb / 1024.0


def run_timed(argv: List[str], cwd: str, env: Dict[str, str], timeout: float,
              stdout_path: Optional[str] = None) -> Tuple[int, float, float, float, float]:
    """Run ``argv`` to completion.

    Returns (exit code, host seconds, peak RSS MB, wall start, wall end),
    the last two on ``time.time`` for spans.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        wall_start = time.time()
        started = time.perf_counter()
        proc = spawn(argv, cwd, env, stdout=out, stderr=subprocess.DEVNULL)
        code, rss = reap(proc, timeout)
        elapsed = time.perf_counter() - started
        wall_end = time.time()
    finally:
        if stdout_path:
            out.close()
    return code, elapsed, rss, wall_start, wall_end
