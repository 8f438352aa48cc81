"""Event-stream exporters: JSONL, Chrome trace (Perfetto), HTML.

* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line,
  first line is a schema header; lossless round-trip of the stream.
* :func:`chrome_trace` — the Trace Event Format understood by Perfetto
  and ``chrome://tracing``: one track per core, epoch runs as duration
  slices (``ph="X"``), violations/squashes/parks as instant events
  (``ph="i"``), forwarding as flow arrows (``ph="s"``/``ph="f"``),
  stalls as nested slices and cache misses as counter tracks.  One
  simulated cycle maps to one microsecond of trace time.
* :func:`html_report` — a dependency-free single-file HTML timeline
  (canvas-rendered lanes plus an event-count table) for sharing.
* :func:`render_timeline` — ASCII per-core occupancy of a region.

All three draw epoch runs and stalls from one pairing pass,
:class:`SpanPairer`.  :func:`validate_chrome_trace` is the schema check
the trace smoke test runs against generated traces.
"""

from __future__ import annotations

import html
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import SCHEMA_VERSION, Event

#: Instant-event kinds surfaced as ``ph="i"`` markers on core tracks.
_INSTANT_KINDS = {
    "violation": "violation",
    "squash": "squash",
    "epoch_park": "park",
    "sab_overflow": "SAB overflow",
    "pred_miss": "mispredict",
}


_STALL_KINDS = ("fwd_stall", "sync_stall")
_UNBLOCK_KINDS = ("fwd_unblock", "sync_unblock")

#: A closed ``(start, end)`` pair: an epoch run (``start.kind`` is
#: ``epoch_start``) or a stall.
Span = Tuple[Event, Event]


class SpanPairer:
    """Pairs an event stream's epoch runs and stalls, one event at a time.

    A run opens at ``epoch_start`` and closes at its ``commit`` or
    ``squash``.  A stall opens at ``fwd_stall``/``sync_stall`` and
    closes at its ``*_unblock``, or at the commit or squash that cuts
    it short.  Starts and ends pair on ``(epoch, generation)``, and an
    end always lands on its start's core.
    """

    def __init__(self):
        self.open_runs: Dict[Tuple[int, int], Event] = {}
        self.open_stalls: Dict[Tuple[int, int], Event] = {}

    def feed(self, event: Event) -> List[Span]:
        """The spans ``event`` closes, a cut-short stall before its run."""
        kind = event.kind
        key = (event.epoch, event.generation)
        if kind == "epoch_start":
            self.open_runs[key] = event
        elif kind in _STALL_KINDS:
            self.open_stalls[key] = event
        elif kind in _UNBLOCK_KINDS:
            start = self.open_stalls.pop(key, None)
            if start is not None:
                return [(start, event)]
        elif kind in ("commit", "squash"):
            closed = []
            for opened in (self.open_stalls, self.open_runs):
                start = opened.pop(key, None)
                if start is not None:
                    closed.append((start, event))
            return closed
        return []


def pair_spans(events: Iterable[Event]) -> Tuple[List[Span], List[Span]]:
    """``(runs, stalls)``: every closed span of a stream, in closing order."""
    pairer = SpanPairer()
    runs: List[Span] = []
    stalls: List[Span] = []
    for event in events:
        for start, end in pairer.feed(event):
            (runs if start.kind == "epoch_start" else stalls).append(
                (start, end)
            )
    return runs, stalls


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def jsonl_lines(events: Iterable[Event], meta: Optional[Dict] = None):
    """Yield the JSONL lines (header first) for an event stream."""
    header = {"schema": SCHEMA_VERSION, "stream": "repro.obs.events"}
    if meta:
        header.update(meta)
    yield json.dumps(header, sort_keys=True)
    for event in events:
        yield json.dumps(event.to_dict(), sort_keys=True)


def write_jsonl(
    events: Iterable[Event], path: str, meta: Optional[Dict] = None
) -> None:
    with open(path, "w") as handle:
        for line in jsonl_lines(events, meta):
            handle.write(line)
            handle.write("\n")


def read_jsonl(path: str) -> Tuple[Dict, List[Event]]:
    """Parse a JSONL event log; returns ``(header, events)``.

    A malformed log raises ``ValueError``; the message names a line
    that is not JSON, and leaves naming the file to the caller."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    records = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"line {number} column {exc.colno}: {exc.msg}"
                ) from None
    if not records:
        raise ValueError("empty event log")
    header = records[0]
    if not isinstance(header, dict) or header.get("stream") != "repro.obs.events":
        raise ValueError("not a repro.obs event log")
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"schema {header.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return header, [Event.from_dict(record) for record in records[1:]]


# ---------------------------------------------------------------------------
# Chrome trace / Perfetto
# ---------------------------------------------------------------------------

def _core_of(epoch: int, num_cores: int) -> int:
    """Epoch-to-core mapping (fixed by the engine's spawn rule)."""
    return epoch % num_cores if epoch >= 0 else 0


def chrome_trace(
    events: Sequence[Event],
    num_cores: int = 4,
    title: str = "repro trace",
) -> Dict:
    """Build a Trace Event Format payload from an event stream."""
    pid = 0
    region_tid = num_cores
    out: List[Dict] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": title},
        },
        {
            "ph": "M", "pid": pid, "tid": region_tid, "name": "thread_name",
            "args": {"name": "regions"},
        },
    ]
    for core in range(num_cores):
        out.append(
            {
                "ph": "M", "pid": pid, "tid": core, "name": "thread_name",
                "args": {"name": f"core {core}"},
            }
        )

    body: List[Dict] = []
    pairer = SpanPairer()
    open_region: Optional[Event] = None
    # (channel, msg_kind, consumer) -> FIFO of pending send events
    pending_sends: Dict[Tuple, List[Event]] = {}
    flows: List[Tuple[Event, Event]] = []
    miss_totals = {"l2": 0, "mem": 0}

    for event in events:
        kind = event.kind
        core = event.core if event.core >= 0 else _core_of(
            event.epoch, num_cores
        )
        for start, end in pairer.feed(event):
            if start.kind == "epoch_start":
                name = f"epoch {end.epoch}"
                if end.generation:
                    name += f" (retry {end.generation})"
                body.append(
                    {
                        "name": name, "cat": "epoch", "ph": "X",
                        "pid": pid, "tid": core,
                        "ts": start.time,
                        "dur": max(0.0, end.time - start.time),
                        "args": {"outcome": end.kind, **end.fields},
                    }
                )
            else:
                body.append(
                    {
                        "name": "stall ({})".format(
                            start.fields.get("channel")
                            or start.fields.get("cause", "?")
                        ),
                        "cat": "stall", "ph": "X", "pid": pid, "tid": core,
                        "ts": start.time,
                        "dur": max(0.0, end.time - start.time),
                        "args": dict(start.fields),
                    }
                )
        if kind == "region_start":
            open_region = event
        elif kind == "region_end" and open_region is not None:
            body.append(
                {
                    "name": "region {}:{}".format(
                        open_region.fields.get("function", "?"),
                        open_region.fields.get("header", "?"),
                    ),
                    "cat": "region", "ph": "X", "pid": pid, "tid": region_tid,
                    "ts": open_region.time,
                    "dur": max(0.0, event.time - open_region.time),
                }
            )
            open_region = None
        elif kind in ("fwd_send", "fwd_replace"):
            fifo_key = (
                event.fields.get("channel"),
                event.fields.get("msg_kind"),
                event.fields.get("consumer"),
            )
            if kind == "fwd_send":
                pending_sends.setdefault(fifo_key, []).append(event)
        elif kind == "fwd_wait":
            fifo_key = (
                event.fields.get("channel"),
                event.fields.get("msg_kind"),
                event.epoch,
            )
            fifo = pending_sends.get(fifo_key)
            if fifo:
                flows.append((fifo.pop(0), event))
        elif kind == "cache_miss":
            level = event.fields.get("level", "mem")
            if level in miss_totals:
                miss_totals[level] += 1
            body.append(
                {
                    "name": "cache misses", "cat": "cache", "ph": "C",
                    "pid": pid, "tid": 0, "ts": event.time,
                    "args": dict(miss_totals),
                }
            )
        if kind in _INSTANT_KINDS:
            body.append(
                {
                    "name": "{} ({})".format(
                        _INSTANT_KINDS[kind],
                        event.fields.get("reason", event.kind),
                    ),
                    "cat": "event", "ph": "i", "s": "t",
                    "pid": pid, "tid": core, "ts": event.time,
                    "args": dict(event.fields),
                }
            )

    for flow_id, (send, wait) in enumerate(flows, start=1):
        channel = send.fields.get("channel", "?")
        producer_core = _core_of(send.epoch, num_cores)
        consumer_core = _core_of(wait.epoch, num_cores)
        body.append(
            {
                "name": f"fwd {channel}", "cat": "fwd", "ph": "s",
                "id": flow_id, "pid": pid, "tid": producer_core,
                "ts": send.time,
            }
        )
        body.append(
            {
                "name": f"fwd {channel}", "cat": "fwd", "ph": "f", "bp": "e",
                "id": flow_id, "pid": pid, "tid": consumer_core,
                "ts": wait.time,
            }
        )

    body.sort(key=lambda entry: entry["ts"])
    out.extend(body)
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "metadata": {
            "schema": SCHEMA_VERSION,
            "source": "repro.obs",
            "cycles_per_us": 1,
            "num_cores": num_cores,
        },
    }


def write_chrome_trace(
    events: Sequence[Event],
    path: str,
    num_cores: int = 4,
    title: str = "repro trace",
) -> Dict:
    payload = chrome_trace(events, num_cores=num_cores, title=title)
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return payload


#: pid of the service-span track group in merged traces (sim pid is 0).
SERVICE_PID = 1


def spans_chrome_events(
    spans: Sequence[Dict],
    t0_s: Optional[float] = None,
    pid: int = SERVICE_PID,
) -> List[Dict]:
    """Service spans as Trace Event Format entries (wall-clock µs).

    One thread track per span ``component`` attribute (http,
    scheduler, worker, ...); timestamps are microseconds since the
    earliest span start (or ``t0_s``), so the service side of a merged
    trace starts near zero just like the sim side.
    """
    finished = [
        span for span in spans
        if isinstance(span, dict) and span.get("end_s") is not None
    ]
    if not finished:
        return []
    if t0_s is None:
        t0_s = min(span["start_s"] for span in finished)
    components: List[str] = []
    for span in finished:
        component = str(span.get("attrs", {}).get("component", "service"))
        if component not in components:
            components.append(component)
    out: List[Dict] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": "serve"},
        }
    ]
    for tid, component in enumerate(components):
        out.append(
            {
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": component},
            }
        )
    body: List[Dict] = []
    for span in finished:
        attrs = dict(span.get("attrs", {}))
        component = str(attrs.get("component", "service"))
        body.append(
            {
                "name": span.get("name", "span"),
                "cat": "service",
                "ph": "X",
                "pid": pid,
                "tid": components.index(component),
                "ts": max(0.0, (span["start_s"] - t0_s) * 1e6),
                "dur": max(
                    0.0, (span["end_s"] - span["start_s"]) * 1e6
                ),
                "args": {
                    "trace_id": span.get("trace_id"),
                    "span_id": span.get("span_id"),
                    "parent_id": span.get("parent_id"),
                    "status": span.get("status", "ok"),
                    **attrs,
                },
            }
        )
    body.sort(key=lambda entry: entry["ts"])
    out.extend(body)
    return out


def merged_chrome_trace(
    spans: Sequence[Dict],
    events: Sequence[Event] = (),
    num_cores: int = 4,
    title: str = "repro job",
    trace_id: Optional[str] = None,
) -> Dict:
    """One Chrome trace holding service spans *and* sim events.

    The sim event stream keeps its existing pid-0 tracks (one
    simulated cycle per microsecond); the request's service spans ride
    a second process (pid 1, wall-clock microseconds).  The shared
    ``trace_id`` lands in the document metadata and every span's args,
    which is what correlates the two sides.
    """
    if events:
        payload = chrome_trace(events, num_cores=num_cores, title=title)
    else:
        payload = {
            "traceEvents": [
                {
                    "ph": "M", "pid": 0, "name": "process_name",
                    "args": {"name": title},
                }
            ],
            "displayTimeUnit": "ms",
            "metadata": {
                "schema": SCHEMA_VERSION,
                "source": "repro.obs",
                "cycles_per_us": 1,
                "num_cores": num_cores,
            },
        }
    payload["traceEvents"].extend(spans_chrome_events(spans))
    metadata = payload.setdefault("metadata", {})
    metadata["service_pid"] = SERVICE_PID
    metadata["service_time_unit"] = "wall_us"
    if trace_id:
        metadata["trace_id"] = trace_id
    return payload


def validate_chrome_trace(payload: Dict) -> List[str]:
    """Schema check for exported traces; returns a list of problems."""
    problems: List[str] = []
    entries = payload.get("traceEvents")
    if not isinstance(entries, list) or not entries:
        return ["traceEvents missing or empty"]
    last_ts: Dict[Tuple, float] = {}
    flow_ids: Dict[object, List[str]] = {}
    for i, entry in enumerate(entries):
        ph = entry.get("ph")
        if ph not in ("M", "X", "i", "C", "s", "f"):
            problems.append(f"entry {i}: unknown ph {ph!r}")
            continue
        if ph == "M":
            continue
        if "ts" not in entry or not isinstance(entry["ts"], (int, float)):
            problems.append(f"entry {i}: missing numeric ts")
            continue
        if "pid" not in entry or "tid" not in entry:
            problems.append(f"entry {i}: missing pid/tid")
        if ph == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"entry {i}: X event with bad dur {dur!r}")
            track = (entry.get("pid"), entry.get("tid"))
            if entry["ts"] < last_ts.get(track, float("-inf")):
                problems.append(
                    f"entry {i}: ts goes backwards on track {track}"
                )
            last_ts[track] = entry["ts"]
        if ph in ("s", "f"):
            flow_ids.setdefault(entry.get("id"), []).append(ph)
    for flow_id, phases in flow_ids.items():
        if phases.count("s") != 1 or phases.count("f") != 1:
            problems.append(f"flow {flow_id!r}: unpaired s/f {phases}")
    return problems


# ---------------------------------------------------------------------------
# HTML report
# ---------------------------------------------------------------------------

_HTML_TEMPLATE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; }
canvas { border: 1px solid #ccc; background: #fff; display: block; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #ccc; padding: 2px 10px; text-align: left; }
.legend span { display: inline-block; margin-right: 1.2em; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          margin-right: 0.3em; vertical-align: middle; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<p class="legend">
<span><i class="swatch" style="background:#4caf7d"></i>committed</span>
<span><i class="swatch" style="background:#d9534f"></i>squashed</span>
<span><i class="swatch" style="background:#f0ad4e"></i>stalled</span>
<span><i class="swatch" style="background:#222"></i>violation</span>
</p>
<canvas id="timeline" width="960" height="10"></canvas>
<table id="metrics"><tr><th>event kind</th><th>count</th></tr></table>
<script>
const DATA = __DATA__;
const canvas = document.getElementById("timeline");
const lanes = DATA.num_cores;
const laneH = 34, pad = 42;
canvas.height = lanes * laneH + 24;
const ctx = canvas.getContext("2d");
const t0 = DATA.t0, span = Math.max(DATA.t1 - DATA.t0, 1e-9);
const w = canvas.width - pad - 8;
const x = t => pad + (t - t0) / span * w;
ctx.font = "11px monospace";
for (let c = 0; c < lanes; c++) {
  ctx.fillStyle = "#555";
  ctx.fillText("core " + c, 2, c * laneH + 20);
}
for (const r of DATA.runs) {
  ctx.fillStyle = r.committed ? "#4caf7d" : "#d9534f";
  const left = x(r.start);
  ctx.fillRect(left, r.core * laneH + 8, Math.max(x(r.end) - left, 1), 16);
}
for (const s of DATA.stalls) {
  ctx.fillStyle = "#f0ad4e";
  const left = x(s.start);
  ctx.fillRect(left, s.core * laneH + 12, Math.max(x(s.end) - left, 1), 8);
}
ctx.fillStyle = "#222";
for (const v of DATA.violations) {
  ctx.fillRect(x(v.time) - 1, v.core * laneH + 4, 2, 24);
}
ctx.fillStyle = "#555";
ctx.fillText("t=" + t0.toFixed(0), pad, lanes * laneH + 16);
const endLabel = "t=" + DATA.t1.toFixed(0);
ctx.fillText(endLabel,
             canvas.width - 8 - ctx.measureText(endLabel).width,
             lanes * laneH + 16);
const table = document.getElementById("metrics");
for (const [kind, count] of DATA.kind_counts) {
  const row = table.insertRow();
  row.insertCell().textContent = kind;
  row.insertCell().textContent = count;
}
</script>
</body>
</html>
"""


def html_report(
    events: Sequence[Event],
    num_cores: int = 4,
    title: str = "repro trace",
) -> str:
    """Self-contained HTML timeline + event-count table."""
    runs: List[Dict] = []
    stalls: List[Dict] = []
    violations: List[Dict] = []
    pairer = SpanPairer()
    kind_counts: Dict[str, int] = {}
    t0 = None
    t1 = None
    for event in events:
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
        core = event.core if event.core >= 0 else _core_of(
            event.epoch, num_cores
        )
        kind = event.kind
        for start, end in pairer.feed(event):
            if start.kind == "epoch_start":
                runs.append(
                    {
                        "core": core, "start": start.time, "end": end.time,
                        "committed": end.kind == "commit",
                    }
                )
            else:
                stalls.append(
                    {"core": core, "start": start.time, "end": end.time}
                )
        if kind == "violation":
            violations.append({"core": core, "time": event.time})
        if kind in ("region_start", "epoch_start"):
            if t0 is None or event.time < t0:
                t0 = event.time
        if t1 is None or event.time > t1:
            t1 = event.time
    data = {
        "num_cores": num_cores,
        "t0": 0.0 if t0 is None else t0,
        "t1": 1.0 if t1 is None else t1,
        "runs": runs,
        "stalls": stalls,
        "violations": violations,
        "kind_counts": sorted(kind_counts.items()),
    }
    page = _HTML_TEMPLATE.replace("__TITLE__", html.escape(title))
    return page.replace("__DATA__", json.dumps(data))


def write_html_report(
    events: Sequence[Event],
    path: str,
    num_cores: int = 4,
    title: str = "repro trace",
) -> None:
    with open(path, "w") as handle:
        handle.write(html_report(events, num_cores=num_cores, title=title))


# ---------------------------------------------------------------------------
# ASCII timeline
# ---------------------------------------------------------------------------

def render_timeline(
    events: Sequence[Event],
    width: int = 76,
    num_cores: Optional[int] = None,
    max_epoch: Optional[int] = None,
) -> str:
    """ASCII per-core occupancy of the first traced region.

    Committed runs render as ``[nn====]``, squashed ones as ``[nnxxxx]``
    (nn = epoch index modulo 100); stretches where the run was stalled
    on synchronization are overdrawn as ``~``; idle time is blank.  The
    scale is linear from region start to region end.  Regions with zero
    committed epochs (all runs squashed, or a trace cut short) render
    the squashed runs rather than erroring; a trace with no finished
    epoch runs at all yields a placeholder line.
    """
    run_spans, stall_spans = pair_spans(events)
    runs = [
        (start.epoch, start.generation, start.core, start.time, end.time,
         end.kind == "commit")
        for start, end in run_spans
        if math.isfinite(start.time) and math.isfinite(end.time)
    ]
    if max_epoch is not None:
        runs = [r for r in runs if r[0] <= max_epoch]
    if not runs:
        return "(no epoch runs traced)"
    start = min(r[3] for r in runs)
    end = max(r[4] for r in runs)
    span = max(end - start, 1e-9)
    cores = num_cores if num_cores and num_cores > 0 else (
        max(r[2] for r in runs) + 1
    )

    def column(time: float) -> int:
        return min(width - 1, max(0, int((time - start) / span * width)))

    #: (epoch, generation) -> run extent, for clipping stall segments
    extents = {(r[0], r[1]): (r[3], r[4]) for r in runs}
    stalls_by_run: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for stall, unblock in stall_spans:
        key = (stall.epoch, stall.generation)
        extent = extents.get(key)
        if extent is None:
            continue
        clipped_end = min(unblock.time, extent[1])
        clipped_start = max(stall.time, extent[0])
        if clipped_end > clipped_start:
            stalls_by_run.setdefault(key, []).append(
                (clipped_start, clipped_end)
            )

    rows = []
    for core in range(cores):
        line = [" "] * width
        for epoch, gen, run_core, run_start, run_end, committed in runs:
            if run_core != core:
                continue
            left, right = column(run_start), column(run_end)
            fill = "=" if committed else "x"
            for position in range(left, max(right, left + 1)):
                line[position] = fill
            for s_start, s_end in stalls_by_run.get((epoch, gen), ()):
                s_left, s_right = column(s_start), column(s_end)
                for position in range(s_left, max(s_right, s_left + 1)):
                    line[position] = "~"
            label = f"{epoch % 100:02d}"
            if right - left >= 3:
                line[left] = label[0]
                line[left + 1] = label[1]
        rows.append(f"core {core} |{''.join(line)}|")
    header = (
        f"t={start:.0f}"
        + " " * max(1, width - len(f"t={start:.0f}") - len(f"t={end:.0f}") + 7)
        + f"t={end:.0f}"
    )
    return "\n".join([header] + rows)
