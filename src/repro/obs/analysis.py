"""Cycle accounting and stall attribution over the typed event stream.

The paper's evaluation (Section 1.2, Figures 9-10) argues from
*explained* execution time: every graduation slot of a region belongs
to a named cause.  One :class:`repro.tlssim.stats.SlotLedger` does that
arithmetic: the engine feeds it online from run fields
(``RegionStats.attribution``), this module offline from the event
stream, so the two agree bit for bit when the events carry what the
ledger needs (asserted by tests).  This module adds what aggregate
counters cannot carry: per-stall records keyed by (producer epoch,
consumer epoch, address, sync-pair iid), a cross-epoch critical path,
and run-vs-run regression diffs for ``repro analyze``.

Category taxonomy (slots; see ``docs/analysis.md``):

``busy``
    one slot per graduated instruction of a committed epoch.
``sync.scalar`` / ``sync.mem`` / ``sync.hw`` / ``sync.lmode``
    committed-epoch wait stalls by mechanism: scalar wait/signal
    channels, memory channels, hardware-inserted synchronization, and
    l-mode synchronized waits.
``fail.store`` / ``fail.commit`` / ``fail.sab`` / ``fail.prediction``
/ ``fail.parked`` / ``fail.control``
    slots consumed by squashed runs, by violation cause.
``squash_stall``
    time a doomed run sat stalled (or idle) between its last executed
    instruction and its squash; part of the coarse ``other`` bucket.
``mem_stall``
    cache latency beyond an L1 hit on committed runs.
``exec_latency``
    residual multi-cycle instruction latency of committed runs.
``commit_token`` / ``commit_flush``
    waiting for the in-order commit token; draining the write buffer.
``idle.ramp`` / ``idle.spawn`` / ``idle.recovery`` / ``idle.drain``
/ ``idle.no_thread``
    core-empty gaps: pipeline fill before a core's first epoch, spawn
    serialization between epochs, the restart penalty window after a
    squash, the tail after a core's last epoch, and cores that never
    hosted an epoch.
``seq``
    regions executed sequentially (baseline runs); engine-side only,
    since sequential regions emit no events.

The accounting identity — ``sum(categories) == slots.total`` exactly,
no clamped remainder — holds because every simulated time is a dyadic
rational (integer latencies divided by the power-of-two issue width),
so float sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.events import Event
from repro.tlssim.stats import SlotLedger, merge_attribution

#: JSON report schema version (independent of the event schema).
ANALYSIS_SCHEMA = 1

#: ``--by`` grouping modes for stall records.
GROUP_MODES = ("pair", "epoch", "address")


class AnalysisError(Exception):
    """The event stream cannot be attributed (old schema, truncation),
    or a ``repro analyze`` target names nothing to attribute."""


@dataclass
class StallRecord:
    """One resolved synchronization stall of one epoch run."""

    region: int                    #: region ordinal in the stream
    consumer: int                  #: stalled epoch
    producer: int                  #: epoch it waited on (consumer - 1)
    generation: int                #: run attempt that stalled
    mechanism: str                 #: 'fwd' (wait/signal) or 'oldest'
    cause: Optional[str]           #: scalar/mem (fwd) or hw/lmode
    channel: Optional[str]         #: forwarding channel, None for oldest
    msg_kind: Optional[str]        #: 'addr'/'value' for fwd stalls
    wait_iid: Optional[int]        #: static wait/load id (sync-pair id)
    addr: Optional[int]            #: forwarded address, when known
    start: float                   #: stall begin (cycles)
    end: float                     #: unblock time (cycles)
    stall: float                   #: stalled cycles (end - start)

    def to_dict(self) -> Dict:
        return {
            "region": self.region,
            "consumer": self.consumer,
            "producer": self.producer,
            "generation": self.generation,
            "mechanism": self.mechanism,
            "cause": self.cause,
            "channel": self.channel,
            "msg_kind": self.msg_kind,
            "wait_iid": self.wait_iid,
            "addr": self.addr,
            "start": self.start,
            "end": self.end,
            "stall": self.stall,
        }


@dataclass
class CommitInfo:
    """Timing of one committed epoch (critical-path node)."""

    epoch: int
    generation: int
    core: int
    start: float                   #: run start clock
    done: float                    #: clock when execution finished
    eff: float                     #: commit-token grant time
    end: float                     #: commit completion time


@dataclass
class RegionAnalysis:
    """Offline attribution of one parallelized-region instance."""

    index: int
    function: str
    header: str
    start: float
    end: float
    num_cores: int
    issue_width: int
    attribution: Dict[str, float] = field(default_factory=dict)
    stalls: List[StallRecord] = field(default_factory=list)
    commits: Dict[int, CommitInfo] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def total_slots(self) -> float:
        return self.cycles * self.issue_width * self.num_cores

    @property
    def attributed_slots(self) -> float:
        return sum(self.attribution.values())

    @property
    def identity_error(self) -> float:
        """``total - sum(categories)``; exactly 0.0 when accounts hold."""
        return self.total_slots - self.attributed_slots

    def critical_path(self) -> Dict:
        """The cross-epoch dependence chain bounding the region's time.

        Walks backward from the exit epoch's commit.  At each epoch the
        binding constraint is the commit-order edge when the run
        finished before the commit token arrived, else the last
        signal-wait unblock of the committed attempt, else the spawn
        edge from its predecessor.  Signal- and token-edge slacks are
        the removable synchronization cycles; ``bound_cycles`` is the
        region time with all signal slack removed (an upper bound on
        what better forwarding alone could achieve, to be compared with
        the oracle bound from ``tlssim/oracle.py``).
        """
        if not self.commits:
            return {
                "cycles": self.cycles, "hops": [], "signal_slack": 0.0,
                "commit_slack": 0.0, "bound_cycles": self.cycles,
            }
        last_stall: Dict[Tuple[int, int], StallRecord] = {}
        for record in self.stalls:
            key = (record.consumer, record.generation)
            prior = last_stall.get(key)
            if prior is None or record.end > prior.end:
                last_stall[key] = record
        hops: List[Dict] = []
        signal_slack = 0.0
        commit_slack = 0.0
        for epoch in range(max(self.commits), -1, -1):
            info = self.commits.get(epoch)
            if info is None:      # squashed forever? defensive
                continue
            if info.eff > info.done:
                slack = (info.eff - info.done)
                commit_slack += slack
                hops.append({
                    "epoch": epoch, "edge": "commit_order", "slack": slack,
                })
                continue
            record = last_stall.get((epoch, info.generation))
            if record is not None and record.stall > 0:
                signal_slack += record.stall
                hops.append({
                    "epoch": epoch, "edge": "signal",
                    "slack": record.stall, "channel": record.channel,
                    "wait_iid": record.wait_iid, "addr": record.addr,
                    "cause": record.cause,
                })
                continue
            hops.append({"epoch": epoch, "edge": "spawn", "slack": 0.0})
        return {
            "cycles": self.cycles,
            "hops": hops,
            "signal_slack": signal_slack,
            "commit_slack": commit_slack,
            "bound_cycles": self.cycles - signal_slack,
        }

    def to_dict(self) -> Dict:
        path = self.critical_path()
        return {
            "index": self.index,
            "function": self.function,
            "header": self.header,
            "start": self.start,
            "end": self.end,
            "num_cores": self.num_cores,
            "issue_width": self.issue_width,
            "total_slots": self.total_slots,
            "attribution": dict(self.attribution),
            "identity_error": self.identity_error,
            "critical_path": {
                "cycles": path["cycles"],
                "signal_slack": path["signal_slack"],
                "commit_slack": path["commit_slack"],
                "bound_cycles": path["bound_cycles"],
                "hops": len(path["hops"]),
                "top_signal_hops": sorted(
                    (h for h in path["hops"] if h["edge"] == "signal"),
                    key=lambda h: -h["slack"],
                )[:5],
            },
        }


@dataclass
class RunAnalysis:
    """Attribution of one whole event stream (all regions)."""

    regions: List[RegionAnalysis] = field(default_factory=list)
    meta: Dict = field(default_factory=dict)

    def merged_attribution(self) -> Dict[str, float]:
        return merge_attribution(self.regions)

    @property
    def total_slots(self) -> float:
        return sum(r.total_slots for r in self.regions)

    @property
    def identity_error(self) -> float:
        return sum(r.identity_error for r in self.regions)

    def all_stalls(self) -> List[StallRecord]:
        return [record for region in self.regions for record in region.stalls]


# ---------------------------------------------------------------------------
# the attribution pass
# ---------------------------------------------------------------------------


class _RegionState:
    """One region of the stream being attributed: feeds the region's
    :class:`SlotLedger` from event fields, and keeps the stall, address
    and critical-path bookkeeping the engine does not."""

    def __init__(self, index: int, event: Event,
                 num_cores: Optional[int], issue_width: Optional[int]):
        cores = event.fields.get("num_cores", num_cores)
        width = event.fields.get("issue_width", issue_width)
        if cores is None or width is None:
            raise AnalysisError(
                "region_start carries no num_cores/issue_width (stream "
                "predates the analysis schema) and none were supplied"
            )
        self.analysis = RegionAnalysis(
            index=index,
            function=event.fields.get("function", "?"),
            header=event.fields.get("header", "?"),
            start=event.time,
            end=event.time,
            num_cores=int(cores),
            issue_width=int(width),
        )
        self.ledger = SlotLedger(event.time, int(cores), int(width))
        self.last_commit_end = event.time
        self.starts: Dict[Tuple[int, int], float] = {}
        #: open stalls keyed (epoch, generation)
        self.open_stalls: Dict[Tuple[int, int], Event] = {}
        #: records awaiting an address from the next fwd_wait
        self.pending_addr: Dict[Tuple[int, str, str], StallRecord] = {}
        #: last consumed forwarded address per (channel, epoch)
        self.addr_of: Dict[Tuple[str, int], int] = {}

    def _require(self, event: Event, name: str):
        value = event.fields.get(name)
        if value is None and name not in event.fields:
            raise AnalysisError(
                f"{event.kind} event (seq {event.seq}) lacks field "
                f"{name!r}: stream predates the analysis schema"
            )
        return value

    def _start_of(self, event: Event) -> float:
        start = self.starts.get((event.epoch, event.generation))
        if start is None:
            raise AnalysisError(
                f"no epoch_start seen for epoch {event.epoch} "
                f"generation {event.generation} (truncated stream?)"
            )
        return start

    def on_commit(self, event: Event) -> None:
        start = self._start_of(event)
        done = self._require(event, "done_clock")
        eff = max(done, self.last_commit_end)
        self.last_commit_end = event.time
        self.ledger.commit(
            core=event.core, start=start, done=done, eff=eff, end=event.time,
            busy=self._require(event, "busy"),
            sync_scalar=self._require(event, "sync_scalar"),
            sync_mem=self._require(event, "sync_mem"),
            sync_hw=self._require(event, "sync_hw"),
            sync_lmode=self._require(event, "sync_lmode"),
            mem_stall=self._require(event, "mem_stall"),
        )
        self.analysis.commits[event.epoch] = CommitInfo(
            epoch=event.epoch, generation=event.generation, core=event.core,
            start=start, done=done, eff=eff, end=event.time,
        )

    def on_squash(self, event: Event) -> None:
        self.ledger.squash(
            core=event.core, start=self._start_of(event),
            clock=self._require(event, "clock"), time=event.time,
            cause=self._require(event, "cause"),
        )
        # a squash abandons any open stall of this attempt
        self.open_stalls.pop((event.epoch, event.generation), None)
        self.pending_addr = {
            key: record for key, record in self.pending_addr.items()
            if key[0] != event.epoch
        }

    def on_stall(self, event: Event) -> None:
        self.open_stalls[(event.epoch, event.generation)] = event

    def on_unblock(self, event: Event, mechanism: str) -> None:
        opened = self.open_stalls.pop((event.epoch, event.generation), None)
        start = opened.time if opened is not None else event.time
        stall = float(event.fields.get("stall", 0.0))
        channel = event.fields.get("channel")
        msg_kind = event.fields.get("msg_kind")
        record = StallRecord(
            region=self.analysis.index,
            consumer=event.epoch,
            producer=event.epoch - 1,
            generation=event.generation,
            mechanism=mechanism,
            cause=event.fields.get("cause"),
            channel=channel,
            msg_kind=msg_kind,
            wait_iid=event.fields.get(
                "wait_iid", event.fields.get("load_iid")
            ),
            addr=None,
            start=start,
            end=event.time,
            stall=stall,
        )
        if mechanism == "fwd" and record.cause == "mem":
            if msg_kind == "value":
                record.addr = self.addr_of.get((channel, event.epoch))
            else:
                # address arrives with the wait re-execution that follows
                self.pending_addr[(event.epoch, channel, msg_kind)] = record
        self.analysis.stalls.append(record)

    def on_wait(self, event: Event) -> None:
        channel = event.fields.get("channel")
        msg_kind = event.fields.get("msg_kind")
        if msg_kind == "addr":
            payload = event.fields.get("payload")
            if payload:
                self.addr_of[(channel, event.epoch)] = payload
        pending = self.pending_addr.pop(
            (event.epoch, channel, msg_kind), None
        )
        if pending is not None and msg_kind == "addr":
            payload = event.fields.get("payload")
            pending.addr = payload if payload else None

    def finish(self, event: Event) -> RegionAnalysis:
        self.analysis.end = event.time
        self.analysis.attribution = self.ledger.finalize(event.time)
        return self.analysis


def attribute_events(
    events: Iterable[Event],
    num_cores: Optional[int] = None,
    issue_width: Optional[int] = None,
    meta: Optional[Dict] = None,
) -> RunAnalysis:
    """Reproduce the engine's slot attribution from an event stream.

    ``num_cores``/``issue_width`` are fallbacks for streams whose
    ``region_start`` events predate the fields (newer streams carry
    them).  The result's per-region ``attribution`` dicts are
    bit-identical to the engine's ``RegionStats.attribution``.
    """
    run = RunAnalysis(meta=dict(meta or {}))
    state: Optional[_RegionState] = None
    for event in events:
        kind = event.kind
        if kind == "region_start":
            state = _RegionState(
                len(run.regions), event, num_cores, issue_width
            )
        elif state is None:
            continue
        elif kind == "epoch_start":
            state.starts[(event.epoch, event.generation)] = event.time
        elif kind == "commit":
            state.on_commit(event)
        elif kind == "squash":
            state.on_squash(event)
        elif kind in ("fwd_stall", "sync_stall"):
            state.on_stall(event)
        elif kind == "fwd_unblock":
            state.on_unblock(event, "fwd")
        elif kind == "sync_unblock":
            state.on_unblock(event, "oldest")
        elif kind == "fwd_wait":
            state.on_wait(event)
        elif kind == "region_end":
            run.regions.append(state.finish(event))
            state = None
    if state is not None:
        raise AnalysisError("stream ends inside a region (truncated?)")
    return run


# ---------------------------------------------------------------------------
# grouping and diffing
# ---------------------------------------------------------------------------


def group_stalls(
    stalls: List[StallRecord], by: str = "pair"
) -> List[Dict]:
    """Aggregate stall records, sorted by total stalled cycles.

    ``by``: 'pair' groups by the static sync pair (channel, wait iid);
    'epoch' by the (producer, consumer) epoch pair; 'address' by the
    forwarded memory address.  Covers every stall, including those of
    later-squashed runs (which coarse ``sync`` accounting excludes).
    """
    if by not in GROUP_MODES:
        raise ValueError(f"unknown grouping {by!r} (one of {GROUP_MODES})")
    groups: Dict[tuple, Dict] = {}
    for record in stalls:
        if by == "pair":
            key = (record.channel or record.mechanism, record.wait_iid)
            label = f"{record.channel or record.mechanism}#{record.wait_iid}"
        elif by == "epoch":
            key = (record.producer, record.consumer)
            label = f"e{record.producer}->e{record.consumer}"
        else:
            key = (record.addr,)
            label = hex(record.addr) if record.addr else "-"
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "key": label,
                "mechanism": record.mechanism,
                "cause": record.cause,
                "channel": record.channel,
                "wait_iid": record.wait_iid,
                "producer": record.producer,
                "consumer": record.consumer,
                "addr": record.addr,
                "count": 0,
                "cycles": 0.0,
                "max_stall": 0.0,
            }
        group["count"] += 1
        group["cycles"] += record.stall
        if record.stall > group["max_stall"]:
            group["max_stall"] = record.stall
    return sorted(
        groups.values(), key=lambda g: (-g["cycles"], g["key"])
    )


def diff_analyses(
    a: RunAnalysis, b: RunAnalysis,
    label_a: str = "A", label_b: str = "B",
) -> Dict:
    """Explain how run ``b`` differs from run ``a``.

    Slot categories are compared as shares of each run's own total (the
    runs need not be the same length), pair groups by stalled cycles.
    ``movers`` is sorted by share regression, worst first.
    """
    attr_a = a.merged_attribution()
    attr_b = b.merged_attribution()
    total_a = a.total_slots or 1.0
    total_b = b.total_slots or 1.0
    movers = []
    for cause in sorted(set(attr_a) | set(attr_b)):
        slots_a = attr_a.get(cause, 0.0)
        slots_b = attr_b.get(cause, 0.0)
        share_a = 100.0 * slots_a / total_a
        share_b = 100.0 * slots_b / total_b
        movers.append({
            "cause": cause,
            "slots_a": slots_a, "slots_b": slots_b,
            "share_a": share_a, "share_b": share_b,
            "delta_share": share_b - share_a,
            "delta_slots": slots_b - slots_a,
        })
    movers.sort(key=lambda m: -m["delta_share"])
    pairs_a = {g["key"]: g for g in group_stalls(a.all_stalls(), "pair")}
    pairs_b = {g["key"]: g for g in group_stalls(b.all_stalls(), "pair")}
    pair_movers = []
    for key in sorted(set(pairs_a) | set(pairs_b)):
        cycles_a = pairs_a.get(key, {}).get("cycles", 0.0)
        cycles_b = pairs_b.get(key, {}).get("cycles", 0.0)
        pair_movers.append({
            "pair": key,
            "cycles_a": cycles_a, "cycles_b": cycles_b,
            "delta_cycles": cycles_b - cycles_a,
        })
    pair_movers.sort(key=lambda m: -abs(m["delta_cycles"]))
    return {
        "label_a": label_a,
        "label_b": label_b,
        "total_slots_a": a.total_slots,
        "total_slots_b": b.total_slots,
        "cycles_a": sum(r.cycles for r in a.regions),
        "cycles_b": sum(r.cycles for r in b.regions),
        "movers": movers,
        "pair_movers": pair_movers,
        "top_regression": movers[0]["cause"] if movers else None,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _format_rows(rows: List[List[str]], header: List[str]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip()
        )
    return "\n".join(lines)


def json_report(
    analysis: RunAnalysis, by: str = "pair", top: int = 10
) -> Dict:
    """The machine-readable report ``repro analyze --format json`` emits."""
    attribution = analysis.merged_attribution()
    stalls = analysis.all_stalls()
    groups = group_stalls(stalls, by)
    return {
        "schema": ANALYSIS_SCHEMA,
        "stream": "repro.obs.analysis",
        "meta": dict(analysis.meta),
        "totals": {
            "slots": analysis.total_slots,
            "attributed": sum(attribution.values()),
            "identity_error": analysis.identity_error,
            "regions": len(analysis.regions),
            "stalls": len(stalls),
            "stall_cycles": sum(r.stall for r in stalls),
        },
        "attribution": attribution,
        "stalls": {"by": by, "top": groups[:top]},
        "regions": [region.to_dict() for region in analysis.regions],
    }


def ascii_report(
    analysis: RunAnalysis, by: str = "pair", top: int = 10
) -> str:
    """Human-readable breakdown for the terminal."""
    out: List[str] = []
    meta = analysis.meta
    title = " ".join(
        str(meta[key]) for key in ("workload", "bar") if key in meta
    ) or "event stream"
    attribution = analysis.merged_attribution()
    total = analysis.total_slots
    out.append(f"slot attribution — {title}")
    out.append(f"regions: {len(analysis.regions)}   "
               f"total slots: {total:.1f}   "
               f"identity error: {analysis.identity_error:g}")
    out.append("")
    rows = [
        [cause, f"{slots:.1f}",
         f"{100.0 * slots / total:.2f}%" if total else "-"]
        for cause, slots in sorted(
            attribution.items(), key=lambda item: -item[1]
        )
    ]
    out.append(_format_rows(rows, ["cause", "slots", "share"]))
    stalls = analysis.all_stalls()
    if stalls:
        out.append("")
        out.append(f"top stalls by {by} "
                   f"({len(stalls)} stalls, "
                   f"{sum(r.stall for r in stalls):.1f} cycles):")
        rows = []
        for group in group_stalls(stalls, by)[:top]:
            rows.append([
                group["key"],
                str(group["count"]),
                f"{group['cycles']:.1f}",
                f"{group['max_stall']:.1f}",
                f"e{group['producer']}->e{group['consumer']}"
                if by != "epoch" else (group["cause"] or "-"),
                hex(group["addr"]) if group.get("addr") else "-",
            ])
        out.append(_format_rows(
            rows,
            ["key", "count", "cycles", "max", "last pair", "addr"],
        ))
    for region in analysis.regions:
        path = region.critical_path()
        if not path["hops"]:
            continue
        out.append("")
        out.append(
            f"critical path — region {region.index} "
            f"({region.function}:{region.header}): "
            f"{path['cycles']:.1f} cycles over {len(path['hops'])} epochs; "
            f"signal slack {path['signal_slack']:.1f}, "
            f"commit slack {path['commit_slack']:.1f}, "
            f"bound {path['bound_cycles']:.1f} cycles"
        )
        signal_hops = sorted(
            (h for h in path["hops"] if h["edge"] == "signal"),
            key=lambda h: -h["slack"],
        )[:min(top, 5)]
        for hop in signal_hops:
            out.append(
                f"  epoch {hop['epoch']}: waited "
                f"{hop['slack']:.1f} cycles on "
                f"{hop['channel'] or 'oldest'}#{hop['wait_iid']}"
                + (f" @{hex(hop['addr'])}" if hop.get("addr") else "")
            )
    return "\n".join(out) + "\n"


def diff_report(delta: Dict, top: int = 10) -> str:
    """Human-readable regression explanation for ``--diff``."""
    out: List[str] = []
    out.append(
        f"diff: {delta['label_a']} -> {delta['label_b']}   "
        f"region cycles {delta['cycles_a']:.1f} -> "
        f"{delta['cycles_b']:.1f}"
    )
    out.append("")
    rows = [
        [m["cause"], f"{m['share_a']:.2f}%", f"{m['share_b']:.2f}%",
         f"{m['delta_share']:+.2f}%", f"{m['delta_slots']:+.1f}"]
        for m in delta["movers"][:top]
    ]
    out.append(_format_rows(
        rows,
        ["cause", delta["label_a"], delta["label_b"], "Δshare", "Δslots"],
    ))
    if delta["top_regression"]:
        out.append("")
        out.append(f"largest regression: {delta['top_regression']}")
    pair_movers = [m for m in delta["pair_movers"] if m["delta_cycles"]]
    if pair_movers:
        out.append("")
        rows = [
            [m["pair"], f"{m['cycles_a']:.1f}", f"{m['cycles_b']:.1f}",
             f"{m['delta_cycles']:+.1f}"]
            for m in pair_movers[:top]
        ]
        out.append(_format_rows(
            rows,
            ["sync pair", delta["label_a"], delta["label_b"], "Δcycles"],
        ))
    return "\n".join(out) + "\n"


# -- HTML ---------------------------------------------------------------------

_HTML_TEMPLATE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
         background: #fafafa; color: #222; }
  h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
  .bar { display: flex; height: 2.2em; border: 1px solid #888;
         border-radius: 3px; overflow: hidden; max-width: 64em; }
  .seg { height: 100%; }
  table { border-collapse: collapse; margin-top: 0.8em; }
  th, td { border: 1px solid #ccc; padding: 0.25em 0.7em;
           font-size: 0.85em; text-align: right; }
  th { background: #eee; } td:first-child, th:first-child { text-align: left; }
  .sw { display: inline-block; width: 0.8em; height: 0.8em;
        margin-right: 0.4em; border: 1px solid #888; }
  #identity { font-weight: bold; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<p>Graduation-slot attribution (paper-style breakdown; Section 1.2).
Identity error: <span id="identity"></span></p>
<div class="bar" id="bar"></div>
<h2>Categories</h2>
<table id="categories"></table>
<h2>Top stalls</h2>
<table id="stalls"></table>
<script>
const DATA = __DATA__;
const PALETTE = {
  busy: "#4a90d9", "sync.scalar": "#e8a33d", "sync.mem": "#e86f3d",
  "sync.hw": "#d9c24a", "sync.lmode": "#c9a227", mem_stall: "#9b59b6",
  exec_latency: "#7fb3d5", commit_token: "#76448a", commit_flush: "#af7ac5",
  squash_stall: "#f1948a", seq: "#95a5a6"
};
function color(cause) {
  if (PALETTE[cause]) return PALETTE[cause];
  if (cause.startsWith("fail.")) return "#c0392b";
  if (cause.startsWith("idle.")) return "#bdc3c7";
  return "#7f8c8d";
}
const total = DATA.totals.slots || 1;
document.getElementById("identity").textContent =
  DATA.totals.identity_error.toString();
const entries = Object.entries(DATA.attribution).sort((a,b)=>b[1]-a[1]);
const bar = document.getElementById("bar");
for (const [cause, slots] of entries) {
  const seg = document.createElement("div");
  seg.className = "seg";
  seg.style.width = (100 * slots / total) + "%";
  seg.style.background = color(cause);
  seg.title = cause + ": " + slots.toFixed(1) + " slots ("
    + (100 * slots / total).toFixed(2) + "%)";
  bar.appendChild(seg);
}
const cat = document.getElementById("categories");
cat.innerHTML = "<tr><th>cause</th><th>slots</th><th>share</th></tr>" +
  entries.map(([cause, slots]) =>
    `<tr><td><span class="sw" style="background:${color(cause)}"></span>` +
    `${cause}</td><td>${slots.toFixed(1)}</td>` +
    `<td>${(100 * slots / total).toFixed(2)}%</td></tr>`).join("");
const st = document.getElementById("stalls");
st.innerHTML =
  "<tr><th>key</th><th>count</th><th>cycles</th><th>max</th></tr>" +
  DATA.stalls.top.map(g =>
    `<tr><td>${g.key}</td><td>${g.count}</td>` +
    `<td>${g.cycles.toFixed(1)}</td>` +
    `<td>${g.max_stall.toFixed(1)}</td></tr>`).join("");
</script>
</body>
</html>
"""


def render_html(
    analysis: RunAnalysis, by: str = "pair", top: int = 10,
    title: str = "slot attribution",
) -> str:
    """Self-contained HTML breakdown report (no external assets)."""
    import json as _json

    payload = json_report(analysis, by=by, top=top)
    return (
        _HTML_TEMPLATE
        .replace("__TITLE__", title)
        .replace("__DATA__", _json.dumps(payload))
    )
