#!/usr/bin/env python3
"""Visualize speculative execution: squashes vs forwarding.

Traces the first epochs of the PERLBMK region under plain TLS (U) and
under compiler-inserted synchronization (C) and draws the per-core
occupancy: ``==`` segments are committed epoch runs, ``xx`` segments
are squashed (wasted) runs.  Under U, the frequent symbol-table
dependence violates constantly and most of the machine is re-execution;
under C, the forwarded value lets the same epochs pipeline cleanly.

Run:  python examples/timeline.py [workload] [max_epoch]
"""

import sys

from repro.experiments.runner import bundle_for
from repro.obs.bus import CollectorSink, EventBus
from repro.obs.export import pair_spans, render_timeline
from repro.tlssim.engine import TLSEngine


def trace(module, label, max_epoch):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(module, obs=bus).run()
    runs, _stalls = pair_spans(collector.events)
    committed = sum(1 for _start, end in runs if end.kind == "commit")
    squashed = len(runs) - committed
    print(f"--- {label}: {committed} committed runs, {squashed} squashed runs")
    print(render_timeline(collector.events, width=74, max_epoch=max_epoch))
    print()
    return result


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "perlbmk"
    max_epoch = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    bundle = bundle_for(name)
    baseline = trace(bundle.compiled.baseline, f"{name} / U (plain TLS)", max_epoch)
    synced = trace(bundle.compiled.sync_ref, f"{name} / C (compiler sync)", max_epoch)
    assert baseline.return_value == synced.return_value
    speedup = baseline.region_cycles() / synced.region_cycles()
    print(f"identical results; synchronization made the region {speedup:.2f}x faster")


if __name__ == "__main__":
    main()
