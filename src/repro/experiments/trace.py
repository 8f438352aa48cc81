"""One-shot traced simulation for the ``repro trace`` command.

Runs a single (workload, bar) cell with the full observability stack
attached — a :class:`~repro.obs.bus.CollectorSink` for the raw event
stream, a :class:`~repro.tlssim.tracing.Tracer` for the ASCII
timeline, and a :class:`~repro.obs.registry.MetricsSink` aggregating
counters and histograms — then exports the stream in the requested
format (Chrome trace for Perfetto/``chrome://tracing``, JSONL, a
self-contained HTML report, or the ASCII timeline itself).

Traced runs are never served from the persistent store: the point is the
event stream, which only a live engine produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.bus import CollectorSink, EventBus
from repro.obs.events import Event
from repro.obs.export import (
    write_chrome_trace,
    write_html_report,
    write_jsonl,
)
from repro.obs.registry import MetricsRegistry, MetricsSink
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.tlssim.stats import SimResult
from repro.tlssim.tracing import Tracer, render_timeline

#: formats ``export`` understands
TRACE_FORMATS = ("chrome", "jsonl", "html", "timeline")


@dataclass
class TraceRun:
    """Everything a traced simulation produced."""

    workload: str
    bar: str
    num_cores: int
    issue_width: int
    result: SimResult
    events: List[Event]
    tracer: Tracer
    registry: MetricsRegistry

    def timeline(self, width: int = 76) -> str:
        return render_timeline(
            self.tracer, width=width, num_cores=self.num_cores
        )


def run_traced(
    workload: str,
    bar: str = "C",
    threshold: float = 0.05,
    base: Optional[SimConfig] = None,
) -> TraceRun:
    """Simulate one cell with the observability stack attached."""
    from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for

    bundle = bundle_for(workload, threshold)
    config = config_for(bar, base)
    program = bundle.program(bar)
    oracle = None
    if config.oracle_mode != "off":
        oracle = bundle.oracle_for(BAR_PROGRAM[bar])
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    tracer = bus.attach(Tracer())
    registry = MetricsRegistry()
    bus.attach(MetricsSink(registry, scheme=bar))
    engine = TLSEngine(
        program,
        config=config,
        oracle=oracle,
        parallel=(bar != "SEQ"),
        obs=bus,
    )
    result = engine.run()
    return TraceRun(
        workload=workload,
        bar=bar,
        num_cores=config.num_cores,
        issue_width=config.issue_width,
        result=result,
        events=collector.events,
        tracer=tracer,
        registry=registry,
    )


def default_output(workload: str, bar: str, fmt: str) -> str:
    """Output filename used when ``repro trace`` is not given ``-o``."""
    ext = {"chrome": "json", "jsonl": "jsonl", "html": "html",
           "timeline": "txt"}[fmt]
    return f"trace_{workload}_{bar}.{ext}"


def export(run: TraceRun, fmt: str, output: str) -> None:
    """Write a traced run to ``output`` in ``fmt``."""
    title = f"{run.workload} bar {run.bar}"
    if fmt == "chrome":
        write_chrome_trace(
            run.events, output, num_cores=run.num_cores, title=title
        )
    elif fmt == "jsonl":
        write_jsonl(
            run.events, output,
            meta={"workload": run.workload, "bar": run.bar,
                  "num_cores": run.num_cores,
                  "issue_width": run.issue_width},
        )
    elif fmt == "html":
        write_html_report(
            run.events, output, num_cores=run.num_cores, title=title
        )
    elif fmt == "timeline":
        with open(output, "w") as handle:
            handle.write(run.timeline())
            handle.write("\n")
    else:
        raise ValueError(
            f"unknown trace format {fmt!r} "
            f"(choose from {', '.join(TRACE_FORMATS)})"
        )
