"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    The workload suite with Table 2 metadata.
``compile WORKLOAD``
    Run the pipeline; print selection, profile, grouping and cloning
    reports; ``--emit BINARY`` dumps a binary as textual IR.
``simulate WORKLOAD``
    Simulate one bar (U/C/T/H/P/B/E/L/O) and print the slot breakdown.
``figure NAME`` / ``table NAME``
    Regenerate one of the paper's figures/tables (e.g. ``figure 10``).
``report``
    Regenerate the full measured-results document (EXPERIMENTS.md's
    final section).  The simulation matrix fans out over every usable
    core by default (``--jobs N`` caps it at N worker processes,
    ``--jobs 1`` runs serially); ``--metrics-out FILE`` writes run
    metrics as JSON.
``summary``
    One line per workload: U/C/H/B times and the winning scheme.
``scorecard``
    Evaluate every reproduced paper claim (exit code 1 on any failure;
    claims a ``--workloads`` subset cannot check are skipped).
``cache``
    Manage the persistent store (``info`` / ``clear``): simulation
    results and compiled artifacts share one root; ``clear --only
    results|artifacts`` scopes the wipe.
``serve``
    Run the simulation-as-a-service daemon: an HTTP/JSON API backed by
    persistent warm workers (compiled artifacts and decoded programs
    stay loaded between jobs), with admission control, same-workload
    batching, single-flight compilation and graceful drain on SIGTERM.
    See ``docs/serving.md``.
``top``
    Live terminal dashboard for a serve daemon: queue occupancy,
    per-worker state, latency percentiles and cache hit rates from
    ``/v1/stats`` + ``/v1/metrics``; ``--once`` prints one snapshot.
``trace``
    Simulate one (workload, bar) cell with the observability stack
    attached and export the event stream: ``--format chrome`` (open in
    Perfetto), ``jsonl``, ``html`` or ``timeline`` (ASCII); ``--job
    JOB_ID --url ...`` instead fetches a serve job's request spans and
    sim events and writes one merged Chrome trace.  See
    ``docs/observability.md``.
``analyze``
    Cycle accounting and stall attribution: split every graduation
    slot of a run into named causes (the accounting identity), rank
    the stall-causing sync pairs (``--top``, ``--by
    pair|epoch|address``), extract the cross-epoch critical path, and
    explain run-vs-run regressions (``--diff A B``).  Targets are
    ``WORKLOAD[:BAR]`` specs (live simulation) or JSONL event logs
    from ``repro trace --format jsonl``.  ``--format ascii|json|html``.
    See ``docs/analysis.md``.

Experiment commands memoize simulation results *and* compiled
artifacts in one store under ``.repro_cache/`` (override with
``--cache-dir`` or ``REPRO_CACHE_DIR``); ``--no-cache`` disables it
for one invocation.  They also take ``--log-level``/``--log-json`` to
control the structured service log (see ``docs/observability.md``).

Importing this module loads only what building the parser needs; each
``_cmd_*`` imports its own layer when it is dispatched.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.bars import BARS, unknown_bar_error
from repro.obs import log as obs_log


def _setup_run(args) -> None:
    """Install the persistent store and reset the metrics collector.

    ``--no-cache`` disables the store — a run with it recomputes
    everything and writes nothing.  An omitted or non-positive
    ``--jobs`` resolves to the usable CPU count here, so every layer
    below (and the run metrics) sees the worker count actually used.
    """
    from repro.experiments import artifacts as artifacts_mod
    from repro.experiments import metrics as metrics_mod

    artifacts_mod.configure(
        not getattr(args, "no_cache", False), getattr(args, "cache_dir", None)
    )
    if hasattr(args, "jobs"):
        args.jobs_given = args.jobs is not None
        if args.jobs is None or args.jobs < 1:
            from repro.experiments.runner import usable_cpus

            args.jobs = usable_cpus()
    metrics_mod.reset(workers=getattr(args, "jobs", 1))
    obs_log.configure(
        level=getattr(args, "log_level", "info"),
        json_mode=getattr(args, "log_json", False),
    )


def _finish_run(args) -> None:
    """Write/print run metrics if the command asked for them."""
    from repro.experiments import metrics as metrics_mod

    run = metrics_mod.current()
    run.stop()
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        run.write(metrics_out)
        print(f"wrote {metrics_out}", file=sys.stderr)
    if metrics_out or getattr(args, "jobs_given", False):
        print(run.format_summary(), file=sys.stderr)


def _cmd_list(_args) -> int:
    from repro.experiments.reporting import format_table
    from repro.workloads import all_workloads

    rows = [
        {
            "name": w.name,
            "spec": w.spec_name,
            "coverage": w.coverage * 100.0,
            "seq_overhead": w.seq_overhead,
            "signature": w.description[:60],
        }
        for w in all_workloads()
    ]
    print(format_table(
        rows, ("name", "spec", "coverage", "seq_overhead", "signature")
    ))
    return 0


def _cmd_compile(args) -> int:
    from repro.experiments.runner import bundle_for

    _setup_run(args)
    bundle = bundle_for(args.workload, threshold=args.threshold)
    compiled = bundle.compiled
    print(f"selected loops : {compiled.selected}")
    print(f"unroll factors : {compiled.unroll_factors}")
    for scalar_report in compiled.scalar_reports:
        print(
            f"scalar sync    : {scalar_report.communicating} "
            f"({scalar_report.waits_inserted} waits, "
            f"{scalar_report.signals_inserted} signals)"
        )
    for sched in compiled.scheduling_reports:
        print(f"hoisted        : {sched.hoisted}")
    for key, profile in compiled.profile_ref.items():
        print(f"profile {key}   : {profile.total_epochs} epochs")
        for pair in profile.frequent_pairs(args.threshold):
            store_ref, load_ref = pair
            print(
                f"  {100 * profile.pair_frequency(pair):5.1f}%  "
                f"store {store_ref} -> load {load_ref}"
            )
    for mem_report in compiled.memsync_reports_ref:
        print(
            f"memory sync    : {mem_report.groups} group(s), "
            f"{mem_report.loads_synchronized} load(s) guarded, "
            f"{mem_report.signal_sites} signal site(s), "
            f"{mem_report.clones_created} clone(s)"
        )
    if args.emit:
        from repro.ir.printer import format_module

        print(f"\n--- {args.emit} ---")
        print(format_module(getattr(compiled, args.emit)))
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.runner import bundle_for
    from repro.tlssim.config import SimConfig
    from repro.tlssim.stats import normalized_region_time

    _setup_run(args)
    bundle = bundle_for(args.workload, threshold=args.threshold)
    result = bundle.simulate(args.bar, base=SimConfig(num_cores=args.cores))
    sequential = bundle.simulate("SEQ")
    time, segments = normalized_region_time(result, sequential)
    print(f"workload   : {args.workload}   bar {args.bar}   cores {args.cores}")
    print(f"region time: {time:.1f} (sequential = 100)")
    print(
        f"slots      : busy {segments['busy']:.1f}  fail {segments['fail']:.1f}"
        f"  sync {segments['sync']:.1f}  other {segments['other']:.1f}"
    )
    for region in result.regions:
        print(
            f"region {region.function}:{region.header}: "
            f"{region.epochs_committed} committed, "
            f"{region.epochs_squashed} squashed, "
            f"{len(region.violations)} violations"
        )
    print(f"result     : {result.return_value}")
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import report as report_mod

    wanted = args.name.lower().lstrip("fig").lstrip("ure").strip()
    _setup_run(args)
    text = report_mod.generate_report(
        workloads=args.workloads, sections=[f"figure {wanted}"], jobs=args.jobs
    )
    if not text:
        print(f"no figure matches {args.name!r}", file=sys.stderr)
        return 1
    print(text)
    _finish_run(args)
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import report as report_mod

    _setup_run(args)
    text = report_mod.generate_report(
        workloads=args.workloads, sections=[f"table {args.name.strip()}"],
        jobs=args.jobs,
    )
    if not text:
        print(f"no table matches {args.name!r}", file=sys.stderr)
        return 1
    print(text)
    _finish_run(args)
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import report as report_mod

    _setup_run(args)
    text = report_mod.generate_report(workloads=args.workloads, jobs=args.jobs)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    _finish_run(args)
    return 0


def _cmd_summary(args) -> int:
    from repro.experiments import report as report_mod

    _setup_run(args)
    for line in report_mod.summary_lines(args.workloads, jobs=args.jobs):
        print(line)
    _finish_run(args)
    return 0


def _cmd_scorecard(args) -> int:
    from repro.experiments.validate import format_scorecard, run_scorecard

    _setup_run(args)
    results = run_scorecard(args.workloads)
    print(format_scorecard(results))
    return 0 if all(r.ok or r.skipped for r in results) else 1


def _cmd_cache(args) -> int:
    from repro.experiments import artifacts as artifacts_mod

    store = artifacts_mod.ArtifactStore(args.cache_dir)
    only = getattr(args, "only", "all")
    if args.action == "clear":
        if only in ("all", "results"):
            removed = store.clear(kinds=(artifacts_mod.KIND_RESULT,))
            print(f"removed {removed} cached result(s) from {store.root}")
        if only == "all":
            removed = store.clear()  # also entries older versions wrote
            print(f"removed {removed} artifact(s) from {store.root}")
        elif only == "artifacts":
            removed = store.clear(kinds=artifacts_mod.ARTIFACT_KINDS)
            print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    info = store.info()
    print(f"root    : {info['root']}")
    for name in ("results", "compiled", "oracles", "entries"):
        print(f"{name:<8}: {info[name]}")
    print(f"size    : {info['bytes']} bytes")
    return 0


def _trace_job(args) -> int:
    """``repro trace --job``: one merged service+sim Chrome trace."""
    import json

    from repro.obs.events import Event
    from repro.obs.export import merged_chrome_trace, validate_chrome_trace
    from repro.serve.client import ServeClient, ServeError

    with ServeClient(args.url) as client:
        try:
            trace = client.spans(args.job)
            status = client.status(args.job)
        except ServeError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 1
        events = []
        num_cores = args.cores
        if status.get("request", {}).get("events"):
            lines = [
                line
                for line in client.events_bytes(args.job).decode().splitlines()
                if line.strip()
            ]
            header = json.loads(lines[0]) if lines else {}
            num_cores = header.get("num_cores", num_cores)
            events = [Event.from_dict(json.loads(line)) for line in lines[1:]]
    payload = merged_chrome_trace(
        trace.get("spans", []),
        events=events,
        num_cores=num_cores,
        title=f"repro job {args.job}",
        trace_id=trace.get("trace_id") or None,
    )
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"trace: {problem}", file=sys.stderr)
        return 1
    output = args.output or f"trace_{args.job}.json"
    with open(output, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    print(f"wrote {output}")
    print(
        f"{len(trace.get('spans', []))} service span(s), "
        f"{len(events)} sim event(s), trace_id "
        f"{trace.get('trace_id') or '-'}",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments import trace as trace_mod
    from repro.tlssim.config import SimConfig

    if args.job:
        return _trace_job(args)
    if not args.workload:
        print("trace: --workload or --job is required", file=sys.stderr)
        return 2
    run = trace_mod.run_traced(
        args.workload,
        bar=args.bar,
        threshold=args.threshold,
        base=SimConfig(num_cores=args.cores) if args.cores != 4 else None,
    )
    if args.format == "timeline" and args.output is None:
        print(run.timeline())
    else:
        output = args.output or trace_mod.default_output(
            args.workload, args.bar, args.format
        )
        trace_mod.export(run, args.format, output)
        print(f"wrote {output}")
    by_category: dict = {}
    for event in run.events:
        category = event.kind.split("_", 1)[0]
        by_category[category] = by_category.get(category, 0) + 1
    print(
        f"{len(run.events)} events "
        f"({', '.join(f'{k}:{v}' for k, v in sorted(by_category.items()))})",
        file=sys.stderr,
    )
    print(
        f"epochs committed {run.result.counters.get('epochs_committed', 0):.0f}"
        f", squashed {run.result.counters.get('epochs_squashed', 0):.0f}",
        file=sys.stderr,
    )
    return 0


def _load_analysis(spec: str, args):
    """Resolve an analyze target: JSONL event log or WORKLOAD[:BAR].

    A log that cannot be read or attributed, or a target naming no
    workload or bar, raises ``AnalysisError`` with a one-line message.
    Only a WORKLOAD target loads the simulator.
    """
    import os

    from repro.obs.analysis import AnalysisError, attribute_events

    if os.path.exists(spec) or spec.endswith(".jsonl"):
        from repro.obs.export import read_jsonl

        try:
            header, events = read_jsonl(spec)
            meta = {
                key: header[key]
                for key in ("workload", "bar", "num_cores", "issue_width")
                if key in header
            }
            meta["source"] = spec
            return attribute_events(
                events,
                num_cores=header.get("num_cores"),
                issue_width=header.get("issue_width"),
                meta=meta,
            )
        except OSError as exc:
            raise AnalysisError(f"{spec}: {exc.strerror or exc}") from None
        except (ValueError, AnalysisError) as exc:
            raise AnalysisError(f"{spec}: {exc}") from None
    from repro.workloads.base import unknown_workload_error

    workload, _, bar = spec.partition(":")
    bar = (bar or args.bar).upper()
    error = unknown_workload_error(workload) or unknown_bar_error(bar)
    if error:
        raise AnalysisError(error)
    from repro.experiments import trace as trace_mod
    from repro.experiments.runner import bundle_for
    from repro.tlssim.config import SimConfig

    run = trace_mod.run_traced(
        workload,
        bar=bar,
        threshold=args.threshold,
        base=SimConfig(num_cores=args.cores) if args.cores != 4 else None,
    )
    meta = {
        "workload": workload,
        "bar": bar,
        "num_cores": run.num_cores,
        "issue_width": run.issue_width,
    }
    if args.cores == 4:
        # oracle upper bound (the O bar) for the critical-path slack
        # comparison; served from the persistent store when warm
        oracle = bundle_for(workload, threshold=args.threshold).simulate("O")
        meta["oracle_cycles"] = oracle.region_cycles()
    return attribute_events(run.events, meta=meta)


def _cmd_analyze(args) -> int:
    import json

    from repro.obs import analysis as analysis_mod

    _setup_run(args)
    if not (args.diff or args.target):
        print("analyze: a target (or --diff A B) is required", file=sys.stderr)
        return 2
    try:
        runs = [_load_analysis(spec, args) for spec in args.diff or [args.target]]
    except analysis_mod.AnalysisError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.diff:
        run_a, run_b = runs
        delta = analysis_mod.diff_analyses(
            run_a, run_b, label_a=args.diff[0], label_b=args.diff[1]
        )
        if args.format == "json":
            text = json.dumps(delta, indent=2, sort_keys=True) + "\n"
        else:
            text = analysis_mod.diff_report(delta, top=args.top)
    else:
        (run,) = runs
        if args.format == "json":
            text = json.dumps(
                analysis_mod.json_report(run, by=args.by, top=args.top),
                indent=2, sort_keys=True,
            ) + "\n"
        elif args.format == "html":
            text = analysis_mod.render_html(
                run, by=args.by, top=args.top,
                title=f"slot attribution — {args.target}",
            )
        else:
            text = analysis_mod.ascii_report(run, by=args.by, top=args.top)
            oracle_cycles = run.meta.get("oracle_cycles")
            if oracle_cycles:
                bound = sum(
                    r.critical_path()["bound_cycles"] for r in run.regions
                )
                cycles = sum(r.cycles for r in run.regions)
                text += (
                    f"\noracle bound: {oracle_cycles:.1f} cycles   "
                    f"observed {cycles:.1f}   "
                    f"signal-slack-free {bound:.1f}\n"
                )
        if run.identity_error != 0.0:
            print(
                f"WARNING: accounting identity violated by "
                f"{run.identity_error:g} slots",
                file=sys.stderr,
            )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_serve(args) -> int:
    from repro.experiments import runner

    # The workers' compute stack before the daemon's own modules: loaded
    # after them, the same modules peak ~2 MB higher in every process.
    runner.load_compute_stack()
    import asyncio

    from repro.serve.daemon import Daemon, ServeConfig

    obs_log.configure(level=args.log_level, json_mode=args.log_json)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        batch_limit=args.batch_limit,
        cache_enabled=not args.no_cache,
        cache_root=args.cache_dir,
        log_level=args.log_level,
        log_json=args.log_json,
    )
    try:
        asyncio.run(Daemon(config).run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_top(args) -> int:
    from repro.serve.top import run_top

    try:
        return run_top(args.url, interval=args.interval, once=args.once)
    except Exception as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def _cmd_sweep(args) -> int:
    from repro.sweep.grid import (
        SPECIAL_AXES,
        GridError,
        build_grid,
        load_grid,
        parse_axis,
    )
    from repro.sweep.run import run_sweep
    from repro.sweep.surface import (
        pick_axes,
        render_ascii_surface,
        render_html_surface,
    )

    _setup_run(args)
    try:
        if args.grid:
            if args.axis:
                raise GridError(
                    "--grid and --axis are mutually exclusive — put the "
                    "axes in the grid file or drop --grid"
                )
            grid = load_grid(args.grid)
        else:
            workloads = list(args.workloads or [])
            bars = list(args.bars or [])
            axes = []
            for spec in args.axis or []:
                name, values = parse_axis(spec)
                # workload/bar axes fold into the structural lists
                if name == "workload":
                    workloads.extend(v for v in values if v not in workloads)
                elif name == "bar":
                    bars.extend(v for v in values if v not in bars)
                else:
                    axes.append((name, values))
            if not workloads:
                print(
                    "sweep: no workloads — pass --workloads or "
                    "--axis workload=...",
                    file=sys.stderr,
                )
                return 2
            grid = build_grid(
                workloads=workloads,
                bars=bars or ["P"],
                threshold=args.threshold,
                axes=axes,
            )
    except GridError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    outcome = run_sweep(
        grid,
        out_dir=args.out_dir,
        jobs=args.jobs,
        fresh=args.fresh,
        max_points=args.max_points,
        log=lambda line: print(line, file=sys.stderr),
    )
    _finish_run(args)

    if outcome.records:
        try:
            rows, cols = pick_axes(grid, args.rows, args.cols)
        except ValueError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
        for axis in (rows, cols):
            if axis not in SPECIAL_AXES and not any(
                axis == name for name, _v in grid.axes
            ) and not any(
                axis in dict(point) for point in grid.points
            ):
                print(
                    f"sweep: surface axis {axis!r} is not swept by this "
                    "grid",
                    file=sys.stderr,
                )
                return 2
        print(
            render_ascii_surface(outcome.records, rows, cols, args.metric)
        )
        if args.html:
            html = render_html_surface(
                outcome.records, grid, rows, cols, args.metric
            )
            with open(args.html, "w") as handle:
                handle.write(html)
            print(f"wrote {args.html}", file=sys.stderr)
    print(
        f"sweep: {outcome.computed} computed, {outcome.resumed} resumed, "
        f"{outcome.total} total ({outcome.wall_s:.1f}s); state in "
        f"{outcome.state_path}",
        file=sys.stderr,
    )
    if not outcome.complete:
        return 3
    return 0


def _workload_name(value: str) -> str:
    from repro.workloads.base import unknown_workload_error

    error = unknown_workload_error(value)
    if error:
        raise argparse.ArgumentTypeError(error)
    return value


def _core_count(value: str) -> int:
    from repro.tlssim.config import override_error

    try:
        cores: object = int(value)
    except ValueError:
        cores = value
    error = override_error("num_cores", cores)
    if error:
        raise argparse.ArgumentTypeError(error)
    return cores


def _workload_list(value: str) -> List[str]:
    return [
        _workload_name(name.strip())
        for name in value.split(",")
        if name.strip()
    ]


def _scheme_list(value: str) -> List[str]:
    schemes = [name.strip().upper() for name in value.split(",") if name.strip()]
    for scheme in schemes:
        error = unknown_bar_error(scheme)
        if error:
            raise argparse.ArgumentTypeError(error)
    return schemes


def _add_run_options(parser, jobs: bool = True, metrics: bool = False) -> None:
    """Cache/parallelism options shared by the experiment commands."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent store (results and compiled artifacts)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent store location (default .repro_cache, or REPRO_CACHE_DIR)",
    )
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for the simulation matrix (default and "
            "0: every usable core; 1 runs serially in-process)",
        )
    if metrics:
        parser.add_argument(
            "--metrics-out",
            default=None,
            help="write run metrics (cache hits, speedup, utilization) as JSON",
        )
    parser.add_argument(
        "--log-level",
        choices=tuple(obs_log.LEVELS),
        default="info",
        help="structured-log threshold (default info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines instead of text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Compiler Optimization of Memory-Resident "
            "Value Communication Between Speculative Threads' (CGO 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite").set_defaults(
        func=_cmd_list
    )

    compile_parser = sub.add_parser("compile", help="run the TLS pipeline")
    compile_parser.add_argument("workload", type=_workload_name)
    compile_parser.add_argument("--threshold", type=float, default=0.05)
    compile_parser.add_argument(
        "--emit",
        choices=("seq", "baseline", "sync_ref", "sync_train"),
        help="dump one binary as textual IR",
    )
    _add_run_options(compile_parser, jobs=False)
    compile_parser.set_defaults(func=_cmd_compile)

    simulate_parser = sub.add_parser("simulate", help="simulate one bar")
    simulate_parser.add_argument("workload", type=_workload_name)
    simulate_parser.add_argument("--bar", choices=BARS, default="C")
    simulate_parser.add_argument("--cores", type=_core_count, default=4)
    simulate_parser.add_argument("--threshold", type=float, default=0.05)
    _add_run_options(simulate_parser, jobs=False)
    simulate_parser.set_defaults(func=_cmd_simulate)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", help="2, 6, 7, 8, 9, 10, 11 or 12")
    figure_parser.add_argument("--workloads", type=_workload_list, default=None)
    _add_run_options(figure_parser, metrics=True)
    figure_parser.set_defaults(func=_cmd_figure)

    table_parser = sub.add_parser("table", help="regenerate a paper table")
    table_parser.add_argument("name", help="1 or 2")
    table_parser.add_argument("--workloads", type=_workload_list, default=None)
    _add_run_options(table_parser, metrics=True)
    table_parser.set_defaults(func=_cmd_table)

    report_parser = sub.add_parser("report", help="full measured-results doc")
    report_parser.add_argument("-o", "--output", default=None)
    report_parser.add_argument("--workloads", type=_workload_list, default=None)
    _add_run_options(report_parser, metrics=True)
    report_parser.set_defaults(func=_cmd_report)

    summary_parser = sub.add_parser("summary", help="one line per workload")
    summary_parser.add_argument("--workloads", type=_workload_list, default=None)
    _add_run_options(summary_parser, metrics=True)
    summary_parser.set_defaults(func=_cmd_summary)

    scorecard_parser = sub.add_parser(
        "scorecard", help="evaluate every reproduced paper claim"
    )
    scorecard_parser.add_argument(
        "--workloads", type=_workload_list, default=None
    )
    _add_run_options(scorecard_parser, jobs=False)
    scorecard_parser.set_defaults(func=_cmd_scorecard)

    cache_parser = sub.add_parser(
        "cache", help="manage the persistent store of results and artifacts"
    )
    cache_parser.add_argument("action", choices=("info", "clear"))
    cache_parser.add_argument("--cache-dir", default=None)
    cache_parser.add_argument(
        "--only",
        choices=("all", "results", "artifacts"),
        default="all",
        help="scope for clear: simulation results, compiled artifacts "
        "(compiled programs and value oracles), or everything (default)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    trace_parser = sub.add_parser(
        "trace", help="simulate one cell with full event tracing"
    )
    trace_parser.add_argument(
        "--workload", type=_workload_name, default=None,
        help="workload name (see `repro list`)",
    )
    trace_parser.add_argument(
        "--job", default=None, metavar="JOB_ID",
        help="fetch a serve job's spans (and events, if submitted with "
        "events=true) and write one merged service+sim Chrome trace",
    )
    trace_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="serve daemon base URL for --job (default "
        "http://127.0.0.1:8765)",
    )
    trace_parser.add_argument("--bar", choices=BARS, default="C")
    trace_parser.add_argument("--cores", type=_core_count, default=4)
    trace_parser.add_argument("--threshold", type=float, default=0.05)
    trace_parser.add_argument(
        "--format",
        choices=("chrome", "jsonl", "html", "timeline"),
        default="chrome",
        help="chrome: Perfetto/chrome://tracing JSON; jsonl: raw event "
        "log; html: self-contained report; timeline: ASCII art",
    )
    trace_parser.add_argument(
        "-o", "--output", default=None,
        help="output file (default trace_WORKLOAD_BAR.EXT; timeline "
        "prints to stdout)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    analyze_parser = sub.add_parser(
        "analyze", help="cycle accounting, stall attribution, critical path"
    )
    analyze_parser.add_argument(
        "target", nargs="?", default=None,
        help="WORKLOAD[:BAR] to simulate, or a JSONL event log from "
        "`repro trace --format jsonl`",
    )
    analyze_parser.add_argument("--bar", choices=BARS, default="C")
    analyze_parser.add_argument("--cores", type=_core_count, default=4)
    analyze_parser.add_argument("--threshold", type=float, default=0.05)
    analyze_parser.add_argument(
        "--top", type=int, default=10,
        help="stall groups / diff movers to show (default 10)",
    )
    analyze_parser.add_argument(
        "--by", choices=("pair", "epoch", "address"), default="pair",
        help="stall grouping: static sync pair, (producer, consumer) "
        "epoch pair, or forwarded address",
    )
    analyze_parser.add_argument(
        "--diff", nargs=2, metavar=("RUN_A", "RUN_B"), default=None,
        help="explain how RUN_B regressed vs RUN_A (same target grammar)",
    )
    analyze_parser.add_argument(
        "--format", choices=("ascii", "json", "html"), default="ascii",
    )
    analyze_parser.add_argument(
        "-o", "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    _add_run_options(analyze_parser, jobs=False)
    analyze_parser.set_defaults(func=_cmd_analyze)

    serve_parser = sub.add_parser(
        "serve", help="run the simulation-as-a-service HTTP daemon"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks a free one (default 8765)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="persistent worker processes; 0 runs jobs one at a time "
        "on a daemon thread (default 2)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64,
        help="admission-control bound on queued jobs -> HTTP 429 "
        "(default 64)",
    )
    serve_parser.add_argument(
        "--batch-limit", type=int, default=8,
        help="max same-workload jobs handed to a worker at once "
        "(default 8)",
    )
    _add_run_options(serve_parser, jobs=False)
    serve_parser.set_defaults(func=_cmd_serve)

    top_parser = sub.add_parser(
        "top", help="live terminal dashboard for a serve daemon"
    )
    top_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="serve daemon base URL (default http://127.0.0.1:8765)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (CI-friendly)",
    )
    top_parser.set_defaults(func=_cmd_top)

    sweep_parser = sub.add_parser(
        "sweep",
        help="fan a machine/scheme config grid through the scheduler "
        "and render the scaling surface",
    )
    sweep_parser.add_argument(
        "--grid", default=None, metavar="FILE",
        help="declarative grid JSON (see docs/sweeping.md); mutually "
        "exclusive with --axis",
    )
    sweep_parser.add_argument(
        "--axis", action="append", default=None, metavar="NAME=V1,V2",
        help="sweep axis, repeatable (e.g. --axis num_cores=2,4,8 "
        "--axis predictor=last,stride); 'workload' and 'bar' fold "
        "into the workload/bar lists",
    )
    sweep_parser.add_argument(
        "--workloads", type=_workload_list, default=None,
        help="comma-separated workload names",
    )
    sweep_parser.add_argument(
        "--bars", type=_scheme_list, default=None,
        help="comma-separated bar labels (default P)",
    )
    sweep_parser.add_argument("--threshold", type=float, default=0.05)
    sweep_parser.add_argument(
        "-o", "--out-dir", default="sweep_out",
        help="sweep output directory — holds the resumable "
        "sweep_state.json (default sweep_out)",
    )
    sweep_parser.add_argument(
        "--fresh", action="store_true",
        help="ignore existing sweep state and recompute every point",
    )
    sweep_parser.add_argument(
        "--max-points", type=int, default=None,
        help="stop after N new points (exit 3 while incomplete); rerun "
        "to resume",
    )
    sweep_parser.add_argument(
        "--metric", default="region_time",
        choices=(
            "region_time", "speedup", "program_cycles", "region_cycles",
            "epochs_committed", "epochs_squashed", "violations",
        ),
        help="surface cell metric (default region_time)",
    )
    sweep_parser.add_argument(
        "--rows", default=None,
        help="surface row axis (default: first varying axis)",
    )
    sweep_parser.add_argument(
        "--cols", default=None,
        help="surface column axis (default: second varying axis)",
    )
    sweep_parser.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a self-contained HTML scaling surface",
    )
    _add_run_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
