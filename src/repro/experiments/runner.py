"""Shared experiment machinery: compile once, simulate any bar.

Every figure/table experiment works from the same per-workload bundle:
the compiled binaries (sequential / U / C / T), their dependence
profiles, and memoized simulation results.  Compilation and simulation
are deterministic, and a result is fully determined by its program,
resolved config and parallel flag, so each distinct simulation runs
once whichever bar or experiment asks for it.  Results are memoized
at three levels:

* **in-process** — one dict per bundle;
* **on disk** — the persistent store's ``result`` kind
  (:mod:`repro.experiments.artifacts`), when the CLI enables it;
* **across cores** — :func:`execute_plan` schedules a sweep of
  :class:`JobSpec` simulation jobs, one group per compile key
  ``(workload, threshold)``, over a ``ProcessPoolExecutor``, merging
  results back deterministically so downstream rendering is
  byte-identical to a serial run.

Scheduling policy: a group's pending simulations run with its compile
in a single worker task, so compiled binaries never cross a process
boundary and each (workload, threshold) is compiled at most once per
run.  Parallelism is across workloads — the sweep matrix is 15
workloads wide, which saturates typical machines.

``jobs < 1`` means every usable CPU (:func:`usable_cpus`, also the
CLI's default ``--jobs``).  If a worker dies, the groups that already
returned are kept and the parent reruns the rest serially.

Compilation is lazy: a bundle only compiles when a simulation misses
every cache level or when profile/compile artifacts are requested, so
a warm-cache run never compiles at all.  When compilation *is* needed,
the same store's compiled artifacts are consulted first: a stored
:class:`CompiledWorkload` (or value oracle) deserializes in a fraction
of the compile time and is byte-identical to recompiling, so each
workload is compiled once per machine rather than once per process.

Importing this module loads no part of the compute stack (compiler,
engine, oracle collector, process pool): :func:`load_compute_stack`
imports it on the paths that compute, so a run served wholly from the
store never loads it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments.bars import BAR_PROGRAM, unknown_bar_error
from repro.experiments.scheduler import JobSpec, group_specs
from repro.obs import log as log_mod
from repro.tlssim.config import SimConfig
from repro.tlssim.stats import SimResult
from repro.workloads.base import Workload, get_workload

if TYPE_CHECKING:
    from repro.compiler.pipeline import CompiledWorkload
    from repro.ir.module import Module
    from repro.tlssim.oracle import ValueOracle

#: dependence-frequency thresholds whose load sets are part of the
#: cached profile summary (the Figure 6 sweep).
PROFILE_SET_THRESHOLDS = (0.25, 0.15, 0.05)


def load_compute_stack() -> None:
    """Import the compiler, the engine and the oracle collector.

    A bundle calls this before it first needs its programs and before
    each simulation it runs; :func:`execute_plan` and the serve pools
    call it before they start workers, so forked workers inherit the
    modules.
    """
    import repro.compiler.pipeline  # noqa: F401
    import repro.tlssim.engine  # noqa: F401
    import repro.tlssim.oracle  # noqa: F401


def config_for(bar: str, base: Optional[SimConfig] = None) -> SimConfig:
    """Machine configuration for one bar label."""
    config = base or SimConfig()
    if bar in ("U", "T", "C", "SEQ"):
        return config
    if bar == "O":
        return config.with_mode(oracle_mode="all")
    if bar == "E":
        return config.with_mode(oracle_mode="sync")
    if bar == "L":
        return config.with_mode(l_mode_stall=True)
    if bar == "H":
        return config.with_mode(hw_sync=True)
    if bar == "P":
        # keeps config.predictor, so a swept predictor axis composes
        return config.with_mode(prediction=True)
    if bar == "PS":
        return config.with_mode(prediction=True, predictor="stride")
    if bar == "PC":
        return config.with_mode(prediction=True, predictor="context")
    if bar == "B":
        return config.with_mode(hw_sync=True)
    raise ValueError(unknown_bar_error(bar))


#: What determines a simulation result within one bundle: (program
#: attribute, resolved config, parallel).
SimKey = Tuple[str, SimConfig, bool]


def bar_key(bar: str, base: Optional[SimConfig] = None) -> SimKey:
    """The simulation behind one bar label."""
    return BAR_PROGRAM[bar], config_for(bar, base), bar != "SEQ"


@dataclass
class WorkloadBundle:
    """Compiled binaries plus memoized simulations for one workload."""

    workload: Workload
    threshold: float = 0.05
    _compiled: Optional[CompiledWorkload] = None
    _oracles: Dict[str, ValueOracle] = field(default_factory=dict)
    _sims: Dict[SimKey, SimResult] = field(default_factory=dict)
    _profile_summary: Optional[Dict] = None
    #: compile/oracle provenance records, kept so worker processes can
    #: ship them back to the parent's metrics collector.
    _pipeline_jobs: List[Dict] = field(default_factory=list)

    def _record_pipeline(
        self, label: str, kind: str, source: str, wall_s: float
    ) -> None:
        self._pipeline_jobs.append(
            {"label": label, "kind": kind, "source": source, "wall_s": wall_s}
        )
        metrics_mod.current().record(
            self.workload.name, label, kind, source, wall_s
        )

    @property
    def compiled(self) -> CompiledWorkload:
        """The compiled binaries; served from the artifact store when
        warm, compiled (and stored) on first access otherwise."""
        if self._compiled is None:
            load_compute_stack()
            store = artifacts_mod.active_store()
            if store is not None:
                started = time.perf_counter()
                loaded = store.load_compiled(self.workload, self.threshold)
                if loaded is not None:
                    self._compiled = loaded
                    self._record_pipeline(
                        "compile", "compile", metrics_mod.SOURCE_CACHE,
                        time.perf_counter() - started,
                    )
                    return self._compiled
            from repro.compiler.pipeline import compile_workload

            started = time.perf_counter()
            self._compiled = compile_workload(
                self.workload.name,
                self.workload.build,
                self.workload.train_input,
                self.workload.ref_input,
                threshold=self.threshold,
            )
            self._record_pipeline(
                "compile", "compile", metrics_mod.SOURCE_COMPUTED,
                time.perf_counter() - started,
            )
            if store is not None:
                store.save_compiled(self.workload, self.threshold, self._compiled)
        return self._compiled

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def program(self, bar: str) -> Module:
        return getattr(self.compiled, BAR_PROGRAM[bar])

    def oracle_for(self, program_attr: str) -> ValueOracle:
        oracle = self._oracles.get(program_attr)
        if oracle is None:
            store = artifacts_mod.active_store()
            if store is not None:
                started = time.perf_counter()
                oracle = store.load_oracle(
                    self.workload, self.threshold, program_attr
                )
                if oracle is not None:
                    self._oracles[program_attr] = oracle
                    self._record_pipeline(
                        program_attr, "oracle", metrics_mod.SOURCE_CACHE,
                        time.perf_counter() - started,
                    )
                    return oracle
            from repro.tlssim.oracle import collect_oracle

            started = time.perf_counter()
            oracle = collect_oracle(getattr(self.compiled, program_attr))
            self._oracles[program_attr] = oracle
            self._record_pipeline(
                program_attr, "oracle", metrics_mod.SOURCE_COMPUTED,
                time.perf_counter() - started,
            )
            if store is not None:
                store.save_oracle(
                    self.workload, self.threshold, program_attr, oracle
                )
        return oracle

    # -- simulation ------------------------------------------------------
    def _disk_key(self, key: SimKey) -> str:
        program, config, parallel = key
        return cache_mod.result_key(
            self.workload.name,
            self.threshold,
            "sim",
            "",
            program,
            cache_mod.config_to_state(config),
            extra={"parallel": parallel},
        )

    def _cached(self, key: SimKey) -> Tuple[Optional[SimResult], str]:
        """The memo, then the store (a store hit seeds the memo)."""
        result = self._sims.get(key)
        if result is not None:
            return result, metrics_mod.SOURCE_MEMO
        store = artifacts_mod.active_store()
        if store is not None:
            result = store.get(
                self._disk_key(key), decode=SimResult.from_state
            )
            if result is not None:
                self._sims[key] = result
        return result, metrics_mod.SOURCE_CACHE

    def _simulate(self, kind: str, label: str, key: SimKey) -> Tuple[SimResult, str]:
        """One simulation and where it came from (a ``SOURCE_*``).

        ``key`` is ``(program attribute, resolved config, parallel)``,
        which fully determines the result, so a bar and a custom run of
        the same point share one memo entry and one stored result.
        Store hits and fresh runs are recorded in run metrics under the
        caller's ``kind`` and ``label``; memo hits are not.
        """
        result, source = self._cached(key)
        if result is not None:
            if source == metrics_mod.SOURCE_CACHE:
                metrics_mod.current().record(
                    self.workload.name, label, kind, source, 0.0,
                    counters=result.counters,
                )
            return result, source
        from repro.tlssim.engine import TLSEngine

        load_compute_stack()  # the store may have changed since compiling
        started = time.perf_counter()
        program_attr, config, parallel = key
        program = getattr(self.compiled, program_attr)
        oracle = None
        if config.oracle_mode != "off":
            oracle = self.oracle_for(program_attr)
        result = TLSEngine(program, config=config, oracle=oracle, parallel=parallel).run()
        self._sims[key] = result
        store = artifacts_mod.active_store()
        if store is not None:
            store.put(self._disk_key(key), result.to_state())
        metrics_mod.current().record(
            self.workload.name, label, kind, metrics_mod.SOURCE_COMPUTED,
            time.perf_counter() - started, counters=result.counters,
        )
        return result, metrics_mod.SOURCE_COMPUTED

    def simulate(self, bar: str, base: Optional[SimConfig] = None) -> SimResult:
        """Run one bar; memoized on (program, resolved config, parallel)."""
        return self._simulate("bar", bar, bar_key(bar, base))[0]

    def simulate_custom(
        self, program_attr: str, config: SimConfig, label: Optional[str] = None
    ) -> SimResult:
        """Simulation with a bespoke config; memoized like a bar.

        ``label`` names the job in run metrics (defaults to the
        program attribute).
        """
        return self._simulate(
            "custom", label or program_attr, (program_attr, config, True)
        )[0]

    # -- profile artifacts (compile-free on a warm cache) ----------------
    def profile_summary(self) -> Dict:
        """Profile-derived data the figure harnesses need.

        ``{"load_sets": {percent: [iids]}, "distance_hist": {d: n}}``;
        served from memory or the persistent cache so that Figures 6
        and 7 can render on a warm cache without recompiling.
        """
        if self._profile_summary is not None or self._stored_profile_summary():
            return self._profile_summary
        summary = self._compute_profile_summary()
        self._profile_summary = summary
        store = artifacts_mod.active_store()
        if store is not None:
            store.put(_profile_key(self.workload.name, self.threshold), summary)
        return summary

    def _stored_profile_summary(self) -> bool:
        """Seed the summary from the store; False when it has none."""
        store = artifacts_mod.active_store()
        if store is None:
            return False
        summary = store.get(
            _profile_key(self.workload.name, self.threshold),
            decode=_profile_from_state,
        )
        if summary is None:
            return False
        self._profile_summary = summary
        metrics_mod.current().record(
            self.workload.name, "profile", "profile",
            metrics_mod.SOURCE_CACHE, 0.0,
        )
        return True

    def _compute_profile_summary(self) -> Dict:
        load_sets: Dict[str, List[int]] = {}
        for threshold in PROFILE_SET_THRESHOLDS:
            loads: set = set()
            for profile in self.compiled.profile_ref.values():
                loads |= set(profile.loads_above(threshold))
            load_sets[_pct_key(threshold)] = sorted(loads)
        hist: Dict[str, int] = {}
        for profile in self.compiled.profile_ref.values():
            for distance, count in profile.distance_hist.items():
                key = str(distance)
                hist[key] = hist.get(key, 0) + count
        return {"load_sets": load_sets, "distance_hist": hist}

    def profile_load_set(self, threshold: float) -> frozenset:
        """Loads with dependences in more than ``threshold`` of epochs."""
        key = _pct_key(threshold)
        summary = self.profile_summary()
        if key not in summary["load_sets"]:
            # Not one of the canonical thresholds: derive directly.
            loads: set = set()
            for profile in self.compiled.profile_ref.values():
                loads |= set(profile.loads_above(threshold))
            return frozenset(loads)
        return frozenset(summary["load_sets"][key])

    def distance_histogram(self) -> Dict[int, int]:
        """Aggregate dependence-distance histogram across loops."""
        summary = self.profile_summary()
        return {int(k): v for k, v in summary["distance_hist"].items()}

    def normalized_region(
        self, bar: str, base: Optional[SimConfig] = None
    ) -> Tuple[float, Dict[str, float]]:
        """(normalized region time, busy/fail/sync/other segments)."""
        from repro.tlssim.stats import normalized_region_time

        return normalized_region_time(self.simulate(bar, base), self.simulate("SEQ"))

    def normalized_attribution(
        self, bar: str, base: Optional[SimConfig] = None
    ) -> Dict[str, float]:
        """Fine-grained cause -> height on the stacked-bar scale."""
        from repro.tlssim.stats import normalized_attribution

        return normalized_attribution(
            self.simulate(bar, base), self.simulate("SEQ")
        )


def _pct_key(threshold: float) -> str:
    return str(int(round(threshold * 100)))


def _profile_key(workload: str, threshold: float) -> str:
    return cache_mod.result_key(
        workload, threshold, "profile", "profile", "", None
    )


def _profile_from_state(payload: Dict) -> Dict:
    """A stored profile summary, checked for shape (raises if wrong)."""
    if not all(isinstance(payload[name], dict)
               for name in ("load_sets", "distance_hist")):
        raise TypeError("not a profile summary")
    return payload


_BUNDLES: Dict[str, WorkloadBundle] = {}


def bundle_for(name: str, threshold: float = 0.05) -> WorkloadBundle:
    """The (lazily compiled) bundle for workload ``name``."""
    key = f"{name}@{threshold}"
    bundle = _BUNDLES.get(key)
    if bundle is None:
        bundle = WorkloadBundle(workload=get_workload(name), threshold=threshold)
        _BUNDLES[key] = bundle
    return bundle


def clear_cache() -> None:
    """Drop all memoized bundles (tests use this for isolation)."""
    _BUNDLES.clear()


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _base_config(spec: JobSpec) -> Optional[SimConfig]:
    if spec.kind == "bar" and spec.overrides:
        return SimConfig(**dict(spec.overrides))
    return None


def _spec_key(spec: JobSpec, bundle: WorkloadBundle) -> SimKey:
    """The simulation behind a spec.

    ``fig06`` resolution touches the profile summary and may compile.
    """
    if spec.kind == "bar":
        return bar_key(spec.label, _base_config(spec))
    if spec.kind == "custom":
        return spec.program, SimConfig().with_mode(**dict(spec.overrides)), True
    if spec.kind == "fig06":
        load_set = bundle.profile_load_set(spec.param)
        config = SimConfig().with_mode(oracle_mode="set", oracle_set=load_set)
        return spec.program or "baseline", config, True
    raise ValueError(f"unknown job kind {spec.kind!r}")


def _run_sim(spec: JobSpec, bundle: WorkloadBundle) -> Tuple[SimKey, SimResult, str]:
    """Execute one simulation spec (any cache level may serve it).

    A memo hit is recorded as such: within a plan it means an earlier
    spec already ran the same simulation.
    """
    key = _spec_key(spec, bundle)
    result, source = bundle._simulate(spec.kind, spec.label, key)
    if source == metrics_mod.SOURCE_MEMO:
        metrics_mod.current().record(
            spec.workload, spec.label, spec.kind, source, 0.0,
            counters=result.counters,
        )
    return key, result, source


def _run_group(name: str, threshold: float, specs: Sequence[JobSpec]) -> None:
    """Run one workload's pending specs in this process."""
    bundle = bundle_for(name, threshold)
    for spec in specs:
        if spec.kind == "profile":
            bundle.profile_summary()
        else:
            _run_sim(spec, bundle)


def _try_resolve_from_cache(spec: JobSpec, bundle: WorkloadBundle) -> bool:
    """Serve a spec from memo/disk without computing; False on miss.

    Never compiles: a ``fig06`` spec whose profile summary is absent
    from every cache level is reported as a miss.
    """
    if spec.kind == "profile":
        return (
            bundle._profile_summary is not None
            or bundle._stored_profile_summary()
        )
    if spec.kind == "fig06" and bundle._profile_summary is None:
        if not _try_resolve_from_cache(
            JobSpec(workload=spec.workload, kind="profile", label="profile",
                    threshold=spec.threshold),
            bundle,
        ):
            return False
    result, source = bundle._cached(_spec_key(spec, bundle))
    if result is None:
        return False
    metrics_mod.current().record(
        spec.workload, spec.label, spec.kind, source, 0.0,
        counters=result.counters,
    )
    return True


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _execute_group(payload: Tuple[str, float, List[JobSpec], Optional[str]]) -> Dict:
    """Worker-side: compile one workload, run its pending simulations.

    Runs in a pool worker with the parent's persistent store (when it
    has one), as serve workers do: a stored compile loads instead of
    recompiling, and the worker persists its own compiles, results and
    profile summaries.  Results also travel back as serialized state
    so the parent can seed its memos and record metrics.
    """
    name, threshold, specs, store_root = payload
    artifacts_mod.configure(store_root is not None, store_root)
    artifacts_mod.reset_counters()  # forked workers inherit parent counts
    metrics_mod.reset()
    bundle = bundle_for(name, threshold)
    out: List[Dict] = []
    for spec in specs:
        started = time.perf_counter()
        if spec.kind == "profile":
            bundle.profile_summary()
            out.append(
                {"kind": "profile", "wall_s": time.perf_counter() - started}
            )
            continue
        (program, config, parallel), result, source = _run_sim(spec, bundle)
        out.append(
            {
                "kind": spec.kind,
                "program": program,
                "config": cache_mod.config_to_state(config),
                "parallel": parallel,
                "source": source,
                "result": result.to_state(),
                "wall_s": time.perf_counter() - started,
            }
        )
    return {
        "workload": name,
        "threshold": threshold,
        "pid": os.getpid(),
        "profile_summary": bundle._profile_summary,
        "pipeline": bundle._pipeline_jobs,
        "artifact_counters": artifacts_mod.counters(),
        "jobs": out,
    }


def _merge_group(group: Dict, specs: Sequence[JobSpec]) -> None:
    """Parent-side: seed memos and record metrics (the worker already
    persisted everything it computed).  ``group["jobs"]`` holds one
    entry per spec of ``specs``, in order."""
    bundle = bundle_for(group["workload"], group["threshold"])
    for job in group.get("pipeline", ()):
        # Compiles/oracle collections the worker actually performed
        # surface as worker jobs; artifact-store hits keep their cache
        # provenance so warm runs are visibly compile-free.
        source = job["source"]
        if source == metrics_mod.SOURCE_COMPUTED:
            source = metrics_mod.SOURCE_WORKER
        metrics_mod.current().record(
            group["workload"], job["label"], job["kind"], source,
            job["wall_s"], worker=group["pid"],
        )
    if group["profile_summary"] is not None and bundle._profile_summary is None:
        bundle._profile_summary = group["profile_summary"]
    for spec, job in zip(specs, group["jobs"]):
        if job["kind"] == "profile":
            metrics_mod.current().record(
                group["workload"], "profile", "profile",
                metrics_mod.SOURCE_WORKER, job["wall_s"], worker=group["pid"],
            )
            continue
        key = (job["program"], cache_mod.config_from_state(job["config"]),
               job["parallel"])
        result = SimResult.from_state(job["result"])
        bundle._sims[key] = result
        source, wall_s = job["source"], 0.0
        if source == metrics_mod.SOURCE_COMPUTED:
            source, wall_s = metrics_mod.SOURCE_WORKER, job["wall_s"]
        metrics_mod.current().record(
            group["workload"], spec.label, spec.kind, source, wall_s,
            worker=group["pid"], counters=result.counters,
        )


def execute_plan(specs: Sequence[JobSpec], jobs: int = 1) -> None:
    """Run a sweep of jobs, fanning out across ``jobs`` processes.

    ``jobs < 1`` means every usable CPU.  Identical specs run once.
    Serves whatever it can from the memo and the persistent cache,
    then dispatches the remaining specs of each compile key
    ``(workload, threshold)`` to a worker as one group: the bundle
    compiles once, then runs every spec of the group.  Results are
    merged deterministically — in group order, the order of each
    group's first spec, independent of completion order — and seeded
    into the in-process bundles so subsequent rendering never
    recomputes.  Groups lost to a dead worker (a broken pool) are
    rerun here, serially, in their place in that order.
    """
    if jobs < 1:
        jobs = usable_cpus()
    pending = [
        spec for spec in dict.fromkeys(specs)
        if not _try_resolve_from_cache(
            spec, bundle_for(spec.workload, spec.threshold)
        )
    ]
    if not pending:
        return
    groups = group_specs(pending)
    if jobs == 1 or len(groups) == 1:
        # Serial path: run in-process, same memo/disk/metric bookkeeping.
        for name, threshold, members in groups:
            _run_group(name, threshold, members)
        return
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    load_compute_stack()
    results: Dict[Tuple[str, float], Dict] = {}
    store_root = artifacts_mod.active_root()
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = {
            pool.submit(
                _execute_group, (name, threshold, members, store_root)
            ): (name, threshold)
            for name, threshold, members in groups
        }
        outstanding = set(futures)
        while outstanding:
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    group = future.result()
                except BrokenProcessPool:
                    continue  # rerun below, like every group not returned
                results[futures[future]] = group
                # Fold the worker's artifact-store counters in as soon
                # as its group lands (not at pool shutdown): commutative
                # sums, and a long-lived parent — the serve daemon uses
                # the same discipline — reports accurate hit/fallback
                # counts while other groups are still running.
                artifacts_mod.merge_counters(
                    group.get("artifact_counters", {})
                )
    lost = [
        f"{name}@{threshold}" for name, threshold, _members in groups
        if (name, threshold) not in results
    ]
    if lost:
        log_mod.get_logger("runner").warning(
            "worker_lost", workloads=",".join(lost)
        )
    # Deterministic merge: group order, spec order within.
    for name, threshold, members in groups:
        group = results.get((name, threshold))
        if group is not None:
            _merge_group(group, members)
        else:
            _run_group(name, threshold, members)


def plan_bar_jobs(
    workloads: Sequence[str],
    bars: Sequence[str],
    threshold: float = 0.05,
    include_seq: bool = True,
) -> List[JobSpec]:
    """Bar-simulation specs for a (workload x bar) sweep."""
    specs: List[JobSpec] = []
    for name in workloads:
        wanted = list(bars)
        if include_seq and "SEQ" not in wanted:
            wanted.append("SEQ")
        for bar in wanted:
            specs.append(
                JobSpec(workload=name, kind="bar", label=bar, threshold=threshold)
            )
    return specs
