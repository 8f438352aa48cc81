"""The parallel runner: planning, determinism, and run metrics."""

import concurrent.futures as futures
import json
import os
import signal

from repro.cli import main
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.scheduler import group_specs
from repro.tlssim.config import SimConfig

WORKLOADS = ["go", "mcf", "perlbmk"]
BARS = ("U", "C", "H", "B")

_execute_group = runner._execute_group


def _dies_on_mcf(payload):
    """A pool worker that is SIGKILLed when handed mcf's group (module
    level, so the pool can pickle it by name)."""
    if payload[0] == "mcf":
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_group(payload)


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False
    )


def _record_pools(monkeypatch):
    """Record the ``max_workers`` of every pool the runner builds (it
    imports the pool class when it starts one)."""
    sizes = []
    real = futures.ProcessPoolExecutor

    def pool(max_workers=None):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", pool)
    return sizes


class TestPlanning:
    def test_plan_bar_jobs_shape(self):
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        # one spec per (workload, bar) plus SEQ per workload
        assert len(specs) == len(WORKLOADS) * (len(BARS) + 1)
        assert all(spec.kind == "bar" for spec in specs)

    def test_graph_compile_dependencies(self):
        """One workload's bars share one group: one compile for all."""
        specs = runner.plan_bar_jobs(["go"], ("U", "C"))
        assert group_specs(specs) == [("go", 0.05, specs)]

    def test_groups_are_per_workload(self):
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        groups = group_specs(specs)
        assert len(groups) == len(WORKLOADS)
        for name, _threshold, members in groups:
            assert {spec.workload for spec in members} == {name}

    def test_groups_of_one_workload_at_two_thresholds_both_merge(
        self, fresh_bundles
    ):
        """Two groups share a workload name: each worker's results seed
        its own threshold's bundle, and each is recorded once."""
        metrics_mod.reset(workers=2)
        specs = [
            runner.JobSpec(workload="mcf", label="U", threshold=threshold)
            for threshold in (0.05, 0.2)
        ]
        runner.execute_plan(specs + specs[:1], jobs=2)
        for threshold in (0.05, 0.2):
            bundle = runner.bundle_for("mcf", threshold)
            assert not bundle.is_compiled
            assert len(bundle._sims) == 1
        run = metrics_mod.current()
        assert all(job.source == metrics_mod.SOURCE_WORKER for job in run.jobs)
        assert len([job for job in run.jobs if job.kind == "bar"]) == 2
        assert len([job for job in run.jobs if job.kind == "compile"]) == 2


class TestDeterminism:
    def _collect(self):
        state = {}
        for name in WORKLOADS:
            bundle = runner.bundle_for(name)
            for bar in BARS + ("SEQ",):
                state[(name, bar)] = bundle.simulate(bar).to_state()
        return state

    def test_parallel_matches_serial(self, fresh_bundles):
        """Fan-out over 2 workers is bit-identical to the serial path."""
        serial = self._collect()

        runner.clear_cache()
        metrics_mod.reset(workers=2)
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        runner.execute_plan(specs, jobs=2)

        # Results were computed in workers and merged back: the parent's
        # bundles serve them from memo without ever compiling.
        for name in WORKLOADS:
            assert not runner.bundle_for(name).is_compiled
        assert self._collect() == serial

        run = metrics_mod.current()
        sources = {job.source for job in run.jobs}
        assert sources == {metrics_mod.SOURCE_WORKER}
        # one metric per sim spec, plus one compile record per workload
        # (the artifact store was disabled, so every compile really ran)
        sims = [job for job in run.jobs if job.kind not in ("compile", "oracle")]
        compiles = [job for job in run.jobs if job.kind == "compile"]
        assert len(sims) == len(specs)
        assert {job.workload for job in compiles} == set(WORKLOADS)


class TestExecuteMetrics:
    def test_cold_then_warm_hits(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        specs = runner.plan_bar_jobs(["go"], ("U", "C"))

        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        cold = metrics_mod.current()
        assert cold.cache_misses > 0 and cold.cache_hits == 0

        runner.clear_cache()
        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        warm = metrics_mod.current()
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(specs)
        assert warm.hit_rate == 1.0
        assert not runner.bundle_for("go").is_compiled

    def test_run_metrics_json(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        specs = runner.plan_bar_jobs(["go"], ("U",))
        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        run = metrics_mod.current()
        run.stop()

        out = tmp_path / "run_metrics.json"
        run.write(str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["jobs"] == len(run.jobs)
        assert data["cache"]["misses"] == run.cache_misses
        assert len(data["per_job"]) == len(run.jobs)
        assert data["wall_s"] > 0

    def test_summary_table_renders(self):
        metrics_mod.reset(workers=2)
        metrics_mod.current().record("go", "C", "bar", metrics_mod.SOURCE_CACHE, 0.0)
        metrics_mod.current().stop()
        text = metrics_mod.current().format_summary()
        assert "run metrics" in text
        assert "cache hit rate" in text
        assert "100%" in text


class TestDefaultJobs:
    """An omitted ``--jobs`` means every usable CPU."""

    def test_one_usable_cpu_builds_no_pool(self, monkeypatch, capsys, fresh_bundles):
        _usable_cpus(monkeypatch, 1)
        sizes = _record_pools(monkeypatch)
        assert main(["summary", "--workloads", "go,mcf", "--no-cache"]) == 0
        assert sizes == []
        assert metrics_mod.current().workers == 1
        # no explicit --jobs and no --metrics-out: no run summary
        assert "run metrics" not in capsys.readouterr().err

    def test_default_pool_is_capped_by_workload_groups(
        self, monkeypatch, capsys, fresh_bundles
    ):
        _usable_cpus(monkeypatch, 3)
        sizes = _record_pools(monkeypatch)
        assert main(["summary", "--workloads", "go,mcf", "--no-cache"]) == 0
        assert sizes == [2]  # min(3 CPUs, 2 workload groups)
        assert metrics_mod.current().workers == 3

    def test_jobs_zero_records_the_resolved_worker_count(
        self, monkeypatch, capsys, fresh_bundles
    ):
        _usable_cpus(monkeypatch, 2)
        sizes = _record_pools(monkeypatch)
        assert main([
            "figure", "10", "--workloads", "go,mcf", "--jobs", "0", "--no-cache",
        ]) == 0
        assert sizes == [2]
        assert metrics_mod.current().workers == 2
        # an explicit --jobs prints the run summary
        err = capsys.readouterr().err
        assert "run metrics" in err
        assert [line.split() for line in err.splitlines()
                if line.strip().startswith("workers")] == [["workers", "2"]]


class TestSharedMemo:
    """A bar and a custom run of the same point simulate once."""

    def test_custom_run_of_a_bar_point_is_a_memo_hit(self, fresh_bundles):
        bundle = runner.bundle_for("go")
        metrics_mod.reset()
        bar = bundle.simulate("C")
        assert bundle.simulate_custom("sync_ref", SimConfig()) is bar
        sims = [j.label for j in metrics_mod.current().jobs
                if j.kind in ("bar", "custom")]
        assert sims == ["C"]

    def test_cold_report_simulates_each_point_once(
        self, tmp_path, monkeypatch, capsys, fresh_bundles
    ):
        _usable_cpus(monkeypatch, 2)
        store = str(tmp_path / "store")
        metrics = tmp_path / "run_metrics.json"
        assert main([
            "report", "--workloads", "go", "--cache-dir", store,
            "--metrics-out", str(metrics), "-o", str(tmp_path / "report.md"),
        ]) == 0
        jobs = json.loads(metrics.read_text())["per_job"]
        source = {job["label"]: job["source"] for job in jobs}
        # Figure 11's C and B marking modes are the C and B bars
        assert source["fig11:C"] == source["fig11:B"] == metrics_mod.SOURCE_MEMO
        computed = [
            job for job in jobs
            if job["kind"] in ("bar", "custom", "fig06")
            and job["source"] == metrics_mod.SOURCE_COMPUTED
        ]
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store]) == 0
        info = capsys.readouterr().out
        # one result entry per distinct simulation, plus the profile summary
        assert f"results : {len(computed) + 1}\n" in info


class TestWorkerLoss:
    def test_killed_worker_group_is_recomputed(
        self, monkeypatch, capsys, fresh_bundles
    ):
        argv = ["figure", "10", "--workloads", "go,mcf", "--no-cache"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out

        runner.clear_cache()
        monkeypatch.setattr(runner, "_execute_group", _dies_on_mcf)
        assert main(argv + ["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "runner: worker_lost" in captured.err
        assert "Traceback" not in captured.err
        mcf_bars = {
            job.source for job in metrics_mod.current().jobs
            if job.workload == "mcf" and job.kind == "bar"
        }
        assert mcf_bars == {metrics_mod.SOURCE_COMPUTED}
