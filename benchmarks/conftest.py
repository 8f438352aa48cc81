"""Shared fixtures for the figure/table regeneration benchmarks.

Each ``bench_figXX``/``bench_tableX`` module regenerates one of the
paper's tables or figures: it runs the experiment harness (timed by
pytest-benchmark), prints the rows/series the paper plots, and asserts
the reproduction's shape.  Workload bundles are compiled once per
process and shared across benchmarks via the runner's memoization.

Two opt-in environment variables wire the harness into the parallel
runner and the persistent store:

* ``REPRO_BENCH_JOBS=N`` — prewarm the full simulation matrix across
  ``N`` worker processes (0 = all cores) before any benchmark runs, so
  the timed harnesses measure rendering over warm memos;
* ``REPRO_BENCH_CACHE=1`` — enable the persistent store
  (``.repro_cache/``), which keeps simulation results and compiled
  artifacts, so repeated ``make microbench`` runs skip recomputation
  and recompilation entirely.

Both are off by default: cold timings stay the benchmark baseline.
"""

import os

import pytest

from repro.workloads import all_workloads

collect_ignore: list = []


@pytest.fixture(scope="session", autouse=True)
def experiment_runner_wiring():
    """Honor REPRO_BENCH_CACHE / REPRO_BENCH_JOBS for this session."""
    from repro.experiments import artifacts as artifacts_mod

    use_cache = os.environ.get("REPRO_BENCH_CACHE") == "1"
    artifacts_mod.configure(use_cache)
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    if jobs != 1:
        from repro.experiments.report import SECTIONS, plan_report_jobs
        from repro.experiments.runner import execute_plan

        names = [w.name for w in all_workloads()]
        titles = [title for title, *_ in SECTIONS]
        execute_plan(plan_report_jobs(names, titles), jobs=jobs)
    yield
    artifacts_mod.configure(False)


@pytest.fixture(scope="session")
def all_names():
    return [w.name for w in all_workloads()]


@pytest.fixture
def show(capsys):
    """Print a regenerated table so it survives pytest's capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single timed round (experiments are
    deterministic and too slow for statistical repetition)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
