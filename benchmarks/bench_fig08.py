"""Figure 8 — compiler-inserted synchronization, train vs ref profiles."""

from benchmarks.conftest import run_once
from repro.experiments import fig08_compiler_sync
from repro.experiments.reporting import BAR_COLUMNS, format_table


def test_fig08(benchmark, all_names, show):
    rows = run_once(benchmark, fig08_compiler_sync.run, all_names)
    show(format_table(rows, BAR_COLUMNS, "Figure 8: region time, U vs T (train profile) vs C (ref profile)"))
    improved = fig08_compiler_sync.improved_workloads(rows)
    assert 6 <= len(improved) <= 10
    by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
    sensitive = [n for n in all_names if abs(by_key[(n, "T")] - by_key[(n, "C")]) > 5.0]
    assert sensitive == ["gzip_comp"]
