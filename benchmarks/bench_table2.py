"""Table 2 — region coverage and program speedups."""

from benchmarks.conftest import run_once
from repro.experiments import table2_speedups
from repro.experiments.reporting import format_table


def test_table2(benchmark, all_names, show):
    rows = run_once(benchmark, table2_speedups.run, all_names)
    show(format_table(rows, table2_speedups.COLUMNS, "Table 2: region coverage and program speedup (relative to sequential execution)"))
    for row in rows:
        assert row["program_speedup_both"] > 0
    # the paper's strongest region speedup belongs to PARSER-like codes
    best = max(rows, key=lambda r: r["region_speedup_compiler"])
    assert best["region_speedup_compiler"] > 1.5
