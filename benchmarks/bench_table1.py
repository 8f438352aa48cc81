"""Table 1 — simulation parameters (config self-check)."""

from benchmarks.conftest import run_once
from repro.experiments import table1_config
from repro.experiments.reporting import format_table


def test_table1(benchmark, show):
    rows = run_once(benchmark, table1_config.run)
    show(format_table(rows, table1_config.COLUMNS, "Table 1: simulation parameters"))
    assert table1_config.verify() == []
