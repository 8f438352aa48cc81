"""Figure 6 — dependence-frequency threshold sweep (25% / 15% / 5%)."""

from benchmarks.conftest import run_once
from repro.experiments import fig06_threshold
from repro.experiments.reporting import BAR_COLUMNS, format_table


def test_fig06(benchmark, all_names, show):
    rows = run_once(benchmark, fig06_threshold.run, all_names)
    show(format_table(rows, BAR_COLUMNS, "Figure 6: perfect prediction of loads above each dependence-frequency threshold"))
    # The paper's conclusion: only the 5% set improves every benchmark.
    assert fig06_threshold.improves_all(rows, ">5%")
    assert not fig06_threshold.improves_all(rows, ">25%")
