"""Figure 11 — which scheme would have synchronized each violating load."""

from benchmarks.conftest import run_once
from repro.experiments import fig11_overlap
from repro.experiments.reporting import format_table


def test_fig11(benchmark, all_names, show):
    rows = run_once(benchmark, fig11_overlap.run, all_names)
    show(format_table(rows, fig11_overlap.COLUMNS, "Figure 11: violating loads classified by synchronizing scheme (stall modes U/C/H/B)"))
    assert len(fig11_overlap.complementary_workloads(rows)) >= 2
