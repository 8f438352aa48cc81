"""Figure 12 — whole-program performance."""

from benchmarks.conftest import run_once
from repro.experiments import fig12_program
from repro.experiments.reporting import format_table


def test_fig12(benchmark, all_names, show):
    rows = run_once(benchmark, fig12_program.run, all_names)
    show(format_table(rows, fig12_program.COLUMNS, "Figure 12: whole-program time (sequential original = 100)"))
    assert len(fig12_program.significantly_improved(rows)) >= 6
