"""Figure 2 — U vs O (perfect memory value communication potential)."""

from benchmarks.conftest import run_once
from repro.experiments import fig02_potential
from repro.experiments.reporting import BAR_COLUMNS, format_table


def test_fig02(benchmark, all_names, show):
    rows = run_once(benchmark, fig02_potential.run, all_names)
    show(format_table(rows, BAR_COLUMNS, "Figure 2: potential of perfect memory value communication"))
    gains = fig02_potential.potential_gain(rows)
    assert sum(1 for g in gains.values() if g > 1.3) >= 8
