"""Figure 7 — dependence distance distribution."""

from benchmarks.conftest import run_once
from repro.experiments import fig07_distance
from repro.experiments.reporting import format_table


def test_fig07(benchmark, all_names, show):
    rows = run_once(benchmark, fig07_distance.run, all_names)
    show(format_table(rows, fig07_distance.COLUMNS, "Figure 7: distribution of dependence distances (percent of dynamic dependences)"))
    # Short distances dominate for most benchmarks (the frequent,
    # synchronizable dependences are distance 1-2; the long tails come
    # from infrequent aliasing), so forwarding to the next epoch is apt.
    with_deps = [r for r in rows if r["events"]]
    assert with_deps
    short = [r for r in with_deps if r["dist_1"] + r["dist_2"] > 60.0]
    assert len(short) > len(with_deps) / 2
