"""Figure 10 — compiler vs hardware synchronization vs hybrid."""

from benchmarks.conftest import run_once
from repro.experiments import fig10_comparison
from repro.experiments.reporting import BAR_COLUMNS, format_table


def test_fig10(benchmark, all_names, show):
    rows = run_once(benchmark, fig10_comparison.run, all_names)
    show(format_table(rows, BAR_COLUMNS, "Figure 10: U / P / H / C / B region time"))
    winners = fig10_comparison.best_scheme(rows)
    for name in ("go", "gzip_decomp", "perlbmk", "gap"):
        assert winners[name] == "C"
    for name in ("m88ksim", "vpr_place"):
        assert winners[name] == "H"
    assert all(fig10_comparison.hybrid_tracks_best(rows).values())
