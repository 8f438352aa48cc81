"""End-to-end reproduction claims, across the full benchmark suite.

Each test pins one of the paper's quantitative claims to the
reproduction.  These are the assertions EXPERIMENTS.md reports; they
compile and simulate every workload (memoized per session), so this
module is the slowest in the suite.
"""

import pytest

from repro.experiments import (
    fig02_potential,
    fig06_threshold,
    fig07_distance,
    fig08_compiler_sync,
    fig09_sync_cost,
    fig10_comparison,
    fig11_overlap,
    fig12_program,
    table2_speedups,
)
from repro.experiments.runner import bundle_for
from repro.ir.interpreter import run_module
from repro.workloads import all_workloads

ALL = [w.name for w in all_workloads()]


@pytest.fixture(scope="module")
def fig10_rows():
    return fig10_comparison.run(ALL)


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL)
    def test_every_binary_and_scheme_is_correct(self, name):
        bundle = bundle_for(name)
        expected = run_module(bundle.compiled.seq).return_value
        seq = bundle.simulate("SEQ")
        assert seq.return_value == expected
        for bar in ("U", "C", "T", "H", "B"):
            result = bundle.simulate(bar)
            assert result.return_value == expected, (name, bar)
            assert result.memory_checksum == seq.memory_checksum, (name, bar)

    @pytest.mark.parametrize("name", ALL)
    def test_signal_buffer_never_exceeds_ten_entries(self, name):
        """Paper §2.2: 'we never need a buffer larger than 10-entries'."""
        bundle = bundle_for(name)
        for bar in ("C", "B"):
            for region in bundle.simulate(bar).regions:
                assert region.max_signal_buffer <= 10


class TestFigure2Claim:
    def test_eliminating_failed_speculation_helps_most_benchmarks(self):
        """§1.2: 'for most benchmarks, eliminating failed speculation
        results in a substantial performance gain.'"""
        rows = fig02_potential.run(ALL)
        gains = fig02_potential.potential_gain(rows)
        substantial = [name for name, gain in gains.items() if gain > 1.3]
        assert len(substantial) >= 8, sorted(gains.items())


class TestFigure6Claim:
    def test_the_25_percent_set_leaves_a_benchmark_unimproved(self):
        """§2.4: predicting only the >25% loads leaves some benchmark no
        faster than sequential (the scorecard checks that the >5% set
        improves every benchmark)."""
        rows = fig06_threshold.run(ALL)
        assert not fig06_threshold.improves_all(rows, ">25%")


class TestFigure7Claim:
    def test_short_distances_dominate(self):
        """§2.4: the frequent, synchronizable dependences are distance
        1-2 (the long tails come from infrequent aliasing), so
        forwarding to the next epoch is apt for most benchmarks."""
        rows = fig07_distance.run(ALL)
        with_deps = [r for r in rows if r["events"]]
        assert with_deps
        short = [r for r in with_deps if r["dist_1"] + r["dist_2"] > 60.0]
        assert len(short) > len(with_deps) / 2, rows


class TestFigure8Claims:
    def test_compiler_sync_improves_about_half(self):
        """§4.1: C improves roughly half of the benchmarks."""
        rows = fig08_compiler_sync.run(ALL)
        improved = fig08_compiler_sync.improved_workloads(rows)
        assert 6 <= len(improved) <= 10, improved
        for name in ("go", "gzip_comp", "gzip_decomp", "gcc", "parser",
                     "perlbmk", "gap"):
            assert name in improved, improved

    def test_fail_slots_cut_dramatically_on_improvers(self):
        """§4.1: fail reduced by an average of 68% on the improved set."""
        rows = fig08_compiler_sync.run(ALL)
        improved = set(fig08_compiler_sync.improved_workloads(rows))
        reductions = fig08_compiler_sync.fail_reduction(rows)
        on_improvers = [reductions[n] for n in improved if n in reductions]
        average = sum(on_improvers) / len(on_improvers)
        assert average > 0.55, reductions

    def test_only_gzip_comp_is_profile_sensitive(self):
        rows = fig08_compiler_sync.run(ALL)
        by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
        sensitive = [
            name
            for name in ALL
            if abs(by_key[(name, "T")] - by_key[(name, "C")]) > 5.0
        ]
        assert sensitive == ["gzip_comp"]


class TestFigure9Claims:
    def test_idealized_sync_never_loses_to_compiler_sync(self):
        """§4.1: E (perfect values for synchronized loads) bounds C."""
        rows = fig09_sync_cost.run(ALL)
        by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
        for name in ALL:
            assert by_key[(name, "E")] <= by_key[(name, "C")] + 1.5, name

    def test_early_forwarding_beats_stall_until_commit(self):
        """§4.1: C beats L for nearly all benchmarks; an occasional tie
        or inversion is possible when the synchronized load sits at the
        very end of the epoch."""
        rows = fig09_sync_cost.run(ALL)
        by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
        c_not_worse = sum(
            by_key[(name, "C")] <= by_key[(name, "L")] + 1.5 for name in ALL
        )
        assert c_not_worse >= len(ALL) - 2


class TestFigure10Claims:
    def test_prediction_insignificant(self, fig10_rows):
        """§4.2: value prediction has insignificant effect."""
        by_key = {(r["workload"], r["bar"]): r["time"] for r in fig10_rows}
        deltas = [
            abs(by_key[(name, "P")] - by_key[(name, "U")]) for name in ALL
        ]
        assert sum(d < 3.0 for d in deltas) >= 12

    def test_at_least_eleven_benchmarks_improved_by_some_scheme(self, fig10_rows):
        """§4.2: 'In eleven out of the fifteen benchmarks, at least one
        synchronization technique is able to improve performance.'"""
        by_key = {(r["workload"], r["bar"]): r["time"] for r in fig10_rows}
        improved = [
            name
            for name in ALL
            if min(by_key[(name, "H")], by_key[(name, "C")])
            < by_key[(name, "U")] - 2.0
        ]
        assert len(improved) >= 10, improved

    def test_compiler_best_set(self, fig10_rows):
        """§4.2: GO, GZIP_DECOMP, PERLBMK, GAP best with compiler."""
        winners = fig10_comparison.best_scheme(fig10_rows)
        for name in ("go", "gzip_decomp", "perlbmk", "gap"):
            assert winners[name] == "C", (name, winners[name])

    def test_hardware_best_set(self, fig10_rows):
        """§4.2: M88KSIM and VPR_PLACE best with hardware (GZIP_COMP is
        a near-tie in the reproduction; see EXPERIMENTS.md)."""
        winners = fig10_comparison.best_scheme(fig10_rows)
        for name in ("m88ksim", "vpr_place"):
            assert winners[name] == "H", (name, winners[name])

    def test_hybrid_tracks_the_best_scheme_overall(self, fig10_rows):
        """§5: the hybrid 'did a better job of tracking the best
        performance overall than either approach individually.'"""
        by_key = {(r["workload"], r["bar"]): r["time"] for r in fig10_rows}
        def total_excess(bar):
            return sum(
                by_key[(name, bar)]
                - min(by_key[(name, "H")], by_key[(name, "C")])
                for name in ALL
            )
        assert total_excess("B") < total_excess("C")
        assert total_excess("B") < total_excess("H")

    def test_hybrid_close_to_the_best_scheme_everywhere(self, fig10_rows):
        """B stays within the default slack of min(H, C) on every
        benchmark, not only in total."""
        tracked = fig10_comparison.hybrid_tracks_best(fig10_rows)
        assert all(tracked.values()), tracked


class TestFigure11Claim:
    def test_schemes_choose_different_loads(self):
        """§4.2: 'a significant number of violating loads would only be
        synchronized by either the hardware or the compiler, but not
        both.'"""
        rows = fig11_overlap.run(["gzip_comp", "go", "vpr_place"])
        complementary = fig11_overlap.complementary_workloads(rows)
        assert len(complementary) >= 2, rows


class TestFigure12Claim:
    def test_program_level_improvements(self):
        """§4.3: memory-value synchronization has 'a significant
        positive impact' for several benchmarks at program level."""
        rows = fig12_program.run(ALL)
        improved = fig12_program.significantly_improved(rows)
        assert len(improved) >= 6, improved

    def test_best_overall_is_hybrid_capable(self):
        rows = fig12_program.run(ALL)
        by_key = {(r["workload"], r["bar"]): r["program_time"] for r in rows}
        b_wins_or_ties = sum(
            1
            for name in ALL
            if by_key[(name, "B")]
            <= min(by_key[(name, "C")], by_key[(name, "H")]) + 4.0
        )
        assert b_wins_or_ties >= 11


class TestTable2Claims:
    def test_program_speedups(self):
        """§4.3 / Table 2: every program speedup is positive, and the
        strongest compiler region speedup (the paper's belongs to
        PARSER-like codes) exceeds 1.5x."""
        rows = table2_speedups.run(ALL)
        for row in rows:
            assert row["program_speedup_both"] > 0, row
        best = max(rows, key=lambda r: r["region_speedup_compiler"])
        assert best["region_speedup_compiler"] > 1.5, best


class TestScorecard:
    def test_every_claim_reproduced(self):
        """The programmatic scorecard (also `python -m repro scorecard`)
        passes in full."""
        from repro.experiments.validate import format_scorecard, run_scorecard

        results = run_scorecard()
        assert all(r.ok for r in results), format_scorecard(results)

    def test_scorecard_structure(self):
        from repro.experiments.validate import CHECKS, run_scorecard

        results = run_scorecard()
        assert len(results) == len(CHECKS) >= 10
        for result in results:
            assert result.claim and result.where and result.detail
