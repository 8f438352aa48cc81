"""Experiment harnesses: row structure and headline claims (on subsets)."""

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
    table1_config,
    table2_speedups,
)
from repro.experiments.reporting import BAR_COLUMNS, format_table
from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for

SUBSET = ["go", "m88ksim", "gzip_decomp"]


class TestRunner:
    def test_bundle_memoized(self):
        assert bundle_for("go") is bundle_for("go")

    def test_bar_program_mapping(self):
        assert BAR_PROGRAM["U"] == "baseline"
        assert BAR_PROGRAM["C"] == "sync_ref"
        assert BAR_PROGRAM["T"] == "sync_train"
        assert BAR_PROGRAM["B"] == "sync_ref"

    def test_config_for_known_bars(self):
        assert config_for("H").hw_sync
        assert config_for("O").oracle_mode == "all"
        with pytest.raises(ValueError):
            config_for("X")

    def test_simulation_memoized(self):
        bundle = bundle_for("go")
        assert bundle.simulate("U") is bundle.simulate("U")


def assert_bar_rows(rows, bars):
    assert {r["bar"] for r in rows} == set(bars)
    for row in rows:
        assert row["time"] > 0
        total = row["busy"] + row["fail"] + row["sync"] + row["other"]
        assert abs(total - row["time"]) < 1e-6


class TestFig02:
    def test_rows(self):
        rows = fig02_potential.run(SUBSET)
        assert_bar_rows(rows, ("U", "O"))
        assert len(rows) == len(SUBSET) * 2

    def test_perfect_forwarding_always_helps(self):
        rows = fig02_potential.run(SUBSET)
        gains = fig02_potential.potential_gain(rows)
        assert all(g >= 1.0 for g in gains.values())
        # the paper's headline: substantial gains for most benchmarks
        assert sum(1 for g in gains.values() if g > 1.5) >= 2

    def test_o_bars_have_no_fail(self):
        rows = fig02_potential.run(SUBSET)
        for row in rows:
            if row["bar"] == "O":
                assert row["fail"] < 2.0


class TestFig06:
    def test_thresholds_monotone(self):
        rows = fig06_threshold.run(["bzip2_comp"])
        by_bar = {r["bar"]: r["time"] for r in rows}
        assert by_bar[">5%"] <= by_bar[">15%"] + 1e-6
        assert by_bar[">15%"] <= by_bar[">25%"] + 1e-6
        assert by_bar[">25%"] <= by_bar["U"] + 1e-6

    def test_bzip2_comp_needs_the_low_threshold(self):
        """§2.4: only predicting the >5% loads makes it speed up."""
        rows = fig06_threshold.run(["bzip2_comp"])
        by_bar = {r["bar"]: r["time"] for r in rows}
        assert by_bar[">25%"] > 90.0
        assert by_bar[">5%"] < 90.0


class TestFig07:
    def test_fractions_sum_to_100(self):
        rows = fig07_distance.run(SUBSET)
        for row in rows:
            if row["events"]:
                total = row["dist_1"] + row["dist_2"] + row["dist_gt2"]
                assert abs(total - 100.0) < 1e-6

    def test_twolf_distance_two(self):
        rows = fig07_distance.run(["twolf"])
        assert rows[0]["dist_2"] > 90.0

    def test_chain_dependences_distance_one(self):
        rows = fig07_distance.run(["gzip_decomp"])
        assert rows[0]["dist_1"] > 90.0


class TestFig08:
    def test_rows(self):
        rows = fig08_compiler_sync.run(SUBSET)
        assert_bar_rows(rows, ("U", "T", "C"))

    def test_improved_list_and_fail_reduction(self):
        rows = fig08_compiler_sync.run(["go", "gzip_decomp", "m88ksim"])
        improved = fig08_compiler_sync.improved_workloads(rows)
        assert "go" in improved and "gzip_decomp" in improved
        assert "m88ksim" not in improved
        reduction = fig08_compiler_sync.fail_reduction(rows)
        assert reduction["go"] > 0.6  # paper: fail cut by ~68% on average


class TestFig09:
    def test_e_le_c_le_l(self):
        rows = fig09_sync_cost.run(SUBSET)
        by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
        for name in SUBSET:
            assert by_key[(name, "E")] <= by_key[(name, "C")] + 1.0
            assert by_key[(name, "C")] <= by_key[(name, "L")] + 1.0

    def test_gzip_decomp_sync_sensitive(self):
        rows = fig09_sync_cost.run(["gzip_decomp"])
        assert "gzip_decomp" in fig09_sync_cost.sync_sensitive(rows)


class TestFig10:
    def test_rows(self):
        rows = fig10_comparison.run(SUBSET)
        assert_bar_rows(rows, ("U", "P", "H", "C", "B"))

    def test_winner_classification(self):
        rows = fig10_comparison.run(["go", "m88ksim"])
        winners = fig10_comparison.best_scheme(rows)
        assert winners["go"] == "C"
        assert winners["m88ksim"] == "H"

    def test_hybrid_tracks_best(self):
        rows = fig10_comparison.run(["go", "m88ksim", "gzip_decomp"])
        tracked = fig10_comparison.hybrid_tracks_best(rows)
        assert all(tracked.values())


class TestFig11:
    def test_rows_and_modes(self):
        rows = fig11_overlap.run(["gzip_comp"])
        assert {r["mode"] for r in rows} == {"U", "C", "H", "B"}
        for row in rows:
            parts = (
                row["compiler_only"] + row["hardware_only"]
                + row["both"] + row["neither"]
            )
            assert parts == row["violations"]

    def test_schemes_complementary(self):
        """§4.2: loads only one scheme would synchronize exist."""
        rows = fig11_overlap.run(["gzip_comp"])
        assert "gzip_comp" in fig11_overlap.complementary_workloads(rows)

    def test_stalling_reduces_marked_violations(self):
        rows = fig11_overlap.run(["gzip_comp"])
        by_mode = {r["mode"]: r for r in rows}
        assert by_mode["B"]["violations"] < by_mode["U"]["violations"]
        # stalling for the compiler's marks removes compiler-marked hits
        assert by_mode["C"]["compiler_only"] <= by_mode["U"]["compiler_only"]


class TestFig12AndTable2:
    def test_program_times(self):
        rows = fig12_program.run(SUBSET)
        for row in rows:
            assert row["program_time"] > 0
            assert 0 < row["coverage"] <= 100

    def test_low_coverage_dilutes_gains(self):
        rows = fig12_program.run(["go"])  # 22% coverage
        by_bar = {r["bar"]: r for r in rows}
        region_gain = by_bar["U"]["region_time"] - by_bar["C"]["region_time"]
        program_gain = by_bar["U"]["program_time"] - by_bar["C"]["program_time"]
        assert 0 < program_gain < region_gain

    def test_table2_columns(self):
        rows = table2_speedups.run(SUBSET)
        for row in rows:
            assert row["region_speedup_compiler"] > 0
            assert 0 < row["seq_region_speedup"] <= 1.0
            # sequential-region slowdown caps the program speedup
            assert row["program_speedup_both"] <= max(
                row["region_speedup_both"], 1.0 / row["seq_region_speedup"]
            ) + 1e-9

    def test_program_time_formula(self):
        assert fig12_program.program_time(100.0, 1.0, 1.0) == 100.0
        assert fig12_program.program_time(50.0, 0.5, 1.0) == 75.0
        # instrumentation overhead inflates the sequential part
        assert fig12_program.program_time(50.0, 0.5, 0.8) == 25.0 + 62.5


class TestTable1:
    def test_rows(self):
        rows = table1_config.run()
        assert {"parameter", "value"} <= set(rows[0])
        assert any(r["parameter"] == "Issue Width" for r in rows)

    def test_config_consistency(self):
        assert table1_config.verify() == []


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}]
        text = format_table(rows, ("a", "b"), title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_bar_columns(self):
        assert BAR_COLUMNS[0] == "workload"
