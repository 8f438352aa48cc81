"""The sweep lab: grids, resumable execution, scaling surfaces.

Grid tests are pure validation (no simulation); the run tests drive
``run_sweep`` over tiny one-workload grids and pin the resume
contract — a rerun computes zero points, a partial (``max_points``)
run resumes exactly where it stopped, and a foreign or stale state
file is ignored rather than trusted.
"""

import json

import pytest

from repro.sweep.grid import (
    GridError,
    SweepPoint,
    build_grid,
    load_grid,
    parse_axis,
)
from repro.sweep.run import run_sweep
from repro.sweep.surface import (
    pick_axes,
    render_ascii_surface,
    render_html_surface,
    surface_table,
)
from repro.tlssim.config import override_error
from repro.workloads.base import unknown_workload_error


class TestParseAxis:
    def test_parses_and_coerces(self):
        assert parse_axis("num_cores=2,4,8") == ("num_cores", (2, 4, 8))
        assert parse_axis("spawn_cost=2.5") == ("spawn_cost", (2.5,))
        assert parse_axis("hw_hint_persistent=true,false") == (
            "hw_hint_persistent", (True, False),
        )

    def test_special_axes_stay_strings(self):
        assert parse_axis("bar=U,C") == ("bar", ("U", "C"))
        assert parse_axis("workload=go") == ("workload", ("go",))

    @pytest.mark.parametrize("bad", ("num_cores", "=2,4", "num_cores="))
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(GridError):
            parse_axis(bad)


class TestGridValidation:
    def test_unknown_axis_name(self):
        with pytest.raises(GridError) as caught:
            build_grid(["go"], ["U"], axes=[("num_corez", (2,))])
        assert str(caught.value) == override_error("num_corez", 2)

    def test_bad_axis_value(self):
        with pytest.raises(GridError) as caught:
            build_grid(["go"], ["U"], axes=[("num_cores", (0,))])
        assert str(caught.value) == override_error("num_cores", 0)
        assert "num_cores must be between" in str(caught.value)

    def test_fractional_count_axis_value(self):
        with pytest.raises(GridError) as caught:
            build_grid(["go"], ["U"], axes=[("num_cores", (2, 2.5))])
        assert str(caught.value) == "num_cores must be an integer (got 2.5)"

    def test_special_axis_as_override(self):
        with pytest.raises(GridError, match="special axis"):
            build_grid(["go"], ["U"], axes=[("bar", ("U",))])

    def test_unknown_workload_and_bar(self):
        with pytest.raises(GridError, match="unknown workload") as caught:
            build_grid(["nope"], ["U"])
        assert str(caught.value) == unknown_workload_error("nope")
        with pytest.raises(GridError, match="unknown bar"):
            build_grid(["go"], ["XX"])

    def test_axes_and_points_are_exclusive(self):
        with pytest.raises(GridError, match="mutually exclusive"):
            build_grid(
                ["go"], ["U"],
                axes=[("num_cores", (2,))],
                points=[{"num_cores": 4}],
            )

    def test_expansion_order_and_count(self):
        grid = build_grid(
            ["go", "mcf"], ["U", "C"],
            axes=[("num_cores", (2, 4))],
        )
        points = grid.expand()
        assert len(points) == 8  # 2 workloads x 2 cores x 2 bars
        # workload-major so the runner keeps one bundle hot per chunk
        assert [p.workload for p in points[:4]] == ["go"] * 4

    def test_explicit_points(self):
        grid = build_grid(
            ["go"], ["P"],
            points=[
                {"num_cores": 2},
                {"num_cores": 8, "predictor": "stride"},
            ],
        )
        assert len(grid.expand()) == 2
        assert grid.axis_names() == ["num_cores"]  # predictor: 1 value

    def test_point_ids_are_stable_and_distinct(self):
        a = SweepPoint("go", "P", 0.05, (("num_cores", 2),))
        b = SweepPoint("go", "P", 0.05, (("num_cores", 2),))
        c = SweepPoint("go", "P", 0.05, (("num_cores", 4),))
        assert a.point_id == b.point_id
        assert a.point_id != c.point_id

    def test_axis_value_falls_back_to_config_default(self):
        point = SweepPoint("go", "P", 0.05, ())
        assert point.axis_value("num_cores") == 4
        assert point.axis_value("workload") == "go"
        assert point.axis_value("bar") == "P"

    def test_grid_key_tracks_content(self):
        grid_a = build_grid(["go"], ["U"], axes=[("num_cores", (2, 4))])
        grid_b = build_grid(["go"], ["U"], axes=[("num_cores", (2, 8))])
        assert grid_a.grid_key() != grid_b.grid_key()
        assert grid_a.grid_key() == build_grid(
            ["go"], ["U"], axes=[("num_cores", (2, 4))]
        ).grid_key()


class TestLoadGrid:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_loads_a_valid_grid(self, tmp_path):
        path = self._write(tmp_path, {
            "workloads": ["go"],
            "bars": ["p", "ps"],  # case-normalized
            "axes": {"num_cores": [2, 8]},
        })
        grid = load_grid(path)
        assert grid.bars == ("P", "PS")
        assert len(grid.expand()) == 4

    @pytest.mark.parametrize(
        "payload,match",
        (
            ({"bars": ["U"]}, "'workloads'"),
            ({"workloads": ["go"]}, "'bars'"),
            ({"workloads": ["go"], "bars": ["U"], "extra": 1},
             "unknown grid key"),
            ({"workloads": ["go"], "bars": ["U"], "axes": []},
             "'axes' must be an object"),
            ({"workloads": ["go"], "bars": ["U"],
              "axes": {"num_cores": 2}}, "must map to a list"),
        ),
    )
    def test_rejects_malformed_files(self, tmp_path, payload, match):
        with pytest.raises(GridError, match=match):
            load_grid(self._write(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(GridError, match="cannot read grid file"):
            load_grid(str(tmp_path / "absent.json"))


@pytest.fixture
def small_grid():
    return build_grid(
        ["go"], ["P"],
        axes=[("num_cores", (2, 4)), ("predictor", ("last", "stride"))],
    )


class TestRunSweep:
    def test_runs_and_resumes_with_zero_recompute(
        self, small_grid, tmp_path
    ):
        out = str(tmp_path / "sweep")
        first = run_sweep(small_grid, out_dir=out)
        assert first.complete and first.computed == 4
        assert first.resumed == 0
        assert {r["bar"] for r in first.records} == {"P"}
        for record in first.records:
            assert record["metrics"]["region_time"] > 0
            assert record["metrics"]["speedup"] > 0

        second = run_sweep(small_grid, out_dir=out)
        assert second.complete
        assert second.computed == 0 and second.resumed == 4
        assert second.records == first.records

    def test_max_points_leaves_a_resumable_partial(
        self, small_grid, tmp_path
    ):
        out = str(tmp_path / "sweep")
        partial = run_sweep(small_grid, out_dir=out, max_points=3)
        assert not partial.complete
        assert partial.computed == 3 and partial.total == 4

        resumed = run_sweep(small_grid, out_dir=out)
        assert resumed.complete
        assert resumed.computed == 1 and resumed.resumed == 3

    def test_fresh_ignores_existing_state(self, small_grid, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(small_grid, out_dir=out)
        rerun = run_sweep(small_grid, out_dir=out, fresh=True)
        assert rerun.computed == 4 and rerun.resumed == 0

    def test_foreign_state_is_ignored(self, small_grid, tmp_path):
        out = tmp_path / "sweep"
        other = build_grid(["go"], ["P"], axes=[("num_cores", (2, 8))])
        run_sweep(other, out_dir=str(out))
        # same directory, different grid: nothing resumes
        outcome = run_sweep(small_grid, out_dir=str(out))
        assert outcome.resumed == 0 and outcome.computed == 4

    def test_corrupt_state_is_ignored(self, small_grid, tmp_path):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "sweep_state.json").write_text("{not json")
        outcome = run_sweep(small_grid, out_dir=str(out))
        assert outcome.resumed == 0 and outcome.complete

    def test_seq_baseline_is_shared_across_scheme_axes(
        self, small_grid, tmp_path, fresh_bundles
    ):
        """Predictor axes must not fragment the sequential baseline."""
        from repro.experiments import metrics as metrics_mod

        metrics_mod.reset()
        run_sweep(small_grid, out_dir=str(tmp_path / "sweep"))
        seq_jobs = [
            j for j in metrics_mod.current().jobs
            if j.kind == "bar" and j.label == "SEQ"
            and j.source in ("computed", "worker")
        ]
        # 2 distinct machine points (num_cores), not 4 scheme points
        assert len(seq_jobs) == 2, [j.label for j in seq_jobs]


class TestSurface:
    def _records(self, small_grid, tmp_path):
        return run_sweep(
            small_grid, out_dir=str(tmp_path / "sweep")
        ).records

    def test_pick_axes_prefers_config_axes(self, small_grid):
        assert pick_axes(small_grid) == ("num_cores", "predictor")
        assert pick_axes(small_grid, rows="predictor") == (
            "predictor", "num_cores",
        )
        with pytest.raises(ValueError, match="both"):
            pick_axes(small_grid, rows="num_cores", cols="num_cores")

    def test_surface_table_shape(self, small_grid, tmp_path):
        records = self._records(small_grid, tmp_path)
        rows, columns = surface_table(
            records, "num_cores", "predictor", "region_time"
        )
        assert columns == ["num_cores", "last", "stride"]
        assert [r["num_cores"] for r in rows] == ["2", "4"]
        for row in rows:
            assert isinstance(row["last"], float)

    def test_ascii_surface_renders(self, small_grid, tmp_path):
        records = self._records(small_grid, tmp_path)
        text = render_ascii_surface(
            records, "num_cores", "predictor", "region_time"
        )
        assert "scaling surface" in text
        assert "num_cores" in text and "stride" in text

    def test_html_surface_is_self_contained(self, small_grid, tmp_path):
        records = self._records(small_grid, tmp_path)
        html = render_html_surface(
            records, small_grid, "num_cores", "predictor", "speedup"
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "<script src" not in html and "href=" not in html
        assert "stride" in html and "</table>" in html
