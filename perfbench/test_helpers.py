"""Tests for the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import gen  # noqa: E402
import lib  # noqa: E402
import refs  # noqa: E402


# -- the percentile rule ----------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert lib.beyond(100, 90) == 10
    assert lib.beyond(99, 90) == 9
    assert lib.highest_percentile(100) == 90
    assert lib.highest_percentile(99) == 75
    assert lib.highest_percentile(200) == 95
    assert lib.highest_percentile(1000) == 99
    assert lib.highest_percentile(19) is None
    assert lib.highest_percentile(20) == 50


def test_tail_percentile_refuses_thin_tails():
    values = list(range(1, 101))
    assert lib.tail_percentile(values, 90) == 90
    with pytest.raises(ValueError):
        lib.tail_percentile(values[:-1], 90)


def test_nearest_rank_percentile_and_median():
    assert lib.percentile([5, 1, 3], 50) == 3
    assert lib.percentile([1, 2, 3, 4], 50) == 2
    assert lib.median([1, 2, 3, 4]) == 2.5
    assert lib.median([3, 1, 2]) == 2


# -- self time ----------------------------------------------------------------

def _span(span_id, parent, start, end, layer="l", name="n"):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "layer": layer, "name": name, "op": "", "attrs": {}}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0, layer="outer"),
        _span(2, 1, 1.0, 4.0, layer="inner"),
        _span(3, 1, 3.0, 6.0, layer="inner"),  # overlaps its sibling
        _span(4, 2, 2.0, 3.0, layer="leaf"),    # grandchild: not subtracted from 1
        _span(5, 1, 9.0, 12.0, layer="inner"),  # clipped to the parent
    ]
    own = lib.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    by_layer = lib.self_time_by(spans)
    assert by_layer["outer"] == pytest.approx(4.0)
    assert by_layer["leaf"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_shares_op_ids():
    tracer = lib.Tracer(True)
    with tracer.span("outer", "a", op="op-1"):
        with tracer.span("inner", "b"):
            pass
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"]
    assert inner["op"] == outer["op"] == "op-1"
    assert sum(lib.self_times(tracer.spans).values()) == pytest.approx(
        outer["end"] - outer["start"])


def test_disabled_tracer_records_nothing():
    tracer = lib.Tracer(False)
    with tracer.span("outer", "a"):
        tracer.add("x", "b", 0.0, 1.0)
    assert tracer.spans == []


# -- the hop-sum identity -----------------------------------------------------

HOPS = ("http.submit", "job.queued", "batch.execute", "worker.execute", "simulate")


def _serve_span(name, span_id, parent, start, end):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "start_s": start, "end_s": end}


def serve_trace():
    return [
        _serve_span("http.submit", "a", None, 10.000, 10.001),
        _serve_span("job.queued", "b", "a", 10.001, 10.003),
        _serve_span("batch.execute", "c", "b", 10.003, 10.110),
        _serve_span("worker.execute", "d", "c", 10.004, 10.108),
        _serve_span("bundle.warm", "e", "d", 10.004, 10.005),
        _serve_span("simulate", "f", "d", 10.005, 10.107),
    ]


def test_hops_plus_client_sum_to_latency():
    start, end = 9.999, 10.125
    parts = lib.attribute_window(serve_trace(), start, end, HOPS)
    assert sum(parts.values()) == pytest.approx(end - start, abs=1e-12)
    assert parts["simulate"] == pytest.approx(0.102)
    # bundle.warm is not a hop: its time stays with worker.execute.
    assert parts["worker.execute"] == pytest.approx(0.104 - 0.102)
    assert parts["batch.execute"] == pytest.approx(0.107 - 0.104)
    assert parts["client"] == pytest.approx(0.001 + 0.015)


def test_hop_sum_holds_when_spans_leave_the_window():
    spans = serve_trace()
    start, end = 10.0005, 10.050  # starts inside http.submit, ends mid-simulate
    parts = lib.attribute_window(spans, start, end, HOPS)
    assert sum(parts.values()) == pytest.approx(end - start, abs=1e-12)
    assert parts["http.submit"] == pytest.approx(0.0005)
    assert parts["client"] == pytest.approx(0.0)


# -- generator distinctness ---------------------------------------------------

@pytest.mark.parametrize("axes", [gen.GRID_AXES, gen.SERVE_AXES])
def test_points_never_repeat(axes):
    drawn = list(gen.points(7, axes))
    space = len(gen.WORKLOADS) * len(gen.BARS) * len(gen.machine_space(axes))
    assert len(drawn) == len(set(drawn)) == space


def test_points_are_seeded_and_keep_the_mix():
    first = [p for _, p in zip(range(165), gen.points(3, gen.GRID_AXES))]
    again = [p for _, p in zip(range(165), gen.points(3, gen.GRID_AXES))]
    other = [p for _, p in zip(range(165), gen.points(4, gen.GRID_AXES))]
    assert first == again != other
    for block in range(11):
        workloads = [p[0] for p in first[block * 15:(block + 1) * 15]]
        assert sorted(workloads) == sorted(gen.WORKLOADS)
    # One cycle visits every (workload, bar) pair once ...
    assert len({(w, b) for w, b, _m in first}) == 165
    # ... and whole blocks hold the same pairs whatever the seed.
    assert sorted((w, b) for w, b, _m in first[:105]) == sorted(
        (w, b) for w, b, _m in other[:105])


def test_grid_machines_keep_the_kernel_cost_model():
    latency_fields = {"issue_width", "forward_latency"}
    assert not latency_fields & set(gen.GRID_AXES)
    assert not any(name.startswith("lat_") for name in gen.GRID_AXES)


# -- reference work split ------------------------------------------------------

def test_reference_split_keeps_workloads_together():
    items = [[str(i), w, "U", ()] for i, w in enumerate("aabbbcdddd")]
    shares = refs.split(items)
    assert sorted(i[0] for share in shares for i in share) == sorted(i[0] for i in items)
    for share in shares:
        for other in shares:
            if share is not other:
                assert not {i[1] for i in share} & {i[1] for i in other}
    assert sorted(len(s) for s in shares) == [5, 5]


# -- simulated counts -------------------------------------------------------

def test_model_counts_sum_counters_and_keep_the_high_water_mark():
    records = [
        {"instructions": 100, "counters": {
            "epochs_committed": 8, "epochs_squashed": 2,
            "violations{kind=load}": 1, "violations{kind=store}": 2,
            "cache_hits{level=l1}": 30, "cache_misses{level=l1}": 10,
            "signal_buffer_high_water": 3, "predictions_used": 4,
        }},
        {"instructions": 50, "counters": {
            "epochs_committed": 2, "violations{kind=load}": 1,
            "cache_hits{level=l1}": 10, "cache_misses{level=l1}": 10,
            "signal_buffer_high_water": 2,
        }},
    ]
    counts = lib.model_counts(records)
    assert counts["engine.instructions"] == 150
    assert counts["engine.epochs_committed"] == 10
    assert counts["engine.violations"] == 4
    assert counts["engine.epoch_useful_ratio"] == pytest.approx(10 / 12)
    assert counts["model.l1_miss_ratio"] == pytest.approx(20 / 60)
    assert counts["model.l2_miss_ratio"] == 0.0  # no l2 traffic
    assert counts["model.sab_high_water"] == 3
    assert counts["model.predictions_used"] == 4
    assert counts["model.mispredictions"] == 0.0
