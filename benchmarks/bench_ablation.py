"""Ablations for the design choices DESIGN.md calls out (not paper figures).

1. **Hybrid refinements** (paper Section 4.2's proposed improvements
   (iii) and (iv)): hardware filtering of compiler synchronization that
   rarely forwards a matching address, and compiler frequency hints
   that exempt marked loads from the hardware table's periodic reset.
2. **Grouping threshold**: the 5% dependence-frequency threshold vs
   stricter alternatives (over- vs under-synchronization).
3. **Forwarding latency**: sensitivity of compiler synchronization to
   the crossbar hop cost — the critical-forwarding-path effect.
"""

from benchmarks.conftest import run_once
from repro.experiments.reporting import format_table
from repro.experiments.runner import bundle_for
from repro.tlssim.config import SimConfig
from repro.tlssim.stats import normalized_region_time


def _region_time(bundle, program_attr, config):
    result = bundle.simulate_custom(program_attr, config)
    sequential = bundle.simulate("SEQ")
    return normalized_region_time(result, sequential)[0]


def hybrid_refinement_rows(names):
    rows = []
    for name in names:
        bundle = bundle_for(name)
        base = SimConfig().with_mode(hw_sync=True)
        rows.append(
            {
                "workload": name,
                "B": _region_time(bundle, "sync_ref", base),
                "B+filter": _region_time(
                    bundle, "sync_ref", base.with_mode(hybrid_filter=True)
                ),
                "B+hints": _region_time(
                    bundle, "sync_ref", base.with_mode(hw_hint_persistent=True)
                ),
                "B+both": _region_time(
                    bundle,
                    "sync_ref",
                    base.with_mode(hybrid_filter=True, hw_hint_persistent=True),
                ),
            }
        )
    return rows


def test_hybrid_refinements(benchmark, show):
    names = ["twolf", "vpr_place", "gzip_comp", "go", "m88ksim"]
    rows = run_once(benchmark, hybrid_refinement_rows, names)
    show(
        format_table(
            rows,
            ("workload", "B", "B+filter", "B+hints", "B+both"),
            "Ablation: hybrid refinements (iii) filter and (iv) reset hints",
        )
    )
    by_name = {r["workload"]: r for r in rows}
    # Filtering useless synchronization must never hurt noticeably and
    # helps where compiler sync forwards mismatching addresses (TWOLF).
    for row in rows:
        assert row["B+filter"] <= row["B"] + 3.0
    assert by_name["twolf"]["B+filter"] <= by_name["twolf"]["B"] + 0.5


def threshold_rows(name, thresholds):
    rows = []
    for threshold in thresholds:
        bundle = bundle_for(name, threshold=threshold)
        time, _segments = bundle.normalized_region("C")
        report = bundle.compiled.memsync_reports_ref[0]
        rows.append(
            {
                "workload": name,
                "threshold": f"{int(threshold * 100)}%",
                "C_time": time,
                "groups": report.groups,
                "loads_synced": report.loads_synchronized,
            }
        )
    return rows


def test_grouping_threshold(benchmark, show):
    rows = run_once(benchmark, threshold_rows, "bzip2_comp", (0.25, 0.15, 0.05))
    show(
        format_table(
            rows,
            ("workload", "threshold", "C_time", "groups", "loads_synced"),
            "Ablation: dependence-frequency threshold (paper Section 2.4)",
        )
    )
    by_threshold = {r["threshold"]: r for r in rows}
    # Above the pairs' ~11% frequency nothing is synchronized.
    assert by_threshold["25%"]["loads_synced"] == 0
    assert by_threshold["5%"]["loads_synced"] > 0
    assert by_threshold["5%"]["C_time"] < by_threshold["25%"]["C_time"] - 20


def forward_latency_rows(name, latencies):
    bundle = bundle_for(name)
    rows = []
    for latency in latencies:
        config = SimConfig().with_mode(forward_latency=float(latency))
        rows.append(
            {
                "workload": name,
                "forward_latency": latency,
                "C_time": _region_time(bundle, "sync_ref", config),
            }
        )
    return rows


def test_forward_latency_sensitivity(benchmark, show):
    rows = run_once(benchmark, forward_latency_rows, "gap", (5, 10, 20, 40))
    show(
        format_table(
            rows,
            ("workload", "forward_latency", "C_time"),
            "Ablation: crossbar forwarding latency vs synchronized region time",
        )
    )
    # GAP's bump pointer forms a cross-epoch chain: region time must
    # grow monotonically with the forwarding latency.
    times = [r["C_time"] for r in rows]
    assert all(a <= b + 1e-6 for a, b in zip(times, times[1:]))


def granularity_rows(names):
    rows = []
    for name in names:
        bundle = bundle_for(name)
        line = _region_time(bundle, "baseline", SimConfig())
        word = _region_time(
            bundle, "baseline", SimConfig(violation_granularity="word")
        )
        rows.append({"workload": name, "U_line": line, "U_word": word})
    return rows


def test_violation_granularity(benchmark, show):
    """Line- vs word-granularity violation detection: isolates the
    false-sharing component of failed speculation (paper Section 4.2's
    M88KSIM discussion; per-word bits are Cintra & Torrellas' scheme)."""
    names = ["m88ksim", "vpr_place", "gzip_comp", "go", "parser"]
    rows = run_once(benchmark, granularity_rows, names)
    show(
        format_table(
            rows,
            ("workload", "U_line", "U_word"),
            "Ablation: violation detection granularity (plain TLS)",
        )
    )
    by_name = {r["workload"]: r for r in rows}
    # False-sharing benchmarks transform under per-word detection ...
    assert by_name["m88ksim"]["U_word"] < by_name["m88ksim"]["U_line"] - 20
    # ... true-dependence benchmarks barely move.
    assert abs(by_name["go"]["U_word"] - by_name["go"]["U_line"]) < 8
    assert abs(by_name["parser"]["U_word"] - by_name["parser"]["U_line"]) < 8


def core_scaling_rows(name, core_counts):
    bundle = bundle_for(name)
    rows = []
    for cores in core_counts:
        config = SimConfig(num_cores=cores)
        rows.append(
            {
                "workload": name,
                "cores": cores,
                "U": _region_time(bundle, "baseline", config),
                "C": _region_time(bundle, "sync_ref", config),
            }
        )
    return rows


def test_core_scaling(benchmark, show):
    """Region time vs core count: synchronized regions keep scaling
    while the unsynchronized ones are violation-bound."""
    rows = run_once(benchmark, core_scaling_rows, "perlbmk", (1, 2, 4, 8))
    show(
        format_table(
            rows,
            ("workload", "cores", "U", "C"),
            "Ablation: core-count scaling (PERLBMK)",
        )
    )
    by_cores = {r["cores"]: r for r in rows}
    assert by_cores[8]["C"] < by_cores[2]["C"]
    # the violation-bound baseline gains far less from 2 -> 8 cores
    c_gain = by_cores[2]["C"] - by_cores[8]["C"]
    u_gain = by_cores[2]["U"] - by_cores[8]["U"]
    assert c_gain > u_gain - 5.0


def alias_prefilter_rows(names):
    from repro.compiler.memdep.alias import candidate_pair_fraction

    rows = []
    for name in names:
        bundle = bundle_for(name)
        stats = candidate_pair_fraction(bundle.compiled.baseline)
        rows.append(
            {
                "workload": name,
                "loads": stats.loads,
                "stores": stats.stores,
                "pairs": stats.total_pairs,
                "may_alias": stats.may_alias_pairs,
                "fraction": stats.fraction * 100.0,
            }
        )
    return rows


def test_alias_prefilter(benchmark, show, all_names):
    """Paper Section 1.1: pointer analysis "could help us obtain this
    information with less detailed profiling" — the fraction of static
    (store, load) pairs the base-object analysis cannot rule out is the
    share of the pair space a guided profiler still instruments."""
    rows = run_once(benchmark, alias_prefilter_rows, all_names)
    show(
        format_table(
            rows,
            ("workload", "loads", "stores", "pairs", "may_alias", "fraction"),
            "Ablation: alias-analysis profiling prefilter (% of pairs kept)",
        )
    )
    fractions = [r["fraction"] for r in rows]
    # the prefilter removes a meaningful share of the pair space overall
    assert sum(fractions) / len(fractions) < 85.0
