"""Full evaluation report: regenerate every table and figure at once.

`generate_report()` runs all ten experiment harnesses over the full
workload suite and renders them in EXPERIMENTS.md's "Measured results"
format; the CLI (``python -m repro report``) writes it to a file so the
document can be regenerated after any change.

With ``jobs > 1`` the simulation matrix behind the selected sections
is first executed by the parallel runner
(:func:`repro.experiments.runner.execute_plan`); the sections then
render serially from the seeded memos, so the emitted document is
byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
from repro.experiments.reporting import (
    BAR_COLUMNS,
    BAR_SPLIT_COLUMNS,
    format_table,
)
from repro.experiments.runner import JobSpec, execute_plan
from repro.workloads import all_workloads

#: (section title, runner taking workload names, column tuple,
#:  needs-workloads flag)
SECTIONS = (
    ("Table 1 (simulation parameters)", table1_config.run, table1_config.COLUMNS, False),
    ("Figure 2 (U vs O)", fig02_potential.run, BAR_COLUMNS, True),
    ("Figure 6 (threshold sweep)", fig06_threshold.run, BAR_COLUMNS, True),
    ("Figure 7 (dependence distance)", fig07_distance.run, fig07_distance.COLUMNS, True),
    ("Figure 8 (U / T / C)", fig08_compiler_sync.run, BAR_COLUMNS, True),
    ("Figure 9 (E / C / L)", fig09_sync_cost.run, BAR_SPLIT_COLUMNS, True),
    ("Figure 10 (U / P / H / C / B)", fig10_comparison.run, BAR_SPLIT_COLUMNS, True),
    ("Figure 11 (violating-load overlap)", fig11_overlap.run, fig11_overlap.COLUMNS, True),
    ("Figure 12 (whole-program time)", fig12_program.run, fig12_program.COLUMNS, True),
    ("Table 2 (coverage and speedups)", table2_speedups.run, table2_speedups.COLUMNS, True),
)


#: Simulation needs per section title, for the parallel prewarm:
#: bar labels, plus flags for the Figure 6 sweep, the Figure 11
#: marking modes, and the dependence-profile summary.
SECTION_NEEDS: Dict[str, Dict] = {
    "Table 1": {},
    "Figure 2": {"bars": ("U", "O")},
    "Figure 6": {"bars": ("U",), "fig06": True, "profile": True},
    "Figure 7": {"profile": True},
    "Figure 8": {"bars": ("U", "T", "C")},
    "Figure 9": {"bars": ("E", "C", "L")},
    "Figure 10": {"bars": ("U", "P", "H", "C", "B")},
    "Figure 11": {"fig11": True},
    "Figure 12": {"bars": ("U", "C", "H", "B")},
    "Table 2": {"bars": ("C", "B")},
}

#: Canonical bar emission order (stable plan -> stable metrics).
_BAR_ORDER = ("U", "O", "T", "C", "E", "L", "H", "P", "B", "SEQ")


def plan_report_jobs(
    names: Sequence[str], section_titles: Sequence[str]
) -> List[JobSpec]:
    """The deduplicated job matrix behind the selected sections.

    Per workload: an optional profile job first (so cache resolution
    can satisfy Figure 6 oracle sets without compiling), then bar
    simulations, the Figure 6 prediction sweeps, and the Figure 11
    marking modes.
    """
    bars: set = set()
    need_profile = need_fig06 = need_fig11 = False
    for title in section_titles:
        for prefix, needs in SECTION_NEEDS.items():
            if not title.startswith(prefix):
                continue
            section_bars = needs.get("bars", ())
            bars.update(section_bars)
            if section_bars:
                bars.add("SEQ")  # every bar is normalized to SEQ
            need_profile = need_profile or bool(needs.get("profile"))
            need_fig06 = need_fig06 or bool(needs.get("fig06"))
            need_fig11 = need_fig11 or bool(needs.get("fig11"))
            break
    if need_fig06:
        bars.add("SEQ")
    specs: List[JobSpec] = []
    for name in names:
        if need_profile or need_fig06:
            specs.append(JobSpec(workload=name, kind="profile", label="profile"))
        for bar in _BAR_ORDER:
            if bar in bars:
                specs.append(JobSpec(workload=name, kind="bar", label=bar))
        if need_fig06:
            for threshold in fig06_threshold.THRESHOLDS:
                specs.append(
                    JobSpec(
                        workload=name,
                        kind="fig06",
                        label=f">{int(threshold * 100)}%",
                        program="baseline",
                        param=threshold,
                    )
                )
        if need_fig11:
            for mode, flags in fig11_overlap.MODES.items():
                specs.append(
                    JobSpec(
                        workload=name,
                        kind="custom",
                        label=f"fig11:{mode}",
                        program="sync_ref",
                        overrides=tuple(sorted(flags.items())),
                    )
                )
    return specs


def generate_report(
    workloads: Optional[Sequence[str]] = None,
    sections: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> str:
    """Render the measured-results document (markdown).

    ``workloads`` restricts the benchmark set; ``sections`` filters by
    (case-insensitive substring of) section title; ``jobs != 1`` runs
    the simulation matrix through the parallel runner first
    (rendering is unchanged, so output is byte-identical).
    """
    names = list(workloads) if workloads else [w.name for w in all_workloads()]
    wanted = [s.lower() for s in sections] if sections else None
    active = [
        (title, runner, columns, needs_workloads)
        for title, runner, columns, needs_workloads in SECTIONS
        if not wanted or any(w in title.lower() for w in wanted)
    ]
    if jobs != 1 and active:
        execute_plan(
            plan_report_jobs(names, [title for title, *_ in active]), jobs=jobs
        )
    parts: List[str] = []
    for title, runner, columns, needs_workloads in active:
        rows = runner(names) if needs_workloads else runner()
        parts.append(f"### {title}\n\n```\n{format_table(rows, columns)}\n```\n")
    return "\n".join(parts)


def summary_lines(
    workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[str]:
    """One-line-per-workload digest of the Figure 10 comparison."""
    names = list(workloads) if workloads else [w.name for w in all_workloads()]
    if jobs != 1:
        execute_plan(plan_report_jobs(names, ["Figure 10"]), jobs=jobs)
    rows = fig10_comparison.run(names)
    by_key = {(r["workload"], r["bar"]): r["time"] for r in rows}
    winners = fig10_comparison.best_scheme(rows)
    lines = []
    for name in names:
        lines.append(
            f"{name:14s} U={by_key[(name, 'U')]:6.1f}  "
            f"C={by_key[(name, 'C')]:6.1f}  H={by_key[(name, 'H')]:6.1f}  "
            f"B={by_key[(name, 'B')]:6.1f}  winner={winners[name]}"
        )
    return lines
