"""Programmatic scorecard: check every reproduced paper claim at once.

Each check evaluates one sentence of the paper's evaluation against
the simulated results and returns pass/fail with a detail string; its
:func:`claim` tag names the sentence, where the paper makes it, and the
workloads the check needs.  ``python -m repro scorecard`` prints the
table, skipping the claims a ``--workloads`` subset cannot check; the
integration suite asserts every claim holds.  EXPERIMENTS.md's prose
scorecard mirrors these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments import (
    fig02_potential,
    fig06_threshold,
    fig08_compiler_sync,
    fig10_comparison,
    fig11_overlap,
    fig12_program,
)
from repro.experiments.runner import bundle_for
from repro.workloads import all_workloads


@dataclass
class ClaimResult:
    claim: str
    where: str
    ok: bool
    detail: str
    skipped: bool = False


#: ``needs`` value of a claim counted over the whole suite.
SUITE = "suite"


def claim(text: str, where: str, needs=SUITE):
    """Attach a check's claim, paper location and required workloads.

    ``needs`` is :data:`SUITE` for suite-wide counts, otherwise the
    workload names the check reads (empty: any subset will do).  The
    check returns ``(ok, detail)``.
    """

    def mark(check):
        check.claim, check.where, check.needs = text, where, needs
        return check

    return mark


def _all_names() -> List[str]:
    return [w.name for w in all_workloads()]


def _times(rows, bar_key="bar"):
    return {(r["workload"], r[bar_key]): r["time"] for r in rows}


@claim(
    "Eliminating failed speculation yields substantial gains for most benchmarks",
    "§1.2 / Fig. 2",
)
def check_figure2_potential(names) -> Tuple[bool, str]:
    rows = fig02_potential.run(names)
    gains = fig02_potential.potential_gain(rows)
    substantial = sorted(n for n, g in gains.items() if g > 1.3)
    ok = len(substantial) >= 8
    return ok, f"{len(substantial)}/{len(names)} workloads gain >1.3x under O"


@claim(
    "Only the 5% dependence-frequency threshold improves every benchmark",
    "§2.4 / Fig. 6",
)
def check_figure6_threshold(names) -> Tuple[bool, str]:
    rows = fig06_threshold.run(["bzip2_comp"])
    by_bar = {r["bar"]: r["time"] for r in rows}
    ok = by_bar[">25%"] > 95.0 and by_bar[">5%"] < 90.0
    all_rows = fig06_threshold.run(names)
    ok = ok and fig06_threshold.improves_all(all_rows, ">5%")
    return ok, f"bzip2_comp: >25% {by_bar['>25%']:.1f}, >5% {by_bar['>5%']:.1f}"


@claim(
    "The signal address buffer never needs more than 10 entries",
    "§2.2",
    needs=(),
)
def check_signal_buffer(names) -> Tuple[bool, str]:
    worst = 0
    for name in names:
        for bar in ("C", "B"):
            for region in bundle_for(name).simulate(bar).regions:
                worst = max(worst, region.max_signal_buffer)
    return worst <= 10, f"maximum observed occupancy: {worst}"


@claim(
    "Compiler synchronization improves about half the benchmarks",
    "§4.1 / Fig. 8",
)
def check_figure8_improvers(names) -> Tuple[bool, str]:
    rows = fig08_compiler_sync.run(names)
    improved = fig08_compiler_sync.improved_workloads(rows)
    required = {"go", "gzip_comp", "gzip_decomp", "gcc", "parser", "perlbmk", "gap"}
    ok = 6 <= len(improved) <= 10 and required <= set(improved)
    return ok, f"improved: {', '.join(improved)}"


@claim(
    "Profiling-input sensitivity appears only in GZIP_COMP",
    "§4.1 / Fig. 8",
)
def check_figure8_sensitivity(names) -> Tuple[bool, str]:
    rows = fig08_compiler_sync.run(names)
    times = _times(rows)
    sensitive = [
        n for n in names if abs(times[(n, "T")] - times[(n, "C")]) > 5.0
    ]
    return sensitive == ["gzip_comp"], f"T-vs-C divergent: {sensitive}"


@claim(
    "Hardware value prediction has insignificant effect",
    "§4.2 / Fig. 10",
)
def check_figure10_prediction(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    times = _times(rows)
    deltas = {n: abs(times[(n, "P")] - times[(n, "U")]) for n in names}
    near = sum(1 for d in deltas.values() if d < 3.0)
    return near >= 12, f"{near}/{len(names)} workloads within 3 points of U"


@claim(
    "Compiler wins GO/GZIP_DECOMP/PERLBMK/GAP; hardware wins M88KSIM/VPR_PLACE",
    "§4.2 / Fig. 10",
    needs=("go", "gzip_decomp", "perlbmk", "gap", "m88ksim", "vpr_place"),
)
def check_figure10_winners(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    winners = fig10_comparison.best_scheme(rows)
    compiler_set = {"go", "gzip_decomp", "perlbmk", "gap"}
    hardware_set = {"m88ksim", "vpr_place"}
    ok = all(winners[n] == "C" for n in compiler_set) and all(
        winners[n] == "H" for n in hardware_set
    )
    return ok, ", ".join(
        f"{n}={winners[n]}" for n in sorted(compiler_set | hardware_set)
    )


@claim(
    "The hybrid tracks the best of compiler/hardware overall",
    "§5 / Fig. 10",
)
def check_figure10_hybrid(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    times = _times(rows)

    def excess(bar):
        return sum(
            times[(n, bar)] - min(times[(n, "H")], times[(n, "C")])
            for n in names
        )

    ok = excess("B") < excess("C") and excess("B") < excess("H")
    return ok, (
        f"total excess over best: B {excess('B'):.0f}, C {excess('C'):.0f}, "
        f"H {excess('H'):.0f}"
    )


@claim(
    "Compiler and hardware synchronize different loads",
    "§4.2 / Fig. 11",
    needs=("gzip_comp", "go", "vpr_place"),
)
def check_figure11_complementary(names) -> Tuple[bool, str]:
    rows = fig11_overlap.run(["gzip_comp", "go", "vpr_place"])
    complementary = fig11_overlap.complementary_workloads(rows)
    return len(complementary) >= 2, f"complementary on: {', '.join(complementary)}"


@claim(
    "Memory synchronization helps significantly at program level for several benchmarks",
    "§4.3 / Fig. 12",
)
def check_figure12_program(names) -> Tuple[bool, str]:
    rows = fig12_program.run(names)
    improved = fig12_program.significantly_improved(rows)
    return len(improved) >= 6, f"{len(improved)} workloads improve by >2 program points"


@claim(
    "Slot attribution explains 100% of execution time",
    "§1.2 / repro analyze",
    needs=(),
)
def check_accounting_identity(names) -> Tuple[bool, str]:
    worst = 0.0
    cells = 0
    for name in names:
        bundle = bundle_for(name)
        for bar in ("U", "C", "H", "B"):
            for region in bundle.simulate(bar).regions:
                cells += 1
                error = region.slots.total - sum(region.attribution.values())
                worst = max(worst, abs(error))
    return worst == 0.0, (
        f"worst |total - sum(attribution)| over {cells} regions: {worst:g}"
    )


@claim(
    "Conservative synchronization slightly degrades TWOLF",
    "§4.2",
    needs=("twolf",),
)
def check_twolf_degradation(names) -> Tuple[bool, str]:
    bundle = bundle_for("twolf")
    u, _ = bundle.normalized_region("U")
    c, _ = bundle.normalized_region("C")
    ok = u <= c <= u + 5.0
    return ok, f"U {u:.1f} vs C {c:.1f}"


CHECKS: Tuple[Callable[[Sequence[str]], Tuple[bool, str]], ...] = (
    check_figure2_potential,
    check_figure6_threshold,
    check_signal_buffer,
    check_figure8_improvers,
    check_figure8_sensitivity,
    check_figure10_prediction,
    check_figure10_winners,
    check_figure10_hybrid,
    check_figure11_complementary,
    check_figure12_program,
    check_accounting_identity,
    check_twolf_degradation,
)


def run_scorecard(workloads: Optional[Sequence[str]] = None) -> List[ClaimResult]:
    """Evaluate every claim; returns the results in check order.

    A claim whose workloads the subset omits is skipped, not failed:
    its result has ``skipped`` set and names the missing workloads.
    """
    suite = _all_names()
    names = list(workloads) if workloads else suite
    results = []
    for check in CHECKS:
        if check.needs == SUITE:
            missing = [] if set(suite) <= set(names) else [f"all {len(suite)} workloads"]
        else:
            missing = [n for n in check.needs if n not in names]
        if missing:
            ok, detail, skipped = False, ", ".join(missing), True
        else:
            (ok, detail), skipped = check(names), False
        results.append(ClaimResult(check.claim, check.where, ok, detail, skipped))
    return results


def format_scorecard(results: List[ClaimResult]) -> str:
    lines = []
    for result in results:
        if result.skipped:
            lines.append(
                f"[SKIP] {result.claim} ({result.where}) (needs: {result.detail})"
            )
            continue
        mark = "PASS" if result.ok else "FAIL"
        lines.append(f"[{mark}] {result.claim} ({result.where})")
        lines.append(f"       {result.detail}")
    checked = [r for r in results if not r.skipped]
    passed = sum(r.ok for r in checked)
    summary = f"\n{passed}/{len(checked)} claims reproduced"
    if len(checked) < len(results):
        summary += f" ({len(results) - len(checked)} skipped)"
    lines.append(summary)
    return "\n".join(lines)
