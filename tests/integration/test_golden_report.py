"""EXPERIMENTS.md's "Measured results" section is the golden report.

The section is exactly what ``repro report`` prints over the full
suite, so any change to a figure or table value fails here.  When a
change is meant to move the numbers, rerun with ``--update-golden`` to
rewrite the section, and say why in CHANGES.md.
"""

from pathlib import Path

from repro.experiments.report import generate_report

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
HEADING = "## Measured results\n\n"


def test_measured_results_match_the_report(update_golden):
    head, heading, golden = EXPERIMENTS.read_text(encoding="utf-8").partition(HEADING)
    assert heading, f"{EXPERIMENTS.name} has no {HEADING.strip()!r} section"
    rendered = generate_report()
    if update_golden:
        EXPERIMENTS.write_text(head + heading + rendered, encoding="utf-8")
        return
    assert rendered == golden, (
        "repro report no longer matches EXPERIMENTS.md; if intended, "
        "rerun with --update-golden and say why in CHANGES.md"
    )
