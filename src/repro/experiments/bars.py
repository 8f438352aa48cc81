"""The paper's bar labels: one table for every entry point.

A bar label picks a compiled binary (:data:`BAR_PROGRAM`) and a
machine configuration (:func:`repro.experiments.runner.config_for`).
The CLI, the serve protocol, sweep grids and the runner all check
labels against :data:`BARS` and report a bad one with
:func:`unknown_bar_error`.  This module imports nothing, so the CLI
can build its parser without loading the simulator.
"""

from __future__ import annotations

from typing import Optional

#: program choice per bar label: which compiled binary runs.
BAR_PROGRAM = {
    "U": "baseline",
    "C": "sync_ref",
    "T": "sync_train",
    "H": "baseline",
    "P": "baseline",
    "PS": "baseline",
    "PC": "baseline",
    "B": "sync_ref",
    "E": "sync_ref",
    "L": "sync_ref",
    "O": "baseline",
    "SEQ": "seq",
}

#: every bar label, in the order help text and errors list them
BARS = tuple(BAR_PROGRAM)


def unknown_bar_error(bar: object) -> Optional[str]:
    """The error every entry point reports for ``bar``, or None when it
    is a bar label."""
    if bar in BARS:
        return None
    return f"unknown bar {bar!r}; valid: {', '.join(BARS)}"
