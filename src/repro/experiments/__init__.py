"""Per-figure/table experiment harnesses (see DESIGN.md Section 4)."""
