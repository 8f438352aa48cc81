"""Mini-IR: containers, analyses, textual form, and interpreter."""
