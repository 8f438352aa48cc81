#!/usr/bin/env python3
"""Compiler vs hardware synchronization on one benchmark (Figures 10/11).

Runs GZIP_COMP — the paper's input-sensitive benchmark — under every
scheme (U, P, H, C, T, B), prints the stacked-bar breakdown, and then
reruns the Figure 11 marking experiment to show that the two schemes
synchronize *different* loads.

Run:  python examples/scheme_comparison.py [workload]
"""

import sys

from repro.experiments import fig11_overlap
from repro.experiments.reporting import BAR_COLUMNS, bar_row, format_table
from repro.experiments.runner import bundle_for


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "gzip_comp"
    bundle = bundle_for(name)

    rows = []
    for bar in ("U", "P", "H", "T", "C", "B"):
        time, segments = bundle.normalized_region(bar)
        rows.append(bar_row(name, bar, time, segments))
    print(format_table(rows, BAR_COLUMNS, f"{name}: region time by scheme"))

    print()
    print("U  = plain TLS            P = hardware value prediction")
    print("H  = hardware-inserted    T = compiler sync (train profile)")
    print("C  = compiler sync (ref)  B = hybrid (compiler + hardware)")

    print()
    overlap = fig11_overlap.run([name])
    print(
        format_table(
            overlap,
            fig11_overlap.COLUMNS,
            f"{name}: violating loads by which scheme would synchronize them",
        )
    )
    u_mode = next(r for r in overlap if r["mode"] == "U")
    if u_mode["compiler_only"] and u_mode["hardware_only"]:
        print(
            "\nBoth 'compiler_only' and 'hardware_only' are non-zero: the "
            "schemes are complementary (paper Section 4.2)."
        )


if __name__ == "__main__":
    main()
