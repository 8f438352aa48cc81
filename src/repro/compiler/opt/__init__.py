"""Classic scalar optimizations (the pipeline's "backend -O" stage).

The paper's toolchain hands its transformed C source to ``gcc -O3``;
these passes play that role for the mini-IR: local constant folding and
copy propagation, global dead-code elimination, and CFG simplification.
They are semantics-preserving (property-tested) and never disturb the
TLS artifacts: loads, stores, calls and synchronization instructions
are left in place, and blocks named by parallel-loop annotations are
never merged away.

:func:`repro.compiler.opt.driver.optimize_module` runs all passes to a
fixed point.
"""
