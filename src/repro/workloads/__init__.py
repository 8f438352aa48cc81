"""Synthetic SPEC-like workloads (see DESIGN.md for the substitution).

Each workload lives in its own module, which registers it on import.
:func:`repro.workloads.all_workloads` imports and returns the whole
suite in paper Table 2 order; :func:`repro.workloads.get_workload`
imports only the named workload's module.
"""

from repro.workloads.base import Workload, all_workloads, get_workload

__all__ = ["Workload", "all_workloads", "get_workload"]
