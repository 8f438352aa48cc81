"""Keys and config codecs for persisted simulation results.

Compilation and simulation are deterministic, so any (workload, bar)
result is a pure function of the source tree and the simulation
configuration.  Results live in the one persistent store,
:class:`repro.experiments.artifacts.ArtifactStore`, as its ``result``
kind; this module builds their keys from everything a result depends
on —

* a fingerprint of every ``.py`` file under ``src/repro/`` (covering
  the workload sources, the compiler pipeline, and the simulator), so
  any code change invalidates every result;
* the resolved :class:`~repro.tlssim.config.SimConfig` field values;
* the workload name, profiling threshold, program binary, and bar
  label.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Dict, Optional

# The store's old name, still imported by perfbench/probe.py.
from repro.experiments.artifacts import ArtifactStore as ResultCache  # noqa: F401
from repro.experiments.artifacts import code_fingerprint
from repro.tlssim.config import SimConfig


def config_to_state(config: SimConfig) -> Dict:
    """JSON-able dict of every :class:`SimConfig` field (stable order)."""
    state = {}
    for spec in fields(SimConfig):
        value = getattr(config, spec.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        state[spec.name] = value
    return state


def config_from_state(state: Dict) -> SimConfig:
    """Inverse of :func:`config_to_state`."""
    kwargs = dict(state)
    if "oracle_set" in kwargs:
        kwargs["oracle_set"] = frozenset(kwargs["oracle_set"])
    return SimConfig(**kwargs)


def result_key(
    workload: str,
    threshold: float,
    kind: str,
    label: str,
    program: str,
    config_state: Optional[Dict],
    extra: Optional[Dict] = None,
) -> str:
    """Content-hash key for one ``result`` entry.

    ``kind`` distinguishes entry families ('bar', 'custom', 'profile');
    ``label`` is the bar label or metrics label; ``config_state`` is the
    resolved simulation configuration (None for compile-only entries).
    The code fingerprint embeds the store's schema version.
    """
    payload = {
        "code": code_fingerprint(),
        "workload": workload,
        "threshold": threshold,
        "kind": kind,
        "label": label,
        "program": program,
        "config": config_state,
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
