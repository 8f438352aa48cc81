"""repro.obs — observability for the TLS simulator.

Structured, schema-versioned events (:mod:`repro.obs.events`) flow
from the engine over an :class:`~repro.obs.bus.EventBus` to attached
sinks: collectors and the metrics registry.  Exporters turn collected
streams into JSONL logs, Chrome/Perfetto traces, HTML reports and the
ASCII timeline; :mod:`repro.obs.analysis` reconstructs the
engine's exact slot attribution offline and extracts the cross-epoch
critical path.  See ``docs/observability.md`` and ``docs/analysis.md``.
"""
