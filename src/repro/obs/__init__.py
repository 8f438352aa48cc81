"""repro.obs — observability for the TLS simulator.

Structured, schema-versioned events (:mod:`repro.obs.events`) flow
from the engine over an :class:`~repro.obs.bus.EventBus` to attached
sinks: collectors, the metrics registry, the legacy timeline tracer.
Exporters turn collected streams into JSONL logs, Chrome/Perfetto
traces and HTML reports; :mod:`repro.obs.analysis` reconstructs the
engine's exact slot attribution offline and extracts the cross-epoch
critical path.  See ``docs/observability.md`` and ``docs/analysis.md``.
"""
