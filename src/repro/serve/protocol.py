"""The serve API schema and its byte-identical payload encodings.

The daemon's contract with the batch pipeline is *byte identity*: the
result payload for a (workload, bar, threshold) job is exactly the
canonical JSON encoding of the same :class:`~repro.tlssim.stats.SimResult`
state the batch runner produces, and the events payload is exactly the
JSONL stream ``repro trace --format jsonl`` writes.  Keeping both
encodings here — and nowhere else — is what lets the serve-smoke CI
job ``cmp`` daemon output against batch output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.bars import unknown_bar_error
from repro.obs.events import Event
from repro.obs.export import jsonl_lines

#: Version segment of every endpoint path (``/v1/...``).
API_VERSION = 1

#: Simulator backends a job may request (mirrors ``SimConfig.backend``).
SERVE_BACKENDS = ("tuples", "vector")

#: Job lifecycle states reported by the status endpoint.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)


class ProtocolError(ValueError):
    """A request payload failed validation (maps to HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One simulation job as submitted over HTTP.

    ``events`` requests the typed event stream alongside the result;
    event streams are produced by a live engine (never cached), so
    they cost a real simulation even when the result itself is warm.

    ``backend`` selects the simulator execution backend (byte-identical
    results either way; ``vector`` dispatches fused regions and falls
    back to ``tuples`` when the machine's cost model is off the dyadic
    grid the kernels need).

    ``machine`` carries per-job machine-model overrides — a JSON
    object mapping :data:`repro.tlssim.config.MACHINE_FIELDS` names
    (``num_cores``, ``issue_width``, ``forward_latency``, ...) to
    values, validated against :class:`~repro.tlssim.config.MachineConfig`
    at admission; stored sorted so equal requests stay equal.

    ``predictor`` overrides the value-prediction scheme for the
    P-family bars (a ``repro.tlssim.prediction.PREDICTORS`` name);
    None keeps the bar's own default.

    ``profile`` runs the job under ``cProfile`` in the worker; the
    pstats dump is stored under the cache root and a text summary is
    served by ``GET /v1/jobs/{id}/profile``.  Profiling is pure
    observation — the result bytes stay identical to an unprofiled
    job (pinned by the telemetry tests).
    """

    workload: str
    bar: str = "C"
    threshold: float = 0.05
    events: bool = False
    backend: str = "tuples"
    machine: Tuple[Tuple[str, object], ...] = field(default=())
    predictor: Optional[str] = None
    profile: bool = False

    @property
    def key(self):
        """The compile-sharing key (same shape as ``JobSpec.key``)."""
        return (self.workload, self.threshold)

    def to_dict(self) -> Dict:
        payload = {
            "workload": self.workload,
            "bar": self.bar,
            "threshold": self.threshold,
            "events": self.events,
            "backend": self.backend,
        }
        if self.machine:
            payload["machine"] = dict(self.machine)
        if self.predictor is not None:
            payload["predictor"] = self.predictor
        if self.profile:
            payload["profile"] = True
        return payload

    def config_overrides(self) -> Dict:
        """SimConfig overrides this request asks for (may be empty)."""
        overrides: Dict = dict(self.machine)
        if self.predictor is not None:
            overrides["predictor"] = self.predictor
        if self.backend != "tuples":
            overrides["backend"] = self.backend
        return overrides

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("job request must be a JSON object")
        unknown = set(payload) - {
            "workload", "bar", "threshold", "events", "backend",
            "machine", "predictor", "profile",
        }
        if unknown:
            raise ProtocolError(f"unknown field(s): {', '.join(sorted(unknown))}")
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ProtocolError("'workload' (string) is required")
        from repro.workloads.base import unknown_workload_error

        error = unknown_workload_error(workload)
        if error:
            raise ProtocolError(error)
        bar = payload.get("bar", "C")
        error = unknown_bar_error(bar.upper() if isinstance(bar, str) else bar)
        if error:
            raise ProtocolError(error)
        threshold = payload.get("threshold", 0.05)
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise ProtocolError("'threshold' must be a number")
        if not 0.0 < float(threshold) <= 1.0:
            raise ProtocolError("'threshold' must be in (0, 1]")
        events = payload.get("events", False)
        if not isinstance(events, bool):
            raise ProtocolError("'events' must be a boolean")
        profile = payload.get("profile", False)
        if not isinstance(profile, bool):
            raise ProtocolError("'profile' must be a boolean")
        backend = payload.get("backend", "tuples")
        if not isinstance(backend, str) or backend not in SERVE_BACKENDS:
            raise ProtocolError(
                f"unknown backend {backend!r} "
                f"(choose from {', '.join(SERVE_BACKENDS)})"
            )
        machine = payload.get("machine", {})
        if machine is None:
            machine = {}
        if not isinstance(machine, dict):
            raise ProtocolError("'machine' must be a JSON object")
        if machine:
            from repro.tlssim.config import MACHINE_FIELDS, MachineConfig

            unknown_fields = set(machine) - set(MACHINE_FIELDS)
            if unknown_fields:
                raise ProtocolError(
                    "unknown machine field(s): "
                    + ", ".join(sorted(unknown_fields))
                    + f" (choose from {', '.join(MACHINE_FIELDS)})"
                )
            for name, value in machine.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ProtocolError(
                        f"machine field {name!r} must be a number"
                    )
            try:
                MachineConfig(**{
                    name: (int(value) if float(value).is_integer() else value)
                    for name, value in machine.items()
                })
            except ValueError as exc:
                raise ProtocolError(f"invalid machine config: {exc}") from exc
        predictor = payload.get("predictor")
        if predictor is not None:
            from repro.tlssim.prediction import PREDICTORS

            if not isinstance(predictor, str) or predictor not in PREDICTORS:
                raise ProtocolError(
                    f"unknown predictor {predictor!r} "
                    f"(choose from {', '.join(sorted(PREDICTORS))})"
                )
        return cls(
            workload=workload,
            bar=bar.upper(),
            threshold=float(threshold),
            events=events,
            backend=backend,
            machine=tuple(sorted(
                (name, (int(value) if isinstance(value, float)
                        and value.is_integer() else value))
                for name, value in machine.items()
            )),
            predictor=predictor,
            profile=profile,
        )


# ---------------------------------------------------------------------------
# canonical payload encodings (the byte-identity contract)
# ---------------------------------------------------------------------------


def canonical_result_bytes(result_state: Dict) -> bytes:
    """The byte-exact encoding of a ``SimResult.to_state()`` payload.

    Sorted keys, compact separators, trailing newline — any process
    that encodes the same state produces the same bytes, which is the
    invariant serve-smoke pins with ``cmp``.
    """
    return (
        json.dumps(result_state, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def canonical_event_lines(
    events: Iterable[Event], meta: Optional[Dict] = None
) -> List[str]:
    """The exact JSONL lines ``repro trace --format jsonl`` writes."""
    return list(jsonl_lines(events, meta))


def canonical_events_bytes(lines: Iterable[str]) -> bytes:
    """Encode pre-rendered JSONL lines as the events payload."""
    return ("\n".join(lines) + "\n").encode()


def error_body(message: str, **extra) -> Dict:
    payload = {"error": message}
    payload.update(extra)
    return payload
