"""Typed, schema-versioned simulator events.

Every observable mechanism in the TLS machine model — epoch lifecycle,
violations, the Section 2.2 forwarding protocol, the signal address
buffer, hardware synchronization, value prediction and the cache
hierarchy — emits one of the event kinds catalogued here onto the
:class:`repro.obs.bus.EventBus`.  The taxonomy is the contract between
the engine and every exporter (JSONL, Chrome trace, HTML report) and
between the two engine execution paths: for any program and config the
slow and fast paths emit byte-identical streams (asserted by
``tests/tlssim/test_event_stream.py``).

Schema versioning: :data:`SCHEMA_VERSION` bumps whenever a kind is
removed, renamed, or changes the meaning of an existing field.  Adding
a new kind or a new optional field is backward compatible and does not
bump the version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Bumped on breaking changes to the event taxonomy (see module docs).
SCHEMA_VERSION = 1

#: Envelope keys common to every event; payload fields may not shadow
#: them (``EventBus.emit`` rejects collisions loudly).
ENVELOPE_KEYS = ("seq", "kind", "time", "epoch", "generation", "core")

#: kind -> (category, payload field names, description).  The payload
#: tuple lists the fields the emitter is expected to supply; exporters
#: treat missing fields as absent rather than erroring, so the table
#: is documentation-plus-validation, not a straitjacket.
KINDS: Dict[str, tuple] = {
    # -- region / epoch lifecycle --------------------------------------
    "region_start": ("epoch", ("function", "header", "num_cores",
                               "issue_width"),
                     "a parallelized-region instance begins"),
    "region_end": ("epoch", (), "the region's exit epoch finished committing"),
    "epoch_start": ("epoch", (), "an epoch run starts on its core"),
    "commit": ("epoch", ("dirty_lines", "busy", "done_clock", "sync_scalar",
                         "sync_mem", "sync_hw", "sync_lmode", "mem_stall"),
               "an epoch run commits; carries the run's accumulated "
               "busy slots, per-cause sync stall cycles, cache-miss "
               "slots and the clock it finished executing at, so "
               "offline attribution reproduces the engine's accounting"),
    "commit_flush": ("epoch", ("lines", "words"),
                     "a committing epoch writes its buffer back"),
    "squash": ("epoch", ("reason", "cause", "clock"),
               "an epoch run is squashed; 'reason' is restart/control, "
               "'cause' the violation reason that triggered it, 'clock' "
               "the run's (rolled-back) clock at the squash"),
    "restart": ("epoch", ("penalty",),
                "a squashed epoch is re-spawned after the violation penalty"),
    "epoch_park": ("epoch", ("reason",),
                   "a speculative fault parks the run until it is oldest"),
    "violation": ("epoch", ("reason", "load_iid", "unit"),
                  "a dependence violation squashes the victim epoch"),
    # -- forwarding protocol -------------------------------------------
    "fwd_send": ("fwd", ("channel", "msg_kind", "payload", "consumer"),
                 "a signal sends a message down the epoch chain"),
    "fwd_replace": ("fwd", ("channel", "msg_kind", "payload", "consumer"),
                    "an in-flight message is corrected (re-signal/SAB hit)"),
    "fwd_null_signal": ("fwd", ("channel", "consumer"),
                        "epoch end auto-flushes a NULL address message"),
    "fwd_wait": ("fwd", ("channel", "msg_kind", "payload"),
                 "a wait consumes a forwarded message"),
    "fwd_stall": ("fwd", ("channel", "msg_kind", "cause", "wait_iid"),
                  "a wait blocks on a message not yet arrived; 'cause' "
                  "is the channel class (scalar/mem), 'wait_iid' the "
                  "static wait instruction (the sync-pair id)"),
    "fwd_unblock": ("fwd", ("channel", "msg_kind", "stall", "cause",
                            "wait_iid"),
                    "a blocked wait's message arrives"),
    # -- signal address buffer -----------------------------------------
    "sab_hit": ("sab", ("addr", "channel"),
                "a store hits a forwarded address in the signal buffer"),
    "sab_overflow": ("sab", ("addr",),
                     "the signal address buffer exceeds its capacity"),
    # -- hardware synchronization / prediction -------------------------
    "sync_stall": ("hwsync", ("cause", "load_iid"),
                   "a load (hw) or synchronized wait (lmode) stalls "
                   "until the epoch is oldest"),
    "sync_unblock": ("hwsync", ("stall", "cause", "load_iid"),
                     "a stalled-until-oldest run resumes; 'cause' "
                     "mirrors the matching sync_stall (hw/lmode)"),
    "hwsync_insert": ("hwsync", ("load_iid", "count"),
                      "the violating-load table records a violation"),
    "hwsync_reset": ("hwsync", ("kept",),
                     "the violating-load table is periodically reset"),
    "pred_use": ("pred", ("load_iid", "value"),
                 "a confident last-value prediction is consumed"),
    "pred_hit": ("pred", ("load_iid",), "a used prediction verified correct"),
    "pred_miss": ("pred", ("load_iid",),
                  "a used prediction verified wrong (violation follows)"),
    # -- memory system --------------------------------------------------
    "cache_miss": ("cache", ("level", "line"),
                   "an access misses L1; level is where it was served "
                   "('l2' or 'mem')"),
}

#: The epoch-lifecycle subset: the stream the fast/slow equivalence
#: acceptance test pins byte-identical before it compares the full
#: stream.
EPOCH_KINDS = frozenset(
    kind for kind, (category, _fields, _doc) in KINDS.items()
    if category == "epoch"
)


@dataclass
class Event:
    """One simulator event: a fixed envelope plus per-kind fields."""

    seq: int                  # emission order, unique per bus
    kind: str                 # a key of KINDS
    time: float               # simulated cycles
    epoch: int = -1           # logical epoch number, -1 outside epochs
    generation: int = 0       # re-execution attempt of the epoch
    core: int = -1            # core the event belongs to, -1 if none
    fields: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Flat JSON-ready form (payload fields at top level)."""
        state = {
            "seq": self.seq,
            "kind": self.kind,
            "time": self.time,
            "epoch": self.epoch,
            "generation": self.generation,
            "core": self.core,
        }
        state.update(self.fields)
        return state

    @classmethod
    def from_dict(cls, state: Dict) -> "Event":
        fields = {
            key: value for key, value in state.items()
            if key not in ENVELOPE_KEYS
        }
        return cls(
            seq=state["seq"],
            kind=state["kind"],
            time=state["time"],
            epoch=state.get("epoch", -1),
            generation=state.get("generation", 0),
            core=state.get("core", -1),
            fields=fields,
        )

    def key(self) -> tuple:
        """Canonical comparison key (used by equivalence tests)."""
        return (
            self.kind,
            self.time,
            self.epoch,
            self.generation,
            self.core,
            tuple(sorted(self.fields.items())),
        )
