"""The persistent store: simulation results and compiled artifacts.

Compilation and simulation are deterministic, so every compiled
workload, value oracle and simulation result is a pure function of
the source tree and its inputs.  This store memoizes all of them
*across processes and runs*: a workload is compiled once per machine,
ever, and a warm ``repro report`` neither compiles nor simulates.

Layout: one JSON file per entry, ``<root>/<key[:2]>/<key>.<kind>.json``
where ``kind`` is ``result`` (simulation results and profile
summaries), ``compiled`` or ``oracle``.  The root is
``.repro_cache/`` unless ``--cache-dir`` or ``REPRO_CACHE_DIR`` says
otherwise; anything else under it (flight-recorder dumps, pstats
profiles) is not an entry and ``repro cache`` leaves it alone.

Keys are content hashes that embed a per-kind source fingerprint:

* ``result`` keys (:func:`repro.experiments.cache.result_key`) use
  :func:`code_fingerprint`, every ``.py`` file under ``src/repro/``;
* the other kinds use :func:`pipeline_fingerprint`, only
  ``src/repro/{compiler,ir,workloads}`` plus the oracle collector, so
  a simulator change invalidates results but keeps binaries warm.

Writes are atomic (temp file + ``os.replace``); a failed write (full
disk, read-only root) is logged and dropped, since the caller already
holds the value.  Reads are corruption-tolerant: a truncated or
garbage entry, one whose payload bytes no longer match the sha256
recorded beside them, or one whose payload the caller's decoder
rejects, is unlinked and treated as a miss, and an entry
whose embedded fingerprint does not match the running code is ignored.
Both bump a counter (surfaced via run metrics and the process metrics
registry) and fall back to recomputation; they never crash.

The store is opt-in: :func:`configure` installs a process-wide
instance (the CLI does this unless ``--no-cache``), and library code
asks :func:`active_store`.  The typed payload codecs live in
:mod:`repro.experiments.payloads`, imported only when a compiled or
oracle entry is read or written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Sequence

from repro.obs import log as log_mod
from repro.obs.registry import process_registry

if TYPE_CHECKING:
    from repro.compiler.pipeline import CompiledWorkload
    from repro.tlssim.oracle import ValueOracle

#: Bump to invalidate every stored entry on a format change.
ARTIFACT_SCHEMA_VERSION = 3

#: Default store root (relative to the current working directory);
#: the ``REPRO_CACHE_DIR`` environment variable overrides it.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Entry kinds (the filename suffix).
KIND_RESULT = "result"
KIND_COMPILED = "compiled"
KIND_ORACLE = "oracle"
ARTIFACT_KINDS = (KIND_COMPILED, KIND_ORACLE)
KINDS = (KIND_RESULT,) + ARTIFACT_KINDS


# ---------------------------------------------------------------------------
# fingerprints, keys, counters
# ---------------------------------------------------------------------------

#: An entry's last key: its value is the payload's digested bytes,
#: which run from here to the entry's closing brace.
_PAYLOAD_KEY = b'"payload": '

_SRC_ROOT = Path(__file__).resolve().parent.parent  # src/repro/
_SHARD = re.compile("[0-9a-f]{2}")
_FINGERPRINTS: Dict[str, str] = {}


def _fingerprint(name: str, paths) -> str:
    """Memoized hash of the schema version and the files in ``paths()``."""
    cached = _FINGERPRINTS.get(name)
    if cached is None:
        digest = hashlib.sha256(f"schema:{ARTIFACT_SCHEMA_VERSION}".encode())
        for path in sorted(paths()):
            digest.update(str(path.relative_to(_SRC_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        cached = _FINGERPRINTS[name] = digest.hexdigest()
    return cached


def _pipeline_sources() -> Iterator[Path]:
    for sub in ("compiler", "ir", "workloads"):
        yield from (_SRC_ROOT / sub).rglob("*.py")
    yield _SRC_ROOT / "tlssim" / "oracle.py"


def code_fingerprint() -> str:
    """Hash of the whole source tree: the ``result`` kind's policy."""
    return _fingerprint("code", lambda: _SRC_ROOT.rglob("*.py"))


def pipeline_fingerprint() -> str:
    """Hash of the compile+profile sources: every other kind's policy.

    Deliberately narrower than :func:`code_fingerprint`: simulator
    changes must invalidate simulation results but not compiled
    binaries.
    """
    return _fingerprint("pipeline", _pipeline_sources)


def _kind_fingerprint(kind: str) -> str:
    return code_fingerprint() if kind == KIND_RESULT else pipeline_fingerprint()


def artifact_key(
    kind: str,
    workload_name: str,
    threshold: float,
    train_input: object,
    ref_input: object,
    extra: Optional[Dict] = None,
) -> str:
    """Content-hash key for one stored artifact."""
    payload = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "pipeline": pipeline_fingerprint(),
        "kind": kind,
        "workload": workload_name,
        "threshold": threshold,
        "inputs": [repr(train_input), repr(ref_input)],
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Store outcome counters for this process; workers have their own.
#: ``corrupt``/``version_mismatch`` count entries of every kind;
#: ``hits``/``misses`` count only the typed artifact loads.
_COUNTERS = {"hits": 0, "misses": 0, "corrupt": 0, "version_mismatch": 0}


def counters() -> Dict[str, int]:
    """Snapshot of the process's artifact-store outcome counters."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for name in _COUNTERS:
        _COUNTERS[name] = 0


def _bump(name: str) -> None:
    _COUNTERS[name] += 1
    process_registry().counter(f"artifact_store_{name}").inc()


def merge_counters(delta: Dict[str, int]) -> None:
    """Fold a worker's counter snapshot into this process's counters."""
    for name, amount in delta.items():
        if name in _COUNTERS and amount:
            _COUNTERS[name] += amount
            process_registry().counter(f"artifact_store_{name}").inc(amount)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ArtifactStore:
    """A directory of content-addressed entries of every kind."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(
            root or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        )

    def _path(self, key: str, kind: str) -> Path:
        return self.root / key[:2] / f"{key}.{kind}.json"

    # -- raw entries ---------------------------------------------------
    def get(
        self, key: str, kind: str = KIND_RESULT,
        decode: Optional[Callable] = None,
    ):
        """The stored payload, passed through ``decode`` when given;
        None on miss, corruption, or mismatch.

        A payload that ``decode`` raises on is dropped and counted
        ``corrupt``, as a digest mismatch is.
        """
        path = self._path(key, kind)
        try:
            data = path.read_bytes()
            entry = json.loads(data)
            if (
                entry.get("schema") != ARTIFACT_SCHEMA_VERSION
                or entry.get("fingerprint") != _kind_fingerprint(kind)
            ):
                # Written by different code (the key normally prevents
                # this; guard against copied or hand-edited stores):
                # recompute, leave the file alone.
                _bump("version_mismatch")
                return None
            body = data[data.index(_PAYLOAD_KEY) + len(_PAYLOAD_KEY):-1]
            if hashlib.sha256(body).hexdigest() != entry["sha256"]:
                raise ValueError("payload does not match its digest")
            payload = entry["payload"]
            return payload if decode is None else decode(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                AttributeError):
            # Corrupt: count it and unlink it so it is recomputed.
            _bump("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, payload, kind: str = KIND_RESULT) -> None:
        """Atomically store ``payload`` under ``key``.

        A failed write (full disk, read-only root) leaves no temp file
        behind and is logged, not raised: the caller already holds the
        value, and the next run simply recomputes it.
        """
        path = self._path(key, kind)
        body = json.dumps(payload).encode()
        header = json.dumps({
            "schema": ARTIFACT_SCHEMA_VERSION,
            "fingerprint": _kind_fingerprint(kind),
            "sha256": hashlib.sha256(body).hexdigest(),
        }).encode()
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(header[:-1] + b", " + _PAYLOAD_KEY + body + b"}")
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            log_mod.get_logger("store").warning(
                "write_failed", kind=kind, key=key, error=str(exc)
            )
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # -- typed API -----------------------------------------------------
    def compiled_key(self, workload, threshold: float) -> str:
        return artifact_key(
            KIND_COMPILED, workload.name, threshold,
            workload.train_input, workload.ref_input,
        )

    def oracle_key(self, workload, threshold: float, program_attr: str) -> str:
        return artifact_key(
            KIND_ORACLE, workload.name, threshold,
            workload.train_input, workload.ref_input,
            extra={"program": program_attr},
        )

    def load_compiled(
        self, workload, threshold: float
    ) -> Optional[CompiledWorkload]:
        """The stored compiled workload, or None (counts hit/miss)."""
        from repro.experiments import payloads

        compiled = self.get(
            self.compiled_key(workload, threshold), KIND_COMPILED,
            payloads.compiled_from_state,
        )
        _bump("misses" if compiled is None else "hits")
        return compiled

    def save_compiled(
        self, workload, threshold: float, compiled: CompiledWorkload
    ) -> None:
        from repro.experiments import payloads

        self.put(
            self.compiled_key(workload, threshold),
            payloads.compiled_to_state(compiled),
            KIND_COMPILED,
        )

    def load_oracle(
        self, workload, threshold: float, program_attr: str
    ) -> Optional[ValueOracle]:
        """The stored value oracle, or None (counts hit/miss)."""
        from repro.experiments import payloads

        oracle = self.get(
            self.oracle_key(workload, threshold, program_attr), KIND_ORACLE,
            payloads.oracle_from_state,
        )
        _bump("misses" if oracle is None else "hits")
        return oracle

    def save_oracle(
        self, workload, threshold: float, program_attr: str, oracle: ValueOracle
    ) -> None:
        from repro.experiments import payloads

        self.put(
            self.oracle_key(workload, threshold, program_attr),
            payloads.oracle_to_state(oracle),
            KIND_ORACLE,
        )

    # -- management ----------------------------------------------------
    def _entries(self, root: Optional[Path] = None) -> Iterator[Path]:
        """Every ``*.json`` in the two-hex-digit shard directories.

        Only shards hold entries: flight-recorder dumps and pstats
        profiles that share the root are never counted or cleared.
        """
        root = root or self.root
        if not root.is_dir():
            return
        for shard in sorted(root.iterdir()):
            if _SHARD.fullmatch(shard.name) and shard.is_dir():
                yield from shard.glob("*.json")

    def info(self) -> Dict:
        """Entry counts and total size, for ``repro cache info``."""
        counts = dict.fromkeys(KINDS, 0)
        size = 0
        for path in self._entries():
            parts = path.name.split(".")  # <key>.<kind>.json
            if len(parts) == 3 and parts[1] in counts:
                counts[parts[1]] += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "results": counts[KIND_RESULT],
            "compiled": counts[KIND_COMPILED],
            "oracles": counts[KIND_ORACLE],
            "entries": sum(counts.values()),
            "bytes": size,
        }

    def clear(self, kinds: Optional[Sequence[str]] = None) -> int:
        """Delete entries (every kind, or only ``kinds``); returns count.

        Without ``kinds`` every ``*.json`` in the shards goes, including
        entries older versions wrote: retired kinds, pre-merge results
        (``<key>.json``) and the old ``artifacts/`` subtree.
        """
        legacy = self.root / "artifacts"
        paths = list(self._entries())
        if kinds is None:
            paths.extend(self._entries(legacy))
        else:
            wanted = tuple(f".{kind}.json" for kind in kinds)
            paths = [path for path in paths if path.name.endswith(wanted)]
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        directories = {path.parent for path in paths} | {legacy}
        for directory in sorted(directories, key=lambda d: -len(d.parts)):
            try:
                directory.rmdir()  # only succeeds once empty
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# process-wide active store
# ---------------------------------------------------------------------------

_active: Optional[ArtifactStore] = None


def configure(enabled: bool, root: Optional[str] = None) -> Optional[ArtifactStore]:
    """Install (or remove) the process-wide store and return it.

    One switch for every kind: ``--no-cache`` turns results and
    compiled artifacts off together.
    """
    global _active
    _active = ArtifactStore(root) if enabled else None
    return _active


def active_store() -> Optional[ArtifactStore]:
    """The installed store, or None when persistence is off."""
    return _active


def active_root() -> Optional[str]:
    """The active store's root, for shipping to worker processes."""
    return str(_active.root) if _active is not None else None
