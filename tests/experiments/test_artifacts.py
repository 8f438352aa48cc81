"""The persistent store: round trips, keys, faults, and warm starts.

The hard acceptance criterion is byte-identity: a deserialized
:class:`CompiledWorkload` must be indistinguishable from a fresh
compile — same serialized state, same simulation results, same typed
event stream — across the whole suite.  Corruption, version drift
and failed writes must degrade to recomputation, never to a crash or a
wrong result — for every entry kind.
"""

import errno
import io
import json
import os
import re

import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import payloads
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.runner import bundle_for, config_for, plan_bar_jobs
from repro.ir.serialize import SerializeError, module_from_state, module_to_state
from repro.obs import log as log_mod
from repro.obs.bus import CollectorSink, EventBus
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import collect_oracle
from repro.workloads import all_workloads, get_workload

WORKLOADS = tuple(w.name for w in all_workloads())


def _store(tmp_path) -> artifacts_mod.ArtifactStore:
    return artifacts_mod.ArtifactStore(str(tmp_path / "store"))


def _stream(program, config, oracle=None, parallel=True):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(
        program, config=config, oracle=oracle, parallel=parallel, obs=bus
    ).run()
    return [e.key() for e in collector.events], result


class TestModuleSerialization:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_state_roundtrip_every_binary(self, name):
        compiled = bundle_for(name).compiled
        for attr in ("seq", "baseline", "sync_ref", "sync_train"):
            state = module_to_state(getattr(compiled, attr))
            json.dumps(state)  # must be JSON-serializable
            assert module_to_state(module_from_state(state)) == state

    def test_iids_preserved_exactly(self):
        module = bundle_for("go").compiled.sync_ref
        restored = module_from_state(module_to_state(module))
        for fn in module.functions.values():
            twin = restored.functions[fn.name]
            for label, block in fn.blocks.items():
                for a, b in zip(block.instructions, twin.blocks[label].instructions):
                    assert (a.iid, a.origin_iid) == (b.iid, b.origin_iid)

    def test_bad_state_raises_serialize_error(self):
        with pytest.raises(SerializeError):
            module_from_state({"functions": "nope"})


class TestArtifactKey:
    def test_stable_and_sensitive(self):
        base = artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2)
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2) == base
        assert artifacts_mod.artifact_key("oracle", "go", 0.05, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "mcf", 0.05, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.15, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 9, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 9) != base

    def test_includes_pipeline_fingerprint(self, monkeypatch):
        before = artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2)
        monkeypatch.setattr(
            artifacts_mod, "pipeline_fingerprint", lambda: "deadbeef"
        )
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2) != before


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_compiled_state_and_event_stream_identical(self, name, tmp_path):
        """Loaded artifacts simulate byte-identically to fresh compiles."""
        workload = get_workload(name)
        compiled = bundle_for(name).compiled
        store = _store(tmp_path)
        store.save_compiled(workload, 0.05, compiled)
        loaded = store.load_compiled(workload, 0.05)
        assert loaded is not None
        assert payloads.compiled_to_state(loaded) == (
            payloads.compiled_to_state(compiled)
        )
        config = config_for("C").with_mode(fast_path=True)
        fresh_stream, fresh_result = _stream(compiled.sync_ref, config)
        loaded_stream, loaded_result = _stream(loaded.sync_ref, config)
        assert loaded_result.to_state() == fresh_result.to_state()
        assert loaded_stream == fresh_stream

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_oracle_state_roundtrip(self, name, tmp_path):
        workload = get_workload(name)
        oracle = collect_oracle(bundle_for(name).compiled.baseline)
        store = _store(tmp_path)
        store.save_oracle(workload, 0.05, "baseline", oracle)
        loaded = store.load_oracle(workload, 0.05, "baseline")
        assert loaded is not None
        assert payloads.oracle_to_state(loaded) == (
            payloads.oracle_to_state(oracle)
        )

    def test_oracle_bar_identical_through_engine(self, tmp_path):
        """A stored oracle drives the O bar exactly like a fresh one."""
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        oracle = collect_oracle(compiled.baseline)
        store = _store(tmp_path)
        store.save_oracle(workload, 0.05, "baseline", oracle)
        loaded = store.load_oracle(workload, 0.05, "baseline")
        config = config_for("O").with_mode(fast_path=True)
        fresh_stream, fresh_result = _stream(compiled.baseline, config, oracle)
        loaded_stream, loaded_result = _stream(compiled.baseline, config, loaded)
        assert loaded_result.to_state() == fresh_result.to_state()
        assert loaded_stream == fresh_stream


class TestCorruptionTolerance:
    def _warm_store(self, tmp_path):
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        path = store._path(store.compiled_key(workload, 0.05), "compiled")
        return store, workload, compiled, path

    def test_truncated_entry_falls_back(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert not path.exists()  # dropped, not retried forever
        stats = artifacts_mod.counters()
        assert stats["corrupt"] == 1 and stats["misses"] == 1

    def test_garbage_payload_falls_back(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        entry = json.loads(path.read_text())
        entry["payload"] = {"name": "go", "seq": ["not", "a", "module"]}
        path.write_text(json.dumps(entry))
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert not path.exists()
        assert artifacts_mod.counters()["corrupt"] == 1

    def test_version_mismatch_is_miss_but_kept(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        entry = json.loads(path.read_text())
        entry["fingerprint"] = "deadbeef"
        path.write_text(json.dumps(entry))
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert path.exists()  # foreign artifact left in place
        stats = artifacts_mod.counters()
        assert stats["version_mismatch"] == 1 and stats["misses"] == 1

    def test_corrupt_store_recompiles_identically(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        reference = bundle_for("go").compiled  # miss: compiles and saves
        store = artifacts_mod.active_store()
        for path in store.root.rglob("*.json"):
            path.write_text("truncated garbag")
        runner.clear_cache()
        recompiled = bundle_for("go").compiled
        assert payloads.compiled_to_state(recompiled) == (
            payloads.compiled_to_state(reference)
        )


#: kind -> a computation that writes (and later reads) entries of it.
_COMPUTE = {
    artifacts_mod.KIND_RESULT: lambda: bundle_for("go").simulate("U").to_state(),
    artifacts_mod.KIND_COMPILED: lambda: payloads.compiled_to_state(
        bundle_for("go").compiled
    ),
    artifacts_mod.KIND_ORACLE: lambda: payloads.oracle_to_state(
        bundle_for("go").oracle_for("baseline")
    ),
}


def _truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def _flip_digit(path):
    """Change the entry's last digit (in its payload); the JSON stays
    valid, so only the payload digest can tell."""
    data = bytearray(path.read_bytes())
    at = re.search(rb"[0-9][^0-9]*\Z", data).start()
    data[at] = ord("2") if data[at] == ord("1") else ord("1")
    path.write_bytes(bytes(data))


def _wrong_type(path):
    entry = json.loads(path.read_text())
    entry["payload"] = "not a payload"
    path.write_text(json.dumps(entry))


def _wrong_shape(path):
    """Rewrite the entry through the store with a payload of the wrong
    shape: its digest holds, as after a writer bug, so only decoding
    can tell."""
    key, kind, _ = path.name.split(".")
    artifacts_mod.ArtifactStore(str(path.parent.parent)).put(
        key, {"wrong": "shape"}, kind
    )


class TestStoreFaults:
    def _recomputed(self, kind, damage, tmp_path):
        """Every entry of ``kind`` damaged: each is unlinked, counted
        and recomputed to the value a fresh run gives."""
        artifacts_mod.configure(True, str(tmp_path / "store"))
        reference = _COMPUTE[kind]()
        paths = sorted(artifacts_mod.active_store().root.glob(f"*/*.{kind}.json"))
        assert paths
        for path in paths:
            damage(path)
        runner.clear_cache()
        artifacts_mod.reset_counters()
        assert _COMPUTE[kind]() == reference
        assert artifacts_mod.counters()["corrupt"] == len(paths)
        for path in paths:  # rewritten whole by the recompute
            assert json.loads(path.read_text())["payload"] is not None

    @pytest.mark.parametrize("kind", artifacts_mod.KINDS)
    def test_truncated_entry_recomputed(self, kind, tmp_path, fresh_bundles):
        self._recomputed(kind, _truncate, tmp_path)

    @pytest.mark.parametrize("kind", artifacts_mod.KINDS)
    @pytest.mark.parametrize(
        "damage", [_flip_digit, _wrong_type, _wrong_shape],
        ids=["flipped_digit", "wrong_type", "wrong_shape"],
    )
    def test_damaged_entry_recomputed(self, damage, kind, tmp_path, fresh_bundles):
        self._recomputed(kind, damage, tmp_path)

    def test_full_disk_write_is_dropped(self, tmp_path, fresh_bundles, monkeypatch):
        """ENOSPC mid-write: the run still returns the store-less
        result, no temp file is left, and the failure is logged."""
        reference = bundle_for("go").simulate("U").to_state()
        runner.clear_cache()
        store = artifacts_mod.configure(True, str(tmp_path / "store"))

        real_fdopen = os.fdopen

        class FullDisk:
            """A file that takes 11 bytes, then fails with ENOSPC."""

            def __init__(self, fd, *args, **kwargs):
                self.handle = real_fdopen(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:11])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(artifacts_mod.os, "fdopen", FullDisk)
        logged = io.StringIO()
        log_mod.configure(stream=logged)
        try:
            assert bundle_for("go").simulate("U").to_state() == reference
        finally:
            log_mod.configure()
        assert not list(store.root.rglob(".tmp-*"))
        assert store.info()["entries"] == 0
        assert "write_failed" in logged.getvalue()


class TestWarmStartProvenance:
    def test_store_hit_records_cache_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        bundle_for("go").compiled
        runner.clear_cache()
        metrics_mod.reset()
        bundle_for("go").compiled
        [job] = [j for j in metrics_mod.current().jobs if j.kind == "compile"]
        assert job.source == metrics_mod.SOURCE_CACHE
        assert job.wall_s > 0.0

    def test_cold_compile_records_computed_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        metrics_mod.reset()
        bundle_for("go").compiled
        [job] = [j for j in metrics_mod.current().jobs if j.kind == "compile"]
        assert job.source == metrics_mod.SOURCE_COMPUTED

    def test_oracle_store_hit_records_cache_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        bundle_for("go").oracle_for("baseline")
        runner.clear_cache()
        metrics_mod.reset()
        bundle_for("go").oracle_for("baseline")
        oracle_jobs = [
            j for j in metrics_mod.current().jobs if j.kind == "oracle"
        ]
        assert [j.source for j in oracle_jobs] == [metrics_mod.SOURCE_CACHE]


class TestCrossProcessWarmStart:
    def test_prewarmed_store_serves_fresh_workers(self, tmp_path, fresh_bundles):
        """A store warmed by one process feeds pool workers compile-free."""
        artifacts_mod.configure(True, str(tmp_path / "store"))
        for name in ("go", "mcf"):
            bundle_for(name).compiled  # warm the store in this process
        runner.clear_cache()
        metrics_mod.reset(workers=2)
        artifacts_mod.reset_counters()  # drop the warm-up's miss counts
        runner.execute_plan(
            plan_bar_jobs(["go", "mcf"], ["C"], include_seq=False), jobs=2
        )
        compile_jobs = [
            j for j in metrics_mod.current().jobs if j.kind == "compile"
        ]
        assert {j.workload for j in compile_jobs} == {"go", "mcf"}
        for job in compile_jobs:
            assert job.source == metrics_mod.SOURCE_CACHE
            assert job.worker != os.getpid()  # loaded inside a pool worker
        # worker-side store hits are folded back into the parent's counters
        counts = artifacts_mod.counters()
        assert counts["hits"] >= len(compile_jobs)
        assert counts["misses"] == 0


class TestStoreManagement:
    def test_info_and_clear(self, tmp_path):
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        store.save_oracle(
            workload, 0.05, "baseline", collect_oracle(compiled.baseline)
        )
        info = store.info()
        assert info["compiled"] == 1 and info["oracles"] == 1
        assert info["entries"] == 2 and info["bytes"] > 0
        assert store.clear() == 2
        assert store.info()["entries"] == 0

    def test_clear_removes_entries_of_retired_kinds(self, tmp_path, capsys):
        """A plain `repro cache clear` still removes the `.lowered.json`
        and `.kernel.json` region tables that older versions wrote."""
        from repro.cli import main

        store = _store(tmp_path)
        legacy = [
            store.root / "ab" / ("ab" + "0" * 62 + f".{kind}.json")
            for kind in ("lowered", "kernel")
        ]
        legacy[0].parent.mkdir(parents=True)
        for path in legacy:
            path.write_text("{}")
        assert store.info()["entries"] == 0  # no longer known kinds
        assert main(["cache", "clear", "--cache-dir", str(store.root)]) == 0
        assert "removed 2 artifact(s)" in capsys.readouterr().out
        assert not any(path.exists() for path in legacy)

    def test_result_cache_ignores_artifacts(self, tmp_path):
        """Clearing only results must not touch compiled artifacts."""
        store = artifacts_mod.ArtifactStore(str(tmp_path / "shared"))
        store.put("ab" + "0" * 62, {"x": 1})
        store.save_compiled(get_workload("go"), 0.05, bundle_for("go").compiled)
        assert store.info()["results"] == 1
        assert store.clear(kinds=(artifacts_mod.KIND_RESULT,)) == 1
        assert store.info()["entries"] == 1  # artifact survived

    def test_non_entries_under_root_are_left_alone(self, tmp_path):
        """Flight-recorder dumps and pstats profiles share the root but
        are not entries: `cache info` skips them, `cache clear` keeps
        them."""
        from repro.cli import main

        store = _store(tmp_path)
        dump = store.root / "flightrec" / "flightrec-1-2.json"
        profile = store.root / "profiles" / "x.pstats"
        for path in (dump, profile):
            path.parent.mkdir(parents=True)
            path.write_text("{}")
        assert store.info()["entries"] == 0
        assert main(["cache", "clear", "--cache-dir", str(store.root)]) == 0
        assert dump.exists() and profile.exists()

    def test_clear_removes_pre_merge_layout(self, tmp_path):
        """A plain clear also removes results and artifacts written in
        the layout before the stores merged."""
        store = _store(tmp_path)
        key = "ab" + "0" * 62
        old_result = store.root / "ab" / f"{key}.json"
        old_artifact = store.root / "artifacts" / "ab" / f"{key}.compiled.json"
        for path in (old_result, old_artifact):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")
        assert store.clear() == 2
        assert not old_result.exists()
        assert not (store.root / "artifacts").exists()
