"""Stored simulation results: keys, storage, and bundle integration."""

import json

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.tlssim.config import SimConfig
from repro.tlssim.stats import SimResult, ViolationRecord


class TestResultKey:
    def test_stable_for_same_inputs(self):
        state = cache_mod.config_to_state(SimConfig())
        a = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", state)
        b = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", state)
        assert a == b

    def test_sensitive_to_every_component(self):
        state = cache_mod.config_to_state(SimConfig())
        base = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", state)
        assert cache_mod.result_key("mcf", 0.05, "bar", "C", "sync_ref", state) != base
        assert cache_mod.result_key("go", 0.15, "bar", "C", "sync_ref", state) != base
        assert cache_mod.result_key("go", 0.05, "bar", "U", "sync_ref", state) != base
        assert cache_mod.result_key("go", 0.05, "bar", "C", "baseline", state) != base

    def test_sensitive_to_sim_config_fields(self):
        """Any SimConfig change must produce a different cache key."""
        base_state = cache_mod.config_to_state(SimConfig())
        changed_state = cache_mod.config_to_state(SimConfig(num_cores=8))
        assert base_state != changed_state
        base = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", base_state)
        changed = cache_mod.result_key(
            "go", 0.05, "bar", "C", "sync_ref", changed_state
        )
        assert base != changed

    def test_includes_code_fingerprint(self, monkeypatch):
        state = cache_mod.config_to_state(SimConfig())
        before = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", state)
        monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "deadbeef")
        after = cache_mod.result_key("go", 0.05, "bar", "C", "sync_ref", state)
        assert before != after


class TestConfigState:
    def test_roundtrip(self):
        config = SimConfig().with_mode(
            hw_sync=True, oracle_mode="set", oracle_set=frozenset({3, 7})
        )
        state = cache_mod.config_to_state(config)
        json.dumps(state)  # must be JSON-serializable
        assert cache_mod.config_from_state(state) == config


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = artifacts_mod.ArtifactStore(str(tmp_path / "c"))
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}

    def test_missing_entry_is_none(self, tmp_path):
        cache = artifacts_mod.ArtifactStore(str(tmp_path / "c"))
        assert cache.get("ff" + "0" * 62) is None

    def test_corrupt_entry_dropped(self, tmp_path):
        cache = artifacts_mod.ArtifactStore(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        cache.put(key, {"x": 1})
        cache._path(key, artifacts_mod.KIND_RESULT).write_text("{ not json")
        assert cache.get(key) is None
        assert not cache._path(key, artifacts_mod.KIND_RESULT).exists()

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = artifacts_mod.ArtifactStore(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        path = cache._path(key, artifacts_mod.KIND_RESULT)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": -1, "payload": {"x": 1}}))
        artifacts_mod.reset_counters()
        assert cache.get(key) is None
        assert artifacts_mod.counters()["version_mismatch"] == 1

    def test_clear_and_info(self, tmp_path):
        cache = artifacts_mod.ArtifactStore(str(tmp_path / "c"))
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.put("cd" + "0" * 62, {"y": 2})
        info = cache.info()
        assert info["entries"] == 2 and info["bytes"] > 0
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0


class TestSimResultState:
    def test_full_fidelity_roundtrip(self):
        result = runner.bundle_for("go").simulate("U")
        state = result.to_state()
        json.dumps(state)  # must be JSON-serializable
        restored = SimResult.from_state(state)
        assert restored.to_state() == state
        assert restored.region_cycles() == result.region_cycles()
        assert restored.total_violations() == result.total_violations()
        for region in restored.regions:
            for violation in region.violations:
                assert isinstance(violation, ViolationRecord)


class TestBundleCaching:
    def test_miss_then_hit_skips_compilation(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        cold = runner.bundle_for("go").simulate("C")

        runner.clear_cache()
        metrics_mod.reset()
        warm_bundle = runner.bundle_for("go")
        warm = warm_bundle.simulate("C")
        assert warm.to_state() == cold.to_state()
        assert not warm_bundle.is_compiled  # served entirely from disk
        run = metrics_mod.current()
        assert run.cache_hits == 1 and run.cache_misses == 0

    def test_config_change_invalidates(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        runner.bundle_for("go").simulate("C")

        runner.clear_cache()
        metrics_mod.reset()
        bundle = runner.bundle_for("go")
        bundle.simulate("C", base=SimConfig(num_cores=8))
        assert bundle.is_compiled  # different key: had to recompute
        assert metrics_mod.current().cache_misses >= 1

    def test_corrupted_entry_recomputed(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        cold = runner.bundle_for("go").simulate("C")

        for path in (tmp_path / "c").rglob("*.json"):
            path.write_text("truncated garbag")
        runner.clear_cache()
        bundle = runner.bundle_for("go")
        recomputed = bundle.simulate("C")
        assert bundle.is_compiled
        assert recomputed.to_state() == cold.to_state()

    def test_profile_summary_warm_without_compile(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "c"))
        cold = runner.bundle_for("go")
        summary = cold.profile_summary()
        hist = cold.distance_histogram()

        runner.clear_cache()
        warm = runner.bundle_for("go")
        assert warm.profile_summary() == summary
        assert warm.distance_histogram() == hist
        assert warm.profile_load_set(0.05) == cold.profile_load_set(0.05)
        assert not warm.is_compiled
