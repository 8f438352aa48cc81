"""Fixtures for the stability (soak) tier.

``memory_tracker`` snapshots tracemalloc usage over a soak and reports
the growth ratio — the gate that catches unbounded growth in a
long-lived daemon (leaked job records, growing metrics collectors,
per-request allocations that never die).
"""

import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner


@pytest.fixture(autouse=True)
def isolated_stores(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield
    artifacts_mod.configure(False)
    artifacts_mod.reset_counters()
    metrics_mod.reset()


@pytest.fixture(autouse=True)
def cold_bundles():
    """Cold bundle memo per test, restored afterwards.

    Process workers fork from the test process: a bundle that an
    earlier in-process soak warmed would reach them already compiled,
    and their first answer would come from the memo, not a compute.
    """
    saved = dict(runner._BUNDLES)
    runner._BUNDLES.clear()
    yield
    runner._BUNDLES.clear()
    runner._BUNDLES.update(saved)


@pytest.fixture
def memory_tracker():
    """Track memory usage over time (tracemalloc snapshots)."""
    import tracemalloc

    class MemoryTracker:
        def __init__(self):
            self._snapshots = []
            tracemalloc.start()

        def snapshot(self, timestamp: float) -> int:
            """Take a memory snapshot and return current usage."""
            current, _peak = tracemalloc.get_traced_memory()
            self._snapshots.append((timestamp, current))
            return current

        def get_growth_ratio(self) -> float:
            """Memory growth ratio (final / initial)."""
            if len(self._snapshots) < 2:
                return 1.0
            initial = self._snapshots[0][1]
            final = self._snapshots[-1][1]
            return final / initial if initial > 0 else 1.0

        def stop(self) -> None:
            tracemalloc.stop()

    tracker = MemoryTracker()
    yield tracker
    tracker.stop()
