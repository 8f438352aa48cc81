"""Isolation for experiment tests.

CLI commands enable the persistent store (results and compiled
artifacts) by default; point its default root into the test's tmp
directory so no test ever reads stale entries from (or writes into)
the repository's ``.repro_cache/``, and always leave the process-wide
store disabled afterwards.
"""

import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner


@pytest.fixture(autouse=True)
def isolated_result_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield
    artifacts_mod.configure(False)
    artifacts_mod.reset_counters()
    metrics_mod.reset()


@pytest.fixture
def fresh_bundles():
    """Cold bundle memos for the test, restored afterwards.

    Saving the memo dict keeps other test files' compiled bundles warm
    (the suite leans on that sharing for speed).
    """
    saved = dict(runner._BUNDLES)
    runner._BUNDLES.clear()
    yield
    runner._BUNDLES.clear()
    runner._BUNDLES.update(saved)
