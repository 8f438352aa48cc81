"""Fixtures for the serve tests: cache isolation plus daemon boot.

Daemon tests default to the inline (``workers=0``) pool so the suite
stays fast and in-process; one test exercises a real process pool.
Every daemon gets its own tmp cache root, and the process-wide store
is disabled afterwards (mirrors ``tests/experiments/conftest.py``).
"""

import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.serve.daemon import EmbeddedDaemon, ServeConfig


@pytest.fixture(autouse=True)
def isolated_stores(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield
    artifacts_mod.configure(False)
    artifacts_mod.reset_counters()
    metrics_mod.reset()


@pytest.fixture(autouse=True)
def fresh_warm_state():
    """Cold bundle memos per test, restored afterwards.

    Serve tests assert cold-vs-warm provenance ('computed' first, then
    'memo') and artifact-store miss counts; process-wide memos warmed
    by earlier tests would make those assertions flaky.
    """
    saved = dict(runner._BUNDLES)
    runner._BUNDLES.clear()
    yield
    runner._BUNDLES.clear()
    runner._BUNDLES.update(saved)


@pytest.fixture
def make_daemon(tmp_path):
    """Factory: boot an embedded daemon, yield its base URL helper.

    Returns ``(embedded, base_url)``; every daemon booted through the
    factory is drained at teardown.
    """
    booted = []

    def _boot(**overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 0)
        overrides.setdefault("cache_root", str(tmp_path / "serve-cache"))
        embedded = EmbeddedDaemon(ServeConfig(**overrides))
        base_url = embedded.start()
        booted.append(embedded)
        return embedded, base_url

    yield _boot
    for embedded in booted:
        embedded.stop()


@pytest.fixture
def daemon_url(make_daemon):
    """One inline-pool daemon for the test."""
    _embedded, base_url = make_daemon()
    return base_url
