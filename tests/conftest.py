"""Suite-wide pytest configuration.

The ``stability`` marker gates the soak tier (``tests/stability/``):
those tests run repeated warm submits through a live serve daemon and
take minutes, so the tier-1 suite skips them unless ``--run-stability``
is passed (the nightly workflow does).

Three goldens pin the reproduction's outputs: EXPERIMENTS.md's
"Measured results" section (``tests/integration/test_golden_report.py``),
the result digests in ``tests/golden/results.json``
(``tests/tlssim/test_event_stream.py``) and the ``repro trace`` output
digests in ``tests/golden/traces.json``
(``tests/experiments/test_trace.py``).  ``--update-golden`` makes those
tests rewrite the goldens instead of asserting them; a change that
does so says why in CHANGES.md.

A :class:`repro.tlssim.stats.AccountingWarning` (more busy/fail/sync
slots than a region had) fails the test that raises it.
"""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RESULT_DIGESTS = GOLDEN / "results.json"
TRACE_DIGESTS = GOLDEN / "traces.json"


def pytest_addoption(parser):
    parser.addoption(
        "--run-stability",
        action="store_true",
        default=False,
        help="run soak tests marked @pytest.mark.stability",
    )
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite EXPERIMENTS.md's measured results and the "
        "tests/golden/ digests instead of asserting them",
    )


def pytest_configure(config):
    # Here, not in pyproject's filterwarnings: resolving the category
    # imports repro, which `pytest perfbench` must not need.
    config.addinivalue_line(
        "filterwarnings", "error::repro.tlssim.stats.AccountingWarning"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-stability"):
        return
    skip = pytest.mark.skip(reason="needs --run-stability")
    for item in items:
        if "stability" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


@contextmanager
def _golden_digests(path, section, description, update_golden):
    """``check(key, data)``: assert the sha256 of ``data`` against
    ``path[section][key]``; under ``--update-golden`` record it instead
    and merge the recorded digests into the file on exit."""
    golden = {}
    if path.exists():
        golden = json.loads(path.read_text())[section]
    recorded = {}

    def check(key, data):
        digest = hashlib.sha256(data).hexdigest()
        if update_golden:
            recorded[key] = digest
            return
        assert golden.get(key) == digest, (
            f"{key}: digest changed; if intended, rerun with "
            "--update-golden and say why in CHANGES.md"
        )

    yield check
    if recorded:
        path.write_text(json.dumps(
            {"digest": description, section: {**golden, **recorded}},
            indent=1, sort_keys=True,
        ) + "\n")


@pytest.fixture(scope="session")
def result_digests(update_golden):
    """``check(key, result)``: assert the sha256 of a result's canonical
    bytes against ``tests/golden/results.json``."""
    from repro.serve.protocol import canonical_result_bytes

    with _golden_digests(
        RESULT_DIGESTS, "results",
        "sha256 of serve.protocol.canonical_result_bytes"
        "(result.to_state()), slow path, threshold 0.05",
        update_golden,
    ) as check:
        yield lambda key, result: check(
            key, canonical_result_bytes(result.to_state())
        )


@pytest.fixture(scope="session")
def trace_digests(update_golden):
    """``check(key, data)``: assert the sha256 of ``repro trace`` output
    bytes against ``tests/golden/traces.json``."""
    with _golden_digests(
        TRACE_DIGESTS, "traces",
        "sha256 of the file `repro trace --workload W --bar B "
        "--format F -o FILE` writes",
        update_golden,
    ) as check:
        yield check
