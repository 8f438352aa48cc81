"""Suite-wide pytest configuration.

The ``stability`` marker gates the soak tier (``tests/stability/``):
those tests run repeated warm submits through a live serve daemon and
take minutes, so the tier-1 suite skips them unless ``--run-stability``
is passed (the nightly workflow does).

Two goldens pin the reproduction's numbers: EXPERIMENTS.md's "Measured
results" section (``tests/integration/test_golden_report.py``) and the
result digests in ``tests/golden/results.json``
(``tests/tlssim/test_event_stream.py``).  ``--update-golden`` makes
those tests rewrite the goldens instead of asserting them; a change
that does so says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

RESULT_DIGESTS = Path(__file__).resolve().parent / "golden" / "results.json"


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
        help="rewrite EXPERIMENTS.md's measured results and "
        "tests/golden/results.json instead of asserting them",
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


@pytest.fixture(scope="session")
def result_digests(update_golden):
    """``check(key, result)``: assert the sha256 of a result's canonical
    bytes against ``tests/golden/results.json``.

    Under ``--update-golden`` the digests are recorded instead and
    merged into the file when the session ends.
    """
    from repro.serve.protocol import canonical_result_bytes

    golden = {}
    if RESULT_DIGESTS.exists():
        golden = json.loads(RESULT_DIGESTS.read_text())["results"]
    recorded = {}

    def check(key, result):
        digest = hashlib.sha256(
            canonical_result_bytes(result.to_state())
        ).hexdigest()
        if update_golden:
            recorded[key] = digest
            return
        assert golden.get(key) == digest, (
            f"{key}: result digest changed; if intended, rerun with "
            "--update-golden and say why in CHANGES.md"
        )

    yield check
    if recorded:
        RESULT_DIGESTS.write_text(json.dumps(
            {
                "digest": "sha256 of serve.protocol.canonical_result_bytes"
                "(result.to_state()), slow path, threshold 0.05",
                "results": {**golden, **recorded},
            },
            indent=1, sort_keys=True,
        ) + "\n")
