"""Every script under ``examples/`` runs to completion.

Each case starts a fresh interpreter, as a reader would run it, in a
scratch directory with its own cache root.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: (script, argv) per example; timeline gets a small workload
EXAMPLES = (
    ("quickstart.py",),
    ("free_list.py",),
    ("scheme_comparison.py",),
    ("textual_ir.py",),
    ("timeline.py", "go", "6"),
)


def _run(tmp_path, script, *argv):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "repro-cache"),
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda case: case[0])
def test_example_runs(example, tmp_path):
    proc = _run(tmp_path, *example)
    assert proc.returncode == 0, proc.stderr
    if example[0] == "timeline.py":
        rows = [
            line for line in proc.stdout.splitlines()
            if line.startswith("core 0 |")
        ]
        assert len(rows) == 2  # one per scheme, U then C
        assert "identical results" in proc.stdout
