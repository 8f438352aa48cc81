"""Import budget: a ``repro`` process loads only the layers its command runs.

Each case runs in a fresh interpreter and lists ``sys.modules`` as the
command exits; none of the modules pinned for it may be loaded.  A
module counts as loaded under a pattern when its name matches it (an
``fnmatch`` pattern) or when its package does, so ``repro.compiler``
covers every module below it.
"""

import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs ``repro.cli.main`` on argv[2:] and writes the loaded module
#: names to argv[1]; with no argv it only imports the CLI.
PROBE = """
import json, sys
out, argv = sys.argv[1], sys.argv[2:]
import repro.cli
code = repro.cli.main(argv) if argv else 0
with open(out, "w") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""

CLI_IMPORT = (
    "repro.compiler", "repro.tlssim", "repro.experiments.runner",
    "repro.obs.analysis", "multiprocessing",
)
SIMULATE = (
    "repro.experiments.fig*", "repro.experiments.table*",
    "repro.experiments.report*", "repro.obs.analysis", "repro.obs.export",
    "repro.obs.prom", "repro.serve", "repro.sweep",
    "concurrent.futures.process",
)
ANALYZE_LOG = (
    "repro.tlssim.engine", "repro.ir", "repro.compiler",
    "repro.experiments.runner", "repro.experiments.trace",
)
WARM_REPORT = (
    "repro.compiler", "repro.ir.interpreter", "repro.ir.lower",
    "repro.ir.codegen", "repro.tlssim.engine",
)


def _loaded(work: Path, *argv: str) -> List[str]:
    out = work / "modules.json"
    subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        cwd=work, env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True,
    )
    return json.loads(out.read_text())


def _violations(modules: Sequence[str], patterns: Sequence[str]) -> List[str]:
    def covered(name: str, pattern: str) -> bool:
        parts = name.split(".")
        return any(
            fnmatch.fnmatchcase(".".join(parts[:depth]), pattern)
            for depth in range(1, len(parts) + 1)
        )

    return [name for name in modules if any(covered(name, p) for p in patterns)]


def test_patterns_cover_subpackages():
    modules = ["repro.compiler.memdep.graph", "repro.serve", "repro.experiments.fig02_potential",
               "repro.experiments.runner", "repro.ir.module"]
    assert _violations(modules, ("repro.compiler",)) == ["repro.compiler.memdep.graph"]
    assert _violations(modules, SIMULATE) == ["repro.serve", "repro.experiments.fig02_potential"]
    assert _violations(modules, WARM_REPORT) == ["repro.compiler.memdep.graph"]


def test_cli_import_loads_no_layer(tmp_path):
    modules = _loaded(tmp_path)
    assert "repro.cli" in modules
    assert _violations(modules, CLI_IMPORT) == []


def test_simulate_loads_only_the_compute_stack(tmp_path):
    modules = _loaded(tmp_path, "simulate", "go", "--bar", "C", "--no-cache")
    assert "repro.tlssim.engine" in modules  # it did simulate
    assert _violations(modules, SIMULATE) == []
    # Checking the name needs no builder; simulating needs only its own.
    builders = [
        name for name in modules
        if name.startswith("repro.workloads.") and name != "repro.workloads.base"
    ]
    assert builders == ["repro.workloads.go"]


def test_analyze_log_loads_no_simulator(tmp_path):
    from repro.cli import main

    log = str(tmp_path / "go_C.jsonl")
    assert main(["trace", "--workload", "go", "--bar", "C",
                 "--format", "jsonl", "-o", log]) == 0
    modules = _loaded(tmp_path, "analyze", log, "--no-cache")
    assert "repro.obs.analysis" in modules  # it did analyze
    assert _violations(modules, ANALYZE_LOG) == []


def test_warm_report_loads_no_compiler_or_engine(tmp_path):
    argv = ("report", "--workloads", "go", "--jobs", "1",
            "--cache-dir", str(tmp_path / "store"), "-o", str(tmp_path / "out.md"))
    cold = _loaded(tmp_path, *argv)
    assert "repro.tlssim.engine" in cold  # the cold run computed
    # Only a vector engine lowers; a store does not pull lowering in.
    assert _violations(cold, ("repro.ir.lower", "repro.ir.codegen")) == []
    warm = _loaded(tmp_path, *argv, "--metrics-out", str(tmp_path / "metrics.json"))
    assert json.loads((tmp_path / "metrics.json").read_text())["cache"]["misses"] == 0
    assert _violations(warm, WARM_REPORT) == []
