"""The fast paths must be faster than the reference paths they replace.

Each engine cell times the tuples fast path against ``fast_path=False``
on the same compiled program (best of ``REPEAT`` fresh engines each,
construction included) and requires equal results.  Each pipeline cell
times a fast step against its slow counterpart and requires an equal
product: artifact load vs compilation and oracle load vs collection.
(The dependence profiler has one path, so it has no cell.)

The bound is only ``> 1``: on a 2-core container the engine margins
measured 2.4-5.2x and the pipeline margins 5-64x, so a failure means a
fast path lost its reason to exist, not noise.
"""

import time

import pytest

from repro.compiler.pipeline import compile_workload
from repro.experiments import payloads
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import collect_oracle
from repro.workloads import get_workload

REPEAT = 3
THRESHOLD = 0.05
WORKLOADS = ("go", "mcf")

#: The uncompiled program exercises violations and squashes, the
#: compiler-synchronized one forwarding.
SCHEMES = ("U", "C")


def _best_of(fn):
    """(best wall seconds, last return value) over ``REPEAT`` calls."""
    best, value = None, None
    for _ in range(REPEAT):
        started = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return best, value


def _timed_engine(bundle, scheme, fast_path):
    config = config_for(scheme).with_mode(fast_path=fast_path, backend="tuples")
    oracle = None
    if config.oracle_mode != "off":
        oracle = bundle.oracle_for(BAR_PROGRAM[scheme])
    program = bundle.program(scheme)
    wall, result = _best_of(
        lambda: TLSEngine(
            program, config=config, oracle=oracle, parallel=True
        ).run()
    )
    return wall, result.to_state()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engine_fast_path_beats_slow_path(workload, scheme):
    bundle = bundle_for(workload, THRESHOLD)
    fast_wall, fast_state = _timed_engine(bundle, scheme, fast_path=True)
    slow_wall, slow_state = _timed_engine(bundle, scheme, fast_path=False)
    assert fast_state == slow_state
    assert slow_wall / fast_wall > 1.0, (
        f"{workload}/{scheme}: fast path {fast_wall * 1e3:.1f} ms, "
        f"slow path {slow_wall * 1e3:.1f} ms"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pipeline_fast_paths_beat_slow_paths(workload, tmp_path):
    spec = get_workload(workload)
    store = ArtifactStore(str(tmp_path / "store"))
    walls = {}

    walls["compile", "slow"], compiled = _best_of(
        lambda: compile_workload(
            spec.name, spec.build, spec.train_input, spec.ref_input,
            threshold=THRESHOLD,
        )
    )
    store.save_compiled(spec, THRESHOLD, compiled)
    walls["compile", "fast"], loaded = _best_of(
        lambda: store.load_compiled(spec, THRESHOLD)
    )
    assert loaded is not None
    assert payloads.compiled_to_state(loaded) == (
        payloads.compiled_to_state(compiled)
    )

    walls["oracle", "slow"], oracle = _best_of(
        lambda: collect_oracle(compiled.baseline)
    )
    store.save_oracle(spec, THRESHOLD, "baseline", oracle)
    walls["oracle", "fast"], loaded_oracle = _best_of(
        lambda: store.load_oracle(spec, THRESHOLD, "baseline")
    )
    assert loaded_oracle is not None
    assert payloads.oracle_to_state(loaded_oracle) == (
        payloads.oracle_to_state(oracle)
    )

    for cell in ("compile", "oracle"):
        fast, slow = walls[cell, "fast"], walls[cell, "slow"]
        assert slow / fast > 1.0, (
            f"{workload}/{cell}: fast {fast * 1e3:.1f} ms, "
            f"slow {slow * 1e3:.1f} ms"
        )
