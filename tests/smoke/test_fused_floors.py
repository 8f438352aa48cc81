"""Fused-coverage floors for the vector backend.

On the three largest workloads, the share of dynamic instructions a
``vector`` engine executes inside fused kernels must stay at or
above its floor in ``fused_floors.json`` beside this module.  Each cell also
checks the vector result against the tuples path.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
from repro.tlssim.engine import TLSEngine

FLOORS_PATH = Path(__file__).resolve().parent / "fused_floors.json"
FLOORS = json.loads(FLOORS_PATH.read_text())["floors"]

#: The uncompiled program exercises violations and squashes, the
#: compiler-synchronized one forwarding.
SCHEMES = ("U", "C")


def _run(bundle, scheme, backend):
    config = config_for(scheme).with_mode(fast_path=True, backend=backend)
    oracle = None
    if config.oracle_mode != "off":
        oracle = bundle.oracle_for(BAR_PROGRAM[scheme])
    engine = TLSEngine(
        bundle.program(scheme), config=config, oracle=oracle,
        parallel=scheme != "SEQ",
    )
    return engine, engine.run()


def test_floors_cover_the_three_largest_workloads():
    assert set(FLOORS) == {"gzip_decomp", "bzip2_comp", "gcc"}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(FLOORS))
def test_vector_fused_fraction_meets_floor(workload, scheme):
    bundle = bundle_for(workload)
    engine, result = _run(bundle, scheme, "vector")
    _, reference = _run(bundle, scheme, "tuples")
    assert engine.backend == "vector"
    assert result.to_state() == reference.to_state()
    fraction = engine.fused_instructions / engine.instructions
    assert fraction >= FLOORS[workload], (
        f"{workload}/{scheme}: fused_fraction {fraction:.4f} "
        f"under floor {FLOORS[workload]}"
    )
