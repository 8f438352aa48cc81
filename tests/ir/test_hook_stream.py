"""Hook-stream golden: what the sequential interpreter tells its hooks.

The dependence profiler (paper Section 2.3), oracle collection and
loop selection see a program only through the interpreter's hook
calls.  For every workload's ``baseline`` and ``sync_ref`` program this
pins the full stream of ``on_region_enter``, ``on_epoch_start``,
``on_load``, ``on_store`` and ``on_region_exit`` calls (a memory access
as its iid, call-stack tuple, address, value and epoch), followed by
the run's step count and return value, to its digest in
``tests/golden/hooks.json``.
"""

import pytest

from repro.experiments.runner import bundle_for
from repro.ir.interpreter import Hooks, Interpreter
from repro.workloads import all_workloads

WORKLOADS = tuple(w.name for w in all_workloads())
PROGRAMS = ("baseline", "sync_ref")


class _StreamHooks(Hooks):
    def __init__(self):
        self.calls = []

    def on_region_enter(self, function, header, instance):
        self.calls.append(("enter", function, header, instance))

    def on_epoch_start(self, epoch):
        self.calls.append(("epoch", epoch))

    def on_load(self, instr, stack, addr, value, epoch):
        self.calls.append(("load", instr.iid, tuple(stack), addr, value, epoch))

    def on_store(self, instr, stack, addr, value, epoch):
        self.calls.append(("store", instr.iid, tuple(stack), addr, value, epoch))

    def on_region_exit(self, function, header, epochs):
        self.calls.append(("exit", function, header, epochs))


def _stream(module):
    hooks = _StreamHooks()
    result = Interpreter(module, hooks=hooks).run()
    hooks.calls.append(("end", result.steps, result.return_value))
    return repr(hooks.calls).encode()


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_hook_stream_matches_golden(name, program, hook_digests):
    module = getattr(bundle_for(name).compiled, program)
    hook_digests(f"{name}/{program}", _stream(module))
