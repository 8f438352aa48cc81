"""Kernel source generation for the ``vector`` execution backend.

The lowering pass (:mod:`repro.ir.lower`) decides *where* fused regions
live; this module decides *what runs there*: for every region it emits
the source of a specialized Python function — register reads and writes
unrolled into locals, constants inlined and folded with the exact
:mod:`repro.ir.evalops` callables, per-op clock charges pre-summed into
rollback-chunk offset tables — and compiles it once per distinct source
through a process-wide memo (:func:`compile_source`).

Every region is a superblock path dispatched under the ``OP_FUSED2``
superop.  A home region gets an ``_epoch``/``_seq`` kernel pair; a
suffix region gets an ``_epoch`` kernel only (its sequential slot is
the shared :func:`replay_seq`, see below).  A path
keeps executing across *guarded conditional branches* (both sides are
lowered; the kernel validates the predicted direction at the branch
and exits to the other target when the guess misses — nothing
speculative has happened, so no replay is needed) and across *memory
operations* (epoch-private write-buffer hits execute entirely inside
the kernel against the run's store buffer; every other load/store is
executed in place through the engine's ``_exec_load``/``_exec_store``
under the exact horizon discipline of the tuple path).
Synchronization ops fuse the same way: ``wait``/``signal`` delegate to
the engine's channel machinery and ``check`` runs fully inline.  A
signal always ends the turn, exactly like its tuple twin, so an
``_epoch`` kernel ends at its first signal: nothing is emitted past
that return.  A straight-line pure run is the degenerate path — one
span, no guards and no sites.  The lowering pass also plants *suffix
kernels* — the same shape, covering one segment of the path from a
mid-path resume index to just before the next site — and a suffix
kernel cut at a site leaves through the ordinary case-A exit at that
site's index, where the dispatcher runs the next segment.  A suffix
kernel could never run in the sequential loop (see
:func:`replay_seq`), so suffix regions get no ``_seq`` body.

Exactness contract
------------------

Extended kernels are byte-identical twins of the engine's tuple loops
(`_run_turn` / `_run_sequential`), op for op:

* Shared-state operations synchronize on the horizon with the same
  ``(clock, logical)`` comparison before executing, bail out with the
  operation unexecuted when another run's event is due (the engine then
  replays per-op from the bail index), and sync ``run``/``frame``/
  region-step state before every engine call so parks, squashes and
  faults observe exactly the tuple path's state.
* Private segments append ``(base clock, offset table)`` rollback
  chunks; flattened they reproduce the per-op trace floats bit for bit
  (dyadic-grid gate, see :func:`repro.ir.lower.signature_exact`).  Kernels never clear
  the trace: entries at or below an executed shared op are strictly
  below any future squash cut (the shared op passed the horizon check,
  so every other run's future event — including any squashing store —
  lies strictly later), which makes retained entries unobservable.
* A missing live-in register returns ``None`` from the kernel before
  any state is touched; the engine re-dispatches the original head op
  so the tuple path reproduces partial application and error text.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.decode import (
    OP_BINOP,
    OP_CHECK,
    OP_CONDBR,
    OP_CONST,
    OP_DIVMOD,
    OP_JUMP,
    OP_LOAD,
    OP_MOVE,
    OP_RESUME,
    OP_SELECT,
    OP_SIGNAL,
    OP_STORE,
    OP_UNOP,
    OP_WAIT,
)
from repro.ir.evalops import BINOP_FUNCS, UNOP_FUNCS

class CodegenError(Exception):
    """An op the emitter cannot lower (internal invariant)."""


# ---------------------------------------------------------------------------
# expression templates (must mirror repro.ir.evalops bit for bit)
# ---------------------------------------------------------------------------

SIGN = 1 << 63
MODULUS_MASK = (1 << 64) - 1


def wrap_expr(expr: str) -> str:
    # ((v + 2**63) & (2**64 - 1)) - 2**63 is the two's-complement
    # signed wrap of every int v, as in the evalops handlers.
    return f"((({expr}) + {SIGN}) & {MODULUS_MASK}) - {SIGN}"


BINOP_TEMPLATES: Dict[str, Callable[[str, str], str]] = {
    "add": lambda a, b: wrap_expr(f"{a} + {b}"),
    "sub": lambda a, b: wrap_expr(f"{a} - {b}"),
    "mul": lambda a, b: wrap_expr(f"{a} * {b}"),
    "and": lambda a, b: wrap_expr(f"{a} & {b}"),
    "or": lambda a, b: wrap_expr(f"{a} | {b}"),
    "xor": lambda a, b: wrap_expr(f"{a} ^ {b}"),
    "shl": lambda a, b: wrap_expr(f"{a} << ({b} & 63)"),
    "shr": lambda a, b: wrap_expr(f"{a} >> ({b} & 63)"),
    "eq": lambda a, b: f"1 if {a} == {b} else 0",
    "ne": lambda a, b: f"1 if {a} != {b} else 0",
    "lt": lambda a, b: f"1 if {a} < {b} else 0",
    "le": lambda a, b: f"1 if {a} <= {b} else 0",
    "gt": lambda a, b: f"1 if {a} > {b} else 0",
    "ge": lambda a, b: f"1 if {a} >= {b} else 0",
    # builtins min/max return the first argument on ties.
    "min": lambda a, b: f"{a} if {a} <= {b} else {b}",
    "max": lambda a, b: f"{a} if {a} >= {b} else {b}",
}

UNOP_TEMPLATES: Dict[str, Callable[[str], str]] = {
    "neg": lambda a: wrap_expr(f"-{a}"),
    "not": lambda a: f"0 if {a} else 1",
}


def atom(value) -> str:
    """Render a const operand (parenthesized when negative)."""
    return f"({value!r})" if value < 0 else repr(value)


def trunc_div_expr(a: str, c: int) -> str:
    """Truncating ``a`` / nonzero-constant ``c``, matching evalops.

    ``evalops._op_div`` computes ``abs(lhs) // abs(rhs)`` negated
    when the signs differ; Python's floor division over exact ints
    reproduces that case by case (no ``abs`` — the kernel namespace
    has no builtins).
    """
    if c > 0:
        return f"({a} // {c} if {a} >= 0 else -((-{a}) // {c}))"
    return f"(-({a} // {-c}) if {a} >= 0 else (-{a}) // {-c})"


def offsets_literal(offsets: Sequence[float]) -> str:
    """A tuple literal for a rollback-chunk offset table (1-op safe)."""
    inner = ", ".join(repr(off) for off in offsets)
    if len(offsets) == 1:
        inner += ","
    return f"({inner})"


def clock_offsets(dts: Sequence[float]) -> Tuple[List[float], float]:
    """Per-op clock offsets and the region total for a run of charges.

    ``offsets[k]`` is the clock of op ``k`` relative to the region
    entry clock (op 0 starts at offset 0.0); the total is the whole
    run's charge.  Lowering only runs on a dyadic cost grid, where
    these sums match the tuple path's sequential accumulation bit for
    bit (see :func:`repro.ir.lower.signature_exact`).
    """
    total = 0.0
    offsets = []
    for dt in dts:
        offsets.append(total)
        total += dt
    return offsets, total


# ---------------------------------------------------------------------------
# the compile layer: one compile() per distinct source, process-wide
# ---------------------------------------------------------------------------

#: sha256(source) -> executed namespace.  Region sources are fully
#: deterministic functions of (module content, cost signature), so the
#: memo is naturally bounded by the set of distinct programs a process
#: simulates — serve workers and sweep points re-running a workload hit
#: it instead of paying compile() again.
_SOURCE_MEMO: Dict[str, Dict[str, Callable]] = {}

_STATS = {"compiles": 0, "memo_hits": 0}


def _bump(name: str) -> None:
    from repro.obs.registry import process_registry

    process_registry().counter(f"codegen_{name}").inc()


def compile_source(source: str, where: str) -> Dict[str, Callable]:
    """Compile kernel source into a builtin-free namespace, memoized.

    The namespace deliberately exposes only ``len`` and ``KeyError``
    (extended kernels use them for the frame-depth hoist and the
    live-in guard); everything else a kernel touches arrives through
    its arguments.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    namespace = _SOURCE_MEMO.get(digest)
    if namespace is not None:
        _STATS["memo_hits"] += 1
        _bump("memo_hits")
        return namespace
    namespace = {"__builtins__": {}, "len": len, "KeyError": KeyError}
    exec(compile(source, f"<kernel:{where}>", "exec"), namespace)
    _STATS["compiles"] += 1
    _bump("compiles")
    _SOURCE_MEMO[digest] = namespace
    return namespace


def compile_stats() -> Dict[str, int]:
    """Process-wide compile/memo counters plus the memo footprint."""
    stats = dict(_STATS)
    stats["memo_size"] = len(_SOURCE_MEMO)
    return stats


def reset_stats() -> None:
    """Zero the counters (tests); the memo itself is retained."""
    _STATS["compiles"] = 0
    _STATS["memo_hits"] = 0


def clear_memo() -> None:
    """Drop every memoized namespace (tests / cache clear)."""
    _SOURCE_MEMO.clear()


# ---------------------------------------------------------------------------
# expression state
# ---------------------------------------------------------------------------


class _ExprState:
    """Register environment with constant folding."""

    def __init__(self):
        #: reg -> ("const", value) | ("var", local)
        self.env: Dict[str, tuple] = {}
        #: reg -> live-in local (ordered by first read)
        self.live_ins: Dict[str, str] = {}
        self.folded = 0
        self._values = 0

    def read(self, operand) -> tuple:
        if type(operand) is int:
            return ("const", operand)
        cached = self.env.get(operand)
        if cached is not None:
            return cached
        local = self.live_ins.get(operand)
        if local is None:
            local = f"_i{len(self.live_ins)}"
            self.live_ins[operand] = local
        return ("var", local)

    def fresh(self) -> str:
        local = f"_v{self._values}"
        self._values += 1
        return local

    @staticmethod
    def render(node: tuple) -> str:
        return atom(node[1]) if node[0] == "const" else node[1]

    def pure_expr(self, op: tuple) -> Optional[Tuple[str, str, tuple]]:
        """Fold/emit one pure op; ``(local, expr, deps)`` or None if folded.

        Handles CONST/MOVE/BINOP/UNOP and DIVMOD with a nonzero
        constant divisor; the destination register's env entry is
        updated either way.  ``deps`` names the var locals the
        expression reads (dead-node elimination input).
        """
        code = op[0]
        if code == OP_CONST:
            self.env[op[3]] = ("const", op[4])
            return None
        if code == OP_MOVE:
            self.env[op[3]] = self.read(op[4])
            return None
        if code == OP_BINOP:
            opname = op[2].op
            lhs, rhs = self.read(op[5]), self.read(op[6])
            if lhs[0] == "const" and rhs[0] == "const":
                self.env[op[3]] = (
                    "const", BINOP_FUNCS[opname](lhs[1], rhs[1])
                )
                self.folded += 1
                return None
            local = self.fresh()
            expr = BINOP_TEMPLATES[opname](
                self.render(lhs), self.render(rhs)
            )
            deps = tuple(n[1] for n in (lhs, rhs) if n[0] == "var")
            self.env[op[3]] = ("var", local)
            return (local, expr, deps)
        if code == OP_DIVMOD:
            # Only reachable with a nonzero constant divisor (the
            # fusibility gates guarantee it) — pure, never faults.
            opname = op[2].op
            lhs = self.read(op[5])
            c = op[6]
            if lhs[0] == "const":
                self.env[op[3]] = ("const", BINOP_FUNCS[opname](lhs[1], c))
                self.folded += 1
                return None
            local = self.fresh()
            a = lhs[1]
            q = trunc_div_expr(a, c)
            if opname == "div":
                expr = wrap_expr(q)
            else:  # mod: lhs - trunc_div(lhs, c) * c
                expr = wrap_expr(f"{a} - {q} * {atom(c)}")
            self.env[op[3]] = ("var", local)
            return (local, expr, (a,))
        if code == OP_UNOP:
            opname = op[2].op
            src = self.read(op[5])
            if src[0] == "const":
                self.env[op[3]] = ("const", UNOP_FUNCS[opname](src[1]))
                self.folded += 1
                return None
            local = self.fresh()
            expr = UNOP_TEMPLATES[opname](self.render(src))
            self.env[op[3]] = ("var", local)
            return (local, expr, (src[1],))
        raise CodegenError(f"opcode {code} is not a pure fused op")


# ---------------------------------------------------------------------------
# extended regions (superblock paths; OP_FUSED2)
# ---------------------------------------------------------------------------

#: Opcodes a *pure* segment may contain (rides a rollback chunk).
_SEGMENT_OPCODES = frozenset(
    (OP_CONST, OP_MOVE, OP_BINOP, OP_DIVMOD, OP_UNOP, OP_SELECT, OP_RESUME)
)

#: Opcodes lowered as synchronized sites (horizon-checked in the epoch
#: kernel).  The engine can end a turn *at* any of these — lowering
#: plants suffix kernels there so resumes re-enter fused execution.
SITE_OPCODES = frozenset(
    (OP_LOAD, OP_STORE, OP_WAIT, OP_SIGNAL, OP_CHECK)
)

#: Sites whose turn-ending exits leave the op *completed*, resuming at
#: the following index (store: SAB replacement / cross-run squash;
#: signal: the unconditional consumer-event return).
POST_RESUME_OPCODES = frozenset((OP_STORE, OP_SIGNAL))

#: Sites carrying an Instr record in the superop ``instrs`` tuple, in
#: path order (the emitters' ``mem_index`` walks the same order).
INSTR_OPCODES = frozenset((OP_LOAD, OP_STORE, OP_WAIT, OP_SIGNAL))


class ExtSpec:
    """Codegen result for one extended (superblock) region."""

    __slots__ = ("live_ins", "live_outs", "folded", "source", "length")

    def __init__(self, live_ins, live_outs, folded, source, length):
        self.live_ins = live_ins
        self.live_outs = live_outs
        self.folded = folded
        self.source = source
        self.length = length


def replay_seq(regs, clock, eng, frames, mem_load, mem_store, acc, lof,
               obs):
    """The sequential slot of every suffix superop.

    Returns ``None`` — the missing-live-in answer — so the sequential
    engine dispatches the head tuple per-op.  The sequential loop
    enters blocks at index 0 and resumes after calls at a run start, so
    it meets a suffix head only on its way through the home region:
    after the home kernel could not run (step limit, missing live-in)
    or bailed at a branch guard.  A suffix kernel covers the same path
    tail and would not have run there either.
    """
    return None


class _PathEmitter:
    """Emit one extended kernel (``mode`` = "epoch" | "seq").

    The two kernels for a region are generated independently — the
    sequential path folds ``select`` like a move (its tuple twin reads
    only the memory-value arm) while the epoch path keeps it dynamic on
    ``run.fwd_flag`` — so their live-in sets may differ; the region
    record carries the union.

    A kernel ends at its first unconditional return (``ended``): an
    epoch signal, or a branch whose direction is known at codegen time
    and leaves the path.  The emitter still walks the rest of the path,
    so the expression state — and with it the live-in set the prologue
    reads — is that of the whole path, but it appends no more lines.
    """

    def __init__(self, mode: str, name: str, function_name: str,
                 issue_width: int):
        self.mode = mode
        self.name = name
        self.function_name = function_name
        self.issue_width = issue_width
        self.state = _ExprState()
        self.body: List[str] = []
        self.pend: List[float] = []
        self.dirty: Dict[str, None] = {}
        self.executed = 0          # ops fully executed so far (static)
        self.mem_index = 0         # index into the superop instrs tuple
        self.addr_count = 0
        self.load_count = 0
        self.ended = False
        #: prologue hoists ("load", "store", "branch") the body needs
        self.hoists: set = set()

    # -- small emission helpers ---------------------------------------

    def emit(self, line: str) -> None:
        if not self.ended:
            self.body.append(f"    {line}")

    def require(self, hoist: str) -> None:
        if not self.ended:
            self.hoists.add(hoist)

    def mark_dirty(self, reg: str) -> None:
        self.dirty[reg] = None

    def flush_regs(self) -> None:
        """Write every dirty register back to the frame dict.

        Three or more go out as one ``regs.update({...})``, which
        inserts in the same order as the single assignments.
        """
        render = self.state.render
        env = self.state.env
        if len(self.dirty) >= 3:
            items = ", ".join(
                f"{reg!r}: {render(env[reg])}" for reg in self.dirty
            )
            self.emit(f"regs.update({{{items}}})")
        else:
            for reg in self.dirty:
                self.emit(f"regs[{reg!r}] = {render(env[reg])}")
        self.dirty.clear()

    def close_pend(self) -> None:
        """Close the pending private segment: chunk, clock, busy."""
        if not self.pend:
            return
        offsets, total = clock_offsets(self.pend)
        if self.mode == "epoch":
            self.emit(
                f"trace.append((clock, {offsets_literal(offsets)}))"
            )
            if total != 0.0:
                self.emit(f"clock += {total!r}")
            self.emit(f"busy += {float(len(self.pend))!r}")
        else:
            if total != 0.0:
                self.emit(f"clock += {total!r}")
        del self.pend[:]

    def sync_point(self) -> None:
        self.flush_regs()
        self.close_pend()

    def ret(self, label_expr: str, idx, clock_expr: str,
            executed: int, ended: str = "False",
            busy_expr: str = "busy") -> str:
        if self.mode == "epoch":
            return (
                f"return ({label_expr}, {idx}, {clock_expr}, "
                f"{busy_expr}, {executed}, {ended})"
            )
        return f"return ({label_expr}, {idx}, {clock_expr}, {executed})"

    @staticmethod
    def _horizon_fail() -> str:
        return (
            "if not (clock < h_eff or "
            "(clock == h_eff and logical < h_log)):"
        )

    # -- per-op emission ----------------------------------------------

    def pure_op(self, op: tuple) -> None:
        code = op[0]
        if code == OP_SELECT and self.mode == "epoch":
            # Dynamic on the forwarding flag — both arms are read (a
            # missing untaken arm returns None up front and the tuple
            # path replays per-op, reproducing the exact fault or
            # success).
            f_node = self.state.read(op[4])
            m_node = self.state.read(op[5])
            local = self.state.fresh()
            self.emit(
                f"{local} = {self.state.render(f_node)} if run.fwd_flag "
                f"else {self.state.render(m_node)}"
            )
            self.state.env[op[3]] = ("var", local)
            self.mark_dirty(op[3])
        elif code == OP_SELECT:
            # Sequential twin: `regs[dest] = m_value` (pure move).
            self.state.env[op[3]] = self.state.read(op[5])
            self.mark_dirty(op[3])
        elif code == OP_RESUME:
            if self.mode == "epoch":
                self.emit("run.fwd_flag = False")
                self.emit("run.fwd_addr = 0")
            # sequential twin is charge-only
        else:
            emitted = self.state.pure_expr(op)
            if emitted is not None:
                self.emit(f"{emitted[0]} = {emitted[1]}")
            self.mark_dirty(op[3])
        self.pend.append(op[1])
        self.executed += 1

    def _addr_expr(self, base_operand, offset: int) -> Tuple[str, bool]:
        """The address expression, and whether it can be null (only a
        nonzero constant cannot)."""
        node = self.state.read(base_operand)
        if node[0] == "const":
            return atom(node[1] + offset), node[1] + offset == 0
        local = f"_a{self.addr_count}"
        self.addr_count += 1
        if offset:
            self.emit(f"{local} = {node[1]} + {offset}")
        else:
            self.emit(f"{local} = {node[1]}")
        return local, True

    def load_op(self, op: tuple, label_expr: str, index: int) -> None:
        self.sync_point()
        self.require("load")
        p = self.executed
        p1 = p + 1
        addr, nullable = self._addr_expr(op[4], op[5])
        mem = self.mem_index
        self.mem_index += 1
        dest_local = f"_m{self.load_count}"
        self.load_count += 1
        e = self.emit
        if self.mode == "epoch":
            e(self._horizon_fail())
            e(f"    {self.ret(label_expr, index, 'clock', p)}")
            e("run.clock = clock")
            e("run.busy_slots = busy")
            e(f"run.steps = steps + {p1}")
            e(f"ex.total_steps = tsteps + {p1}")
            e(f"frame.index = {index}")
            e("ex._now = clock")
            if nullable:
                e(f"if not {addr}:")
                e("    ex._null_fault(run, frame, 'dereference')")
                e(f"    {self.ret(label_expr, index, 'clock', p1, 'True')}")
            e(f"if {addr} in _wb:")
            e("    if _obs is not None:")
            e("        _obs.now = clock")
            e("    if _om:")
            e(f"        _ld = instrs[{mem}].iid")
            e("        _oc = run.oracle_occ")
            e("        _oc[_ld] = _oc.get(_ld, 0) + 1")
            e(f"    if run.fwd_flag and {addr} == run.fwd_addr:")
            e("        run.fwd_flag = False")
            e(f"    {dest_local} = _wb[{addr}]")
            e("    clock += _l1")
            e("    busy += 1.0")
            e("else:")
            e(f"    ex._exec_load(run, frame, instrs[{mem}], {addr})")
            e("    if run.state != 'ready':")
            e(f"        {self.ret(label_expr, index, 'clock', p1, 'True')}")
            e("    clock = run.clock")
            e("    busy = run.busy_slots")
            e(f"    {dest_local} = regs[{op[3]!r}]")
        else:
            e(f"{dest_local} = mem_load({addr})")
            e("if obs is not None:")
            e("    obs.now = clock")
            e(f"clock += acc(0, lof({addr})) / {self.issue_width}")
        self.state.env[op[3]] = ("var", dest_local)
        self.mark_dirty(op[3])
        self.executed = p1

    def store_op(self, op: tuple, label_expr: str, index: int) -> None:
        self.sync_point()
        self.require("store")
        p = self.executed
        p1 = p + 1
        addr, nullable = self._addr_expr(op[3], op[4])
        value = self.state.render(self.state.read(op[5]))
        mem = self.mem_index
        self.mem_index += 1
        e = self.emit
        if self.mode == "epoch":
            e(self._horizon_fail())
            e(f"    {self.ret(label_expr, index, 'clock', p)}")
            e("run.clock = clock")
            e("run.busy_slots = busy")
            e(f"run.steps = steps + {p1}")
            e(f"ex.total_steps = tsteps + {p1}")
            e(f"frame.index = {index}")
            e("ex._now = clock")
            if nullable:
                e(f"if not {addr}:")
                e("    ex._null_fault(run, frame, 'store')")
                e(f"    {self.ret(label_expr, index, 'clock', p1, 'True')}")
            e("_q = ex.stats.epochs_squashed")
            e(f"ex._exec_store(run, frame, instrs[{mem}], {addr}, {value})")
            e("if ex.stats.epochs_squashed != _q:")
            e(f"    {self.ret(label_expr, index, 'clock', p1, 'True')}")
            e(f"if _sab.get({addr}) is not None:")
            e(f"    {self.ret(label_expr, index, 'clock', p1, 'True')}")
            e("clock = run.clock")
            e("busy = run.busy_slots")
        else:
            e(f"mem_store({addr}, {value})")
            e("if obs is not None:")
            e("    obs.now = clock")
            e(f"clock += acc(0, lof({addr})) / {self.issue_width}")
        self.executed = p1

    # -- synchronization sites -----------------------------------------

    def _site_preamble(self, label_expr: str, index: int, p1: int) -> None:
        """Horizon bail + run/frame sync before an engine delegation."""
        e = self.emit
        e(self._horizon_fail())
        e(f"    {self.ret(label_expr, index, 'clock', p1 - 1)}")
        e("run.clock = clock")
        e("run.busy_slots = busy")
        e(f"run.steps = steps + {p1}")
        e(f"ex.total_steps = tsteps + {p1}")
        e(f"frame.index = {index}")
        e("ex._now = clock")

    def wait_op(self, op: tuple, label_expr: str, index: int) -> None:
        """WAIT: the epoch kernel delegates to ``_exec_wait`` — a stall
        ends the turn with the op at ``index`` (the engine re-executes
        it on wake, landing on the suffix kernel planted there); when
        the message is already in, the destination register is re-read
        and the path keeps running in-kernel.  The sequential twin is a
        register self-read defaulting to zero plus the clock charge.
        """
        if self.mode == "seq":
            # `regs[dest] = regs.get(dest, 0)`: deliberately NOT a
            # live-in — an undefined dest reads as zero in the tuple
            # path, not as a KeyError bail.
            dest = op[3]
            if dest not in self.state.env:
                local = self.state.fresh()
                self.emit(f"{local} = regs.get({dest!r}, 0)")
                self.state.env[dest] = ("var", local)
            self.mark_dirty(dest)
            self.pend.append(op[1])
            self.executed += 1
            return
        self.sync_point()
        p1 = self.executed + 1
        site = self.mem_index
        self.mem_index += 1
        e = self.emit
        self._site_preamble(label_expr, index, p1)
        e(f"ex._exec_wait(run, frame, instrs[{site}])")
        e("if run.state != 'ready':")
        e(f"    {self.ret(label_expr, index, 'clock', p1, 'True')}")
        e("clock = run.clock")
        e("busy = run.busy_slots")
        local = self.state.fresh()
        e(f"{local} = regs[{op[3]!r}]")
        self.state.env[op[3]] = ("var", local)
        self.mark_dirty(op[3])
        self.executed = p1

    def signal_op(self, op: tuple, label_expr: str, index: int) -> None:
        """SIGNAL: the epoch kernel delegates to ``_exec_signal`` and
        always ends the turn (the consumer's event moved, exactly the
        tuple path's unconditional return); the engine resumes at
        ``index + 1`` next turn, where lowering plants a suffix kernel.
        The sequential twin is charge-only.
        """
        if self.mode == "seq":
            self.pend.append(op[1])
            self.executed += 1
            return
        self.sync_point()
        p1 = self.executed + 1
        value = self.state.render(self.state.read(op[5]))
        site = self.mem_index
        self.mem_index += 1
        e = self.emit
        self._site_preamble(label_expr, index, p1)
        e(f"ex._exec_signal(run, frame, instrs[{site}], {value})")
        e(self.ret(label_expr, index, "clock", p1, "True"))
        self.ended = True
        self.executed = p1

    def check_op(self, op: tuple, label_expr: str, index: int) -> None:
        """CHECK: fully inline in the epoch kernel (the tuple path has
        no engine call either) — forwarding flag, channel stats and the
        clock charge — then the path keeps running.  The sequential
        twin is charge-only.
        """
        if self.mode == "seq":
            self.pend.append(op[1])
            self.executed += 1
            return
        self.sync_point()
        p1 = self.executed + 1
        f_expr = self.state.render(self.state.read(op[3]))
        m_addr, _ = self._addr_expr(op[4], op[5])
        e = self.emit
        self._site_preamble(label_expr, index, p1)
        e(f"run.fwd_flag = {f_expr} != 0 and {f_expr} == {m_addr}")
        e(f"run.fwd_addr = {f_expr}")
        e("if run.last_mem_channel is not None:")
        e("    _cs = ex.engine.channel_stats.setdefault("
          "run.last_mem_channel, [0, 0])")
        e("    _cs[0] += 1")
        e("    if run.fwd_flag:")
        e("        _cs[1] += 1")
        if op[1] != 0.0:
            e(f"clock += {op[1]!r}")
        e("busy += 1.0")
        self.executed = p1

    # -- branches ------------------------------------------------------

    def _branch_exit(self, target_expr: str, dt: float, p1: int) -> List[str]:
        """Exit lines for an executed (charged, traced) branch."""
        lines = []
        if self.mode == "epoch":
            lines.append(f"trace.append((clock, {offsets_literal([0.0])}))")
            clock_expr = "clock" if dt == 0.0 else f"clock + {dt!r}"
            lines.append(
                self.ret(target_expr, 0, clock_expr, p1, busy_expr="busy + 1.0")
            )
        else:
            clock_expr = "clock" if dt == 0.0 else f"clock + {dt!r}"
            lines.append(self.ret(target_expr, 0, clock_expr, p1))
        return lines

    def _emit_branch_guards(self, target_expr: str, label_expr: str,
                            index: int) -> None:
        """Pre-charge bail-outs: the tuple path replays the branch.

        Epoch: an epoch-boundary target ends the turn through the full
        tuple-path finish sequence.  Sequential: a branch that closes
        the active sequential region or enters a parallelized loop
        region mutates engine scheduling state — both replay per-op.
        """
        p = self.executed
        e = self.emit
        if self.mode == "epoch":
            e(
                f"if _f1 and ({target_expr} == _hdr or "
                f"{target_expr} not in _blk):"
            )
            e(f"    {self.ret(label_expr, index, 'clock', p)}")
        else:
            e("if _sq is not None:")
            e(f"    if _fl == _sq[1] and {target_expr} not in _sq[0].blocks:")
            e(f"        {self.ret(label_expr, index, 'clock', p)}")
            e(
                f"elif _li.get(({self.function_name!r}, {target_expr})) "
                f"is not None:"
            )
            e(f"    {self.ret(label_expr, index, 'clock', p)}")

    def jump_op(self, op: tuple, label_expr: str, index: int,
                next_label: Optional[str]) -> None:
        """JUMP terminator; ``next_label`` set when the path continues."""
        self.sync_point()
        self.require("branch")
        target = op[3]
        self._emit_branch_guards(repr(target), label_expr, index)
        if next_label is None:
            for line in self._branch_exit(repr(target), op[1],
                                          self.executed + 1):
                self.emit(line)
            self.ended = True
            self.executed += 1
            return
        # Followed: the branch opens the next pending chunk.
        self.pend.append(op[1])
        self.executed += 1
        if self.mode == "epoch":
            self.emit(f"frame.block = {next_label!r}")

    def condbr_op(self, op: tuple, label_expr: str, index: int,
                  next_label: Optional[str]) -> None:
        """CONDBR terminator with an optional predicted continuation."""
        self.sync_point()
        self.require("branch")
        cond = self.state.read(op[3])
        true_t, false_t = op[4], op[5]
        if cond[0] == "const" or true_t == false_t:
            # Statically-resolved direction: behaves like a jump to the
            # taken target (the other side is dead at codegen time).
            taken = (
                true_t
                if (true_t == false_t or cond[1])
                else false_t
            )
            synthetic = (OP_JUMP, op[1], op[2], taken)
            follow = next_label if taken == next_label else None
            self.jump_op(synthetic, label_expr, index, follow)
            return
        c = self.state.render(cond)
        e = self.emit
        target_expr = f"({true_t!r} if {c} else {false_t!r})"
        self._emit_branch_guards(target_expr, label_expr, index)
        p1 = self.executed + 1
        if next_label is None:
            for line in self._branch_exit(target_expr, op[1], p1):
                e(line)
            self.ended = True
            self.executed = p1
            return
        # Guard: validate the predicted direction; a miss exits to the
        # other target with the branch executed (nothing speculative
        # has run past it, so no replay is needed).
        if next_label == true_t:
            e(f"if not {c}:")
            miss = false_t
        elif next_label == false_t:
            e(f"if {c}:")
            miss = true_t
        else:  # pragma: no cover - lowering links predicted targets
            raise CodegenError("predicted target is not a branch arm")
        for line in self._branch_exit(repr(miss), op[1], p1):
            e(f"    {line}")
        self.pend.append(op[1])
        self.executed = p1
        if self.mode == "epoch":
            e(f"frame.block = {next_label!r}")

    def case_a_exit(self, label_expr: str, index: int) -> None:
        """Path ends mid-block — ahead of a breaker, or a suffix segment
        ahead of its next site: hand back at (label, index)."""
        self.sync_point()
        self.emit(self.ret(label_expr, index, "clock", self.executed))

    # -- assembly ------------------------------------------------------

    def assemble(self) -> str:
        if self.mode == "epoch":
            header = (
                f"def {self.name}_epoch(regs, trace, clock, busy, steps, "
                f"tsteps, run, frame, ex, h_eff, h_log, logical, instrs):"
            )
        else:
            header = (
                f"def {self.name}_seq(regs, clock, eng, frames, mem_load, "
                f"mem_store, acc, lof, obs):"
            )
        lines = [header]
        if self.state.live_ins:
            lines.append("    try:")
            for reg, local in self.state.live_ins.items():
                lines.append(f"        {local} = regs[{reg!r}]")
            lines.append("    except KeyError:")
            lines.append("        return None")
        if self.mode == "epoch":
            if "load" in self.hoists:
                lines.append("    _wb = run.write_buffer")
                lines.append("    _om = ex.config.oracle_mode != 'off'")
                lines.append("    _obs = ex.engine.obs")
                lines.append(
                    f"    _l1 = ex._lat_l1 / {self.issue_width}"
                )
            if "store" in self.hoists:
                lines.append("    _sab = run.sab._entries")
            if "branch" in self.hoists:
                lines.append("    _f1 = len(run.frames) == 1")
                lines.append("    _hdr = ex.info.annotation.header")
                lines.append("    _blk = ex.info.blocks")
        else:
            if "branch" in self.hoists:
                lines.append("    _sq = eng._seq_region")
                lines.append("    _li = eng._loop_infos")
                lines.append("    _fl = len(frames)")
        lines.extend(self.body)
        lines.append("")
        return "\n".join(lines)


def generate_extended(
    name: str,
    function_name: str,
    spans: Sequence[Tuple[str, Sequence[tuple], int, int]],
    issue_width: int,
    seq: bool = True,
) -> ExtSpec:
    """Emit the ``_epoch`` kernel (plus ``_seq`` when ``seq``) for a path.

    ``spans`` is the ordered path: ``(label, block_ops, start, end)``
    per block, where every span except possibly the last ends with a
    terminator whose predicted target is the next span's label.  The
    first span's label is the region's home block — exits inside it
    report ``label None`` so the engine resumes without a block
    refetch.  Suffix regions pass ``seq=False``: their superop's
    sequential slot is :func:`replay_seq`.
    """
    sources: List[str] = []
    union_live: Dict[str, None] = {}
    union_outs: Dict[str, None] = {}
    folded = 0
    length = 0
    for mode in ("epoch", "seq") if seq else ("epoch",):
        emitter = _PathEmitter(mode, name, function_name, issue_width)
        total = 0
        for s, (label, ops, start, end) in enumerate(spans):
            label_expr = "None" if s == 0 else repr(label)
            chained = s + 1 < len(spans)
            next_label = spans[s + 1][0] if chained else None
            for k in range(start, end):
                op = ops[k]
                code = op[0]
                last = k == end - 1
                if code in _SEGMENT_OPCODES:
                    emitter.pure_op(op)
                elif code == OP_LOAD:
                    emitter.load_op(op, label_expr, k)
                elif code == OP_STORE:
                    emitter.store_op(op, label_expr, k)
                elif code == OP_WAIT:
                    emitter.wait_op(op, label_expr, k)
                elif code == OP_SIGNAL:
                    emitter.signal_op(op, label_expr, k)
                elif code == OP_CHECK:
                    emitter.check_op(op, label_expr, k)
                elif code == OP_JUMP:
                    emitter.jump_op(
                        op, label_expr, k,
                        next_label if last else None,
                    )
                elif code == OP_CONDBR:
                    emitter.condbr_op(
                        op, label_expr, k,
                        next_label if last else None,
                    )
                else:  # pragma: no cover - formation filters opcodes
                    raise CodegenError(
                        f"opcode {code} is not extended-fusible"
                    )
            total += end - start
        final_label, final_ops, _, final_end = spans[-1]
        if final_ops[final_end - 1][0] not in (OP_JUMP, OP_CONDBR):
            # Case A: the path stops mid-block, ahead of a breaker or
            # (a suffix segment) ahead of its next site.
            emitter.case_a_exit(
                "None" if len(spans) == 1 else repr(final_label),
                final_end,
            )
        sources.append(emitter.assemble())
        for reg in emitter.state.live_ins:
            union_live[reg] = None
        for reg in emitter.state.env:
            union_outs[reg] = None
        if mode == "epoch":
            folded = emitter.state.folded
            length = total
    return ExtSpec(
        live_ins=list(union_live),
        live_outs=list(union_outs),
        folded=folded,
        source="\n".join(sources),
        length=length,
    )
