"""Region lowering for the ``vector`` execution backend.

The decoded fast path still dispatches one flat tuple per dynamic
instruction; profiling shows that per-op loop — tuple indexing, dict
reads, an evalops call, a trace append and a float add per instruction
— is the remaining wall.  This pass runs once per compiled program: it
segments each decoded block's opcode column into fused regions and
lowers every region to one **fused superop** (``OP_FUSED2``) executed
by generated, compiled kernels (source emission and compilation live
in :mod:`repro.ir.codegen`).

One region family is formed: **superblock paths**.  A path starts at
a maximal run of fusible ops, and when the run reaches its block's
``jump``/``condbr`` terminator the path *chains* into the predicted
successor block's fusible prefix (true target first, falling back to
the false target when the true one is already on the path), up to
:data:`MAX_SPANS` blocks.  A straight-line pure run is simply the
degenerate path: one span, no guards and no sites.  Conditional
branches inside a path are *guarded*: the kernel evaluates the real
condition and exits to the other target when the prediction misses —
by then the branch itself has executed and nothing past it has, so the
engine simply resumes per-op at the actual target.  Memory ops execute
in-kernel against the run's own write buffer when the address hits it
(the epoch-private fast case) and delegate to the engine's
``_exec_load``/``_exec_store`` otherwise, under the exact horizon
discipline of the tuple path; ``wait``/``signal`` delegate to the
channel machinery the same way and ``check`` runs fully inline.
Because the epoch engine can end a turn at (or just past) any such
site, lowering additionally plants **suffix kernels** — ordinary
superops covering one *segment* of the path, from the resume index to
just before the next site — at every mid-path resume index, so the
next turn re-enters fused execution instead of replaying the remainder
per-op.  A segment leaves through its case-A exit at the next site,
where the dispatcher finds that site's own segment, so suffix kernels
chain through the turn loop and each op lands in a couple of suffix
kernels at most (see :func:`_suffix_spans`).  Home regions get an
``_epoch``/``_seq`` kernel pair; suffix regions get an ``_epoch``
kernel only.  Their superop's sequential slot is the shared
:func:`repro.ir.codegen.replay_seq`, which sends the engine straight
back to the head tuple: a suffix kernel could never run there.

Lowering rules
--------------

* Every opcode fuses except ``OP_CALL``/``OP_RET`` (frame churn) and
  ``OP_ALLOC`` (an epoch-path error).  ``OP_DIVMOD`` fuses *only* with
  a nonzero constant divisor (then it cannot fault or park); with a
  register divisor it breaks a region.
* A region reads all its live-in registers *before mutating anything*,
  so an undefined register leaves the machine state untouched (the
  kernel returns ``None``); the engine then re-executes the region
  through the ordinary tuple ops to reproduce the tuple path's exact
  per-op behaviour (partial application, horizon deferral, error
  text).
* Per-op clock charges are pre-summed into offset tables so kernels
  extend the rollback trace with ``(base, offsets)`` chunks.  This is
  bit-identical to sequential accumulation only on a dyadic cost grid
  — :func:`cost_signature` / :func:`signature_exact` gate lowering on
  an integral-latency, power-of-two-issue-width configuration and the
  backend falls back to ``tuples`` otherwise.
* Constant subexpressions fold at lower time (with the *same*
  ``evalops`` callables, so wrapping semantics match exactly); folded
  ops still charge their clock slots — timing never changes.
* In the lowered ops list a superop replaces only the region *head*;
  interior indices keep their original tuples.  Squash rollback needs
  no special casing: trace chunks flatten to the exact per-op floats,
  while parks and faults resume *inside* a region at an ordinary tuple
  op (or at the suffix kernel planted there).

The per-region :class:`ExtRegion` records keep the path, the live-in
registers and the generated source.  Lowered programs live only in a
per-module, in-process memo (:func:`lowered_for`); nothing is stored
across processes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import codegen
from repro.ir.decode import (
    OP_ALLOC,
    OP_CALL,
    OP_CONDBR,
    OP_DIVMOD,
    OP_FUSED2,
    OP_JUMP,
    OP_RET,
    DecodedProgram,
)

#: Shortest run worth fusing: a superop costs one dispatch plus one
#: kernel call, which beats per-op dispatch from two ops up (measured;
#: even a two-op kernel skips two full trips around the turn loop).
MIN_REGION_LEN = 2

#: Longest superblock path in blocks.  Deep chains multiply guard
#: mispredict cost (the whole suffix re-enters per-op) and blow up
#: generated-source size; eight covers every hot loop body in the
#: workload suite.
MAX_SPANS = 8

#: Region breakers: frame churn and an epoch-path error.
_BREAKER_OPCODES = frozenset((OP_CALL, OP_RET, OP_ALLOC))


def _fusible_op(op: tuple) -> bool:
    """Whether one decoded tuple may live inside a region.

    A ``div``/``mod`` fuses only when its divisor is a nonzero
    *constant*: then it cannot fault or park.
    """
    code = op[0]
    if code == OP_DIVMOD:
        return type(op[6]) is int and op[6] != 0
    return code not in _BREAKER_OPCODES


def _fusible_runs(ops: Sequence[tuple]) -> List[Tuple[int, int]]:
    """Maximal runs ``[start, end)`` of fusible ops in one block."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, op in enumerate(ops):
        if _fusible_op(op):
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(ops)))
    return runs


# ---------------------------------------------------------------------------
# region records
# ---------------------------------------------------------------------------


class ExtRegion:
    """Metadata for one extended (superblock) superop.

    ``spans`` is the ordered path as ``(label, start, end)`` per block;
    the first span's block is the region's home (its head index holds
    the superop).  ``length`` counts every op on the path, across
    blocks — so a function's extended regions may collectively cover
    more static ops than any one block holds.  ``has_seq`` is False for
    suffix regions, whose source holds no ``_seq`` kernel.
    """

    __slots__ = ("spans", "length", "live_ins", "name", "source", "has_seq")

    def __init__(self, spans: List[Tuple[str, int, int]], length: int,
                 live_ins: List[str], name: str, source: str, has_seq: bool):
        self.spans = spans
        self.length = length
        self.live_ins = live_ins
        self.name = name
        self.source = source
        self.has_seq = has_seq

    @property
    def start(self) -> int:
        return self.spans[0][1]


def _ext_superop(blocks: Dict[str, object], region: ExtRegion,
                 namespace: Dict[str, Callable]) -> tuple:
    """Build the extended dispatch tuple for one compiled region.

    Layout: ``(OP_FUSED2, 0.0, head_op, fn_epoch, fn_seq, n, instrs,
    region)``.  ``head_op`` is the original tuple at the region head —
    the engines re-dispatch it (and then continue per-op through the
    untouched interior tuples) whenever the kernel cannot run (step
    limit crossing, missing live-in, zero-progress bail); ``n`` is the
    static op count for the step guards; ``instrs`` carries the Instr
    records of the path's loads, stores, waits and signals in order for
    engine delegation.  A suffix region's ``fn_seq`` is
    :func:`repro.ir.codegen.replay_seq`.
    """
    home_label, start, _ = region.spans[0]
    instrs = []
    for label, s, e in region.spans:
        ops = blocks[label].ops
        for k in range(s, e):
            if ops[k][0] in codegen.INSTR_OPCODES:
                instrs.append(ops[k][2])
    return (
        OP_FUSED2,
        0.0,
        blocks[home_label].ops[start],
        namespace[f"{region.name}_epoch"],
        (
            namespace[f"{region.name}_seq"]
            if region.has_seq
            else codegen.replay_seq
        ),
        region.length,
        tuple(instrs),
        region,
    )


def _ext_spans(decoded_func, label: str, start: int, end: int,
               ext_runs: Dict[str, List[Tuple[int, int]]]
               ) -> List[Tuple[str, int, int]]:
    """Chain one extended run into a superblock path.

    Follows ``jump`` targets and the predicted ``condbr`` direction
    (true target, else the false target when the true one is already on
    the path) while the successor's fusible prefix starts at op 0,
    refusing revisits (no loops inside one kernel) and stopping at
    :data:`MAX_SPANS` blocks.
    """
    spans = [(label, start, end)]
    visited = {label}
    blocks = decoded_func.blocks
    cur_ops = blocks[label].ops
    cur_end = end
    while len(spans) < MAX_SPANS and cur_end == len(cur_ops):
        term = cur_ops[cur_end - 1]
        code = term[0]
        if code == OP_JUMP:
            target = term[3]
        elif code == OP_CONDBR:
            target = term[4]
            if target in visited and term[5] not in visited:
                target = term[5]
        else:  # pragma: no cover - blocks end in terminators
            break
        if target in visited or target not in blocks:
            break
        runs = ext_runs.get(target)
        if not runs or runs[0][0] != 0:
            break
        nxt_end = runs[0][1]
        spans.append((target, 0, nxt_end))
        visited.add(target)
        cur_ops = blocks[target].ops
        cur_end = nxt_end
    return spans


def _segment(blocks, tail: Sequence[Tuple[str, int, int]]
             ) -> List[Tuple[str, int, int]]:
    """Cut a path tail just before its next site once it holds
    :data:`MIN_REGION_LEN` ops; an uncut tail is returned whole."""
    segment: List[Tuple[str, int, int]] = []
    held = 0
    for label, start, end in tail:
        ops = blocks[label].ops
        for k in range(start, end):
            if held >= MIN_REGION_LEN and ops[k][0] in codegen.SITE_OPCODES:
                if k > start:
                    segment.append((label, start, k))
                return segment
            held += 1
        segment.append((label, start, end))
    return segment


def _suffix_spans(
    decoded_func, home_spans: Sequence[List[Tuple[str, int, int]]]
) -> List[List[Tuple[str, int, int]]]:
    """Suffix segments for every mid-path resume point of the home paths.

    The epoch engine can end a turn at a synchronized site (horizon
    yield, load park, wait stall — the op re-executes at its own index
    on wake) or just past one (store: SAB replacement / cross-run
    squash; signal: the unconditional consumer-event return).  Without
    a superop at those indices the rest of the path replays per-op
    every time, which the coverage probes show is the dominant unfused
    mass.  For each such index this derives one *segment* of the path
    tail: it starts at the resume index and ends just before the next
    site once it holds :data:`MIN_REGION_LEN` ops (or at the path's
    end).  The caller plants an ordinary extended superop there.  A
    segment cut at a site leaves through the case-A exit at that
    site's index, where the dispatcher finds the next segment (every
    site on a home path is itself a resume index), so segments chain
    through the existing turn loop and each op is emitted into a couple
    of kernels rather than once per upstream resume point.  The
    original tuples stay at interior indices, so per-op replay
    semantics are unchanged.

    One suffix per (label, index): overlapping home paths keep the
    longest segment.  Indices already owning a home region head are
    skipped.
    """
    blocks = decoded_func.blocks
    planted = {(spans[0][0], spans[0][1]) for spans in home_spans}
    chosen: Dict[Tuple[str, int], List[Tuple[str, int, int]]] = {}
    totals: Dict[Tuple[str, int], int] = {}
    for spans in home_spans:
        for s, (slabel, sstart, send) in enumerate(spans):
            ops = blocks[slabel].ops
            for k in range(sstart, send):
                code = ops[k][0]
                if code not in codegen.SITE_OPCODES:
                    continue
                resumes = (
                    (k, k + 1)
                    if code in codegen.POST_RESUME_OPCODES
                    else (k,)
                )
                for rk in resumes:
                    if rk >= send:
                        continue
                    key = (slabel, rk)
                    if key in planted:
                        continue
                    tail = _segment(
                        blocks, [(slabel, rk, send)] + list(spans[s + 1:])
                    )
                    total = sum(e - b for _, b, e in tail)
                    if total < MIN_REGION_LEN:
                        continue
                    if totals.get(key, 0) >= total:
                        continue
                    chosen[key] = tail
                    totals[key] = total
    return [chosen[key] for key in sorted(chosen)]


# ---------------------------------------------------------------------------
# lowered program containers
# ---------------------------------------------------------------------------


class LoweredBlock:
    """A decoded block with fused superops at region heads."""

    __slots__ = ("ops", "chunk_end", "regions")

    def __init__(self, ops: List[tuple], chunk_end: List[int],
                 regions: List[ExtRegion]):
        self.ops = ops
        self.chunk_end = chunk_end
        self.regions = regions


class LoweredFunction:
    """Lowered blocks of one function, keyed by label.

    Blocks with no fusible region stay plain :class:`DecodedBlock`
    objects (``regions`` reads as empty via :func:`block_regions`).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Dict[str, object]):
        self.blocks = blocks


def block_regions(block) -> Sequence[ExtRegion]:
    """The fused regions of a (lowered or plain decoded) block."""
    return getattr(block, "regions", ())


def _lowered_block(dfunc, fname: str, label: str,
                   regions: List[ExtRegion]) -> LoweredBlock:
    """Compile ``regions`` and plant their superops in a block copy."""
    dblock = dfunc.blocks[label]
    ops = list(dblock.ops)
    for region in regions:
        namespace = codegen.compile_source(
            region.source, f"{fname}:{label}:{region.name}"
        )
        ops[region.start] = _ext_superop(dfunc.blocks, region, namespace)
    return LoweredBlock(ops, dblock.chunk_end, regions)


class LoweredProgram:
    """Drop-in for :class:`DecodedProgram` with fused-region blocks.

    Exposes the same ``function()``/``block()`` surface the engines'
    hot loops use, so selecting the backend is just a matter of which
    program object the dispatch loop walks.  ``issue_width``
    parameterizes the kernels' inline memory charges and must match
    the engine config.
    """

    def __init__(self, decoded: DecodedProgram, issue_width: int = 1):
        self.decoded = decoded
        self.module = decoded.module
        self.issue_width = issue_width
        self._functions: Dict[str, LoweredFunction] = {}

    def function(self, name: str) -> LoweredFunction:
        lowered = self._functions.get(name)
        if lowered is None:
            lowered = self._lower_function(name)
            self._functions[name] = lowered
        return lowered

    def block(self, function_name: str, label: str):
        lowered = self._functions.get(function_name)
        if lowered is None:
            lowered = self._lower_function(function_name)
            self._functions[function_name] = lowered
        return lowered.blocks[label]

    def lower_all(self) -> "LoweredProgram":
        """Eagerly lower every function, so engine construction pays
        for every kernel and a run compiles none."""
        for name in self.module.functions:
            self.function(name)
        return self

    # -- stats ---------------------------------------------------------

    def region_table(self) -> List[Tuple[str, str, ExtRegion]]:
        """Every fused region as (function, label, region)."""
        table = []
        for name, function in sorted(self._functions.items()):
            for label, block in sorted(function.blocks.items()):
                for region in block_regions(block):
                    table.append((name, label, region))
        return table

    # -- lowering ------------------------------------------------------

    def _lower_function(self, name: str) -> LoweredFunction:
        decoded = self.decoded.function(name)
        runs = {
            label: _fusible_runs(dblock.ops)
            for label, dblock in decoded.blocks.items()
        }
        # Regions form function-wide before any block's ops are
        # rebuilt: a suffix kernel derived from one block's home path
        # may need planting in a *chained* block.
        home_spans: List[List[Tuple[str, int, int]]] = []
        for label in decoded.blocks:
            for start, end in runs[label]:
                spans = _ext_spans(decoded, label, start, end, runs)
                if sum(e - s for _, s, e in spans) >= MIN_REGION_LEN:
                    home_spans.append(spans)
        by_label: Dict[str, List[ExtRegion]] = {}
        all_spans = home_spans + _suffix_spans(decoded, home_spans)
        for counter, spans in enumerate(all_spans):
            kname = f"_x{counter}"
            # Suffix regions (after the home ones) get no _seq body.
            has_seq = counter < len(home_spans)
            spec = codegen.generate_extended(
                kname, name,
                [
                    (slabel, decoded.blocks[slabel].ops, s, e)
                    for slabel, s, e in spans
                ],
                self.issue_width,
                seq=has_seq,
            )
            by_label.setdefault(spans[0][0], []).append(
                ExtRegion(
                    spans=spans, length=spec.length,
                    live_ins=spec.live_ins, name=kname, source=spec.source,
                    has_seq=has_seq,
                )
            )
        blocks: Dict[str, object] = dict(decoded.blocks)
        for label, regions in by_label.items():
            blocks[label] = _lowered_block(decoded, name, label, regions)
        return LoweredFunction(blocks)

# ---------------------------------------------------------------------------
# backend gate + per-module memo
# ---------------------------------------------------------------------------

#: SimConfig fields whose values enter every clock sum; all must be
#: integral (and issue_width a power of two) for offset-table exactness.
_COST_FIELDS = (
    "issue_width", "lat_int", "lat_mul", "lat_div", "lat_branch",
    "lat_tls_op", "lat_l1", "lat_l2", "lat_mem", "spawn_cost",
    "commit_base", "commit_per_line", "violation_penalty",
    "forward_latency",
)


def cost_signature(config) -> Tuple:
    """The config fields lowering depends on (also the memo key)."""
    return tuple(float(getattr(config, name)) for name in _COST_FIELDS)


def signature_exact(cost_sig: Sequence[float]) -> bool:
    """Whether the cost model lives on a dyadic grid.

    True iff the issue width (``cost_sig[0]``) is a power of two and
    every field is integral.  Then every clock charge ``latency /
    issue_width`` — and every partial sum of charges — is an integer
    multiple of ``2**-log2(issue_width)``, float addition over that
    grid is exact while magnitudes stay far below ``2**53 /
    issue_width`` (step limits keep simulated clocks under ``~2**40``),
    and *any* association order yields the same bits.  That is what
    makes the kernels' pre-summed offset tables byte-identical to the
    tuple path's sequential accumulation.
    """
    width = int(cost_sig[0])
    if width < 1 or width & (width - 1):
        return False
    return all(float(value).is_integer() for value in cost_sig)


def unavailable_reason(config) -> Optional[str]:
    """Why the vector backend cannot run ``config``, or None when it can."""
    if not signature_exact(cost_signature(config)):
        return (
            "cost model off the dyadic grid (non-integral latency or "
            "non-power-of-two issue width)"
        )
    return None


#: Module attribute holding ``(token, {cost_sig: program})``.
_MODULE_CACHE_ATTR = "_repro_lowered_cache"


def _module_token(module) -> Tuple[int, int]:
    """Cheap content token invalidating the memo on module mutation."""
    count = 0
    iid_sum = 0
    for function in module.functions.values():
        for block in function.blocks.values():
            for instr in block.instructions:
                count += 1
                iid_sum += instr.iid or 0
    return (count, iid_sum)


def lowered_for(decoded: DecodedProgram, config) -> Optional[LoweredProgram]:
    """The (memoized) lowered program for an engine.

    Returns None when the cost model fails the exactness gate — callers
    fall back to the tuple path.  Hits come from the per-module
    in-process memo, keyed by cost signature and validated by a content
    token, since compiler passes may mutate modules in place; misses
    lower eagerly.
    """
    if unavailable_reason(config) is not None:
        return None
    module = decoded.module
    cost_sig = cost_signature(config)
    token = _module_token(module)
    cached = getattr(module, _MODULE_CACHE_ATTR, None)
    if cached is not None and cached[0] == token:
        program = cached[1].get(cost_sig)
        if program is not None:
            return program
    else:
        cached = (token, {})
        setattr(module, _MODULE_CACHE_ATTR, cached)
    program = LoweredProgram(
        decoded, issue_width=int(config.issue_width)
    ).lower_all()
    cached[1][cost_sig] = program
    return program


def note_backend_fallback(reason: str) -> None:
    """Count a vector->tuples fallback in the process metrics registry.

    Deliberately *not* an engine counter: engine counters feed
    ``SimResult.counters`` and the fallback must not perturb the
    byte-identity contract between backends.
    """
    from repro.obs.registry import process_registry

    process_registry().counter(
        "backend_fallback", reason=reason.split(" (")[0]
    ).inc()
