"""JSON codecs for the store's ``compiled`` and ``oracle`` entries.

Encodes every field of a :class:`CompiledWorkload` and a
:class:`ValueOracle` as plain JSON state, and decodes it back to
objects equal to the originals.  :mod:`repro.experiments.artifacts`
imports this module only when it reads or writes such an entry, so a
run served from stored results never loads the compiler.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.compiler.loop_selection import LoopStats
from repro.compiler.memdep.graph import DependenceGroup
from repro.compiler.memdep.profiler import LoopDependenceProfile, MemRef
from repro.compiler.memdep.sync_insertion import MemSyncReport
from repro.compiler.pipeline import CompiledWorkload
from repro.compiler.scalar_sync import ScalarSyncReport
from repro.compiler.scheduling import SchedulingReport
from repro.ir.module import ParallelLoop
from repro.ir.serialize import SerializeError, module_from_state, module_to_state
from repro.tlssim.oracle import ValueOracle


def _ref_state(ref: MemRef) -> List:
    return [ref[0], list(ref[1])]


def _ref_from(state) -> MemRef:
    return (state[0], tuple(state[1]))


def _profile_state(profile: LoopDependenceProfile) -> Dict:
    return {
        "function": profile.function,
        "header": profile.header,
        "total_epochs": profile.total_epochs,
        "pairs": sorted(
            [_ref_state(s), _ref_state(l), n]
            for (s, l), n in profile.pair_epochs.items()
        ),
        "loads": sorted(
            [_ref_state(r), n] for r, n in profile.load_epochs.items()
        ),
        "load_iids": sorted(
            [iid, n] for iid, n in profile.load_iid_epochs.items()
        ),
        "distances": sorted(
            [d, n] for d, n in profile.distance_hist.items()
        ),
    }


def _profile_from(state: Dict) -> LoopDependenceProfile:
    return LoopDependenceProfile(
        function=state["function"],
        header=state["header"],
        total_epochs=state["total_epochs"],
        pair_epochs={
            (_ref_from(s), _ref_from(l)): n for s, l, n in state["pairs"]
        },
        load_epochs={_ref_from(r): n for r, n in state["loads"]},
        load_iid_epochs={iid: n for iid, n in state["load_iids"]},
        distance_hist={d: n for d, n in state["distances"]},
    )


def _group_state(group: DependenceGroup) -> Dict:
    return {
        "index": group.index,
        "loads": sorted(_ref_state(r) for r in group.loads),
        "stores": sorted(_ref_state(r) for r in group.stores),
        "pairs": [[_ref_state(s), _ref_state(l)] for s, l in group.pairs],
    }


def _group_from(state: Dict) -> DependenceGroup:
    return DependenceGroup(
        index=state["index"],
        loads={_ref_from(r) for r in state["loads"]},
        stores={_ref_from(r) for r in state["stores"]},
        pairs=[(_ref_from(s), _ref_from(l)) for s, l in state["pairs"]],
    )


def _loop_state(loop: ParallelLoop) -> List:
    return [
        loop.function,
        loop.header,
        list(loop.scalar_channels),
        list(loop.mem_channels),
        loop.unroll_factor,
    ]


def _loop_from(state) -> ParallelLoop:
    function, header, scalar_chs, mem_chs, factor = state
    return ParallelLoop(
        function=function,
        header=header,
        scalar_channels=list(scalar_chs),
        mem_channels=list(mem_chs),
        unroll_factor=factor,
    )


def _keyed_map_state(mapping: Dict[Tuple[str, str], object], encode) -> List:
    return [[fn, header, encode(value)] for (fn, header), value in mapping.items()]


def _keyed_map_from(state: Iterable, decode) -> Dict:
    return {(fn, header): decode(value) for fn, header, value in state}


def compiled_to_state(compiled: CompiledWorkload) -> Dict:
    """Encode every field of a :class:`CompiledWorkload` as JSON state."""
    return {
        "name": compiled.name,
        "seq": module_to_state(compiled.seq),
        "baseline": module_to_state(compiled.baseline),
        "sync_ref": module_to_state(compiled.sync_ref),
        "sync_train": module_to_state(compiled.sync_train),
        "loop_stats": [
            [s.function, s.header, s.total_steps, s.region_steps,
             s.instances, s.epochs]
            for s in compiled.loop_stats
        ],
        "selected": [[fn, header] for fn, header in compiled.selected],
        "unroll_factors": [
            [fn, header, factor]
            for (fn, header), factor in compiled.unroll_factors.items()
        ],
        "profile_ref": _keyed_map_state(compiled.profile_ref, _profile_state),
        "profile_train": _keyed_map_state(compiled.profile_train, _profile_state),
        "groups_ref": _keyed_map_state(
            compiled.groups_ref, lambda gs: [_group_state(g) for g in gs]
        ),
        "groups_train": _keyed_map_state(
            compiled.groups_train, lambda gs: [_group_state(g) for g in gs]
        ),
        "scalar_reports": [
            {
                "loop": _loop_state(r.loop),
                "communicating": list(r.communicating),
                "waits_inserted": r.waits_inserted,
                "signals_inserted": r.signals_inserted,
            }
            for r in compiled.scalar_reports
        ],
        "scheduling_reports": [
            {"loop": _loop_state(r.loop), "hoisted": list(r.hoisted)}
            for r in compiled.scheduling_reports
        ],
        "memsync_reports_ref": [
            _memsync_state(r) for r in compiled.memsync_reports_ref
        ],
        "memsync_reports_train": [
            _memsync_state(r) for r in compiled.memsync_reports_train
        ],
    }


def _memsync_state(report: MemSyncReport) -> Dict:
    return {
        "loop": _loop_state(report.loop),
        "groups": report.groups,
        "loads_synchronized": report.loads_synchronized,
        "signal_sites": report.signal_sites,
        "clones_created": report.clones_created,
        "channels": list(report.channels),
    }


def _memsync_from(state: Dict) -> MemSyncReport:
    return MemSyncReport(
        loop=_loop_from(state["loop"]),
        groups=state["groups"],
        loads_synchronized=state["loads_synchronized"],
        signal_sites=state["signal_sites"],
        clones_created=state["clones_created"],
        channels=list(state["channels"]),
    )


def compiled_from_state(state: Dict) -> CompiledWorkload:
    """Inverse of :func:`compiled_to_state`."""
    try:
        return CompiledWorkload(
            name=state["name"],
            seq=module_from_state(state["seq"]),
            baseline=module_from_state(state["baseline"]),
            sync_ref=module_from_state(state["sync_ref"]),
            sync_train=module_from_state(state["sync_train"]),
            loop_stats=[
                LoopStats(
                    function=fn, header=header, total_steps=total,
                    region_steps=region, instances=instances, epochs=epochs,
                )
                for fn, header, total, region, instances, epochs
                in state["loop_stats"]
            ],
            selected=[(fn, header) for fn, header in state["selected"]],
            unroll_factors={
                (fn, header): factor
                for fn, header, factor in state["unroll_factors"]
            },
            profile_ref=_keyed_map_from(state["profile_ref"], _profile_from),
            profile_train=_keyed_map_from(state["profile_train"], _profile_from),
            groups_ref=_keyed_map_from(
                state["groups_ref"], lambda gs: [_group_from(g) for g in gs]
            ),
            groups_train=_keyed_map_from(
                state["groups_train"], lambda gs: [_group_from(g) for g in gs]
            ),
            scalar_reports=[
                ScalarSyncReport(
                    loop=_loop_from(r["loop"]),
                    communicating=list(r["communicating"]),
                    waits_inserted=r["waits_inserted"],
                    signals_inserted=r["signals_inserted"],
                )
                for r in state["scalar_reports"]
            ],
            scheduling_reports=[
                SchedulingReport(
                    loop=_loop_from(r["loop"]), hoisted=list(r["hoisted"])
                )
                for r in state["scheduling_reports"]
            ],
            memsync_reports_ref=[
                _memsync_from(r) for r in state["memsync_reports_ref"]
            ],
            memsync_reports_train=[
                _memsync_from(r) for r in state["memsync_reports_train"]
            ],
        )
    except SerializeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializeError(f"bad compiled-workload state: {exc}") from exc


def oracle_to_state(oracle: ValueOracle) -> List:
    """Encode a value oracle as nested lists (sorted, stable bytes)."""
    return [
        [
            [epoch, sorted([iid, occ, value]
                           for (iid, occ), value in values.items())]
            for epoch, values in sorted(region.items())
        ]
        for region in oracle._regions
    ]


def oracle_from_state(state: List) -> ValueOracle:
    """Inverse of :func:`oracle_to_state`."""
    try:
        regions = [
            {
                epoch: {(iid, occ): value for iid, occ, value in values}
                for epoch, values in region
            }
            for region in state
        ]
    except (TypeError, ValueError) as exc:
        raise SerializeError(f"bad oracle state: {exc}") from exc
    return ValueOracle(regions)
