"""Versioned, integrity-hashed serialization of a complete machine.

A snapshot is a plain JSON-serializable dict capturing everything the
simulation semantics depend on:

========== ==========================================================
section    contents
========== ==========================================================
config     the machine's shape,
           :meth:`~repro.sim.config.MachineConfig.as_dict`
memory     non-zero physical memory in sparse chunks, plus the
           allocator's free list
processor  registers, DBR, trap save stack, interval timer, pending
           events, the *keys* of the SDW associative memory, and the
           host-tier invalidation counters the metrics dict omits
supervisor users, file system, active-segment table, process table
           (descriptor segments, known-segment tables, upward-call
           assists), console, linkage state
counters   ``MetricsSnapshot.as_dict()`` at the instant of capture
extra      opaque caller bookkeeping (the serve workers store their
           program/initiation caches here)
========== ==========================================================

Cache *contents* are deliberately not serialized.  The host-side tiers
(PTLB, decoded-instruction cache, trace tier) are rebuilt cold —
they are architecturally invisible, so a cold restart changes nothing
the simulation can observe.  The SDW associative memory is different:
its misses are architecturally charged, so a cold SDW cache would make
the restored machine *slower* in simulated cycles than the original.
Descriptor memory is authoritative for SDW bits, so the snapshot
records only which segment numbers were cached (in fill order) and
:meth:`~repro.cpu.processor.Processor.warm_sdw_cache` refills them
uncharged on restore.  Restore-then-continue is therefore bit-identical
to never having stopped, in every architectural figure.

On disk a snapshot travels in an envelope carrying a format tag, a
version, and the sha256 of the canonical JSON encoding; any mismatch
raises :class:`repro.errors.SnapshotError` before a single field is
trusted.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
import zlib
from dataclasses import replace
from typing import Any, Dict, List, Optional

from ..core.acl import AclEntry, RingBracketSpec
from ..cpu.faults import Fault, FaultCode
from ..cpu.processor import ProcessorStats
from ..cpu.registers import IPR, PointerRegister, RegisterFile
from ..errors import SnapshotError
from ..krnl.baseline645 import SoftwareRingAssist
from ..krnl.callret import ReturnGateRecord, UpwardCallAssist
from ..krnl.filesystem import SegmentNode, split_path
from ..krnl.linkage import PendingLink
from ..krnl.loader import PlacedSegment
from ..krnl.process import KnownSegment, Process
from ..krnl.supervisor import ActiveSegment, ConsoleRecord
from ..mem.descriptor import DBR, DescriptorSegment
from ..mem.paging import PageTable
from ..mem.physical import Allocation
from ..mem.segment import LinkRequest, SegmentImage
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot

SNAPSHOT_FORMAT = "repro-machine-snapshot"
SNAPSHOT_VERSION = 1

DELTA_FORMAT = "repro-machine-delta"
DELTA_VERSION = 1

#: zlib level used when compression is requested as a plain ``True``;
#: level 1 already removes the bulk of JSON redundancy on
#: checkpoint-sized snapshots at a fraction of level 9's latency
DEFAULT_COMPRESS_LEVEL = 1

#: sparse-memory granularity: chunks with any non-zero word are stored
MEMORY_CHUNK = 256
_ZERO_CHUNK = [0] * MEMORY_CHUNK

_SPEC_FIELDS = ("r1", "r2", "r3", "read", "write", "execute", "gate")
_FAULT_FIELDS = (
    "segno", "wordno", "ring", "cur_ring", "detail", "at_segno", "at_wordno",
)


# ---------------------------------------------------------------------------
# small value dumpers/loaders
# ---------------------------------------------------------------------------


def _dump_registers(regs: RegisterFile) -> Dict[str, Any]:
    return {
        "ipr": [regs.ipr.ring, regs.ipr.segno, regs.ipr.wordno],
        "prs": [[pr.segno, pr.wordno, pr.ring] for pr in regs.prs],
        "a": regs.a,
        "q": regs.q,
        "crr": regs.crr,
    }


def _load_registers(data: Dict[str, Any]) -> RegisterFile:
    return RegisterFile(
        ipr=IPR(*data["ipr"]),
        prs=[PointerRegister(*triple) for triple in data["prs"]],
        a=data["a"],
        q=data["q"],
        crr=data["crr"],
    )


def _dump_image(image: SegmentImage) -> Dict[str, Any]:
    return {
        "name": image.name,
        "words": list(image.words),
        "gate_count": image.gate_count,
        "entries": dict(image.entries),
        "links": [
            [link.wordno, link.symbol, link.field, link.ring]
            for link in image.links
        ],
        "source_map": {str(w): line for w, line in image.source_map.items()},
    }


def _load_image(data: Dict[str, Any]) -> SegmentImage:
    return SegmentImage(
        name=data["name"],
        words=list(data["words"]),
        gate_count=data["gate_count"],
        entries=dict(data["entries"]),
        links=[LinkRequest(*quad) for quad in data["links"]],
        source_map={int(w): line for w, line in data["source_map"].items()},
    )


def _dump_placed(placed: PlacedSegment) -> Dict[str, Any]:
    return {
        "addr": placed.addr,
        "bound": placed.bound,
        "paged": placed.paged,
        "allocation": (
            [placed.allocation.addr, placed.allocation.size]
            if placed.allocation is not None
            else None
        ),
        "page_table": (
            {
                "addr": placed.page_table.addr,
                "npages": placed.page_table.npages,
                "frames": list(placed.page_table._frames),
            }
            if placed.page_table is not None
            else None
        ),
    }


def _load_placed(data: Dict[str, Any], image: SegmentImage, memory) -> PlacedSegment:
    page_table = None
    if data["page_table"] is not None:
        pt = data["page_table"]
        page_table = PageTable(memory, pt["addr"], pt["npages"])
        page_table._frames = list(pt["frames"])
    allocation = (
        Allocation(*data["allocation"]) if data["allocation"] is not None else None
    )
    return PlacedSegment(
        image=image,
        addr=data["addr"],
        bound=data["bound"],
        paged=data["paged"],
        allocation=allocation,
        page_table=page_table,
    )


def _dump_fault(fault: Fault) -> Dict[str, Any]:
    out: Dict[str, Any] = {"code": fault.code.name}
    for name in _FAULT_FIELDS:
        out[name] = getattr(fault, name)
    return out


def _load_fault(data: Dict[str, Any]) -> Fault:
    return Fault(
        code=FaultCode[data["code"]],
        **{name: data[name] for name in _FAULT_FIELDS},
    )


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def snapshot_machine(
    machine: Machine, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Serialize ``machine`` into a plain JSON-compatible dict.

    ``extra`` is opaque caller bookkeeping stored verbatim (the serve
    workers keep their installed-program and initiation caches there);
    it must itself be JSON-serializable.
    """
    proc = machine.processor
    sup = machine.supervisor
    memory = machine.memory

    # Comparing a slice with a zero chunk runs at C speed, where any()
    # walks it word by word; the slice is a fresh list, so it is stored
    # as is.  Only a short last chunk, which never equals the zero
    # chunk, still needs any().  Chunks at or above the watermark are
    # all zero, so the scan stops there.
    chunks: Dict[str, List[int]] = {}
    for start in range(0, memory.top, MEMORY_CHUNK):
        block = memory._words[start : start + MEMORY_CHUNK]
        if block != _ZERO_CHUNK and (
            len(block) == MEMORY_CHUNK or any(block)
        ):
            chunks[str(start)] = block

    processes: List[Dict[str, Any]] = []
    for process in sup.processes:
        assist = sup._assists[id(process)]
        soft = sup._soft_rings[id(process)]
        occupants = sorted(
            (key[1], owner)
            for key, owner in sup._ring_occupants.items()
            if key[0] == id(process)
        )
        processes.append(
            {
                "user": process.user.name,
                "descriptor": [process.dseg.addr, process.dseg.bound],
                "dbr": [process.dbr.addr, process.dbr.bound, process.dbr.stack],
                "known": [
                    {
                        "name": known.name,
                        "segno": known.segno,
                        "path": known.path,
                        "entries": dict(known.entries),
                        "gate_count": known.gate_count,
                    }
                    for known in process.known.values()
                ],
                "assist": {
                    "gate_segno": assist.gate_segno,
                    "installed": assist._installed,
                    "records": [
                        {
                            "slot": rec.slot,
                            "caller_ring": rec.caller_ring,
                            "callee_ring": rec.callee_ring,
                            "return_segno": rec.return_segno,
                            "return_wordno": rec.return_wordno,
                            "saved_prs": [
                                [pr.segno, pr.wordno, pr.ring]
                                for pr in rec.saved_prs
                            ],
                        }
                        for rec in assist.stack._records
                    ],
                },
                "soft_crossings": soft.crossings_handled,
                "timer_runouts": sup._timer_counts.get(id(process), 0),
                "occupants": [[ring, owner] for ring, owner in occupants],
            }
        )

    attached = None
    if sup.attached_process is not None:
        for index, process in enumerate(sup.processes):
            if process is sup.attached_process:
                attached = index
                break

    pending: List[Dict[str, Any]] = []
    for link in sup.linkage._pending.values():
        pending.append(
            {
                "link_id": link.link_id,
                "self_segno": link.self_segno,
                "snapped": link.snapped,
                "request": [
                    link.request.wordno,
                    link.request.symbol,
                    link.request.field,
                    link.request.ring,
                ],
            }
        )

    return {
        "config": machine.config.as_dict(),
        "memory": {
            "chunks": chunks,
            "holes": [[addr, size] for addr, size in memory._holes],
        },
        "processor": {
            "registers": _dump_registers(proc.registers),
            "dbr": [proc.dbr.addr, proc.dbr.bound, proc.dbr.stack],
            "save_stack": [_dump_registers(saved) for saved in proc._save_stack],
            "halted": proc.halted,
            "timer": proc.timer,
            "events": [
                [countdown, code.name, detail]
                for countdown, code, detail in proc._events
            ],
            "attached": attached,
            "sdw_cache": {
                "segnos": list(proc.sdw_cache._entries.keys()),
                "invalidations": proc.sdw_cache.invalidations,
            },
            "cache_invalidations": {
                "ptlb": proc.access_cache.invalidations,
                "icache": proc.inst_cache.invalidations,
            },
            # hardening runtime state: the MAC chain is architectural
            # (a restored machine must verify exactly the frames the
            # snapshotted one pushed) and so are the segno->domain
            # bindings built up at initiation time
            "hardening": {
                "auth_chain": (
                    proc.auth_stack.snapshot()
                    if proc.auth_stack is not None
                    else []
                ),
                "domains": (
                    proc.domains.snapshot()
                    if proc.domains is not None
                    else None
                ),
            },
        },
        "supervisor": {
            "users": [
                [user.name, user.administrator] for user in sup.users
            ],
            "fs": [
                {
                    "path": node.path,
                    "owner": node.owner.name,
                    "acl": [
                        [
                            entry.username,
                            {f: getattr(entry.spec, f) for f in _SPEC_FIELDS},
                        ]
                        for entry in node.acl
                    ],
                    "image": _dump_image(node.image),
                }
                for node in sup.fs._segments.values()
            ],
            "active": [
                {
                    "path": active.path,
                    "segno": active.segno,
                    "links_resolved": active.links_resolved,
                    "placed": _dump_placed(active.placed),
                }
                for active in sup.active.values()
            ],
            "next_segno": sup._next_segno,
            "reserved_segnos": dict(sup._reserved_segnos),
            "console": [[rec.word, rec.ring] for rec in sup.console],
            "console_chars": "".join(sup.console_chars),
            "io_in_flight": [
                [rec.word, rec.ring] for rec in sup._io_in_flight
            ],
            "aborted_faults": [_dump_fault(f) for f in sup.aborted_faults],
            "timer_quantum": sup.timer_quantum,
            "timer_limit": sup.timer_limit,
            "subsystem_rings": list(sup.subsystem_rings),
            "processes": processes,
            "linkage": {
                "next_id": sup.linkage._next_id,
                "snaps": sup.linkage.snaps,
                "pending": pending,
            },
        },
        "counters": MetricsSnapshot.collect(proc).as_dict(),
        "extra": dict(extra) if extra else {},
    }


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def restore_machine(
    snap: Dict[str, Any],
    fast_path_enabled: Optional[bool] = None,
    jit_tier_enabled: Optional[bool] = None,
    fast_gate: Optional[bool] = None,
) -> Machine:
    """Rebuild a machine from a snapshot dict.

    The machine's shape is the snapshot's own
    (:meth:`~repro.sim.config.MachineConfig.from_dict`), except that
    ``fast_path_enabled`` / ``jit_tier_enabled`` / ``fast_gate``
    override the host-side execution tiers — the architectural figures
    are identical for every combination, which the restore-equivalence
    test pins.  An inherited trace tier is clamped to the (possibly
    overridden) fast path.  Snapshots written while the superblock tier
    existed load unchanged: its config knob is ignored and its
    counters are dropped.
    """
    overrides = {
        name: value
        for name, value in (
            ("fast_path_enabled", fast_path_enabled),
            ("jit_tier_enabled", jit_tier_enabled),
            ("fast_gate", fast_gate),
        )
        if value is not None
    }
    config = replace(MachineConfig.from_dict(snap["config"]), **overrides)
    if jit_tier_enabled is None and config.jit_tier_enabled:
        config = replace(config, jit_tier_enabled=config.fast_path_enabled)
    # the file system comes from the snapshot, not from a fresh
    # install of the service segments
    machine = Machine(config, services=False)
    machine.config = config
    proc = machine.processor
    sup = machine.supervisor
    memory = machine.memory

    # -- physical memory (words first: everything else points into it) --
    for start_str, block_words in snap["memory"]["chunks"].items():
        start = int(start_str)
        memory._words[start : start + len(block_words)] = list(block_words)
        memory.raise_top(start + len(block_words))
    memory._holes = [(addr, size) for addr, size in snap["memory"]["holes"]]

    # -- users (Machine.__init__ pre-registered "system"; rebuild all) --
    supd = snap["supervisor"]
    sup.users._users.clear()
    for name, administrator in supd["users"]:
        sup.users.register(name, administrator=administrator)
    machine.system_user = sup.users.lookup("system")

    # -- file system (direct node construction: create() would invent a
    #    default ACL for nodes serialized with an empty one) --
    for noded in supd["fs"]:
        node = SegmentNode(
            path=noded["path"],
            image=_load_image(noded["image"]),
            owner=sup.users.lookup(noded["owner"]),
            acl=[
                AclEntry(username, RingBracketSpec(**spec))
                for username, spec in noded["acl"]
            ],
        )
        sup.fs._segments[tuple(split_path(node.path))] = node

    # -- active segments (image identity: fs node <-> active <-> placed) --
    for actived in supd["active"]:
        image = sup.fs.get(actived["path"]).image
        active = ActiveSegment(
            path=actived["path"],
            segno=actived["segno"],
            placed=_load_placed(actived["placed"], image, memory),
            image=image,
            links_resolved=actived["links_resolved"],
        )
        sup.active[active.path] = active
        sup.active_by_name[image.name] = active
        sup.active_by_segno[active.segno] = active

    sup._next_segno = supd["next_segno"]
    sup._reserved_segnos = dict(supd["reserved_segnos"])
    sup.console = [ConsoleRecord(word, ring) for word, ring in supd["console"]]
    sup.console_chars = list(supd["console_chars"])
    sup._io_in_flight = [
        ConsoleRecord(word, ring) for word, ring in supd["io_in_flight"]
    ]
    sup.aborted_faults = [_load_fault(d) for d in supd["aborted_faults"]]
    sup.timer_quantum = supd["timer_quantum"]
    sup.timer_limit = supd["timer_limit"]
    sup.subsystem_rings = tuple(supd["subsystem_rings"])

    # -- processes (Process.__init__ directly: create() would allocate
    #    fresh descriptor and stack storage the memory image already has) --
    for pd in supd["processes"]:
        process = Process(
            user=sup.users.lookup(pd["user"]),
            memory=memory,
            dseg=DescriptorSegment(memory, *pd["descriptor"]),
            dbr=DBR(*pd["dbr"]),
        )
        for kd in pd["known"]:
            known = KnownSegment(
                name=kd["name"],
                segno=kd["segno"],
                path=kd["path"],
                entries=dict(kd["entries"]),
                gate_count=kd["gate_count"],
            )
            process.known[known.name] = known
            process.by_segno[known.segno] = known
        sup.processes.append(process)
        ad = pd["assist"]
        assist = UpwardCallAssist(process, gate_segno=ad["gate_segno"])
        assist._installed = ad["installed"]
        assist.stack._records = [
            ReturnGateRecord(
                slot=rec["slot"],
                caller_ring=rec["caller_ring"],
                callee_ring=rec["callee_ring"],
                return_segno=rec["return_segno"],
                return_wordno=rec["return_wordno"],
                saved_prs=[
                    PointerRegister(*triple) for triple in rec["saved_prs"]
                ],
            )
            for rec in ad["records"]
        ]
        sup._assists[id(process)] = assist
        soft = SoftwareRingAssist(process)
        soft.crossings_handled = pd["soft_crossings"]
        sup._soft_rings[id(process)] = soft
        if pd["timer_runouts"]:
            sup._timer_counts[id(process)] = pd["timer_runouts"]
        for ring, owner in pd["occupants"]:
            sup._ring_occupants[(id(process), ring)] = owner

    # -- linkage (pending links reconnect to the active placements) --
    linkaged = supd["linkage"]
    sup.linkage._next_id = linkaged["next_id"]
    sup.linkage.snaps = linkaged["snaps"]
    for linkd in linkaged["pending"]:
        active = sup.active_by_segno.get(linkd["self_segno"])
        if active is not None:
            placed = active.placed
        else:
            # a snapped link whose holder was since deactivated: keep the
            # registry entry (ids stay unique) on a detached stand-in
            placed = PlacedSegment(
                image=SegmentImage(name="<detached>"), addr=0, bound=0
            )
        sup.linkage._pending[linkd["link_id"]] = PendingLink(
            link_id=linkd["link_id"],
            placed=placed,
            self_segno=linkd["self_segno"],
            request=LinkRequest(*linkd["request"]),
            snapped=linkd["snapped"],
        )

    # -- processor: attach first (installs fault/io handlers, loads the
    #    DBR, arms the timer), then overwrite the state attach touched --
    procd = snap["processor"]
    if procd["attached"] is not None:
        sup.attach(proc, sup.processes[procd["attached"]])
    else:
        proc.dbr = DBR(*procd["dbr"])
    proc.registers = _load_registers(procd["registers"])
    proc._save_stack = [
        _load_registers(saved) for saved in procd["save_stack"]
    ]
    proc.halted = procd["halted"]
    proc.timer = procd["timer"]
    proc._events = [
        [countdown, FaultCode[code], detail]
        for countdown, code, detail in procd["events"]
    ]
    hardd = procd.get("hardening", {})
    if proc.auth_stack is not None:
        proc.auth_stack.restore(hardd.get("auth_chain", []))
    if proc.domains is not None and hardd.get("domains") is not None:
        proc.domains.restore(hardd["domains"])

    # -- counters, then cache state (attach invalidated the caches and
    #    bumped their counters; the snapshot's figures win) --
    counters = MetricsSnapshot.from_dict(snap["counters"])
    proc.cycles = counters.cycles
    proc.stats = ProcessorStats(
        instructions=counters.instructions,
        faults=counters.faults,
        traps_delivered=counters.traps_delivered,
        calls=counters.calls,
        returns=counters.returns,
        ring_crossings=counters.ring_crossings,
    )
    memory.reads = counters.memory_reads
    memory.writes = counters.memory_writes
    proc.warm_sdw_cache(procd["sdw_cache"]["segnos"])
    proc.sdw_cache.hits = counters.sdw_hits
    proc.sdw_cache.misses = counters.sdw_misses
    proc.sdw_cache.invalidations = procd["sdw_cache"]["invalidations"]
    proc.access_cache.hits = counters.ptlb_hits
    proc.access_cache.misses = counters.ptlb_misses
    proc.access_cache.invalidations = procd["cache_invalidations"]["ptlb"]
    proc.inst_cache.hits = counters.icache_hits
    proc.inst_cache.misses = counters.icache_misses
    proc.inst_cache.invalidations = procd["cache_invalidations"]["icache"]
    proc.jit_cache.hits = counters.jit_hits
    proc.jit_cache.misses = counters.jit_misses
    proc.jit_cache.invalidations = counters.jit_invalidations
    proc.jit_cache.instructions = counters.jit_instructions
    return machine


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def _canonical(snap: Dict[str, Any]) -> bytes:
    return json.dumps(
        snap, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def snapshot_digest(snap: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON encoding of a snapshot dict."""
    return hashlib.sha256(_canonical(snap)).hexdigest()


def canonical_bytes(snap: Dict[str, Any]) -> bytes:
    """The canonical JSON encoding a snapshot's digest is taken over."""
    return _canonical(snap)


# ---------------------------------------------------------------------------
# delta snapshots (park/hydrate paging)
# ---------------------------------------------------------------------------
#
# A delta records a snapshot as edits against a *base* snapshot of the
# same shape (same programs installed, same construction knobs — tenant
# machines built through the same code path place every segment at the
# same addresses).  Dicts are diffed key by key recursively, so the
# sparse memory chunks — a dict keyed by chunk start — drop out
# wherever a tenant's memory matches the base image: those chunks are
# stored *by reference* (their absence from the delta), which is what
# makes a parked call_loop tenant a few KB instead of a full machine.
#
# Delta nodes use a two-token vocabulary that cannot collide with
# snapshot data (data values are always wrapped):
#
#   {"v": value}                 replace this position with ``value``
#   {"k": {...}, "x": [...]}     recurse: per-key child nodes, plus the
#                                keys deleted relative to the base
#
# Integrity is end-to-end: the delta envelope records the sha256 of the
# *reconstructed* snapshot, and :func:`apply_delta` refuses a result
# that does not hash back to it — a wrong or stale base image can never
# hydrate silently.


def _diff_node(base: Any, new: Any) -> Optional[Dict[str, Any]]:
    if base == new:
        return None
    if isinstance(base, dict) and isinstance(new, dict):
        changed: Dict[str, Any] = {}
        for key, value in new.items():
            if key in base:
                child = _diff_node(base[key], value)
                if child is not None:
                    changed[key] = child
            else:
                changed[key] = {"v": value}
        removed = sorted(key for key in base if key not in new)
        return {"k": changed, "x": removed}
    if isinstance(base, list) and isinstance(new, list):
        # Lists recurse element-wise over the common prefix: the
        # supervisor's user, process, and file-system tables are lists
        # that differ between same-shape tenants only in a name here
        # and a counter there — replacing them wholesale would dominate
        # the parked delta.  A length change records the new length
        # plus any appended tail.  JSON object keys are strings, so
        # indices are encoded as such.
        elements = {}
        for index in range(min(len(base), len(new))):
            child = _diff_node(base[index], new[index])
            if child is not None:
                elements[str(index)] = child
        node: Dict[str, Any] = {"l": elements}
        if len(new) != len(base):
            node["n"] = len(new)
            if len(new) > len(base):
                node["t"] = new[len(base):]
        return node
    return {"v": new}


def _apply_node(base: Any, node: Optional[Dict[str, Any]]) -> Any:
    if node is None:
        return base
    if "v" in node:
        return node["v"]
    if "l" in node:
        if not isinstance(base, list):
            raise SnapshotError(
                "delta recurses into a position the base does not hold "
                "a list at — wrong base image"
            )
        length = node.get("n", len(base))
        out_list = list(base[:length])
        for index, child in node["l"].items():
            out_list[int(index)] = _apply_node(base[int(index)], child)
        out_list.extend(node.get("t", ()))
        return out_list
    if not isinstance(base, dict):
        raise SnapshotError(
            "delta recurses into a position the base does not hold a "
            "dict at — wrong base image"
        )
    removed = set(node.get("x", ()))
    changed = node.get("k", {})
    out = {
        key: value for key, value in base.items()
        if key not in removed and key not in changed
    }
    for key, child in changed.items():
        out[key] = _apply_node(base.get(key), child)
    return out


def delta_snapshot(
    snap: Dict[str, Any],
    base: Dict[str, Any],
    base_digest: Optional[str] = None,
    digest: Optional[str] = None,
) -> Dict[str, Any]:
    """Encode ``snap`` as a delta against ``base``.

    Returns a JSON-serializable envelope carrying the base's digest
    (so hydration can pick the right base image), the reconstructed
    snapshot's digest, and the edit tree.  A caller that already holds
    ``base_digest`` or ``snap``'s ``digest`` passes it in, and that
    snapshot is not encoded again.
    """
    return {
        "format": DELTA_FORMAT,
        "version": DELTA_VERSION,
        "base_sha256": (
            snapshot_digest(base) if base_digest is None else base_digest
        ),
        "sha256": snapshot_digest(snap) if digest is None else digest,
        "delta": _diff_node(base, snap),
    }


def apply_delta(
    base: Dict[str, Any],
    delta: Dict[str, Any],
    base_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """Reconstruct the full snapshot ``delta`` encodes against ``base``.

    The result shares unchanged subtrees with ``base`` — treat both as
    read-only (restore never mutates a snapshot dict).  Raises
    :class:`~repro.errors.SnapshotError` on a format mismatch, a wrong
    base image, or a reconstruction that fails its integrity hash.

    ``base_digest`` is the digest the caller already knows ``base`` by
    (a store that verified it on load), so the base is not encoded
    again.  The rebuilt snapshot is always hashed: a base that was
    altered after it was digested still fails that check.
    """
    if (
        not isinstance(delta, dict)
        or delta.get("format") != DELTA_FORMAT
    ):
        raise SnapshotError("not a machine snapshot delta")
    if delta.get("version") != DELTA_VERSION:
        raise SnapshotError(
            f"snapshot delta has version {delta.get('version')!r}; "
            f"this build reads version {DELTA_VERSION}"
        )
    if base_digest is None:
        base_digest = snapshot_digest(base)
    if base_digest != delta.get("base_sha256"):
        raise SnapshotError(
            f"delta was taken against base {delta.get('base_sha256')!r}, "
            f"got base {base_digest!r}"
        )
    snap = _apply_node(base, delta.get("delta"))
    digest = snapshot_digest(snap)
    if digest != delta.get("sha256"):
        raise SnapshotError(
            f"delta reconstruction failed its integrity check: "
            f"recorded sha256 {delta.get('sha256')!r}, computed {digest!r}"
        )
    return snap


def encode_delta(
    delta: Dict[str, Any], compress: Any = False
) -> bytes:
    """Canonical bytes of a delta envelope, optionally zlib-compressed.

    The compressed form is self-describing (zlib's two-byte header
    never starts a JSON document), so :func:`decode_delta` needs no
    side channel.
    """
    body = _canonical(delta)
    if compress:
        level = (
            DEFAULT_COMPRESS_LEVEL if compress is True else int(compress)
        )
        return zlib.compress(body, level)
    return body


def decode_delta(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_delta`."""
    if data[:1] != b"{":
        try:
            data = zlib.decompress(data)
        except zlib.error as exc:
            raise SnapshotError(
                f"undecodable snapshot delta: {exc}"
            ) from None
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"undecodable snapshot delta: {exc}") from None


def write_snapshot_file(
    snap: Dict[str, Any], path: str, compress: Any = False
) -> str:
    """Write ``snap`` to ``path`` atomically (tmp + fsync + rename).

    ``compress`` (flag or zlib level) stores the snapshot body
    zlib-compressed inside the envelope; the recorded sha256 is always
    taken over the *uncompressed* canonical bytes, so integrity
    semantics — and the digest a given machine state produces — are
    identical in both encodings.  Returns that digest.
    """
    # encode the snapshot exactly once: the digest is taken over the
    # same bytes that are spliced into the envelope (streaming
    # json.dump would re-serialize the whole dict a second time, and
    # measurably slower than dumps-then-write on checkpoint-sized
    # snapshots)
    body = _canonical(snap)
    digest = hashlib.sha256(body).hexdigest()
    head = json.dumps(
        {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION, "sha256": digest}
    ).encode("utf-8")
    if compress:
        level = (
            DEFAULT_COMPRESS_LEVEL if compress is True else int(compress)
        )
        packed = json.dumps(
            base64.b64encode(zlib.compress(body, level)).decode("ascii")
        ).encode("ascii")
        envelope = head[:-1] + b', "snapshot_zlib": ' + packed + b"}"
    else:
        envelope = head[:-1] + b', "snapshot": ' + body + b"}"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(envelope)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest


def read_snapshot_file(path: str) -> Dict[str, Any]:
    """Read and verify a snapshot file; returns the snapshot dict.

    Raises :class:`repro.errors.SnapshotError` on unreadable JSON, a
    wrong format tag, an unsupported version, or a digest mismatch.
    """
    try:
        with open(path, "r") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from None
    if not isinstance(envelope, dict) or envelope.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path!r} is not a machine snapshot")
    if envelope.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has version {envelope.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    if "snapshot_zlib" in envelope:
        try:
            body = zlib.decompress(
                base64.b64decode(envelope["snapshot_zlib"])
            )
        except (ValueError, zlib.error) as exc:
            raise SnapshotError(
                f"snapshot {path!r} has an undecodable compressed body: "
                f"{exc}"
            ) from None
        # the digest covers the uncompressed canonical bytes — exactly
        # the bytes just recovered, so verify them directly
        digest = hashlib.sha256(body).hexdigest()
        if digest != envelope.get("sha256"):
            raise SnapshotError(
                f"snapshot {path!r} failed its integrity check: "
                f"recorded sha256 {envelope.get('sha256')!r}, "
                f"computed {digest!r}"
            )
        return json.loads(body.decode("utf-8"))
    snap = envelope.get("snapshot")
    digest = snapshot_digest(snap)
    if digest != envelope.get("sha256"):
        raise SnapshotError(
            f"snapshot {path!r} failed its integrity check: "
            f"recorded sha256 {envelope.get('sha256')!r}, computed {digest!r}"
        )
    return snap
