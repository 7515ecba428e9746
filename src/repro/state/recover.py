"""Slot durability: a worker slot's on-disk format and its rules.

A *slot* is a directory holding a gate-call journal and the newest
checkpoint (the one before it kept as ``.prev``).  The machine is
deterministic, so a slot's state is fully determined by the gate calls
its journal records.  Every copy of a slot — a resumed worker, a
verified replay, a warm replica and its promotion — is built from the
rules here, each stated once: the journal record
(:func:`journal_record`), the checkpoint writer
(:func:`write_checkpoint`), the per-record replay step with its dedup
update (:func:`replay_record`), a fresh engine on the shape the slot
records (:func:`slot_engine`; a worker checkpoints a fresh slot when it
claims it) and the result verifier (:func:`check_result`).

* **resume** (:func:`recover_slot`): restore the newest intact snapshot
  and replay only the journal records past it — what a replacement
  worker does when it claims a crashed worker's slot;
* **verify** (:func:`replay_journal` with ``verify=True``): replay from
  a fresh machine through the *entire* journal, checking every replayed
  result against the journaled one record by record.

Verification compares ``error``/``detail``/``payload`` verbatim and
every architectural counter.  Host-tier counters (PTLB, icache, trace)
are not compared: the live worker drops its host caches at each
checkpoint, which the journal does not record.  Because the structural
checks (snapshot sha256, journal CRCs, sequence numbers) can be forged
together, the replay cross-check is the last line of defence: any
divergence raises :class:`~repro.errors.ReplayDivergenceError`.

Engines are :class:`~repro.serve.workers.GateCallEngine` — the code
path the serving workers use — imported lazily to keep
:mod:`repro.state` importable without the serving stack.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ReplayDivergenceError, SnapshotError
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from .journal import read_journal
from .snapshot import (
    read_snapshot_file,
    snapshot_machine,
    write_snapshot_file,
)

#: file names inside a worker slot directory
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.bin"

#: bound on a slot's duplicate-suppression cache; a retried call older
#: than this many calls re-executes instead (harmless — catalog
#: programs are idempotent per invocation)
RECENT_CALLS = 512

#: result fields the verifier compares verbatim, in reporting order
_VERBATIM_FIELDS = ("error", "detail", "payload")


def journal_record(
    job: Dict[str, Any], result: Dict[str, Any]
) -> Dict[str, Any]:
    """The journal record of one executed call (the writer adds ``seq``)."""
    return {
        "call_id": job.get("call_id"),
        "job": {
            "user": job["user"],
            "ring": job["ring"],
            "program": job["program"],
            "args": job["args"],
        },
        "result": result,
    }


def write_checkpoint(
    engine: Any, slot_dir: str, last_seq: int, **marks: Any
) -> str:
    """Fold ``engine`` into the slot's checkpoint at journal ``last_seq``
    (``marks`` join the bookkeeping); returns the snapshot's sha256.

    The machine drops its host caches first: a restored successor
    starts with cold host tiers (snapshots don't serialize
    translations, decodes, or traces), so the machine goes cold at the
    same point.  The previous checkpoint survives as ``.prev``.
    """
    engine.machine.processor.drop_host_caches()
    extra = {"engine": engine.bookkeeping(), "last_seq": last_seq, **marks}
    snap = snapshot_machine(engine.machine, extra=extra)
    current = os.path.join(slot_dir, SNAPSHOT_NAME)
    if os.path.exists(current):
        os.replace(current, current + ".prev")
    return write_snapshot_file(snap, current)


def check_result(seq: int, expected: Dict[str, Any], actual: Dict[str, Any]):
    """Raise :class:`ReplayDivergenceError` unless ``actual`` reproduces
    the journaled ``expected`` (see the module docstring)."""
    checks = [
        (name, expected.get(name), actual.get(name))
        for name in _VERBATIM_FIELDS
    ]
    want, got = expected.get("metrics"), actual.get("metrics")
    if want is None or got is None:
        checks.append(("metrics", want, got))
    else:
        checks += [
            (f"metrics.{name}", want.get(name), got.get(name))
            for name in MetricsSnapshot.ARCHITECTURAL
        ]
    for name, journaled, replayed in checks:
        if journaled != replayed:
            raise ReplayDivergenceError(seq, name, journaled, replayed)


def remember(
    recent: Optional["OrderedDict[str, Dict[str, Any]]"],
    call_id: Optional[str],
    result: Dict[str, Any],
) -> None:
    """Enter a call's result into a dedup cache, newest last; entries
    beyond :data:`RECENT_CALLS` age out.  A replayed record's journaled
    result is authoritative: it is what the caller was (or would have
    been) told."""
    if recent is None or call_id is None:
        return
    recent.pop(call_id, None)
    recent[call_id] = result
    while len(recent) > RECENT_CALLS:
        recent.popitem(last=False)


def replay_record(
    engine: Any,
    record: Dict[str, Any],
    recent: Optional["OrderedDict[str, Dict[str, Any]]"] = None,
    verify: bool = False,
) -> None:
    """Run one journal record's job on ``engine``; with ``verify`` the
    result must reproduce the journaled one (:func:`check_result`)."""
    result = engine.run_job(record["job"])
    if verify:
        check_result(record["seq"], record["result"], result)
    remember(recent, record.get("call_id"), record["result"])


def _newest_snapshot(slot_dir: str):
    """The slot's newest intact snapshot and its label, or ``(None,
    "none")``: ``snapshot.json``, else ``snapshot.json.prev`` (the
    previous checkpoint survives until the next one replaces it, so a
    crash mid-checkpoint at worst lengthens the replay)."""
    path = os.path.join(slot_dir, SNAPSHOT_NAME)
    for candidate, label in ((path, "current"), (path + ".prev", "prev")):
        try:
            return read_snapshot_file(candidate), label
        except SnapshotError:
            continue
    return None, "none"


def slot_engine(slot_dir: str) -> Any:
    """A fresh :class:`GateCallEngine` on the machine shape recorded in
    the slot's newest intact snapshot — what a replay from seq 0 and a
    warm replica both start from."""
    from ..serve.workers import GateCallEngine

    snap, _ = _newest_snapshot(slot_dir)
    if snap is None:
        raise SnapshotError(
            f"no intact snapshot in {slot_dir!r}: the slot's machine "
            "shape is unknown"
        )
    return GateCallEngine(Machine(MachineConfig.from_dict(snap["config"])))


@dataclass
class ReplayReport:
    """What :func:`replay_journal` did."""

    engine: Any  # GateCallEngine
    replayed: int = 0
    verified: int = 0
    skipped: int = 0  # records at or below start_seq
    last_seq: int = 0


@dataclass
class RecoveryResult:
    """What :func:`recover_slot` rebuilt."""

    engine: Any  # GateCallEngine
    snapshot_source: str = "none"  # "current" | "prev" | "none"
    snapshot_seq: int = 0
    replayed: int = 0
    last_seq: int = 0
    recent: "OrderedDict[str, Dict[str, Any]]" = field(
        default_factory=OrderedDict
    )


def replay_journal(
    journal_path: str,
    engine: Any = None,
    start_seq: int = 0,
    verify: bool = False,
    strict: bool = False,
    recent: Optional["OrderedDict[str, Dict[str, Any]]"] = None,
) -> ReplayReport:
    """Replay journal records with ``seq > start_seq`` through ``engine``.

    Without ``engine`` a fresh engine is built on the slot's recorded
    shape (:func:`slot_engine`), which with ``start_seq=0`` replays the
    slot's entire history.  ``strict`` refuses a torn journal tail
    instead of dropping it.  ``recent``, if given, collects every
    record's ``call_id`` → journaled result in journal order — skipped
    records too — which is the duplicate-suppression cache a resuming
    worker needs.
    """
    if engine is None:
        engine = slot_engine(os.path.dirname(journal_path))
    report = ReplayReport(engine=engine, last_seq=start_seq)
    for record in read_journal(journal_path, strict=strict):
        if record["seq"] <= start_seq:
            remember(recent, record.get("call_id"), record["result"])
            report.skipped += 1
            continue
        replay_record(engine, record, recent, verify)
        if verify:
            report.verified += 1
        report.replayed += 1
        report.last_seq = record["seq"]
    return report


def recover_slot(
    slot_dir: str,
    verify: bool = False,
    machine: Optional[MachineConfig] = None,
) -> RecoveryResult:
    """Rebuild a worker slot's engine: newest intact snapshot + replay.

    With no intact snapshot, replays the whole journal on a fresh
    machine of shape ``machine`` — the caller's, since the slot records
    none — and raises :class:`~repro.errors.SnapshotError` without one.
    A missing journal is an empty one: a brand-new slot recovers to a
    fresh engine.

    The duplicate-suppression cache (``recent``) is rebuilt from the
    journal alone, records at or below the snapshot's position
    included; snapshots do not carry it.  The journal is append-only
    and synced before every checkpoint, so it holds every call a
    snapshot has folded in.
    """
    from ..serve.workers import GateCallEngine

    snap, source = _newest_snapshot(slot_dir)
    if snap is not None:
        engine = GateCallEngine.from_snapshot(snap)
        extra = snap.get("extra", {})
    elif machine is not None:
        engine = GateCallEngine(Machine(machine))
        extra = {}
    else:
        raise SnapshotError(
            f"no intact snapshot in {slot_dir!r} and no machine shape "
            "to replay its journal on"
        )
    snapshot_seq = int(extra.get("last_seq", 0))
    recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    report = replay_journal(
        os.path.join(slot_dir, JOURNAL_NAME),
        engine=engine,
        start_seq=snapshot_seq,
        verify=verify,
        recent=recent,
    )
    return RecoveryResult(
        engine=engine,
        snapshot_source=source,
        snapshot_seq=snapshot_seq,
        replayed=report.replayed,
        last_seq=report.last_seq,
        recent=recent,
    )
