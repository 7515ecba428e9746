"""Recovery: rebuild a worker machine from snapshot + journal replay.

The simulated machine is deterministic, so a slot's state is fully
determined by the sequence of gate calls it executed — which is exactly
what the journal records.  Recovery therefore has two modes:

* **resume** (:func:`recover_slot`): restore the newest intact snapshot
  and replay only the journal records past it — what a replacement
  worker does when it claims a crashed worker's slot;
* **verify** (:func:`replay_journal` with ``verify=True``): replay from
  a fresh machine through the *entire* journal, checking every replayed
  result against the journaled one record by record.  Because the
  structural checks (snapshot sha256, journal CRCs, sequence numbers)
  can be forged together, the replay cross-check is the last line of
  defence: any divergence raises
  :class:`~repro.errors.ReplayDivergenceError`.

Both take the machine's shape from the slot itself: a worker
checkpoints a fresh slot when it claims it, so every slot it wrote
holds a snapshot recording the shape.

The replayer drives :class:`~repro.serve.workers.GateCallEngine` — the
same code path the serving workers use — imported lazily to keep
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
from .journal import read_journal
from .snapshot import read_snapshot_file

#: file names inside a worker slot directory
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.bin"

#: result fields the verifier compares, in reporting order
_RESULT_FIELDS = ("error", "detail", "payload", "metrics")


def _check_result(seq: int, expected: Dict[str, Any], actual: Dict[str, Any]):
    for name in _RESULT_FIELDS:
        if expected.get(name) != actual.get(name):
            raise ReplayDivergenceError(
                seq, name, expected.get(name), actual.get(name)
            )


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

    Without ``engine`` a fresh :class:`GateCallEngine` is built on the
    shape recorded in the newest intact snapshot beside the journal,
    which with ``start_seq=0`` replays the slot's entire history.  ``strict``
    refuses a torn journal tail instead of dropping it.  ``recent``, if
    given, collects every record's ``call_id`` → journaled result in
    journal order — skipped records too — which is the
    duplicate-suppression cache a resuming worker needs.
    """
    from ..serve.workers import GateCallEngine

    if engine is None:
        slot_dir = os.path.dirname(journal_path)
        snap, _ = _newest_snapshot(slot_dir)
        if snap is None:
            raise SnapshotError(
                f"no intact snapshot in {slot_dir!r}: the slot's machine "
                "shape is unknown"
            )
        machine = MachineConfig.from_dict(snap["config"])
        engine = GateCallEngine(Machine(machine))
    report = ReplayReport(engine=engine, last_seq=start_seq)
    for record in read_journal(journal_path, strict=strict):
        seq = record["seq"]
        call_id = record.get("call_id")
        if recent is not None and call_id is not None:
            # the journaled result is authoritative: it is what the
            # caller was (or would have been) told; a call_id journaled
            # again (it had aged out of the cache) moves to the end,
            # as it does in the live cache
            recent.pop(call_id, None)
            recent[call_id] = record["result"]
        if seq <= start_seq:
            report.skipped += 1
            continue
        result = engine.run_job(record["job"])
        if verify:
            _check_result(seq, record["result"], result)
            report.verified += 1
        report.replayed += 1
        report.last_seq = seq
    return report


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
