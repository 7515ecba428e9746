"""WAL shipping and warm replicas: the journal as a replication log.

The gate-call journal (:mod:`repro.state.journal`) is a totally
ordered, CRC-framed, deterministic record of every state transition a
worker machine executes, and verified replay
(:mod:`repro.state.recover`) guarantees any machine applying it lands
bit-for-bit on the primary's architectural figures.  That *is* a
state-machine-replication log — this module adds the three mechanisms
that turn it into one:

* :class:`JournalTailer` — incremental live tailing of a journal that
  is still being appended to.  Unlike :func:`~repro.state.journal.read_journal`,
  which classifies a torn tail once and drops it, the tailer must
  distinguish "torn" from "still being written": an incomplete or
  CRC-failing *final* frame is simply not shipped yet (the writer will
  either finish it or truncate it on restart), while damage with
  committed bytes after it is fatal exactly as in recovery.
* wire frames (:func:`encode_frame` / :func:`decode_frame`) — each
  shipped record carries the CRC taken from the journal file itself,
  re-verified against the canonical re-encoding on arrival, so
  integrity holds end to end: disk frame -> wire -> replica.
* :class:`ReplicaApplier` — a warm replica: a
  :class:`~repro.serve.workers.GateCallEngine` that applies shipped
  records through the same ``run_job`` path the serving workers and
  the recovery replayer use, verifying every applied result against
  the journaled one.  Verification covers ``error``/``detail``/
  ``payload`` and the **architectural** counters: host-tier
  diagnostics (PTLB, icache, block, trace hits) legitimately differ
  between primary and replica because the primary drops its host
  caches at checkpoint boundaries the replica cannot observe — the
  exactness contract is about the simulated machine, and that is what
  is pinned, record by record.

Promotion (:meth:`ReplicaApplier.promote`) is what failover buys: the
replica replays only the journal tail past its applied position —
bounded by shipping lag, not by the primary's checkpoint interval —
then folds itself into a fresh promotion snapshot inside the slot
directory.  The next worker to claim the slot recovers from that
snapshot with an empty tail, and the generation bump on its claim
fences the dead incarnation.  The snapshot does not carry the
duplicate-suppression cache (``call_id`` -> journaled result): the
successor rebuilds it from the same slot journal the replica applied,
so calls that were in flight at the crash dedup instead of
double-executing.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional
from zlib import crc32

from ..errors import JournalError, ReplayDivergenceError
from ..sim.metrics import MetricsSnapshot
from .journal import MAGIC, _FRAME, read_journal
from .recover import JOURNAL_NAME, SNAPSHOT_NAME
from .snapshot import snapshot_machine, write_snapshot_file

#: bound on a replica's duplicate-suppression cache (what :meth:`lookup`
#: answers the gateway from) — mirrors the serving workers' RECENT_CALLS
REPLICA_RECENT_CALLS = 512

#: result fields a replica compares verbatim on every applied record
_VERBATIM_FIELDS = ("error", "detail", "payload")


@dataclass(frozen=True)
class Frame:
    """One journal record plus the CRC it carried on disk."""

    seq: int
    crc: int
    record: Dict[str, Any]


def canonical_record_bytes(record: Dict[str, Any]) -> bytes:
    """The canonical JSON encoding — the exact bytes the journal wrote.

    :class:`~repro.state.journal.JournalWriter` frames
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))``, so
    re-encoding a decoded record reproduces the on-disk payload byte
    for byte; that is what lets a shipped record's file CRC be
    re-checked after a trip through the wire's own JSON layer.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def encode_frame(frame: Frame) -> Dict[str, Any]:
    """A frame as a wire entry inside a JSON-lines ``ship`` message."""
    return {"seq": frame.seq, "crc": frame.crc, "record": frame.record}


def decode_frame(entry: Dict[str, Any]) -> Frame:
    """Parse and integrity-check one wire entry back into a frame.

    Raises :class:`repro.errors.JournalError` when the re-canonicalized
    record does not reproduce the shipped CRC (bit rot or tampering in
    transit) or the envelope seq disagrees with the record's own.
    """
    record = entry.get("record")
    if not isinstance(record, dict):
        raise JournalError("shipped frame has no record object")
    crc = entry.get("crc")
    if crc32(canonical_record_bytes(record)) != crc:
        raise JournalError(
            f"shipped record seq {entry.get('seq')!r} failed its CRC"
        )
    seq = record.get("seq")
    if seq != entry.get("seq"):
        raise JournalError(
            f"shipped frame seq {entry.get('seq')!r} disagrees with its "
            f"record's seq {seq!r}"
        )
    return Frame(seq=seq, crc=crc, record=record)


class JournalTailer:
    """Incrementally read intact records from a live, growing journal.

    The tailer remembers the byte offset one past the last intact
    record it consumed and re-reads only from there, so polling a large
    journal is O(new bytes).  Framing rules differ from recovery-mode
    reads in exactly one way: an incomplete or CRC-failing **final**
    frame is *waited out*, not dropped — a concurrent appender may
    still be writing it, and if it was a genuine torn tail the
    restarting writer truncates it in place, after which the next poll
    re-reads the same offset and finds the replacement bytes.  Interior
    damage (bad CRC with committed bytes after it, a sequence gap, bad
    magic) is always fatal, as everywhere else.

    ``since_seq`` parses but does not emit records at or below it — how
    a shipper resumes against a follower that already applied a prefix.
    """

    def __init__(self, path: str, since_seq: int = 0):
        self.path = path
        self.since_seq = since_seq
        #: byte offset one past the last consumed record (0: header
        #: not yet consumed)
        self.offset = 0
        #: seq of the last record parsed (consumed), emitted or not
        self.last_seq = 0

    def poll(self, max_records: Optional[int] = None) -> List[Frame]:
        """New intact frames appended since the last poll.

        Returns an empty list when nothing new (or only an incomplete
        tail) is available; a missing file is an empty journal that may
        yet be created.
        """
        try:
            with open(self.path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self.offset:
                    raise JournalError(
                        f"{self.path!r}: journal shrank below the tailed "
                        f"offset ({size} < {self.offset}) — the committed "
                        "prefix was rewritten"
                    )
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        base = self.offset
        pos = 0
        if base == 0:
            if len(data) < len(MAGIC):
                return []  # header still being written
            if data[: len(MAGIC)] != MAGIC:
                raise JournalError(
                    f"{self.path!r} has no journal magic header"
                )
            pos = len(MAGIC)
        frames: List[Frame] = []
        while True:
            if max_records is not None and len(frames) >= max_records:
                break
            if pos + _FRAME.size > len(data):
                break  # incomplete header: wait
            length, crc = _FRAME.unpack_from(data, pos)
            start = pos + _FRAME.size
            end = start + length
            if end > len(data):
                break  # incomplete payload: wait
            payload = data[start:end]
            if crc32(payload) != crc:
                if end < len(data):
                    raise JournalError(
                        f"{self.path!r}: CRC mismatch in committed record "
                        f"at byte {base + pos}"
                    )
                break  # bad final record: torn or mid-write, wait
            try:
                record = json.loads(payload.decode("utf-8"))
            except ValueError:
                raise JournalError(
                    f"{self.path!r}: record at byte {base + pos} passed "
                    "its CRC but is not valid JSON"
                ) from None
            seq = record.get("seq")
            if seq != self.last_seq + 1:
                raise JournalError(
                    f"{self.path!r}: sequence gap — record at byte "
                    f"{base + pos} has seq {seq!r}, expected "
                    f"{self.last_seq + 1}"
                )
            self.last_seq = seq
            pos = end
            self.offset = base + pos
            if seq > self.since_seq:
                frames.append(Frame(seq=seq, crc=crc, record=record))
        return frames


def read_frames(
    path: str, limit: Optional[int] = None
) -> List[Frame]:
    """Every intact frame of a journal, with its on-disk CRC.

    One-shot convenience over :class:`JournalTailer` for inspection
    (``repro journal dump``); a torn tail is silently ignored exactly
    as in recovery-mode reads.
    """
    return JournalTailer(path).poll(max_records=limit)


def check_replica_result(
    seq: int, expected: Dict[str, Any], actual: Dict[str, Any]
) -> None:
    """Raise :class:`ReplayDivergenceError` unless ``actual`` matches.

    Compares ``error``/``detail``/``payload`` verbatim and the metrics
    on the **architectural** counters only — the host-tier diagnostics
    depend on checkpoint-boundary cache drops the replica cannot
    observe, and the exactness contract they back is checked elsewhere
    (the parity backstop, the restore-equivalence matrix).
    """
    for name in _VERBATIM_FIELDS:
        if expected.get(name) != actual.get(name):
            raise ReplayDivergenceError(
                seq, name, expected.get(name), actual.get(name)
            )
    expected_metrics = expected.get("metrics")
    actual_metrics = actual.get("metrics")
    if (expected_metrics is None) != (actual_metrics is None):
        raise ReplayDivergenceError(
            seq, "metrics", expected_metrics, actual_metrics
        )
    if expected_metrics is None:
        return
    for name in MetricsSnapshot.ARCHITECTURAL:
        if expected_metrics.get(name) != actual_metrics.get(name):
            raise ReplayDivergenceError(
                seq,
                f"metrics.{name}",
                expected_metrics.get(name),
                actual_metrics.get(name),
            )


class ReplicaApplier:
    """A warm replica machine built by applying shipped journal records.

    Applying is replaying: every record's job runs through the same
    :class:`~repro.serve.workers.GateCallEngine` code path the serving
    workers use, and the result is verified against the journaled one
    before the record counts as applied.  Records at or below
    ``applied_seq`` are skipped idempotently (re-shipped batches after
    a reconnect or a promotion are harmless); a gap above it is fatal.
    """

    def __init__(self, engine: Any = None):
        from ..serve.workers import GateCallEngine

        self.engine = engine if engine is not None else GateCallEngine()
        self.applied_seq = 0
        self.applied = 0
        self.skipped = 0
        self.promotions = 0
        self.last_applied_at: Optional[float] = None
        #: call_id -> journaled result (what :meth:`lookup` answers)
        self.recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def apply(self, frame: Frame) -> bool:
        """Apply one shipped frame; returns whether it advanced state."""
        return self.apply_record(frame.record)

    def apply_record(self, record: Dict[str, Any]) -> bool:
        """Apply one journal record (already integrity-checked)."""
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise JournalError(f"shipped record has no seq: {record!r}")
        if seq <= self.applied_seq:
            self.skipped += 1
            return False
        if seq != self.applied_seq + 1:
            raise JournalError(
                f"replication gap: got seq {seq}, expected "
                f"{self.applied_seq + 1}"
            )
        result = self.engine.run_job(record["job"])
        check_replica_result(seq, record["result"], result)
        call_id = record.get("call_id")
        if call_id is not None:
            # the journaled result is authoritative: it is what the
            # caller was (or would have been) told
            self.recent[call_id] = record["result"]
            while len(self.recent) > REPLICA_RECENT_CALLS:
                self.recent.popitem(last=False)
        self.applied_seq = seq
        self.applied += 1
        self.last_applied_at = time.monotonic()
        return True

    def catch_up(self, journal_path: str) -> int:
        """Apply every journal record past ``applied_seq`` from disk.

        The promotion tail replay: what was journaled but not yet
        shipped when the primary died.  A missing journal is an empty
        tail.  Returns how many records were applied.
        """
        applied = 0
        for record in read_journal(journal_path):
            if record["seq"] <= self.applied_seq:
                continue
            self.apply_record(record)
            applied += 1
        return applied

    def lookup(self, call_id: str) -> Optional[Dict[str, Any]]:
        """The journaled result of ``call_id`` if this replica saw it."""
        return self.recent.get(call_id)

    def promote(self, slot_dir: str) -> Dict[str, Any]:
        """Fail over onto this replica: tail replay + promotion snapshot.

        Replays the unacked journal tail (everything journaled past
        ``applied_seq`` — bounded by shipping lag, not the primary's
        checkpoint interval), then writes a fresh snapshot into the
        slot directory with the replica's bookkeeping and journal
        position.  The next worker to claim the slot recovers from it
        with an empty tail and rebuilds its duplicate-suppression
        cache from the slot journal
        (:func:`~repro.state.recover.recover_slot`); its generation
        bump fences the dead incarnation.  An empty tail —
        the replica was fully caught up, or the slot never executed a
        call — still writes the snapshot, so promotion is uniform.
        """
        journal_path = os.path.join(slot_dir, JOURNAL_NAME)
        replayed = self.catch_up(journal_path)
        # Checkpoint discipline: the successor restores with cold host
        # tiers, so the replica goes cold at the same point — keeps any
        # later live-vs-replay comparison of host diagnostics exact.
        self.engine.machine.processor.drop_host_caches()
        extra = {
            "engine": self.engine.bookkeeping(),
            "last_seq": self.applied_seq,
            "promoted": True,
        }
        snap = snapshot_machine(self.engine.machine, extra=extra)
        current = os.path.join(slot_dir, SNAPSHOT_NAME)
        if os.path.exists(current):
            os.replace(current, current + ".prev")
        digest = write_snapshot_file(snap, current)
        self.promotions += 1
        return {
            "slot_dir": slot_dir,
            "applied_seq": self.applied_seq,
            "replayed_tail": replayed,
            "snapshot_sha256": digest,
        }

    def stats(self) -> Dict[str, Any]:
        """Read-only health figures, answerable locally by a standby."""
        total = self.engine.total
        return {
            "applied_seq": self.applied_seq,
            "applied": self.applied,
            "skipped": self.skipped,
            "promotions": self.promotions,
            "calls": self.engine.calls,
            "architectural": total.architectural(),
            "rates": total.rates(),
        }
