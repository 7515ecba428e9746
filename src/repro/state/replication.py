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
* :class:`ReplicaApplier` — a warm replica: an engine on the slot's
  recorded machine shape (:func:`~repro.state.recover.slot_engine`)
  that applies shipped records with the verified replay step of
  :mod:`repro.state.recover` — the one ``repro replay --verify`` runs,
  with the one verifier (``error``/``detail``/``payload`` verbatim and
  every **architectural** counter), pinned record by record.

Promotion (:meth:`ReplicaApplier.promote`) is what failover buys: the
replica replays only the journal tail past its applied position —
bounded by shipping lag, not by the primary's checkpoint interval —
then folds itself into a fresh promotion snapshot inside the slot
directory, through the workers' own checkpoint writer.  The next
worker to claim the slot recovers from that snapshot with an empty
tail, and the generation bump on its claim fences the dead
incarnation.  The snapshot does not carry the duplicate-suppression
cache (``call_id`` -> journaled result): the successor rebuilds it
from the same slot journal the replica applied, so calls that were in
flight at the crash dedup instead of double-executing.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional
from zlib import crc32

from ..errors import JournalError
from .journal import MAGIC, _FRAME, canonical_record_bytes
from .recover import (
    JOURNAL_NAME,
    replay_journal,
    replay_record,
    write_checkpoint,
)


@dataclass(frozen=True)
class Frame:
    """One journal record plus the CRC it carried on disk."""

    seq: int
    crc: int
    record: Dict[str, Any]


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


class ReplicaApplier:
    """A warm replica machine built by applying shipped journal records.

    Applying is replaying: every record goes through
    :func:`~repro.state.recover.replay_record` with verification on,
    before it counts as applied.  ``engine`` is a fresh engine on the
    slot's shape (:func:`~repro.state.recover.slot_engine`).  Records
    at or below ``applied_seq`` are skipped idempotently (re-shipped
    batches after a reconnect or a promotion are harmless); a gap
    above it is fatal.
    """

    def __init__(self, engine: Any):
        self.engine = engine
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
        replay_record(self.engine, record, self.recent, verify=True)
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
        report = replay_journal(
            journal_path,
            engine=self.engine,
            start_seq=self.applied_seq,
            verify=True,
            recent=self.recent,
        )
        if report.replayed:
            self.applied_seq = report.last_seq
            self.applied += report.replayed
            self.last_applied_at = time.monotonic()
        return report.replayed

    def lookup(self, call_id: str) -> Optional[Dict[str, Any]]:
        """The journaled result of ``call_id`` if this replica saw it."""
        return self.recent.get(call_id)

    def promote(self, slot_dir: str) -> Dict[str, Any]:
        """Fail over onto this replica: tail replay + promotion snapshot.

        Replays the journal tail past ``applied_seq`` (bounded by
        shipping lag, not the primary's checkpoint interval), then
        checkpoints into the slot directory.  The next worker to claim
        the slot recovers from it with an empty tail
        (:func:`~repro.state.recover.recover_slot`); its generation
        bump fences the dead incarnation.  An empty tail — the replica
        was fully caught up, or the slot never executed a call — still
        writes the snapshot, so promotion is uniform.
        """
        replayed = self.catch_up(os.path.join(slot_dir, JOURNAL_NAME))
        digest = write_checkpoint(
            self.engine, slot_dir, self.applied_seq, promoted=True
        )
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
