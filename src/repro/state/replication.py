"""WAL shipping and warm replicas: the journal as a replication log.

The gate-call journal (:mod:`repro.state.journal`) is a totally
ordered, CRC-framed, deterministic record of every state transition a
worker machine executes, and verified replay
(:mod:`repro.state.recover`) guarantees any machine applying it lands
bit-for-bit on the primary's architectural figures.  That *is* a
state-machine-replication log — this module adds the three mechanisms
that turn it into one:

* :class:`JournalTailer` — incremental live tailing of a journal that
  is still being appended to, through the journal's one frame walker
  (:func:`~repro.state.journal.walk_frames`): an incomplete or
  CRC-failing *final* frame is simply not shipped yet (the writer will
  either finish it or truncate it on restart), while damage with
  committed bytes after it is fatal exactly as in recovery.  The
  tailer checks CRCs but parses no payload.
* shipped spans (:func:`encode_span` / :func:`decode_span`) — a run of
  records travels as ``first_seq`` plus the journal's framed bytes
  for it, unaltered.  The receiver walks them with ``strict``: every
  CRC is checked, and each record's own seq must run ``first_seq,
  first_seq + 1, ...`` when its payload is parsed — integrity holds
  end to end, disk frame -> wire -> replica, and any altered byte
  refuses the span.
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

import base64
import os
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

from ..errors import JournalError
from .journal import Frame, header_end, walk_frames
from .recover import (
    JOURNAL_NAME,
    replay_journal,
    replay_record,
    write_checkpoint,
)


class JournalTailer:
    """Incrementally read intact frames from a live, growing journal.

    The tailer remembers the byte offset one past the last intact
    frame it consumed and re-reads only from there, so polling a large
    journal is O(new bytes).  An incomplete or CRC-failing **final**
    frame is *waited out*, not dropped — a concurrent appender may
    still be writing it, and if it was a genuine torn tail the
    restarting writer truncates it in place, after which the next poll
    re-reads the same offset and finds the replacement bytes.  Interior
    damage (bad CRC with committed bytes after it, bad magic, a file
    shrunk below the offset) is always fatal, as everywhere else.
    Payloads are not parsed here: a seq gap is refused where they are.

    ``since_seq`` consumes but does not emit frames at or below it —
    how a shipper resumes against a follower that already applied a
    prefix.
    """

    def __init__(self, path: str, since_seq: int = 0):
        self.path = path
        self.since_seq = since_seq
        #: byte offset one past the last consumed frame (0: header
        #: not yet consumed)
        self.offset = 0
        #: seq of the last frame consumed, emitted or not
        self.last_seq = 0

    def poll(self) -> List[Frame]:
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
        start = 0
        if self.offset == 0:
            start = header_end(data, self.path, strict=False)
            if start is None:
                return []  # header still being written
        frames, end = walk_frames(
            data, self.path, start, seq=self.last_seq, base=self.offset
        )
        self.offset += end
        self.last_seq += len(frames)
        return [frame for frame in frames if frame.seq > self.since_seq]


def encode_span(frames: Sequence[Frame]) -> Dict[str, Any]:
    """A run of consecutive frames as the fields of a ``ship`` message:
    its first seq and its framed bytes, as the journal holds them."""
    return {
        "first_seq": frames[0].seq,
        "bytes": base64.b64encode(
            b"".join(frame.data for frame in frames)
        ).decode("ascii"),
    }


def decode_span(message: Dict[str, Any]) -> List[Frame]:
    """The frames of a shipped span, walked with ``strict``; each
    record, when read, must carry the seq its place after
    ``first_seq`` gives it (:class:`repro.errors.JournalError`)."""
    first_seq = message.get("first_seq")
    shipped = message.get("bytes")
    if not (isinstance(first_seq, int) and isinstance(shipped, str)):
        raise JournalError("a shipped span needs first_seq and bytes")
    try:
        data = base64.b64decode(shipped, validate=True)
    except ValueError:
        raise JournalError("shipped span bytes are not base64") from None
    return walk_frames(
        data, "shipped span", seq=first_seq - 1, strict=True
    )[0]


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
        """Apply one journal frame; returns whether it advanced state.

        Its payload is parsed only when it is applied.
        """
        if frame.seq <= self.applied_seq:
            self.skipped += 1
            return False
        if frame.seq != self.applied_seq + 1:
            raise JournalError(
                f"replication gap: got seq {frame.seq}, expected "
                f"{self.applied_seq + 1}"
            )
        replay_record(self.engine, frame.record, self.recent, verify=True)
        self.applied_seq = frame.seq
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
