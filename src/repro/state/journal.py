"""The append-only write-ahead journal of committed gate calls.

Binary framing, one file per worker machine::

    +--------+  8-byte magic: b"RPJRNL1\\n"
    | header |
    +--------+
    | record |  <length:u32le> <crc32(payload):u32le> <payload bytes>
    | record |  payload: UTF-8 JSON with a monotonically increasing
    |  ...   |  "seq" field (1, 2, 3, ...)
    +--------+

Why CRC framing rather than trusting JSON to fail loudly: a torn write
at the tail (the process died mid-append) must be *distinguishable*
from corruption in the committed prefix.  The rules, stated once in
:func:`walk_frames` and applied by every reader (:func:`read_journal`,
:class:`JournalWriter`'s open, the replication tailer and the
standby's decode of shipped spans):

* an incomplete header or payload at end-of-file is a **torn tail** —
  silently dropped in recovery mode, an error in strict mode; so is a
  file that is a proper prefix of the magic header;
* a CRC mismatch on the **final** record is treated the same way (the
  length prefix may itself be garbage from a torn write);
* a CRC mismatch with committed records *after* it can never be a torn
  write and always raises :class:`repro.errors.JournalError`, as does a
  sequence-number gap wherever a payload is parsed — the prefix was
  tampered with or the medium is failing, and replaying around it
  would silently lose calls.

:class:`JournalWriter` truncates a torn tail on open, then appends.
Every append reaches the kernel before it returns (a ``write``, not an
``fsync``), so the death of the appending process loses no record and
a tailing follower sees each one at once.  ``fsync_every`` batches only
the fsync: it bounds what a power loss or kernel crash can take (at
most ``fsync_every - 1`` records).  Those calls were already answered,
so the gateway's retry of in-flight calls does not recover them.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple
from zlib import crc32

from ..errors import ConfigurationError, JournalError

MAGIC = b"RPJRNL1\n"

_FRAME = struct.Struct("<II")


def _encode_record(record: Dict[str, Any]) -> bytes:
    """One framed record: its canonical JSON (sorted keys, no spaces)
    behind the length and CRC header."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME.pack(len(payload), crc32(payload)) + payload


@dataclass(frozen=True)
class Frame:
    """One intact journal frame: the seq its place in the chain gives
    it, its CRC, its byte offset, and its bytes exactly as on disk."""

    seq: int
    crc: int
    offset: int
    data: bytes

    @cached_property
    def record(self) -> Dict[str, Any]:
        """The payload, parsed on first read; its own ``seq`` must be
        the frame's, or :class:`repro.errors.JournalError` is raised."""
        try:
            record = json.loads(self.data[_FRAME.size :])
        except ValueError:
            raise JournalError(
                f"record at byte {self.offset} passed its CRC but is "
                "not valid JSON"
            ) from None
        seq = record.get("seq") if isinstance(record, dict) else None
        if seq != self.seq:
            raise JournalError(
                f"sequence gap — record at byte {self.offset} has seq "
                f"{seq!r}, expected {self.seq}"
            )
        return record


def header_end(data: bytes, where: str, strict: bool) -> Optional[int]:
    """Where a journal file's frames begin: ``None`` for a proper
    prefix of the magic header (a file still being created, or torn
    while it was), which ``strict`` refuses like any other header."""
    if data[: len(MAGIC)] == MAGIC:
        return len(MAGIC)
    if not strict and MAGIC.startswith(data):
        return None
    raise JournalError(f"{where}: no journal magic header")


def walk_frames(
    data: bytes,
    where: str,
    start: int = 0,
    seq: int = 0,
    strict: bool = False,
    base: int = 0,
) -> Tuple[List[Frame], int]:
    """The intact frames of ``data[start:]``, numbered ``seq + 1,
    seq + 2, ...``, and the offset one past the last of them.

    Applies the framing rules of the module docstring: a torn tail
    (or a final frame still being written) ends the walk unless
    ``strict``.  Offsets are ``base`` plus the position in ``data``.
    """
    frames: List[Frame] = []
    pos = start
    size = len(data)
    while pos < size:
        if pos + _FRAME.size > size:
            flaw = "torn record header"
            break
        length, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if end > size:
            flaw = "torn record payload"
            break
        if crc32(data[pos + _FRAME.size : end]) != crc:
            if end < size:
                # bytes after a bad CRC mean the damage is not a torn
                # tail: refuse in every mode
                raise JournalError(
                    f"{where}: CRC mismatch in record at byte {base + pos}"
                )
            flaw = "CRC mismatch in the final record"
            break
        seq += 1
        frames.append(Frame(seq, crc, base + pos, data[pos:end]))
        pos = end
    else:
        return frames, pos
    if strict:
        raise JournalError(f"{where}: {flaw} at byte {base + pos}")
    return frames, pos


def _walk_file(path: str, strict: bool) -> Tuple[List[Frame], int, int]:
    """A journal file's intact frames, the offset one past the last of
    them (0 for an empty journal), and the file's size."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        if strict:
            raise JournalError(f"no journal at {path!r}") from None
        data = b""
    start = header_end(data, path, strict)
    if start is None:
        return [], 0, len(data)
    frames, end = walk_frames(data, path, start, strict=strict)
    return frames, end, len(data)


def read_frames(path: str, strict: bool = False) -> List[Frame]:
    """Every intact frame of a journal, payloads not yet parsed.

    Recovery mode (default) drops a torn tail; ``strict`` raises
    :class:`repro.errors.JournalError` for *any* imperfection.  A
    missing file is an empty journal in recovery mode.
    """
    return _walk_file(path, strict)[0]


def read_journal(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Every intact record of a journal, parsed and seq-checked (the
    modes of :func:`read_frames`)."""
    return [frame.record for frame in read_frames(path, strict)]


class JournalWriter:
    """Append records; recovers from (and truncates) a torn tail on open.

    Each append is flushed to the kernel before it returns.
    ``fsync_every`` = N fsyncs once every N appends (and on
    :meth:`sync`/:meth:`close`); 1 is the fully durable default.
    """

    def __init__(self, path: str, fsync_every: int = 1):
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = path
        self.fsync_every = fsync_every
        self._pending_syncs = 0
        frames, good_length, size = _walk_file(path, strict=False)
        # parsing every record checks the seq chain: a journal with a
        # gap is refused, never extended
        self.last_seq = len([frame.record for frame in frames])
        self._handle = open(path, "ab")
        if good_length < size:
            # the torn bytes are gone for good before anything follows
            self._handle.truncate(good_length)
            os.fsync(self._handle.fileno())
        if not good_length:
            # no fsync: a file with no records loses nothing, and the
            # first sync makes the header durable with them
            self._handle.write(MAGIC)
            self._handle.flush()

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the sequence number it received.

        The writer owns the ``seq`` field — callers must not set it.
        """
        if "seq" in record:
            raise ConfigurationError(
                "the journal writer assigns seq; do not set it"
            )
        seq = self.last_seq + 1
        framed = _encode_record({**record, "seq": seq})
        self._handle.write(framed)
        self._handle.flush()
        self.last_seq = seq
        self._pending_syncs += 1
        if self._pending_syncs >= self.fsync_every:
            self.sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending_syncs = 0

    def close(self, sync: bool = True) -> None:
        """Sync (unless ``sync`` is false) and close the file
        (idempotent).  Skip the sync only for a journal whose records
        are already durable elsewhere."""
        if self._handle.closed:
            return
        if sync:
            self.sync()
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
