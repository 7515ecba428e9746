"""One framing rule, every reader: generated damage to a real journal.

A real slot journal is truncated at any byte or has any byte altered.
Recovery-mode and strict reads, the live tailer, the writer's open and
the standby's decode of shipped spans must agree on which records are
intact, what is a torn tail and what is fatal — and no reader may ever
hand back a record the primary did not write.  A journal whose seq
chain has a gap must be refused wherever payloads are parsed: at
recovery and at the follower.
"""

import base64
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JournalError
from repro.serve import workers
from repro.state.journal import (
    MAGIC,
    JournalWriter,
    _encode_record,
    read_frames,
    read_journal,
)
from repro.state.recover import JOURNAL_NAME, slot_engine
from repro.state.replication import (
    JournalTailer,
    ReplicaApplier,
    decode_span,
    encode_span,
)

#: records in the generated-from journal
RECORDS = 4

#: what a reader that raised :class:`JournalError` made of a journal
FATAL = "fatal"


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A real slot journal: (slot dir, its bytes, its frames)."""
    root = tmp_path_factory.mktemp("framing")
    state = workers._WorkerState(
        workers.DurabilityConfig(
            dir=str(root), slots=1, checkpoint_interval=10_000,
            fsync_every=1,
        )
    )
    try:
        for i in range(RECORDS):
            result = state.execute(
                {
                    "user": "alice",
                    "ring": 4,
                    "program": "call_loop",
                    "args": {"count": 2 + i},
                    "call_id": f"call-{i}",
                }
            )
            assert "error" not in result, result
        state.journal.sync()
    finally:
        workers.release_live_slots()
    path = os.path.join(state.slot_dir, JOURNAL_NAME)
    with open(path, "rb") as handle:
        data = handle.read()
    return state.slot_dir, data, read_frames(path, strict=True)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """The file each generated journal is written to."""
    return str(tmp_path_factory.mktemp("damaged") / "journal.bin")


def outcome(read):
    try:
        return read()
    except JournalError:
        return FATAL


def readers(path):
    """(recovery, strict, tailed): each a list of records, or FATAL."""
    recovery = outcome(lambda: read_journal(path))
    strict = outcome(lambda: read_journal(path, strict=True))
    tailed = outcome(
        lambda: [frame.record for frame in JournalTailer(path).poll()]
    )
    return recovery, strict, tailed


def shipped(data, first_seq):
    """What the standby's decode makes of a shipped span."""
    message = {
        "first_seq": first_seq,
        "bytes": base64.b64encode(data).decode("ascii"),
    }
    return outcome(lambda: [frame.record for frame in decode_span(message)])


def write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def frame_end(frame):
    return frame.offset + len(frame.data)


class TestTruncation:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_reader_agrees_on_a_cut_journal(
        self, journal, scratch, data
    ):
        _, raw, frames = journal
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        records = [frame.record for frame in frames]
        boundaries = [len(MAGIC)] + [frame_end(frame) for frame in frames]
        intact = sum(1 for end in boundaries[1:] if end <= cut)
        clean = cut in boundaries
        write(scratch, raw[:cut])

        recovery, strict, tailed = readers(scratch)
        assert recovery == records[:intact]
        assert tailed == records[:intact]
        assert strict == (records[:intact] if clean else FATAL)
        if cut >= len(MAGIC):
            assert shipped(raw[len(MAGIC) : cut], 1) == strict

        # a tailer that saw the cut picks the rest up whole once the
        # bytes land
        tailer = JournalTailer(scratch)
        seen = tailer.poll()
        write(scratch, raw)
        seen += tailer.poll()
        assert [frame.record for frame in seen] == records

        # the writer's open keeps exactly the intact prefix
        write(scratch, raw[:cut])
        with JournalWriter(scratch) as writer:
            assert writer.last_seq == intact
        assert os.path.getsize(scratch) == boundaries[intact]


class TestAlteredByte:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_reader_agrees_and_no_altered_record_escapes(
        self, journal, scratch, data
    ):
        _, raw, frames = journal
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        xor = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(raw)
        damaged[pos] ^= xor
        damaged = bytes(damaged)
        write(scratch, damaged)

        recovery, strict, tailed = readers(scratch)
        assert strict == FATAL
        assert tailed == recovery
        if pos < len(MAGIC):
            assert recovery == FATAL
            return
        hit = next(
            index
            for index, frame in enumerate(frames)
            if frame.offset <= pos < frame_end(frame)
        )
        before = [frame.record for frame in frames[:hit]]
        if pos - frames[hit].offset < 4:
            # a damaged length: the frame reads as torn (the walk stops
            # there) or as a CRC mismatch with bytes after it (fatal);
            # never a record that was not written
            assert recovery in (FATAL, before)
        elif hit == len(frames) - 1:
            assert recovery == before  # a CRC-failing final frame: torn
        else:
            assert recovery == FATAL  # committed bytes after the damage

        # every shipped span holding the altered byte is refused
        for first in range(hit + 1):
            for last in range(hit, len(frames)):
                span = damaged[frames[first].offset : frame_end(frames[last])]
                assert shipped(span, first + 1) == FATAL


class TestSeqGap:
    @pytest.mark.parametrize("delta", [-1, 1, 5])
    @pytest.mark.parametrize("index", range(RECORDS))
    def test_a_gap_is_refused_at_recovery_and_at_the_follower(
        self, journal, scratch, index, delta
    ):
        slot_dir, _, frames = journal
        records = [dict(frame.record) for frame in frames]
        records[index]["seq"] += delta
        # every frame is well formed: only the seq chain is broken
        write(scratch, MAGIC + b"".join(map(_encode_record, records)))

        recovery, strict, _ = readers(scratch)
        assert recovery == strict == FATAL
        with pytest.raises(JournalError, match="sequence gap"):
            JournalWriter(scratch)

        # the tailer checks CRCs but parses nothing; the follower
        # parses each record once, as it applies it, and stops there
        tailed = JournalTailer(scratch).poll()
        assert [frame.seq for frame in tailed] == list(range(1, RECORDS + 1))
        applier = ReplicaApplier(slot_engine(slot_dir))
        with pytest.raises(JournalError, match="sequence gap"):
            for frame in decode_span(encode_span(tailed)):
                applier.apply(frame)
        assert applier.applied_seq == index
