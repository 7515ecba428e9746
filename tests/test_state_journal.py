"""The write-ahead journal: framing, torn tails, corruption, batching."""

import threading

import pytest

from repro.errors import ConfigurationError, JournalError
from repro.state.journal import (
    MAGIC,
    JournalWriter,
    _encode_record,
    read_journal,
)
from repro.state.replication import JournalTailer


def write_records(path, payloads, fsync_every=1):
    with JournalWriter(str(path), fsync_every=fsync_every) as writer:
        return [writer.append(record) for record in payloads]


class TestRoundTrip:
    def test_records_come_back_in_order_with_seqs(self, tmp_path):
        path = tmp_path / "j.bin"
        seqs = write_records(path, [{"x": i} for i in range(5)])
        assert seqs == [1, 2, 3, 4, 5]
        records = read_journal(str(path))
        assert [r["x"] for r in records] == [0, 1, 2, 3, 4]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        with JournalWriter(str(path)) as writer:
            assert writer.last_seq == 2
            assert writer.append({"x": 2}) == 3
        assert [r["seq"] for r in read_journal(str(path))] == [1, 2, 3]

    def test_missing_file_is_empty_unless_strict(self, tmp_path):
        path = str(tmp_path / "absent.bin")
        assert read_journal(path) == []
        with pytest.raises(JournalError):
            read_journal(path, strict=True)

    def test_writer_owns_seq(self, tmp_path):
        with JournalWriter(str(tmp_path / "j.bin")) as writer:
            with pytest.raises(ConfigurationError):
                writer.append({"seq": 9})


class TestTornTail:
    def test_torn_payload_dropped_in_recovery_mode(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # rip bytes off the final payload
        records = read_journal(str(path))
        assert [r["x"] for r in records] == [0]
        with pytest.raises(JournalError):
            read_journal(str(path), strict=True)

    def test_torn_header_dropped_in_recovery_mode(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}])
        path.write_bytes(path.read_bytes() + b"\x05\x00")  # partial frame
        assert [r["x"] for r in read_journal(str(path))] == [0]
        with pytest.raises(JournalError):
            read_journal(str(path), strict=True)

    def test_writer_truncates_torn_tail_and_continues(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        intact = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"\x99\x99\x99")
        with JournalWriter(str(path)) as writer:
            assert writer.last_seq == 2
            writer.append({"x": 2})
        records = read_journal(str(path), strict=True)
        assert [r["x"] for r in records] == [0, 1, 2]
        assert len(path.read_bytes()) > intact


class TestCorruption:
    def test_interior_crc_flip_always_raises(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 8] ^= 0xFF  # first byte of record 1's payload
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            read_journal(str(path))
        with pytest.raises(JournalError):
            read_journal(str(path), strict=True)

    def test_final_record_crc_flip_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert [r["x"] for r in read_journal(str(path))] == [0]
        with pytest.raises(JournalError):
            read_journal(str(path), strict=True)

    def test_sequence_gap_always_raises(self, tmp_path):
        path = tmp_path / "j.bin"
        body = MAGIC + _encode_record({"seq": 1}) + _encode_record({"seq": 3})
        path.write_bytes(body)
        with pytest.raises(JournalError, match="sequence gap"):
            read_journal(str(path))

    def test_bad_magic_always_raises(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(b"NOTJRNL\n" + _encode_record({"seq": 1}))
        with pytest.raises(JournalError, match="magic"):
            read_journal(str(path))


class TestTailing:
    """Live-tailing semantics the replication shipper depends on."""

    def test_poll_is_incremental(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        tailer = JournalTailer(str(path))
        assert [f.seq for f in tailer.poll()] == [1, 2]
        assert tailer.poll() == []
        write_records(path, [{"x": 2}])  # appends via reopen
        assert [f.record["x"] for f in tailer.poll()] == [2]

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        tailer = JournalTailer(str(tmp_path / "absent.bin"))
        assert tailer.poll() == []

    def test_since_seq_parses_but_does_not_emit(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": i} for i in range(5)])
        tailer = JournalTailer(str(path), since_seq=3)
        assert [f.seq for f in tailer.poll()] == [4, 5]
        assert tailer.last_seq == 5

    def test_torn_tail_appearing_mid_read_completes_later(self, tmp_path):
        # the shipper's key edge: a record is half-written when the
        # tailer polls; the remaining bytes land afterwards and the
        # next poll must pick the record up whole
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        tailer = JournalTailer(str(path))
        assert len(tailer.poll()) == 2
        frame = _encode_record({"x": 2, "seq": 3})
        with open(path, "ab") as handle:
            handle.write(frame[:5])  # torn: partial header+payload
        assert tailer.poll() == []  # waits, does not drop or raise
        with open(path, "ab") as handle:
            handle.write(frame[5:])
        (completed,) = tailer.poll()
        assert completed.seq == 3
        assert completed.record["x"] == 2

    def test_truncated_then_rewritten_torn_tail_is_picked_up(self, tmp_path):
        # a restarting writer truncates the torn tail in place; the
        # tailer's offset stands at the end of the intact prefix and
        # the replacement bytes must be read from there
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}])
        tailer = JournalTailer(str(path))
        assert len(tailer.poll()) == 1
        with open(path, "ab") as handle:
            handle.write(b"\x99\x99\x99")
        assert tailer.poll() == []
        with JournalWriter(str(path)) as writer:  # truncates, appends
            writer.append({"x": 1})
        (frame,) = tailer.poll()
        assert frame.seq == 2

    def test_concurrent_append_while_shipping(self, tmp_path):
        # a writer appends (with batched fsyncs) while the tailer
        # polls: every record must arrive exactly once, in seq order
        path = tmp_path / "j.bin"
        total = 200
        writer = JournalWriter(str(path), fsync_every=8)

        def append_all():
            for i in range(total):
                writer.append({"x": i})
            writer.close()

        thread = threading.Thread(target=append_all)
        thread.start()
        tailer = JournalTailer(str(path))
        seen = []
        while len(seen) < total:
            seen.extend(tailer.poll())
        thread.join()
        assert [f.seq for f in seen] == list(range(1, total + 1))
        assert [f.record["x"] for f in seen] == list(range(total))
        assert tailer.poll() == []

    def test_interior_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC mismatch"):
            JournalTailer(str(path)).poll()

    def test_shrinking_below_the_offset_is_fatal(self, tmp_path):
        path = tmp_path / "j.bin"
        write_records(path, [{"x": 0}, {"x": 1}])
        tailer = JournalTailer(str(path))
        tailer.poll()
        path.write_bytes(path.read_bytes()[: len(MAGIC)])
        with pytest.raises(JournalError, match="shrank"):
            tailer.poll()


class TestFsyncBatching:
    def test_appends_are_readable_at_once_while_fsync_batches(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.bin"
        writer = JournalWriter(str(path), fsync_every=4)
        fsyncs = []
        monkeypatch.setattr(
            "repro.state.journal.os.fsync", lambda fd: fsyncs.append(fd)
        )
        for i in range(3):
            writer.append({"x": i})
            # each record reaches the kernel before append returns: a
            # concurrent reader (or a follower's tailer) sees it at once
            assert [r["x"] for r in read_journal(str(path))] == list(
                range(i + 1)
            )
        assert fsyncs == []
        writer.append({"x": 3})
        assert len(fsyncs) == 1  # the batch boundary
        writer.append({"x": 4})
        assert len(fsyncs) == 1
        writer.sync()
        assert len(fsyncs) == 2
        assert len(read_journal(str(path))) == 5
        writer.close()

    def test_close_flushes_pending_appends(self, tmp_path):
        path = tmp_path / "j.bin"
        writer = JournalWriter(str(path), fsync_every=100)
        writer.append({"x": 0})
        writer.close()
        assert len(read_journal(str(path))) == 1

    def test_fsync_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JournalWriter(str(tmp_path / "j.bin"), fsync_every=0)
