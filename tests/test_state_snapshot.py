"""Machine snapshots: round trips, integrity, and the metrics inverse."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.acl import AclEntry, RingBracketSpec
from repro.errors import SegmentBoundsError, SnapshotError
from repro.mem.physical import PhysicalMemory
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.snapshot import (
    MEMORY_CHUNK,
    read_snapshot_file,
    restore_machine,
    snapshot_digest,
    snapshot_machine,
    write_snapshot_file,
)
from repro.words import WORD_MASK

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]

GATE_PROGRAM = """
        .seg    sample
        .gates  1
main::  lda     =42
        eap4    back
        call    l_write,*
back:   halt
l_write: .its   svc$write
"""


def run_sample(machine):
    user = machine.add_user("sampler")
    machine.store_program(">t>sample", GATE_PROGRAM, acl=USER_ACL)
    process = machine.login(user)
    machine.initiate(process, ">t>sample")
    return machine.run(process, "sample$main", ring=4)


class TestMetricsFromDict:
    def test_round_trips_as_dict(self, machine):
        run_sample(machine)
        collected = MetricsSnapshot.collect(machine.processor)
        assert MetricsSnapshot.from_dict(collected.as_dict()) == collected

    def test_missing_host_counters_default_to_zero(self):
        partial = MetricsSnapshot.from_dict({"cycles": 7, "instructions": 3})
        assert partial.cycles == 7
        assert partial.instructions == 3
        assert partial.ptlb_hits == 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError, match="unknown metric counter"):
            MetricsSnapshot.from_dict({"cycles": 1, "quantum_flux": 2})


class TestPeekBlock:
    def test_peek_block_is_uncounted(self):
        memory = PhysicalMemory(64)
        memory.write(3, 9)
        reads_before = memory.reads
        assert memory.peek_block(2, 3) == [0, 9, 0]
        assert memory.reads == reads_before

    def test_read_block_still_counts(self):
        memory = PhysicalMemory(64)
        reads_before = memory.reads
        memory.read_block(0, 4)
        assert memory.reads == reads_before + 4


class TestSnapshotRoundTrip:
    def test_restore_reproduces_registers_and_counters(self, machine):
        result = run_sample(machine)
        snap = snapshot_machine(machine)
        restored = restore_machine(snap)
        original = machine.processor
        twin = restored.processor
        assert twin.registers.snapshot() == original.registers.snapshot()
        assert twin.cycles == original.cycles
        assert twin.stats == original.stats
        assert restored.console == machine.console == result.console
        assert (
            MetricsSnapshot.collect(twin).architectural()
            == MetricsSnapshot.collect(original).architectural()
        )

    def test_snapshot_of_restore_is_bit_identical(self, machine):
        run_sample(machine)
        snap = snapshot_machine(machine)
        again = snapshot_machine(restore_machine(snap))
        assert snapshot_digest(again) == snapshot_digest(snap)

    def test_extra_payload_survives(self, machine):
        snap = snapshot_machine(machine, extra={"note": "hello"})
        assert snap["extra"] == {"note": "hello"}

    def test_memory_serialised_sparsely(self, machine):
        run_sample(machine)
        snap = snapshot_machine(machine)
        words = sum(
            len(chunk) for chunk in snap["memory"]["chunks"].values()
        )
        assert 0 < words < machine.memory.size


@st.composite
def sparse_memories(draw):
    """A memory size (often not a multiple of MEMORY_CHUNK) and a sparse
    set of word writes, zeros included."""
    size = draw(
        st.one_of(
            st.integers(1, 12 * MEMORY_CHUNK),
            st.sampled_from([8 * MEMORY_CHUNK, 8 * MEMORY_CHUNK + 1]),
        )
    )
    writes = draw(
        st.dictionaries(
            st.integers(0, size - 1),
            st.one_of(st.just(0), st.integers(1, WORD_MASK)),
            max_size=24,
        )
    )
    return size, writes


def reference_chunks(words):
    """The chunk map as the any()-based scan built it."""
    chunks = {}
    for start in range(0, len(words), MEMORY_CHUNK):
        block = words[start : start + MEMORY_CHUNK]
        if any(block):
            chunks[str(start)] = list(block)
    return chunks


class TestMemoryScan:
    @settings(max_examples=60, deadline=None)
    @given(sparse_memories())
    @example((2 * MEMORY_CHUNK + 7, {0: 1}))  # short all-zero last chunk
    def test_chunk_map_matches_any_reference(self, memory_case):
        size, writes = memory_case
        machine = Machine(memory_words=size)
        for addr, value in writes.items():
            machine.memory.write(addr, value)
        snap = snapshot_machine(machine)
        assert snap["memory"]["chunks"] == reference_chunks(
            machine.memory._words
        )
        restored = restore_machine(snap)
        assert restored.memory._words == machine.memory._words
        assert snapshot_digest(snapshot_machine(restored)) == (
            snapshot_digest(snap)
        )


@st.composite
def write_paths(draw):
    """A memory size and a sequence of writes through every write path:
    ``write``, ``write_block`` and ``load_image``, zeros included."""
    size = draw(st.integers(1, 12 * MEMORY_CHUNK))
    words = st.one_of(st.just(0), st.integers(1, WORD_MASK))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["write", "write_block", "load_image"]))
        addr = draw(st.integers(0, size - 1))
        if kind == "write":
            ops.append((kind, addr, draw(words)))
        else:
            values = draw(st.lists(words, max_size=min(size - addr, 300)))
            ops.append((kind, addr, values))
    return size, ops


def assert_watermark_holds(memory):
    assert 0 <= memory.top <= memory.size
    assert not any(memory._words[memory.top :])


class TestMemoryWatermark:
    """Every word at or above ``top`` is zero, whichever path wrote, so
    the snapshot's scan to ``top`` finds every nonzero chunk."""

    @settings(max_examples=60, deadline=None)
    @given(write_paths())
    def test_every_write_path_keeps_the_watermark(self, case):
        size, ops = case
        machine = Machine(memory_words=size)
        memory = machine.memory
        for kind, addr, value in ops:
            getattr(memory, kind)(addr, value)
            assert_watermark_holds(memory)
        snap = snapshot_machine(machine)
        assert snap["memory"]["chunks"] == reference_chunks(memory._words)
        restored = restore_machine(snap)
        assert_watermark_holds(restored.memory)
        assert restored.memory._words == memory._words
        assert snapshot_machine(restored)["memory"]["chunks"] == (
            snap["memory"]["chunks"]
        )

    def test_the_watermark_tracks_the_highest_write(self):
        memory = PhysicalMemory(1024)
        assert memory.top == 0
        memory.write(9, 0)
        assert memory.top == 10
        memory.write(3, 5)
        assert memory.top == 10
        memory.write_block(100, [1, 2])
        memory.load_image(40, [7])
        assert memory.top == 102
        with pytest.raises(SegmentBoundsError):
            memory.write(1024, 1)
        with pytest.raises(SegmentBoundsError):
            memory.write(-1, 1)
        assert memory.top == 102


class TestSnapshotFiles:
    def test_write_then_read(self, tmp_path, machine):
        run_sample(machine)
        path = str(tmp_path / "m.snap")
        digest = write_snapshot_file(snapshot_machine(machine), path)
        snap = read_snapshot_file(path)
        assert snapshot_digest(snap) == digest

    def test_tampered_snapshot_rejected(self, tmp_path, machine):
        run_sample(machine)
        path = tmp_path / "m.snap"
        write_snapshot_file(snapshot_machine(machine), str(path))
        envelope = json.loads(path.read_text())
        envelope["snapshot"]["counters"]["cycles"] += 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError, match="integrity"):
            read_snapshot_file(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.snap"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SnapshotError, match="not a machine snapshot"):
            read_snapshot_file(str(path))

    def test_wrong_version_rejected(self, tmp_path, machine):
        path = tmp_path / "m.snap"
        write_snapshot_file(snapshot_machine(machine), str(path))
        envelope = json.loads(path.read_text())
        envelope["version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot_file(str(tmp_path / "absent.snap"))


class TestCompressedSnapshotFiles:
    def test_compressed_round_trip_same_digest(self, tmp_path, machine):
        run_sample(machine)
        snap = snapshot_machine(machine)
        plain = str(tmp_path / "plain.snap")
        packed = str(tmp_path / "packed.snap")
        assert write_snapshot_file(snap, plain) == write_snapshot_file(
            snap, packed, compress=True
        )
        assert read_snapshot_file(packed) == read_snapshot_file(plain)

    def test_compressed_file_is_smaller(self, tmp_path, machine):
        import os

        run_sample(machine)
        snap = snapshot_machine(machine)
        plain = tmp_path / "plain.snap"
        packed = tmp_path / "packed.snap"
        write_snapshot_file(snap, str(plain))
        write_snapshot_file(snap, str(packed), compress=True)
        assert os.path.getsize(packed) < os.path.getsize(plain)

    def test_explicit_level_accepted(self, tmp_path, machine):
        run_sample(machine)
        snap = snapshot_machine(machine)
        path = str(tmp_path / "packed.snap")
        write_snapshot_file(snap, path, compress=9)
        assert read_snapshot_file(path) == snap

    def test_corrupt_compressed_body_rejected(self, tmp_path, machine):
        """The checksum covers the uncompressed bytes: flipping state
        inside the compressed body is still caught after inflation."""
        import base64
        import zlib

        run_sample(machine)
        path = tmp_path / "m.snap"
        write_snapshot_file(snapshot_machine(machine), str(path), compress=True)
        envelope = json.loads(path.read_text())
        body = json.loads(
            zlib.decompress(base64.b64decode(envelope["snapshot_zlib"]))
        )
        body["counters"]["cycles"] += 1
        envelope["snapshot_zlib"] = base64.b64encode(
            zlib.compress(json.dumps(body).encode())
        ).decode("ascii")
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError, match="integrity"):
            read_snapshot_file(str(path))

    def test_undecodable_compressed_body_rejected(self, tmp_path, machine):
        import base64

        run_sample(machine)
        path = tmp_path / "m.snap"
        write_snapshot_file(snapshot_machine(machine), str(path), compress=True)
        envelope = json.loads(path.read_text())
        envelope["snapshot_zlib"] = base64.b64encode(b"not zlib").decode()
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError):
            read_snapshot_file(str(path))


class TestDeltaSnapshots:
    def _snap_pair(self, machine):
        from repro.sim.machine import Machine

        run_sample(machine)
        other = Machine()
        run_sample(other)
        other.processor.registers.a = 7
        return snapshot_machine(machine), snapshot_machine(other)

    def test_delta_reconstructs_bit_identically(self, machine):
        from repro.state.snapshot import apply_delta, delta_snapshot

        base, snap = self._snap_pair(machine)
        delta = delta_snapshot(snap, base)
        assert snapshot_digest(apply_delta(base, delta)) == snapshot_digest(
            snap
        )

    def test_delta_is_much_smaller_than_full(self, machine):
        from repro.state.snapshot import canonical_bytes, delta_snapshot

        base, snap = self._snap_pair(machine)
        delta = delta_snapshot(snap, base)
        assert len(canonical_bytes(delta)) < len(canonical_bytes(snap)) // 2

    def test_encode_decode_round_trip_compressed(self, machine):
        from repro.state.snapshot import (
            decode_delta,
            delta_snapshot,
            encode_delta,
        )

        base, snap = self._snap_pair(machine)
        delta = delta_snapshot(snap, base)
        assert decode_delta(encode_delta(delta)) == delta
        assert decode_delta(encode_delta(delta, compress=True)) == delta

    def test_wrong_base_rejected(self, machine):
        from repro.sim.machine import Machine
        from repro.state.snapshot import apply_delta, delta_snapshot

        base, snap = self._snap_pair(machine)
        delta = delta_snapshot(snap, base)
        stranger = Machine()
        run_sample(stranger)
        stranger.processor.registers.q = 99
        wrong = snapshot_machine(stranger)
        wrong["counters"]["cycles"] += 123
        with pytest.raises(SnapshotError, match="base"):
            apply_delta(wrong, delta)

    def test_list_edits_encode_as_prefix_diffs(self):
        from repro.state.snapshot import _apply_node, _diff_node

        base = {"xs": [1, 2, 3, 4], "ys": [5, 6]}
        # one element changed, one list grew, dict keys untouched
        new = {"xs": [1, 9, 3, 4], "ys": [5, 6, 7, 8]}
        node = _diff_node(base, new)
        assert _apply_node(base, node) == new
        # the unchanged elements are not re-encoded wholesale
        xs_node = node["k"]["xs"]
        assert set(xs_node["l"]) == {"1"}
        ys_node = node["k"]["ys"]
        assert ys_node["t"] == [7, 8]

    def test_list_shrink_round_trips(self):
        from repro.state.snapshot import _apply_node, _diff_node

        base = {"xs": [1, 2, 3, 4]}
        new = {"xs": [1, 2]}
        node = _diff_node(base, new)
        assert _apply_node(base, node) == new
