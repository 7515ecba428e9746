"""Slot recovery and verified replay over real worker journals."""

import json
import os
import subprocess
import sys
from pathlib import Path
from zlib import crc32

import pytest

import repro.serve.workers as workers
from repro.errors import JournalError, ReplayDivergenceError, SnapshotError
from repro.serve.workers import (
    SERVING_MACHINE,
    DurabilityConfig,
    _WorkerState,
)
from repro.sim.config import MachineConfig
from repro.sim.metrics import MetricsSnapshot
from repro.state.journal import MAGIC, _FRAME, read_journal
from repro.state.recover import (
    JOURNAL_NAME,
    RECENT_CALLS,
    SNAPSHOT_NAME,
    check_result,
    recover_slot,
    replay_journal,
)
from repro.state.snapshot import read_snapshot_file, write_snapshot_file


@pytest.fixture
def durable_worker(tmp_path):
    """A fresh worker bound to slot 0 under ``tmp_path``; releases its
    slot claims afterwards."""

    def build(checkpoint_interval=4, fsync_every=1):
        config = DurabilityConfig(
            dir=str(tmp_path),
            slots=2,
            checkpoint_interval=checkpoint_interval,
            fsync_every=fsync_every,
        )
        return _WorkerState(config)

    yield build
    workers.release_live_slots()


def job(i, call_id=None, **overrides):
    base = {
        "user": "alice",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": 1 + i % 3},
        "call_id": call_id or f"call-{i}",
    }
    base.update(overrides)
    return base


def forge(journal, seq, mutate):
    """Rewrite record ``seq`` of ``journal`` with ``mutate`` and re-frame
    it with a correct CRC, so only the replay cross-check can catch it."""
    data = journal.read_bytes()
    offset = len(MAGIC)
    records = []
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        records.append(json.loads(data[start : start + length]))
        offset = start + length
    mutate(records[seq - 1])
    forged = MAGIC
    for record in records:
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()
        forged += _FRAME.pack(len(payload), crc32(payload)) + payload
    journal.write_bytes(forged)


def crash(state):
    """Abandon a worker as a crash would: journal synced (the calls were
    acknowledged), claim released (the pid is gone)."""
    state.journal.sync()
    (Path(state.slot_dir) / "claim").unlink()
    workers.release_live_slots()


class TestSlotRecovery:
    def test_snapshot_plus_replay_resumes_totals(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        for i in range(10):  # 2 checkpoints + a 2-call journal tail
            state.execute(job(i))
        crash(state)

        successor = durable_worker()
        assert successor.slot == 0
        assert successor.generation == state.generation + 1
        assert successor.engine.calls == state.engine.calls
        assert successor.engine.total == state.engine.total

    def test_recover_slot_reports_source_and_replay(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        for i in range(6):
            state.execute(job(i))
        state.journal.sync()
        recovery = recover_slot(str(tmp_path / "slots" / "slot-0"))
        assert recovery.snapshot_source == "current"
        assert recovery.snapshot_seq == 4
        assert recovery.replayed == 2
        assert recovery.last_seq == 6
        assert recovery.engine.total == state.engine.total

    def test_previous_snapshot_is_the_fallback(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=2)
        slot_dir = tmp_path / "slots" / "slot-0"
        for i in range(6):  # checkpoints at 2, 4, 6
            state.execute(job(i))
        state.journal.sync()
        (slot_dir / "snapshot.json").write_text("garbage")
        recovery = recover_slot(str(slot_dir))
        assert recovery.snapshot_source == "prev"
        assert recovery.snapshot_seq == 4
        assert recovery.replayed == 2
        assert recovery.engine.total == state.engine.total

    def test_claim_checkpoints_a_fresh_slot_with_its_shape(self, tmp_path):
        machine = SERVING_MACHINE.with_profile("baseline645", ["nx_brackets"])
        config = DurabilityConfig(dir=str(tmp_path), slots=1)
        try:
            state = _WorkerState(config, machine)
            snap = read_snapshot_file(
                str(tmp_path / "slots" / "slot-0" / SNAPSHOT_NAME)
            )
        finally:
            workers.release_live_slots()
        assert snap["extra"]["last_seq"] == 0
        assert MachineConfig.from_dict(snap["config"]) == machine
        assert state.engine.machine.config == machine

    def test_no_snapshot_replays_everything(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=100)  # claim only
        slot_dir = tmp_path / "slots" / "slot-0"
        for i in range(5):
            state.execute(job(i))
        state.journal.sync()
        (slot_dir / SNAPSHOT_NAME).unlink()  # the claim-time checkpoint
        with pytest.raises(SnapshotError):
            recover_slot(str(slot_dir))  # no snapshot, no shape
        recovery = recover_slot(str(slot_dir), machine=SERVING_MACHINE)
        assert recovery.snapshot_source == "none"
        assert recovery.replayed == 5
        assert recovery.engine.total == state.engine.total

    def test_duplicate_call_id_answers_from_journal(self, durable_worker, tmp_path):
        state = durable_worker()
        first = state.execute(job(0, call_id="dup"))
        calls_after = state.engine.calls
        crash(state)

        successor = durable_worker()
        again = successor.execute(job(0, call_id="dup"))
        assert again["deduplicated"] is True
        assert again["payload"] == first["payload"]
        assert again["metrics"] == first["metrics"]
        assert successor.engine.calls == calls_after  # not re-executed

    def test_errored_calls_are_journaled_and_replayed(self, durable_worker, tmp_path):
        state = durable_worker()
        state.execute(job(0))
        bad = state.execute(job(1, program="no_such_program"))
        assert "error" in bad
        state.execute(job(2))
        crash(state)

        successor = durable_worker()
        assert successor.engine.calls == 2  # errors don't count as calls
        assert successor.engine.total == state.engine.total
        journal = tmp_path / "slots" / "slot-0" / JOURNAL_NAME
        recorded = [r["result"] for r in read_journal(str(journal))]
        assert "error" in recorded[1]


class TestDedupFromJournal:
    """The dedup cache is rebuilt from the journal; snapshots omit it."""

    def test_call_before_last_checkpoint_is_deduplicated(
        self, durable_worker, tmp_path
    ):
        state = durable_worker(checkpoint_interval=4)
        first = state.execute(job(0, call_id="early"))
        for i in range(1, 10):  # checkpoints at 4 and 8, tail of 2
            state.execute(job(i))
        crash(state)

        successor = durable_worker()
        assert successor.engine.calls == 10
        again = successor.execute(job(0, call_id="early"))
        assert again["deduplicated"] is True
        assert again["payload"] == first["payload"]
        assert successor.engine.calls == 10  # not re-executed

    def test_call_that_triggers_a_checkpoint_is_deduplicated(
        self, durable_worker, tmp_path
    ):
        # the checkpoint runs before the call enters the live cache, so
        # a snapshot of that cache would miss it; the journal has it
        state = durable_worker(checkpoint_interval=4)
        for i in range(4):
            state.execute(job(i))
        crash(state)

        successor = durable_worker()
        assert successor.execute(job(3))["deduplicated"] is True
        assert successor.engine.calls == 4

    def test_dedup_survives_fresh_machine_replay(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        state.execute(job(0, call_id="early"))
        for i in range(1, 10):
            state.execute(job(i))
        crash(state)
        slot_dir = tmp_path / "slots" / "slot-0"
        (slot_dir / SNAPSHOT_NAME).write_text("garbage")
        (slot_dir / (SNAPSHOT_NAME + ".prev")).write_text("garbage")

        successor = durable_worker()
        # host diagnostics differ: the live worker went cold at each
        # checkpoint, the fresh-machine replay did not
        assert successor.engine.total.architectural() == (
            state.engine.total.architectural()
        )
        again = successor.execute(job(0, call_id="early"))
        assert again["deduplicated"] is True
        assert successor.engine.calls == 10

    def test_recovered_cache_is_the_journal_tail_in_order(
        self, durable_worker, tmp_path
    ):
        state = durable_worker(checkpoint_interval=64, fsync_every=64)
        for i in range(RECENT_CALLS + 100):
            state.execute(job(i))
        # call-0 aged out of the cache: it runs again, is journaled
        # again, and moves to the newest end
        assert "deduplicated" not in state.execute(job(0))
        crash(state)

        successor = durable_worker()
        expected = [f"call-{i}" for i in range(101, RECENT_CALLS + 100)]
        expected.append("call-0")
        assert list(successor.recent) == expected
        assert list(successor.recent) == list(state.recent)

    def test_snapshot_cache_field_is_ignored(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        for i in range(4):
            state.execute(job(i))
        crash(state)
        # a snapshot written before the cache left the checkpoint
        # still carries it; the journal is the only source now
        path = str(tmp_path / "slots" / "slot-0" / SNAPSHOT_NAME)
        snap = read_snapshot_file(path)
        snap["extra"]["recent_calls"] = [["ghost", {"payload": {}}]]
        write_snapshot_file(snap, path)

        recovery = recover_slot(str(tmp_path / "slots" / "slot-0"))
        assert recovery.snapshot_source == "current"
        assert list(recovery.recent) == [f"call-{i}" for i in range(4)]


class TestCheckpointSize:
    def test_checkpoint_size_is_independent_of_history(
        self, durable_worker, tmp_path
    ):
        state = durable_worker(checkpoint_interval=64, fsync_every=64)
        path = tmp_path / "slots" / "slot-0" / SNAPSHOT_NAME
        sizes = {}
        for i in range(1, 1025):
            state.execute(job(i, call_id=f"size-{i}"))
            if i in (64, 1024):
                sizes[i] = path.stat().st_size
        extra = read_snapshot_file(str(path))["extra"]
        assert "recent_calls" not in extra
        assert extra["last_seq"] == 1024
        assert abs(sizes[1024] - sizes[64]) <= 0.01 * sizes[64], sizes


class TestVerifiedReplay:
    def build_journal(self, durable_worker, tmp_path, n=5):
        state = durable_worker(checkpoint_interval=100)
        for i in range(n):
            state.execute(job(i))
        state.journal.sync()
        return tmp_path / "slots" / "slot-0" / JOURNAL_NAME

    def test_clean_journal_verifies(self, durable_worker, tmp_path):
        journal = self.build_journal(durable_worker, tmp_path)
        report = replay_journal(str(journal), verify=True)
        assert report.verified == report.replayed == 5

    def test_tampered_payload_with_valid_crc_diverges(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)

        def lie_about_a(record):
            record["result"]["payload"]["a"] += 1

        forge(journal, 3, lie_about_a)

        report = replay_journal(str(journal))  # structurally fine
        assert report.replayed == 5
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_journal(str(journal), verify=True)
        assert excinfo.value.seq == 3
        assert excinfo.value.field == "payload"

    def test_flipped_crc_byte_raises_journal_error(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)
        data = bytearray(journal.read_bytes())
        data[len(MAGIC) + _FRAME.size + 1] ^= 0xFF
        journal.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            replay_journal(str(journal), verify=True)

    def test_truncated_record_fails_strict_verification(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)
        journal.write_bytes(journal.read_bytes()[:-4])
        report = replay_journal(str(journal), verify=True)  # tail dropped
        assert report.replayed == 4
        with pytest.raises(JournalError):
            replay_journal(str(journal), verify=True, strict=True)


class TestVerifiedReplayPastCheckpoints:
    """A live worker drops its host caches at every checkpoint, and a
    replay from seq 0 cannot see where; verification still holds on the
    architectural figures, record by record, past any checkpoint."""

    INTERVAL = 8
    CALLS = 5 * INTERVAL

    def build_slot(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=self.INTERVAL)
        for i in range(self.CALLS):
            state.execute(job(i))
        state.journal.sync()
        return tmp_path / "slots" / "slot-0"

    def test_replay_verifies_every_record(self, durable_worker, tmp_path):
        slot_dir = self.build_slot(durable_worker, tmp_path)
        report = replay_journal(str(slot_dir / JOURNAL_NAME), verify=True)
        assert report.verified == report.replayed == self.CALLS

    def test_cli_replay_verify_in_a_fresh_process(
        self, durable_worker, tmp_path
    ):
        slot_dir = self.build_slot(durable_worker, tmp_path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "replay", str(slot_dir),
             "--verify"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert f"verified {self.CALLS} outcome(s)" in done.stdout

    @pytest.mark.parametrize(
        "part, name, field",
        [
            ("payload", "cycles", "payload"),
            ("metrics", "instructions", "metrics.instructions"),
        ],
        ids=["payload", "architectural_counter"],
    )
    def test_forgery_after_a_checkpoint_is_caught(
        self, durable_worker, tmp_path, part, name, field
    ):
        def mutate(record):
            record["result"][part][name] += 1

        slot_dir = self.build_slot(durable_worker, tmp_path)
        seq = 3 * self.INTERVAL + 2  # three checkpoints in
        forge(slot_dir / JOURNAL_NAME, seq, mutate)
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_journal(str(slot_dir / JOURNAL_NAME), verify=True)
        assert excinfo.value.seq == seq
        assert excinfo.value.field == field


class TestResultVerifier:
    """The one verifier every replay and every replica runs."""

    def test_architectural_divergence_is_fatal(self):
        metrics = MetricsSnapshot.zero().as_dict()
        other = dict(metrics, cycles=7)
        with pytest.raises(ReplayDivergenceError, match="cycles"):
            check_result(
                1,
                {"payload": {}, "metrics": metrics},
                {"payload": {}, "metrics": other},
            )

    def test_host_tier_differences_are_tolerated(self):
        # the primary drops its host caches at checkpoint boundaries
        # a replayer cannot observe: PTLB/icache/trace figures
        # legitimately differ, architectural figures may not
        metrics = MetricsSnapshot.zero().as_dict()
        warm = dict(metrics, ptlb_hits=40, icache_hits=22, jit_hits=3)
        check_result(
            1,
            {"payload": {}, "metrics": metrics},
            {"payload": {}, "metrics": warm},
        )

    def test_error_and_payload_are_verbatim(self):
        with pytest.raises(ReplayDivergenceError, match="detail"):
            check_result(
                1,
                {"error": "machine_fault", "detail": "a"},
                {"error": "machine_fault", "detail": "b"},
            )
