"""Experiment D1 — what durability costs.

Two claims to pin:

* **Checkpoint latency is bounded** (recorded always, gated by
  ``REPRO_BENCH_STRICT``): serialising, writing, reading, and restoring
  a full machine snapshot each complete in well under a second on any
  reasonable host — cheap enough for the workers' every-N-calls
  checkpoint cadence.
* **Journal overhead is small** (gated): running the same gate-call
  workload through a durable worker with the write-ahead journal on
  (batched fsync, checkpoints off) costs at most 15% wall-clock over
  the plain (non-durable) worker path.  The results themselves must be identical —
  durability is architecturally invisible — and the journal must
  replay verified, both asserted on every host.  The periodic
  checkpoint is a separate, tunable cost: its per-checkpoint latency
  and its amortised overhead at the production cadence are recorded
  alongside, ungated (they scale with the interval, not the calls).
* **Checkpoint size is independent of history** (D4, gated on every
  host): a worker's checkpoint holds the machine image and its
  bookkeeping, not the served calls — the duplicate-suppression cache
  is rebuilt from the journal on recovery — so the file written after
  1,024 served calls is within 1% of the one written after 64.  Bytes
  are host-independent, so the gate holds under ``REPRO_BENCH_STRICT=0``
  too; the checkpoint latency at both points is recorded alongside.
"""

from __future__ import annotations

import os
import time

from conftest import build_call_loop_machine

import repro.serve.workers as workers
from repro.serve.workers import DurabilityConfig, GateCallEngine, _WorkerState
from repro.state.recover import JOURNAL_NAME, SNAPSHOT_NAME, replay_journal
from repro.state.snapshot import (
    read_snapshot_file,
    restore_machine,
    snapshot_digest,
    snapshot_machine,
    write_snapshot_file,
)

STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: gate calls driven through each engine in the overhead comparison
CALLS = 150

#: call/return pairs per gate call — a serving-representative burst
#: (fsync cost is per journal batch, so it amortises over the calls a
#: batch covers; a trivially small call would measure the host's fsync
#: latency, not the journal's design)
COUNT = 64

#: acceptance ceiling for write-ahead-journal overhead on the call loop
OVERHEAD_CEILING = 0.15

#: D4: served calls at the two checkpoints compared, and the ceiling on
#: the ratio of their file sizes
SIZE_POINTS = (64, 1024)
SIZE_RATIO_CEILING = 1.01


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _job(i):
    return {
        "user": f"bench{i % 4}",
        "ring": 4 + i % 2,
        "program": "call_loop",
        "args": {"count": COUNT},
        "call_id": f"bench-{i}",
    }


def test_d1_snapshot_restore_latency(benchmark, tmp_path):
    """Snapshot, write, read, restore — each well under a second."""
    machine, process = build_call_loop_machine(count=64)
    machine.start(process, "caller$main", 4)
    machine.processor.run(max_steps=100_000)
    path = str(tmp_path / "machine.snap")

    snapshot_s, snap = _best_of(3, lambda: snapshot_machine(machine))
    write_s, _ = _best_of(3, lambda: write_snapshot_file(snap, path))
    read_s, loaded = _best_of(3, lambda: read_snapshot_file(path))
    restore_s, restored = _best_of(3, lambda: restore_machine(loaded))

    # the round trip is lossless: re-snapshotting the restored machine
    # reproduces the digest bit for bit
    assert snapshot_digest(snapshot_machine(restored)) == snapshot_digest(
        snap
    )

    benchmark.extra_info["snapshot_ms"] = round(snapshot_s * 1e3, 3)
    benchmark.extra_info["write_ms"] = round(write_s * 1e3, 3)
    benchmark.extra_info["read_ms"] = round(read_s * 1e3, 3)
    benchmark.extra_info["restore_ms"] = round(restore_s * 1e3, 3)
    benchmark.extra_info["snapshot_bytes"] = os.path.getsize(path)

    if STRICT:
        for label, seconds in (
            ("snapshot", snapshot_s),
            ("write", write_s),
            ("read", read_s),
            ("restore", restore_s),
        ):
            assert seconds < 1.0, f"{label} took {seconds:.3f}s"

    benchmark(lambda: restore_machine(snapshot_machine(machine)))


def test_d2_journal_overhead_within_budget(benchmark, tmp_path):
    """WAL-on worker <= 15% over the plain worker; results identical."""

    def plain_run():
        state = _WorkerState()
        try:
            return [state.execute(_job(i)) for i in range(CALLS)]
        finally:
            workers.release_live_slots()

    def durable_run(root, checkpoint_interval):
        durability = DurabilityConfig(
            dir=str(root),
            slots=1,
            checkpoint_interval=checkpoint_interval,
            fsync_every=32,
        )
        try:
            state = _WorkerState(durability)
            results = [state.execute(_job(i)) for i in range(CALLS)]
            state.journal.sync()
            return state.slot_dir, results
        finally:
            workers.release_live_slots()

    def timed_durable(label, checkpoint_interval):
        best = float("inf")
        slot_dir = results = None
        for attempt in range(3):
            root = tmp_path / f"{label}{attempt}"
            started = time.perf_counter()
            slot_dir, results = durable_run(root, checkpoint_interval)
            best = min(best, time.perf_counter() - started)
        return best, slot_dir, results

    plain_s, plain_results = _best_of(3, plain_run)
    # journal only: the checkpoint interval never fires mid-run
    journal_s, slot_dir, durable_results = timed_durable(
        "journal", CALLS + 1
    )
    # production cadence: checkpoints every 64 calls ride along
    cadence_s, _, _ = timed_durable("cadence", 64)

    # durability is invisible in the results the caller sees
    core = lambda rs: [{"payload": r["payload"], "metrics": r["metrics"]} for r in rs]
    assert core(durable_results) == core(plain_results)

    # and the journal it left behind replays verified, end to end
    report = replay_journal(
        os.path.join(slot_dir, JOURNAL_NAME), verify=True
    )
    assert report.verified == CALLS

    overhead = journal_s / plain_s - 1.0
    checkpoints = CALLS // 64
    benchmark.extra_info["calls"] = CALLS
    benchmark.extra_info["plain_ms"] = round(plain_s * 1e3, 1)
    benchmark.extra_info["journal_ms"] = round(journal_s * 1e3, 1)
    benchmark.extra_info["journal_overhead_pct"] = round(overhead * 100, 2)
    benchmark.extra_info["checkpoint_ms"] = round(
        max(0.0, cadence_s - journal_s) / max(1, checkpoints) * 1e3, 2
    )
    benchmark.extra_info["cadence64_overhead_pct"] = round(
        (cadence_s / plain_s - 1.0) * 100, 2
    )

    if STRICT:
        assert overhead <= OVERHEAD_CEILING, (
            f"write-ahead journal overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_CEILING:.0%}"
        )

    benchmark(lambda: GateCallEngine().run_job(_job(0)))


def test_d3_snapshot_compression_tradeoff(benchmark, tmp_path):
    """zlib-compressed snapshots: smaller on disk, same machine back.

    Records the size/latency tradeoff of ``write_snapshot_file(...,
    compress=True)`` so the parking store's default (compress on) is a
    measured choice, not folklore.  Asserted on every host: the
    compressed file is strictly smaller, and restoring it reproduces
    the uncompressed snapshot's digest bit for bit (the checksum covers
    the uncompressed bytes, so corruption is still caught after
    inflation).
    """
    machine, process = build_call_loop_machine(count=64)
    machine.start(process, "caller$main", 4)
    machine.processor.run(max_steps=100_000)
    snap = snapshot_machine(machine)
    plain_path = str(tmp_path / "plain.snap")
    packed_path = str(tmp_path / "packed.snap")

    write_plain_s, _ = _best_of(3, lambda: write_snapshot_file(snap, plain_path))
    write_packed_s, _ = _best_of(
        3, lambda: write_snapshot_file(snap, packed_path, compress=True)
    )
    read_plain_s, _ = _best_of(3, lambda: read_snapshot_file(plain_path))
    read_packed_s, loaded = _best_of(3, lambda: read_snapshot_file(packed_path))

    assert snapshot_digest(loaded) == snapshot_digest(snap)
    assert snapshot_digest(snapshot_machine(restore_machine(loaded))) == (
        snapshot_digest(snap)
    )

    plain_bytes = os.path.getsize(plain_path)
    packed_bytes = os.path.getsize(packed_path)
    assert packed_bytes < plain_bytes

    benchmark.extra_info["plain_bytes"] = plain_bytes
    benchmark.extra_info["packed_bytes"] = packed_bytes
    benchmark.extra_info["compression_ratio"] = round(
        packed_bytes / plain_bytes, 4
    )
    benchmark.extra_info["write_plain_ms"] = round(write_plain_s * 1e3, 3)
    benchmark.extra_info["write_packed_ms"] = round(write_packed_s * 1e3, 3)
    benchmark.extra_info["read_plain_ms"] = round(read_plain_s * 1e3, 3)
    benchmark.extra_info["read_packed_ms"] = round(read_packed_s * 1e3, 3)

    benchmark(lambda: write_snapshot_file(snap, packed_path, compress=True))


def test_d4_checkpoint_size_is_constant(benchmark, tmp_path):
    """Checkpoint bytes after 1,024 served calls <= 1.01x those after 64."""
    durability = DurabilityConfig(
        dir=str(tmp_path), slots=1, checkpoint_interval=64, fsync_every=32
    )
    try:
        state = _WorkerState(durability)
        path = os.path.join(state.slot_dir, SNAPSHOT_NAME)
        sizes = {}
        latencies = {}
        for i in range(1, SIZE_POINTS[-1] + 1):
            state.execute(_job(i))
            if i in SIZE_POINTS:
                # the i-th call just checkpointed; time the same work
                latencies[i], _ = _best_of(3, state._checkpoint)
                sizes[i] = os.path.getsize(path)
        assert "recent_calls" not in read_snapshot_file(path)["extra"]
    finally:
        workers.release_live_slots()

    first, last = SIZE_POINTS
    ratio = sizes[last] / sizes[first]
    for calls in SIZE_POINTS:
        benchmark.extra_info[f"checkpoint_bytes_{calls}"] = sizes[calls]
        benchmark.extra_info[f"checkpoint_ms_{calls}"] = round(
            latencies[calls] * 1e3, 3
        )
    benchmark.extra_info["size_ratio"] = round(ratio, 4)
    assert ratio <= SIZE_RATIO_CEILING, (
        f"checkpoint grew {ratio:.3f}x from {first} to {last} served calls "
        f"({sizes[first]} -> {sizes[last]} bytes)"
    )

    benchmark(lambda: snapshot_machine(state.engine.machine))
