"""Experiment R1 — what replication costs, and what failover buys.

Two claims to pin:

* **Shipping overhead is bounded** (ceiling, gated by
  ``REPRO_BENCH_STRICT``): serving the same gate-call load through a
  gateway with a replica — the slot journal tailed, its framed bytes
  shipped over TCP to a ``repro standby`` process, each record parsed
  once, applied and verified on a warm replica machine, acks absorbed
  — costs at most 15% wall clock over the identical durable gateway
  with replication off.  The shipper rides the gateway's event loop
  and never parses a record, so the primary's call path should barely
  notice.
* **Hot failover beats cold restore** (ratio, gated >= 3x): promoting
  a warm follower (replay only the few records the shipping lag left
  behind, snapshot, recover the successor from that snapshot with an
  empty tail) is at least 3x faster than the cold path the previous
  PRs offered — a fresh machine replaying the slot's entire journal
  tail.  The gap widens with journal length; the gate uses a modest
  48-call tail so it holds even on slow hosts.

Exactness is asserted on every host, never gated: both recovery paths
must land on architectural counters bit-identical to the primary's.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import repro.serve.workers as workers
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.serve.workers import DurabilityConfig, GateCallEngine, _WorkerState
from repro.state.journal import read_frames
from repro.state.recover import JOURNAL_NAME, SNAPSHOT_NAME, recover_slot
from repro.state.replication import (
    JournalTailer,
    ReplicaApplier,
    decode_span,
    encode_span,
)

STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: serving-burst shape for the overhead comparison
SESSIONS = 8
CALLS = 25
COUNT = 16

#: journal length for the failover comparison, and how far behind the
#: follower is when the primary dies (a realistic ack-window of lag).
#: The hot path pays a fixed snapshot write+read+restore (~tens of ms)
#: regardless of journal length, so the tail must be long enough that
#: cold replay's linear cost dominates — the regime failover exists
#: for; at a handful of records the two paths tie and neither hurts.
TAIL_CALLS = 96
FAILOVER_COUNT = 32
SHIP_LAG = 4

#: acceptance ceiling: replicated serving over plain durable serving.
#: Only meaningful when the standby process has a core of its own —
#: a replica replays every call, so on a single shared core the wall
#: clock charges the primary for the replica's CPU, which is exactly
#: what a second core absorbs in production.  Same reasoning as the
#: core-count precondition on bench_serve's throughput floor.
OVERHEAD_CEILING = 0.15
OVERHEAD_MIN_CORES = 2

#: acceptance floor: hot promotion over cold whole-journal replay
SPEEDUP_FLOOR = 3.0

REPS = 3


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _job(i, count=COUNT):
    return {
        "user": f"bench{i % 4}",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": count},
        "call_id": f"bench-{i}",
    }


def _spawn_standby(root):
    """An external ``repro standby`` process; returns (proc, endpoint).

    The replica re-executes every shipped call, so it must live in its
    own process — exactly as in production — or the measurement would
    charge the primary for the replica's CPU.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("repro").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "standby", "--dir", str(root), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unexpected standby banner: {line!r}"
    return proc, f"{match.group(1)}:{match.group(2)}"


def _serve_burst(root, endpoint=None):
    """One gateway lifecycle; returns the loadgen's own elapsed time."""

    async def main():
        config = GatewayConfig(
            port=0,
            workers=2,
            backend="thread",
            durability_dir=str(root),
            checkpoint_interval=10_000,
            default_policy=RingPolicy(rate=None, max_pending=256),
            replica_endpoints=(endpoint,) if endpoint else (),
            ship_every=8,
            ack_window=4,
        )
        gateway = RingGateway(config)
        await gateway.start()
        try:
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=SESSIONS,
                calls=CALLS,
                args={"count": COUNT},
            )
        finally:
            await gateway.stop()
        assert report.check() == [], report.check()
        return report

    return asyncio.run(main())


def test_r1_replication_costs(benchmark, tmp_path):
    """Ship overhead <= 15%; hot failover >= 3x cold restore; exact."""

    # -- Part A: serving overhead of live shipping -------------------
    plain_s = replicated_s = float("inf")
    plain_report = replicated_report = None
    for attempt in range(REPS):
        report = _serve_burst(tmp_path / f"plain{attempt}")
        plain_s = min(plain_s, report.elapsed_seconds)
        plain_report = report
        root = tmp_path / f"repl{attempt}"
        standby, endpoint = _spawn_standby(root)
        try:
            report = _serve_burst(root, endpoint=endpoint)
        finally:
            standby.send_signal(signal.SIGTERM)
            standby.wait(timeout=30)
        replicated_s = min(replicated_s, report.elapsed_seconds)
        replicated_report = report

    # replication is invisible to the clients: the workload-arithmetic
    # counters agree across the two configurations (cache-sensitive
    # figures like sdw_hits legitimately vary with how the concurrent
    # sessions happened to interleave across the two worker machines;
    # each run's own merge consistency is already asserted by check())
    for key in ("calls", "returns", "ring_crossings", "faults"):
        assert (
            replicated_report.client_metrics[key]
            == plain_report.client_metrics[key]
        )
    overhead = replicated_s / plain_s - 1.0

    # -- Part B: failover latency, hot promotion vs cold replay ------
    durability = DurabilityConfig(
        dir=str(tmp_path / "failover"),
        slots=1,
        checkpoint_interval=10_000,
        fsync_every=8,
    )
    try:
        primary = _WorkerState(durability)
        slot_dir = primary.slot_dir
        for i in range(TAIL_CALLS):
            result = primary.execute(_job(i, count=FAILOVER_COUNT))
            assert "error" not in result, result
        primary.journal.sync()
        primary_arch = primary.engine.total.architectural()
    finally:
        workers.release_live_slots()

    # the cold path first — promotion writes a snapshot that would
    # otherwise hand it a head start
    cold_s, cold = _best_of(REPS, lambda: recover_slot(slot_dir))
    assert cold.replayed == TAIL_CALLS
    assert cold.engine.total.architectural() == primary_arch

    # the follower's view: the journal's bytes through the ship wire
    frames = decode_span(
        encode_span(JournalTailer(os.path.join(slot_dir, JOURNAL_NAME)).poll())
    )
    assert len(frames) == TAIL_CALLS
    snapshot_path = os.path.join(slot_dir, SNAPSHOT_NAME)

    hot_s = float("inf")
    hot = None
    for _ in range(REPS):
        # each attempt starts from the crash state: no promotion
        # snapshot on disk, a follower shipped to within SHIP_LAG
        # records (the warm-up is pre-crash work and stays untimed)
        for leftover in (snapshot_path, snapshot_path + ".prev"):
            if os.path.exists(leftover):
                os.remove(leftover)
        applier = ReplicaApplier(GateCallEngine())
        for frame in frames[: TAIL_CALLS - SHIP_LAG]:
            applier.apply(frame)
        started = time.perf_counter()
        report = applier.promote(slot_dir)
        hot = recover_slot(slot_dir)
        hot_s = min(hot_s, time.perf_counter() - started)
        assert report["replayed_tail"] == SHIP_LAG
    assert hot.replayed == 0
    assert hot.engine.calls == TAIL_CALLS
    assert hot.engine.total.architectural() == primary_arch

    speedup = cold_s / hot_s

    benchmark.extra_info["plain_serve_ms"] = round(plain_s * 1e3, 1)
    benchmark.extra_info["replicated_serve_ms"] = round(
        replicated_s * 1e3, 1
    )
    benchmark.extra_info["ship_overhead_frac"] = round(max(0.0, overhead), 4)
    benchmark.extra_info["cold_restore_ms"] = round(cold_s * 1e3, 2)
    benchmark.extra_info["hot_failover_ms"] = round(hot_s * 1e3, 2)
    benchmark.extra_info["failover_speedup_vs_cold"] = round(speedup, 2)
    benchmark.extra_info["tail_calls"] = TAIL_CALLS
    benchmark.extra_info["ship_lag"] = SHIP_LAG
    benchmark.extra_info["host_cores"] = os.cpu_count() or 1

    if STRICT and (os.cpu_count() or 1) >= OVERHEAD_MIN_CORES:
        assert overhead <= OVERHEAD_CEILING, (
            f"replication shipping overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_CEILING:.0%}"
        )
    if STRICT:
        assert speedup >= SPEEDUP_FLOOR, (
            f"hot failover only {speedup:.1f}x faster than cold "
            f"restore (floor {SPEEDUP_FLOOR:.1f}x)"
        )

    journal_path = os.path.join(slot_dir, JOURNAL_NAME)
    benchmark(lambda: read_frames(journal_path)[:8])
