"""Experiment S2 — session virtualization under heavy user churn.

One population of ``REPRO_S2_USERS`` distinct users (default 100 000)
is driven through a session gateway holding at most ``SLOTS`` live
machines on ``WORKERS`` process workers.  Idle tenants park to
copy-on-write delta snapshots against a shared base image and hydrate
back on demand, so the serving set is bounded while the user set is
not.  Three claims to pin:

* **Exactness** (asserted on every host): zero drops across every
  phase; the gateway's merged architectural counters equal the
  client-side sum of per-call metrics *and* the closed-form workload
  arithmetic ``cold_calls * M_cold + warm_calls * M_warm``, where
  ``M_cold``/``M_warm`` are the cold-attach and warm-repeat metric
  vectors measured once on a reference engine.  A parked-and-hydrated
  machine is architecturally indistinguishable from one that never
  left memory — that identity is what makes the arithmetic close.
* **Parking is cheap** (asserted on every host): the mean parked
  delta is under 10% of a full machine snapshot
  (``park_delta_size_ratio``, gated via ``baseline_sessions.json``).
* **Hydration is bounded** (host-dependent, gated by
  ``REPRO_BENCH_STRICT``): the p99 latency of a deliberate
  hydrate-miss phase is at most 25x the median of 256 warm repeat
  calls (``hydrate_p99_vs_warm``).
"""

from __future__ import annotations

import asyncio
import os

from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import percentile, run_load
from repro.serve.sessions import TENANT_MEMORY_WORDS
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot

STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: distinct users pushed through the bounded live set
USERS = int(os.environ.get("REPRO_S2_USERS", "100000"))

#: total live machine slots across all shards
SLOTS = 64

WORKERS = 4

#: call/return pairs inside one gate call
COUNT = 4

#: in-flight sessions during the churn phase — far above the live-slot
#: budget, so eviction/park runs continuously
CHURN_CONCURRENCY = 256

#: long-parked users re-called to measure the hydrate-miss path; driven
#: at one in-flight call per worker so the figure is hydration cost,
#: not queueing
HYDRATE_SAMPLE = 256

#: best-of phases for the hydrate-p99 gate, each over a disjoint slice
#: of long-parked users — one phase on a loaded CI runner is fsync and
#: scheduler roulette (same reasoning as bench_serve's THROUGHPUT_REPS;
#: exactness is asserted over every phase, wall clock on the best one)
HYDRATE_REPS = 3

WARM_SESSIONS = 8

#: calls per warm session: each session's first call is a cold create,
#: the other 32 are warm, so the ratio's denominator is the median of
#: 256 warm calls (the 24 warm calls of a 4-call phase gave a p50 that
#: swung 1.5-5.8 ms across runs of unchanged code, and the ratio with
#: it)
WARM_CALLS = 33

#: acceptance ceilings (mirrored in baseline_sessions.json)
PARK_RATIO_CEILING = 0.10
HYDRATE_P99_CEILING = 25.0


def _reference_vectors():
    """(M_cold, M_warm): per-call architectural deltas on a fresh engine.

    The first call pays the cold attach (descriptor fetches, SDW
    misses); the second repeats warm through the fast-gate path.  Every
    tenant machine in the pool is configured identically, so these two
    vectors are the whole story: any parked-and-hydrated tenant's next
    call must land exactly on one of them.
    """
    engine = GateCallEngine(
        Machine(
            services=False,
            jit_tier_enabled=True,
            fast_gate=True,
            memory_words=TENANT_MEMORY_WORDS,
        )
    )
    job = {
        "user": "ref",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": COUNT},
        "call_id": "ref-0",
    }
    cold = engine.run_job(job)["metrics"]
    warm = engine.run_job({**job, "call_id": "ref-1"})["metrics"]
    return cold, warm


def _merge(total, delta):
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def test_s2_bounded_live_set_exactness(benchmark, tmp_path):
    """100k users over 64 slots: zero drops, exact merged counters."""
    m_cold, m_warm = _reference_vectors()

    async def main():
        gateway = RingGateway(
            GatewayConfig(
                port=0,
                workers=WORKERS,
                backend="process",
                max_sessions=SLOTS,
                session_store_dir=str(tmp_path / "store"),
                # the exactness contract wants zero drops even on a
                # heavily loaded host: with CHURN_CONCURRENCY calls
                # queued over WORKERS shards, a per-call deadline sized
                # for an idle machine would convert scheduler noise
                # into timeouts
                call_timeout=60.0,
            )
        )
        await gateway.start()
        try:
            churn = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=USERS,
                calls=1,
                args={"count": COUNT},
                user_prefix="s2u",
                concurrency=CHURN_CONCURRENCY,
                fetch_stats=False,
            )
            # the first users admitted are long since parked — these
            # phases are all hydrate misses, each over a disjoint slice
            # of the population
            sample = max(WORKERS, min(HYDRATE_SAMPLE, USERS // HYDRATE_REPS))
            hydrates = []
            for rep in range(HYDRATE_REPS):
                hydrates.append(
                    await run_load(
                        "127.0.0.1",
                        gateway.port,
                        sessions=sample,
                        calls=1,
                        args={"count": COUNT},
                        user_prefix="s2u",
                        user_offset=rep * sample,
                        concurrency=WORKERS,
                        fetch_stats=False,
                    )
                )
            warm = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=WARM_SESSIONS,
                calls=WARM_CALLS,
                args={"count": COUNT},
                user_prefix="s2w",
                concurrency=WORKERS,
            )
        finally:
            await gateway.stop()
        return churn, hydrates, warm

    churn, hydrates, warm = asyncio.run(main())
    phases = (churn, *hydrates, warm)

    # -- exactness: nothing dropped, all three ledgers agree ---------------
    for phase in phases:
        assert phase.dropped == 0, (phase.check(), phase.error_details)

    stats = warm.stats
    assert stats["consistent"]
    merged = stats["architectural"]

    client_total = {}
    for phase in phases:
        _merge(client_total, phase.client_metrics)
    assert merged == client_total
    # the self-check compares client metrics against the gateway's
    # cumulative counters, so hand it the all-phase aggregate
    warm.client_metrics = client_total
    assert warm.check() == []

    cold_calls = sum(phase.cold_calls for phase in phases)
    warm_calls = sum(phase.warm_calls for phase in phases)
    assert cold_calls + warm_calls == sum(phase.ok for phase in phases)
    expected = {
        key: cold_calls * m_cold[key] + warm_calls * m_warm[key]
        for key in MetricsSnapshot.ARCHITECTURAL
    }
    assert merged == expected

    # -- the live set stayed bounded while the user set was not ------------
    sessions = stats["sessions"]
    assert sessions["live"] <= SLOTS
    assert sessions["created"] >= USERS
    assert sessions["parks"] >= USERS - SLOTS
    assert sessions["evictions"] > 0
    for hydrate in hydrates:
        assert hydrate.hydrated == hydrate.sessions

    # -- parked deltas are small -------------------------------------------
    park_ratio = sessions["park_size_ratio"]
    assert 0 < park_ratio < PARK_RATIO_CEILING

    # -- hydration cost is bounded -----------------------------------------
    hydrate_p99 = min(
        percentile(hydrate.cold_latencies_ms, 0.99) for hydrate in hydrates
    )
    warm_p50 = percentile(warm.warm_latencies_ms, 0.50)
    multiple = hydrate_p99 / warm_p50 if warm_p50 > 0 else float("inf")

    benchmark.extra_info["users"] = USERS
    benchmark.extra_info["live_slots"] = SLOTS
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["churn_throughput_calls_per_second"] = round(
        churn.throughput, 1
    )
    benchmark.extra_info["churn_p99_ms"] = round(churn.percentile(0.99), 3)
    benchmark.extra_info["hydrated"] = sessions["hydrated"]
    benchmark.extra_info["park_delta_size_ratio"] = park_ratio
    benchmark.extra_info["hydrate_p99_ms"] = round(hydrate_p99, 3)
    benchmark.extra_info["warm_p50_ms"] = round(warm_p50, 3)
    benchmark.extra_info["hydrate_p99_vs_warm"] = round(multiple, 2)

    if STRICT:
        assert multiple <= HYDRATE_P99_CEILING, (
            f"hydrate-miss p99 {hydrate_p99:.1f} ms is {multiple:.1f}x the "
            f"warm median {warm_p50:.1f} ms (ceiling {HYDRATE_P99_CEILING}x)"
        )

    benchmark(lambda: None)
