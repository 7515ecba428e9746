"""Experiment S1 — the ring gateway under concurrent mixed-ring load.

Three claims to pin:

* **Exactness** (asserted on every host): with the load generator as
  the gateway's sole traffic, every request terminates explicitly
  (OK / retried-to-OK — zero drops), and the ``stats`` verb's merged
  architectural counters equal both the integer sum of the per-worker
  snapshots *and* the workload arithmetic (``2 * COUNT`` ring crossings
  per gate call) — the workers' totals held across TCP.
* **Throughput** (host-dependent, gated): on at least four host cores
  the process backend sustains >= 1000 gate calls/s aggregate with
  four persistent-machine workers.  Gated by ``REPRO_BENCH_STRICT``
  like every wall-clock assertion; the figures are recorded into
  ``benchmark.extra_info`` regardless.
* **Backpressure is explicit** (asserted on every host): under a
  deliberately tiny rate limit, rejections appear, carry
  ``retry_after``, and a client that honours them still completes
  every request.
"""

from __future__ import annotations

import asyncio
import os

from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load

WORKERS = 4

SESSIONS = 24

#: gate calls per session; SESSIONS * CALLS aggregate per burst
CALLS = 50

#: call/return pairs inside one gate call
COUNT = 4

RINGS = (4, 5)

STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: the acceptance floor: aggregate completed gate calls per second
THROUGHPUT_TARGET = 1000.0

#: best-of bursts for the throughput gate — one burst on a loaded CI
#: runner is scheduler roulette (the same reasoning as the interleaved
#: best-of-REPS timing in bench_host_throughput); exactness is asserted
#: on every burst, wall clock only on the best one
THROUGHPUT_REPS = 3


def _burst(
    backend,
    sessions=SESSIONS,
    calls=CALLS,
    program="call_loop",
    args=None,
    policy=None,
):
    """One gateway lifecycle: start, drive a burst, stats, drain."""

    async def main():
        config = GatewayConfig(
            port=0, workers=WORKERS, backend=backend
        )
        if policy is not None:
            config.default_policy = policy
        gateway = RingGateway(config)
        await gateway.start()
        try:
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=sessions,
                calls=calls,
                program=program,
                args=dict(args or {"count": COUNT}),
                rings=RINGS,
            )
        finally:
            await gateway.stop()
        return report

    return asyncio.run(main())


def test_s1_throughput_and_merge_exactness(benchmark):
    """>= 1k gate calls/s on 4 process workers; stats figures exact."""
    report = _burst("process")
    total = SESSIONS * CALLS

    # Zero dropped requests: every call terminated with an OK (possibly
    # after honoured rejections) — no timeouts, errors, or give-ups.
    assert report.ok == total
    assert report.dropped == 0
    assert report.check() == []

    stats = report.stats
    assert stats["consistent"]
    per_worker = list(stats["workers"]["per_worker"].values())
    # merged architectural counters == integer sum of per-worker
    # snapshots, counter by counter
    for counter, value in stats["architectural"].items():
        assert value == sum(
            worker["architectural"][counter] for worker in per_worker
        )
    # and both equal the workload arithmetic
    assert stats["architectural"]["calls"] == total * COUNT
    assert stats["architectural"]["returns"] == total * COUNT
    assert stats["architectural"]["ring_crossings"] == total * 2 * COUNT
    assert stats["gateway"]["completed"] == total
    assert sum(worker["calls"] for worker in per_worker) == total

    cores = os.cpu_count() or 1
    backend = stats["workers"]["backend"]
    benchmark.extra_info["host_cores"] = cores
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["gate_calls"] = total
    benchmark.extra_info["latency_p50_ms"] = round(report.percentile(0.5), 3)
    benchmark.extra_info["latency_p99_ms"] = round(report.percentile(0.99), 3)
    benchmark.extra_info["merged_ring_crossings"] = stats["architectural"][
        "ring_crossings"
    ]

    best = report.throughput
    if STRICT and cores >= WORKERS and backend == "process":
        for _ in range(THROUGHPUT_REPS - 1):
            if best >= THROUGHPUT_TARGET:
                break  # already over the floor; don't burn CI time
            retry = _burst("process")
            assert retry.ok == total
            assert retry.dropped == 0
            best = max(best, retry.throughput)
        assert best >= THROUGHPUT_TARGET, (
            f"gateway sustained {best:.0f} gate calls/s (best of "
            f"{THROUGHPUT_REPS} bursts) on {cores} cores; expected "
            f">= {THROUGHPUT_TARGET:.0f}"
        )
    benchmark.extra_info["throughput_calls_per_second"] = round(best, 1)

    # timed section: a short burst on the thread backend (cheap start-up,
    # so pytest-benchmark's rounds stay affordable)
    benchmark(lambda: _burst("thread", sessions=4, calls=5))


def test_s1_backpressure_is_explicit_and_lossless(benchmark):
    """A tiny rate limit produces rejections, never silent drops."""
    tight = RingPolicy(rate=50.0, burst=1, max_pending=4)
    report = _burst(
        "thread",
        sessions=8,
        calls=10,
        program="echo",
        args={"value": 7},
        policy=tight,
    )
    assert report.rejected > 0, "expected rate-limit rejections"
    assert report.ok == 8 * 10
    assert report.dropped == 0
    assert report.check() == []
    assert report.stats["gateway"]["rejected_rate_limited"] > 0

    benchmark.extra_info["rejections"] = report.rejected
    benchmark.extra_info["retried_to_ok"] = report.ok
    benchmark(lambda: _burst("thread", sessions=2, calls=4))
