"""Experiment J1 — fast-gate repeat calls against the 645 trap baseline.

The paper's economic argument is that a gate call into a protected
subsystem should cost little more than an ordinary procedure call *once
the hardware has seen it* — descriptor fetches and ring validation are
first-call costs, not per-call costs.  This benchmark pins the measured
form of that claim with two machines running the identical call loop:

* **fast-gate machine** — hardware rings, the trace-compile tier
  (``repro.cpu.jit``) and the fast-gate entry path both on: a repeat
  run of the same process skips re-attachment, so the SDW associative
  memory stays warm and the compiled traces survive, and the repeat
  call re-validates nothing.
* **baseline645 machine** — ``hardware_rings=False``: every ring
  crossing traps to ``repro.krnl.baseline645``'s software assist, which
  completes the crossing in (simulated) supervisor code.  This is the
  Honeywell 645 arrangement the paper's hardware proposal replaces.

Two kinds of figure come out:

* **Simulated cycles per gate call** (asserted on every host — the
  figures are architectural, hence deterministic): the fast-gate repeat
  call must undercut the 645 trap path by ``SIM_RATIO_FLOOR``, and the
  repeat call must be *cheaper than the first* by exactly the
  descriptor fetches the first call paid (``sdw_misses == 0``).
* **Host wall clock** (gated by ``REPRO_BENCH_STRICT`` like every
  wall-clock assertion in this directory): the trace tier should make
  the repeat run dramatically cheaper to *simulate* too, since the 645
  baseline burns host time interpreting its software assist.

Experiment J3 holds the paper's central claim in host time: a warm
gate call whose gate sits in ring 0 (two crossings per call/return
pair) must cost the host about what the same call with the gate in the
caller's ring does.  The ratio is gated in ``baseline_jit.json``.
"""

from __future__ import annotations

import os
import time

from conftest import build_call_loop_machine
from repro.serve.workers import GateCallEngine

#: call/return pairs per run (matches bench_host_throughput's COUNT)
COUNT = 300

#: warm runs before measuring: run 1 attaches + compiles the loop body,
#: runs 2-3 let the entry/exit stubs cross the hot threshold, so the
#: measured repeat run executes ~entirely inside compiled traces
WARM_RUNS = 3

#: timing repetitions; the best run is reported to shed scheduler noise
REPS = 5

#: host-dependent wall-clock assertions are skipped when this is "0"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: simulated cycles per gate call, 645 trap baseline vs. fast-gate
#: repeat — measured ~28.5x; the floor leaves room for cost-model
#: tweaks without letting the trap path quietly become competitive
SIM_RATIO_FLOOR = 15.0

#: host time per run, 645 baseline vs. fast-gate repeat (measured ~85x
#: on a quiet host; the floor is deliberately loose for noisy CI)
HOST_RATIO_TARGET = 10.0


def _build_fast_gate():
    return build_call_loop_machine(
        target_ring=0, count=COUNT, jit_tier_enabled=True, fast_gate=True
    )


def _build_baseline645():
    return build_call_loop_machine(
        hardware_rings=False, target_ring=0, count=COUNT
    )


def test_j1_repeat_call_vs_baseline645(benchmark):
    """Warm repeat gate calls vs. the 645 software-ring trap machine."""
    machine, process = _build_fast_gate()
    first = machine.run(process, "caller$main", ring=4)
    assert first.halted
    for _ in range(WARM_RUNS - 1):
        machine.run(process, "caller$main", ring=4)

    b645, p645 = _build_baseline645()
    base = b645.run(p645, "caller$main", ring=4)  # warmup (host caches)
    assert base.halted

    repeat = machine.run(process, "caller$main", ring=4)
    assert repeat.halted
    assert (repeat.a, repeat.ring) == (first.a, first.ring)
    assert repeat.instructions == first.instructions

    # The repeat call pays zero descriptor fetches: the fast-gate entry
    # path kept the SDW associative memory warm across runs, so the
    # repeat run is cheaper than the first by exactly those fetches.
    assert repeat.metrics.sdw_misses == 0
    assert repeat.cycles < first.cycles

    # Architectural, therefore deterministic: assert on every host.
    repeat_cpc = repeat.cycles / COUNT
    base_cpc = base.cycles / COUNT
    sim_ratio = base_cpc / repeat_cpc
    assert sim_ratio >= SIM_RATIO_FLOOR, (
        f"645 trap path costs only {sim_ratio:.1f}x a fast-gate repeat "
        f"call ({base_cpc:.1f} vs {repeat_cpc:.1f} cycles/call); "
        f"expected >= {SIM_RATIO_FLOOR}x"
    )

    # Host wall clock, interleaved best-of-REPS (same reasoning as
    # bench_host_throughput: noise should land on both machines alike).
    best_fast = best_base = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        r = machine.run(process, "caller$main", ring=4)
        best_fast = min(best_fast, time.perf_counter() - start)
        assert r.halted
        start = time.perf_counter()
        s = b645.run(p645, "caller$main", ring=4)
        best_base = min(best_base, time.perf_counter() - start)
        assert s.halted
    host_ratio = best_base / best_fast

    benchmark.extra_info["gate_calls_per_run"] = COUNT
    benchmark.extra_info["repeat_cycles_per_call"] = round(repeat_cpc, 2)
    benchmark.extra_info["baseline645_cycles_per_call"] = round(base_cpc, 2)
    benchmark.extra_info["sim_cycle_ratio_vs_baseline645"] = round(
        sim_ratio, 2
    )
    benchmark.extra_info["first_call_extra_cycles"] = (
        first.cycles - repeat.cycles
    )
    benchmark.extra_info["host_time_ratio_vs_baseline645"] = round(
        host_ratio, 1
    )

    if STRICT:
        assert host_ratio >= HOST_RATIO_TARGET, (
            f"fast-gate repeat run only {host_ratio:.1f}x faster (host "
            f"time) than the 645 baseline; expected >= "
            f"{HOST_RATIO_TARGET}x"
        )

    result = benchmark(lambda: machine.run(process, "caller$main", ring=4))
    assert result.halted


def test_j1_traces_survive_fast_gate_repeats(benchmark):
    """Repeat calls re-enter surviving traces; nothing recompiles."""
    machine, process = _build_fast_gate()
    for _ in range(WARM_RUNS):
        machine.run(process, "caller$main", ring=4)

    jit = machine.processor.jit_cache
    reference = None
    for _ in range(3):
        result = machine.run(process, "caller$main", ring=4)
        assert result.halted
        stats = jit.stats()  # per-run: machine.run resets the counters
        # steady state: no compilation, no misses, no invalidations —
        # the run enters the surviving traces and stays there
        assert stats["compiled"] == 0
        assert stats["misses"] == 0
        assert stats["invalidations"] == 0
        assert stats["hits"] >= 1
        # ~the whole run retires inside compiled traces
        assert stats["jit_instructions"] >= 0.9 * result.instructions
        figures = (
            result.a,
            result.ring,
            result.cycles,
            result.instructions,
            result.metrics.architectural(),
        )
        if reference is None:
            reference = figures
        else:
            assert figures == reference  # repeat calls repeat exactly

    benchmark.extra_info["trace_entries"] = jit.stats()["entries"]
    benchmark.extra_info["trace_coverage"] = round(
        jit.stats()["jit_instructions"] / reference[3], 3
    )
    result = benchmark(lambda: machine.run(process, "caller$main", ring=4))
    assert result.halted


#: call/return pairs per J3 call (the e2e ``crossing_loop`` payload)
CROSSING_COUNT = 4096

#: J3 timing repetitions per variant, interleaved, best kept
CROSSING_REPS = 15


def _call_loop_job(target_ring: int, call_id: str) -> dict:
    return {
        "user": "bench",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": CROSSING_COUNT, "target_ring": target_ring},
        "call_id": call_id,
    }


def test_j3_crossing_vs_same_ring_host_time(benchmark):
    """The paper's central claim in host time: a crossing call costs
    what a same-ring call costs.

    One serving engine per ``call_loop`` variant — the gate at ring 0
    (8,192 crossings per call) and at ring 4 (none) — is warmed until
    its compiled traces carry the call, then the two are timed
    interleaved, best of ``CROSSING_REPS``.  The simulated cycle ratio
    is ≈ 1.18; the host ratio is gated in ``baseline_jit.json``.
    """
    engines = {ring: GateCallEngine() for ring in (0, 4)}
    payloads = {}
    for ring, engine in engines.items():
        for i in range(WARM_RUNS + 1):
            result = engine.run_job(_call_loop_job(ring, f"warm-{i}"))
        payloads[ring] = result["payload"]
        assert payloads[ring]["halted"]
    assert payloads[0]["ring_crossings"] == 2 * CROSSING_COUNT
    assert payloads[4]["ring_crossings"] == 0
    assert payloads[0]["instructions"] == payloads[4]["instructions"]

    best = {ring: float("inf") for ring in engines}
    for i in range(CROSSING_REPS):
        for ring, engine in engines.items():
            job = _call_loop_job(ring, f"timed-{i}")
            start = time.perf_counter()
            result = engine.run_job(job)
            best[ring] = min(best[ring], time.perf_counter() - start)
            assert result["payload"] == payloads[ring]
    host_ratio = best[0] / best[4]
    sim_ratio = payloads[0]["cycles"] / payloads[4]["cycles"]

    benchmark.extra_info["crossing_call_ms"] = round(best[0] * 1e3, 3)
    benchmark.extra_info["same_ring_call_ms"] = round(best[4] * 1e3, 3)
    benchmark.extra_info["crossing_sim_ratio_vs_same_ring"] = round(
        sim_ratio, 3
    )
    benchmark.extra_info["crossing_host_ratio_vs_same_ring"] = round(
        host_ratio, 3
    )

    result = benchmark(
        lambda: engines[0].run_job(_call_loop_job(0, "benchmark"))
    )
    assert result["payload"] == payloads[0]
