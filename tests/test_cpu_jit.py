"""The trace-compile tier: engagement, coherence edges, and exactness.

The jit tier (`repro.cpu.jit`) compiles hot interpreted paths into
specialized Python closures with batched counter accounting.  Like the
fast path below it, it may never change what the simulated machine
*does*.  These tests pin where trace heads are counted, the coherence
edges — a self-modifying write landing inside a compiled trace, SDW
eviction under associative-memory churn, timer/event expiry at exact
counts and around a trace-iteration boundary, a fault right after a
trace exits — plus run composition, snapshot/restore parity with the
tier enabled, the fast-gate entry path, the folded Figure 9 PR sweep,
and the ``REPRO_JIT_PARITY`` co-execution backstop.  Every exactness
test runs the interpreter, the fast path and the trace tier side by
side.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from tests.test_cpu_access_cache import build_call_loop
from repro.cpu.faults import Fault, FaultCode
from repro.cpu.isa import Op
from repro.cpu.jit import HOT_THRESHOLD, MAX_TRACE_LEN, TraceCache
from repro.cpu.registers import RegisterFile
from repro.serve.sessions import TENANT_MACHINE
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.snapshot import restore_machine, snapshot_machine

#: Enough call-loop iterations that the loop head gets hot and the
#: compiled trace then carries the bulk of the run.
HOT_COUNT = 2000

#: Processor knobs of the three host tiers, keyed by report name.
PROC_TIERS = {
    "interp": {"fast_path": False},
    "fast": {},
    "trace": {"jit_tier": True},
}


def figures(result):
    """Everything that must be identical across the host tiers."""
    return (
        result.a,
        result.q,
        result.ring,
        result.halted,
        result.metrics.architectural(),
    )


def run_call_loop(count=HOT_COUNT, **machine_kwargs):
    machine, process = build_call_loop(count=count, **machine_kwargs)
    result = machine.run(process, "caller$main", ring=4)
    return machine, result


ALL_TIERS = [
    {"jit_tier_enabled": True},
    {},
    {"fast_path_enabled": False},
]


class TestEngagement:
    def test_call_loop_compiles_and_carries_the_run(self):
        machine, result = run_call_loop(jit_tier_enabled=True)
        assert result.halted
        stats = machine.processor.jit_cache.stats()
        assert stats["compiled"] >= 1
        assert stats["hits"] >= 1
        # The trace executed the bulk of the workload, not a sliver.
        assert stats["jit_instructions"] > result.instructions // 2

    def test_jit_requires_fast_path(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_call_loop(fast_path_enabled=False, jit_tier_enabled=True)

    def test_disabled_by_default(self, monkeypatch):
        # The parity backstop turns the tier on wherever the fast path
        # runs; this test is about the default without it.
        monkeypatch.delenv("REPRO_JIT_PARITY", raising=False)
        machine, result = run_call_loop(count=64)
        assert machine.processor.jit_cache.stats() == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "compiled": 0,
            "adopted": 0,
            "jit_instructions": 0,
            "entries": 0,
        }


class TestTraceHeads:
    """Heads are counted at run entry, loop heads and trace exits only."""

    @staticmethod
    def call_loop_job(count):
        return {
            "user": "u",
            "ring": 4,
            "program": "call_loop",
            "args": {"count": count, "target_ring": 0},
        }

    def test_fresh_tenant_compiles_one_trace_in_four_calls(self):
        # Counting every interpreted address as a head records a second
        # trace (the path from the entry) within these four calls.
        engine = GateCallEngine(Machine(TENANT_MACHINE))
        jit = engine.machine.processor.jit_cache
        compiled = 0
        for _ in range(4):
            result = engine.run_job(self.call_loop_job(4))
            compiled += jit.compiled  # per call: each run resets it
        assert compiled == 1
        fourth = result["metrics"]
        assert fourth["instructions"] == 22
        assert fourth["jit_instructions"] > fourth["instructions"] // 2

    def test_long_call_loop_goes_cyclic_in_its_first_call(self):
        engine = GateCallEngine(Machine(TENANT_MACHINE))
        result = engine.run_job(self.call_loop_job(4096))
        metrics = result["metrics"]
        traces = engine.machine.processor.jit_cache._traces.values()
        assert any(trace.cyclic for trace in traces)
        assert metrics["jit_instructions"] > 0.99 * metrics["instructions"]

    def test_reattached_short_loop_is_not_compiled(self):
        # Two users in turn: every call re-attaches, which flushes every
        # trace, so a 15-iteration loop would compile on every call.
        engine = GateCallEngine(Machine(TENANT_MACHINE))
        jit = engine.machine.processor.jit_cache
        for i in range(2 * HOT_THRESHOLD):
            job = dict(self.call_loop_job(16), user=f"u{i % 2}")
            assert "error" not in engine.run_job(job)
            assert jit.compiled == 0

    def test_loop_exit_is_not_a_head(self):
        # call_loop's loop ends in ``tnz loop; halt``: recording where
        # the loop trace exits could only ever capture one instruction.
        engine = GateCallEngine(Machine(TENANT_MACHINE))
        for _ in range(2 * HOT_THRESHOLD):
            engine.run_job(self.call_loop_job(4))
        jit = engine.machine.processor.jit_cache
        (trace,) = jit._traces.values()
        assert trace.cyclic
        assert trace.closing is not None
        assert trace.closing not in jit._hot

    def test_recording_stops_at_an_installed_head(self):
        machine, process = build_call_loop(
            count=4, jit_tier_enabled=True, fast_gate=True
        )
        for _ in range(HOT_THRESHOLD + 2):
            machine.run(process, "caller$main", ring=4)
        traces = machine.processor.jit_cache._traces
        # The loop head's cyclic trace is the only one: the path from
        # the entry reaches it after one instruction, too short to
        # compile on its own.
        assert [trace.cyclic for trace in traces.values()] == [True]


class TestNeutrality:
    """Architectural figures are bit-identical across all three tiers."""

    WORKLOADS = [
        {},
        {"paged": True},
        {"hardware_rings": False},
        {"sdw_cache_enabled": False},
        {"stack_rule": "simple"},
        {"lazy_linking": True},
    ]

    @pytest.mark.parametrize(
        "kwargs", WORKLOADS, ids=lambda kw: ",".join(kw) or "default"
    )
    def test_call_loop_neutral(self, kwargs):
        results = []
        for tier in ALL_TIERS:
            machine, result = run_call_loop(**tier, **kwargs)
            assert result.halted
            results.append(figures(result))
            if tier.get("jit_tier_enabled") and not kwargs:
                assert machine.processor.jit_cache.stats()["hits"] > 0
        assert all(r == results[0] for r in results[1:])

    @pytest.mark.parametrize("count", [1, 2, 3, 100, HOT_COUNT])
    def test_every_count_matches_fast_path(self, count):
        jit = run_call_loop(count=count, jit_tier_enabled=True)[1]
        fast = run_call_loop(count=count)[1]
        assert figures(jit) == figures(fast)


class TestSelfModifyingCode:
    """A store landing inside an already-compiled trace."""

    def smc_loop(self, count):
        """Every iteration rewrites word 4 — which sits inside the
        loop body the trace compiles — with the SBA already there, so
        the *figures* never change but the coherence machinery fires
        on every pass: each compiled execution must stop right after
        its own invalidating store."""
        return [
            asm_inst(Op.LDA, offset=count, immediate=True),
            asm_inst(Op.LDQ, offset=7),  # loop: load the patch word
            asm_inst(Op.STQ, offset=4),  # rewrite word 4, mid-trace
            asm_inst(Op.NOP),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the target
            asm_inst(Op.TNZ, offset=1),
            halt_word(),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the patch
        ]

    def run_smc(self, count=400, words=None, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        # r1=4: ring 4 may execute (bracket [4, 7]) and write the segment.
        bm.add_segment(8, words=words or self.smc_loop(count), r1=4)
        bm.start(8, 0, ring=4)
        bm.run(max_steps=20000)
        assert bm.proc.halted
        return bm

    def observed(self, bm):
        return (
            bm.regs.a,
            bm.regs.q,
            bm.proc.stats.instructions,
            bm.proc.stats.faults,
            bm.proc.cycles,
            bm.proc.memory.reads,
            bm.proc.memory.writes,
            bm.proc.sdw_cache.hits,
            bm.proc.sdw_cache.misses,
        )

    def test_store_inside_trace_invalidates_and_figures_match(self):
        tiers = {
            name: self.run_smc(**knobs) for name, knobs in PROC_TIERS.items()
        }
        stats = tiers["trace"].proc.jit_cache.stats()
        assert stats["compiled"] >= 1
        assert stats["invalidations"] >= 1  # its own store tore it down
        for name, bm in tiers.items():
            assert self.observed(bm) == self.observed(tiers["trace"]), name

    def test_patch_takes_effect_next_pass(self):
        """A genuinely mutating patch (NOP -> SBA) halves the
        iterations from the second pass; all tiers agree."""
        words = self.smc_loop(400)
        words[4] = asm_inst(Op.NOP)  # starts as NOP, becomes SBA
        observed = {
            name: self.observed(self.run_smc(words=words, **knobs))
            for name, knobs in PROC_TIERS.items()
        }
        assert observed["trace"] == observed["fast"] == observed["interp"]


class TestSdwEviction:
    """Associative-memory churn drops traces for the evicted segment."""

    @pytest.mark.parametrize("slots", [2, 4])
    def test_two_slot_cache_churn_matches_fast_path(self, slots):
        jit = run_call_loop(
            sdw_cache_slots=slots, jit_tier_enabled=True
        )[1]
        fast = run_call_loop(sdw_cache_slots=slots)[1]
        assert figures(jit) == figures(fast)


class TestFaultParity:
    """A fault right where a hot trace exits attributes identically."""

    def run_until_fault(self, **proc_kwargs):
        """A hot loop whose indexed LDQ walks past the segment bound."""
        bm = BareMachine(**proc_kwargs)
        words = [
            asm_inst(Op.LDA, offset=0, immediate=True),
            asm_inst(Op.ADA, offset=1, immediate=True),  # loop: A += 1
            asm_inst(Op.LDQ, offset=2, indexed=True),  # Q := word[2 + A]
            asm_inst(Op.TRA, offset=1),
        ]
        bm.add_segment(8, words=words, size=40, r1=4)
        bm.start(8, 0, ring=4)
        with pytest.raises(Fault) as excinfo:
            bm.run(max_steps=5000)
        return bm, excinfo.value

    def test_out_of_bounds_fault_parity(self):
        observed = {}
        for name, knobs in PROC_TIERS.items():
            bm, fault = self.run_until_fault(**knobs)
            observed[name] = (
                fault.code,
                fault.at_segno,
                fault.at_wordno,
                fault.cur_ring,
                bm.proc.cycles,
                bm.proc.stats.instructions,
                bm.regs.a,
                bm.regs.ipr.wordno,
                bm.memory.reads,
            )
            if name == "trace":
                assert bm.proc.jit_cache.stats()["hits"] > 0
        assert observed["trace"] == observed["fast"] == observed["interp"]
        assert observed["trace"][0] is FaultCode.ACV_OUT_OF_BOUNDS


class TestTimerAndEventBoundaries:
    """Expiry at exact counts and around a trace-iteration boundary."""

    def spin_program(self):
        return [
            asm_inst(Op.LDA, offset=0, immediate=True),
            asm_inst(Op.ADA, offset=1, immediate=True),  # loop
            asm_inst(Op.NOP),
            asm_inst(Op.NOP),
            asm_inst(Op.TRA, offset=1),
        ]

    def outcome(self, bm):
        return (
            bm.proc.stats.instructions,
            bm.proc.cycles,
            bm.regs.a,
            bm.regs.ipr.wordno,
        )

    #: The spin loop's head (word 1) is entered by a backward TRA once
    #: per 4-instruction iteration; it turns hot on the HOT_THRESHOLD-th,
    #: and the recording covers one more iteration, so the compiled
    #: trace is installed once ENGAGE instructions have retired.
    ENGAGE = 1 + 4 * (HOT_THRESHOLD + 1)

    # Early counts (interpreted and recorded instructions), the edge
    # where the trace is installed, and each landing offset within an
    # iteration well past it.
    TICKS = [
        1, 2, 7,
        ENGAGE - 1, ENGAGE, ENGAGE + 1,
        50, 51, 52, 53,
        2000, 2001, 2002, 2003,
    ]

    def tier_outcomes(self, arm, expect, budget=20000):
        """Spin on every tier until ``expect`` is raised; the outcome
        must be identical on all three."""
        outcomes = {}
        for name, knobs in PROC_TIERS.items():
            bm = BareMachine(**knobs)
            bm.add_segment(8, words=self.spin_program(), r1=4)
            bm.start(8, 0, ring=4)
            arm(bm.proc)
            with pytest.raises(expect) as excinfo:
                bm.run(max_steps=budget)
            code = getattr(excinfo.value, "code", None)
            outcomes[name] = (code, self.outcome(bm))
        assert outcomes["trace"] == outcomes["fast"] == outcomes["interp"]
        return outcomes["trace"]

    @pytest.mark.parametrize("ticks", TICKS)
    def test_timer_expiry_identical_across_tiers(self, ticks):
        code, outcome = self.tier_outcomes(
            lambda proc: proc.set_timer(ticks), Fault
        )
        assert code is FaultCode.TIMER
        assert outcome[0] == ticks  # exactly `ticks` instructions retired

    @pytest.mark.parametrize(
        "after", [1, 3, 49, 50, 51, 2000, 2001, 2002, 2003]
    )
    def test_event_expiry_identical_across_tiers(self, after):
        code, outcome = self.tier_outcomes(
            lambda proc: proc.schedule_event(
                after, FaultCode.IO_COMPLETION, "tick"
            ),
            Fault,
        )
        assert code is FaultCode.IO_COMPLETION
        assert outcome[0] == after

    @pytest.mark.parametrize("budget", [2000, 2001, 2002, 2003])
    def test_budget_runout_mid_trace_identical(self, budget):
        from repro.errors import ConfigurationError

        # the spin loop never halts
        _, outcome = self.tier_outcomes(
            lambda proc: None, ConfigurationError, budget=budget
        )
        assert outcome[0] == budget


@pytest.mark.parametrize(
    "knobs", ALL_TIERS, ids=["trace", "fast", "interp"]
)
class TestRunComposition:
    """``Machine.run(reset_counters=False)`` composes across runs."""

    def test_consecutive_runs_accumulate_and_attribute(self, knobs):
        machine, process = build_call_loop(count=8, **knobs)
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(
            process, "caller$main", ring=4, reset_counters=False
        )
        # Cumulative counters kept growing...
        assert second.instructions == 2 * first.instructions
        assert second.cycles == 2 * first.cycles
        assert second.metrics.instructions == 2 * first.instructions
        # ...while the per-run delta attributes this run alone.
        assert second.run_metrics.instructions == first.instructions
        assert second.run_metrics.cycles == first.cycles
        # Architectural counters compose exactly; host-tier diagnostics
        # may also move during inter-run setup (trace invalidations
        # from reloading the stack), so they are excluded.
        assert (
            second.metrics.architectural()
            == first.metrics.plus(second.run_metrics).architectural()
        )

    def test_reset_counters_default_still_isolates(self, knobs):
        machine, process = build_call_loop(count=8, **knobs)
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(process, "caller$main", ring=4)
        assert second.instructions == first.instructions
        assert second.run_metrics == second.metrics


def test_snapshot_arithmetic():
    zero = MetricsSnapshot.zero()
    assert zero.plus(zero) == zero
    machine, process = build_call_loop(count=4)
    result = machine.run(process, "caller$main", ring=4)
    snap = result.metrics
    assert snap.minus(snap) == zero
    assert MetricsSnapshot.sum_of([snap, snap]) == snap.plus(snap)
    assert snap.minus(zero) == snap


class TestSnapshotRestore:
    """Snapshots round-trip jit machines: caches drop, then rewarm."""

    def test_roundtrip_preserves_figures_and_config(self):
        machine, first = run_call_loop(
            jit_tier_enabled=True, fast_gate=True
        )
        assert machine.processor.jit_cache.stats()["entries"] > 0
        snap = snapshot_machine(machine)
        assert snap["config"]["jit_tier_enabled"] is True
        assert snap["config"]["fast_gate"] is True
        restored = restore_machine(snap)
        proc = restored.processor
        assert proc.jit_cache.enabled
        assert restored.fast_gate
        # Counters round-trip; trace contents do not (cold caches).
        assert proc.jit_cache.stats()["entries"] == 0
        assert proc.jit_cache.hits == machine.processor.jit_cache.hits
        assert (
            proc.jit_cache.instructions
            == machine.processor.jit_cache.instructions
        )

    def test_checkpoint_discipline_keeps_full_metrics_identical(self):
        """Dropping host caches at the checkpoint (what the serve
        workers do) makes a continued live machine and a restored
        successor agree in *every* counter, host tiers included."""
        machine, process = build_call_loop(
            count=HOT_COUNT, jit_tier_enabled=True, fast_gate=True
        )
        first = machine.run(process, "caller$main", ring=4)
        machine.processor.drop_host_caches()
        snap = snapshot_machine(machine)
        restored = restore_machine(snap)
        rprocess = restored.supervisor.processes[0]

        live = machine.run(
            process, "caller$main", ring=4, reset_counters=True
        )
        replayed = restored.run(
            rprocess, "caller$main", ring=4, reset_counters=True
        )
        assert live.metrics == replayed.metrics

    def test_old_snapshots_default_the_new_knobs_off(self):
        machine, _ = run_call_loop(count=8)
        snap = snapshot_machine(machine)
        del snap["config"]["jit_tier_enabled"]
        del snap["config"]["fast_gate"]
        restored = restore_machine(snap)
        assert not restored.processor.jit_cache.enabled
        assert not restored.fast_gate

    def test_fast_path_override_clamps_inherited_jit(self):
        machine, _ = run_call_loop(count=8, jit_tier_enabled=True)
        snap = snapshot_machine(machine)
        restored = restore_machine(snap, fast_path_enabled=False)
        assert not restored.processor.jit_cache.enabled


class TestFastGate:
    """Repeat gate entry skips re-attach; traces survive between runs."""

    def test_repeat_run_reuses_traces(self):
        machine, process = build_call_loop(
            count=HOT_COUNT, jit_tier_enabled=True, fast_gate=True
        )
        first = machine.run(process, "caller$main", ring=4)
        assert machine.processor.jit_cache.stats()["compiled"] >= 1
        second = machine.run(process, "caller$main", ring=4)
        stats = machine.processor.jit_cache.stats()
        # No recompilation: the repeat call entered the surviving
        # trace directly (counters were reset between the runs).
        assert stats["compiled"] == 0
        assert stats["hits"] >= 1
        # The repeat call re-validated nothing: the SDW associative
        # memory stayed warm, so the descriptor fetches the first call
        # paid are gone and the figures got (slightly) cheaper — the
        # measured form of the paper's repeat-gate-call claim.
        assert (second.a, second.q, second.ring) == (
            first.a, first.q, first.ring,
        )
        assert second.instructions == first.instructions
        assert second.metrics.sdw_misses == 0
        assert second.cycles < first.cycles

    def test_default_gate_recompiles_after_reattach(self):
        machine, process = build_call_loop(
            count=HOT_COUNT, jit_tier_enabled=True
        )
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(process, "caller$main", ring=4)
        # The DBR switch in attach flushed every host cache.
        assert machine.processor.jit_cache.stats()["compiled"] >= 1
        assert figures(second) == figures(first)


class TestCrossingSweepFolded:
    """Figure 9's upward PR sweep folds into the compiled trace."""

    def warm_repeat(self, **machine_kwargs):
        machine, process = build_call_loop(
            count=HOT_COUNT, fast_gate=True, **machine_kwargs
        )
        # Run 1 compiles the loop body; runs 2-3 let the entry and exit
        # stubs cross the hot threshold and compile too.
        for _ in range(3):
            machine.run(process, "caller$main", ring=4)
        return machine, process

    def test_warm_crossing_loop_runs_no_sweep(self, monkeypatch):
        # The parity backstop replays every trace per-step, sweep
        # included; this test counts what the trace itself runs.
        monkeypatch.delenv("REPRO_JIT_PARITY", raising=False)
        machine, process = self.warm_repeat(jit_tier_enabled=True)
        sweeps = []
        original = RegisterFile.raise_pr_rings

        def counting(regs, floor):
            sweeps.append(floor)
            original(regs, floor)

        monkeypatch.setattr(RegisterFile, "raise_pr_rings", counting)
        result = machine.run(process, "caller$main", ring=4)
        monkeypatch.undo()
        assert result.halted
        assert result.ring_crossings == 2 * HOT_COUNT
        assert machine.processor.jit_cache.stats()["compiled"] == 0
        # Every upward RETURN ran inside a trace whose entry flag was
        # clear, so the full eight-PR sweep never ran.
        assert sweeps == []

        cyclic = [
            trace for trace in machine.processor.jit_cache._traces.values()
            if trace.cyclic
        ]
        assert cyclic
        for trace in cyclic:
            lines = trace.source.splitlines()
            sweep_lines = [line for line in lines if "raise_pr_rings" in line]
            assert sweep_lines
            assert all(
                line.strip().startswith("if low: ") for line in sweep_lines
            )
            # ``return pr4|0`` reuses what ``eap4`` loaded in the same
            # pass: no p4 guard follows the load.
            load = next(
                i for i, line in enumerate(lines) if "p4.segno = " in line
            )
            assert not any("p4.segno !=" in line for line in lines[load:])

        reference = figures(result)
        for tier in ({}, {"fast_path_enabled": False}):
            other, other_process = self.warm_repeat(**tier)
            assert figures(
                other.run(other_process, "caller$main", ring=4)
            ) == reference


class TestParityBackstop:
    """REPRO_JIT_PARITY=1 co-executes every trace against per-step."""

    def test_parity_run_matches_plain_jit_run(self, monkeypatch):
        plain = run_call_loop(jit_tier_enabled=True)
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        parity_machine, parity_result = run_call_loop()
        stats = parity_machine.processor.jit_cache.stats()
        assert parity_machine.processor.jit_cache.parity
        assert stats["hits"] >= 1
        assert figures(parity_result) == figures(plain[1])
        # Host-tier figures agree too: a parity run is bit-for-bit
        # indistinguishable from a non-parity jit run.
        assert parity_result.metrics == plain[1].metrics

    def test_parity_covers_smc_traces(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        smc = TestSelfModifyingCode()
        bm = smc.run_smc(jit_tier=True)
        assert bm.proc.jit_cache.stats()["invalidations"] >= 1


class TestTraceCacheUnit:
    def test_install_evicts_at_capacity(self):
        cache = TraceCache(enabled=True, parity=False)

        class FakeTrace:
            def __init__(self, key):
                self.key = key
                self.valid = True
                self.words = {key[0]: {key[1]}}

        from repro.cpu.jit import MAX_TRACES

        for i in range(MAX_TRACES):
            cache.install(FakeTrace((i, 0, 4)))
        assert len(cache) == MAX_TRACES
        cache.install(FakeTrace((MAX_TRACES, 0, 4)))
        assert len(cache) == 1  # wholesale flush, then the newcomer

    def test_invalidate_word_applies_rebuild_backoff(self):
        cache = TraceCache(enabled=True, parity=False)

        class FakeTrace:
            key = (8, 0, 4)
            valid = True
            words = {8: {0, 1, 2}}

        cache.install(FakeTrace())
        cache.invalidate_word(8, 1)
        assert cache.get((8, 0, 4)) is None
        assert cache.invalidations == 1
        # Well more than HOT_THRESHOLD dispatches needed again.
        for _ in range(HOT_THRESHOLD):
            assert not cache.note_dispatch((8, 0, 4))

    def test_max_trace_len_bounds_recording(self):
        assert MAX_TRACE_LEN >= 4  # sanity: room for a call loop body
