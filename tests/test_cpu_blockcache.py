"""Short-run neutrality and self-modifying code across the host tiers.

These workloads first pinned the superblock tier, since retired; the
module keeps its name and now runs them on the interpreter, the fast
path and the trace tier side by side.  A 16-iteration call loop stays
below the trace tier's cold head threshold, so it checks that counting
heads without compiling changes nothing; a loop that patches its own
code checks that a store into a compiled trace tears it down before a
stale instruction runs.  The long-run, engaged-trace cases live in
``test_cpu_jit``.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from tests.test_cpu_jit import ALL_TIERS, PROC_TIERS, figures, run_call_loop
from repro.cpu.isa import Op


class TestCycleNeutrality:
    """Simulated figures are bit-identical across all three tiers."""

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
            _, result = run_call_loop(count=16, **tier, **kwargs)
            assert result.halted
            results.append(figures(result))
        assert all(r == results[0] for r in results[1:])


class TestSelfModifyingCode:
    """A store into an already-hot loop that patches its own body."""

    def smc_program(self, count):
        """A loop that patches an instruction inside its own body.

        Word 4 starts as NOP; every iteration stores ``SBA =1`` over it
        before it executes, so the loop decrements A by 2 per trip.  A
        stale decode or trace would keep executing the NOP and double
        the iteration (and instruction) count — any divergence from
        the interpreter is loud.
        """
        return [
            asm_inst(Op.LDA, offset=count, immediate=True),
            asm_inst(Op.LDQ, offset=7),  # loop: load the patch word
            asm_inst(Op.STQ, offset=4),  # rewrite word 4, mid-loop
            asm_inst(Op.SBA, offset=1, immediate=True),
            asm_inst(Op.NOP),  # becomes SBA =1
            asm_inst(Op.TNZ, offset=1),
            halt_word(),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the patch word
        ]

    def run_smc(self, count=40, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        # r1=4: ring 4 may execute (bracket [4, 7]) and write the segment.
        bm.add_segment(8, words=self.smc_program(count), r1=4)
        bm.start(8, 0, ring=4)
        bm.run(max_steps=5000)
        assert bm.proc.halted
        return bm

    def test_block_invalidated_and_figures_unchanged(self):
        tiers = {
            name: self.run_smc(**knobs) for name, knobs in PROC_TIERS.items()
        }
        observed = {
            name: (
                bm.regs.a,
                bm.regs.q,
                bm.proc.cycles,
                bm.proc.stats.instructions,
                bm.proc.stats.faults,
                bm.memory.reads,
                bm.memory.writes,
                bm.proc.sdw_cache.stats(),
            )
            for name, bm in tiers.items()
        }
        assert observed["trace"] == observed["fast"] == observed["interp"]
        stats = tiers["trace"].proc.jit_cache.stats()
        # The loop got hot (a trace executed) and the stores invalidated
        # the covering trace rather than executing stale code.
        assert stats["hits"] > 0
        assert stats["invalidations"] >= 1

    def test_patch_takes_effect(self):
        """The rewritten instruction really executes from trip one."""
        for name, knobs in PROC_TIERS.items():
            bm = self.run_smc(count=40, **knobs)
            assert bm.regs.a == 0, name
            # The store lands before word 4 executes, so every trip
            # decrements A by 2: 20 trips of 5 instructions, plus LDA
            # and HALT.  A stale NOP would double the trip count.
            assert bm.proc.stats.instructions == 2 + 20 * 5, name
