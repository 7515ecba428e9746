"""The session shard's trace library: adoption is exact, and keyed by
everything a compiled trace was validated against.

A machine attached to a :class:`~repro.cpu.jit.TraceLibrary` that
records a path another machine already compiled installs that code
instead of compiling it again.  These tests pin that an adopting
machine reproduces the interpreter's figures and fault verdicts (and,
because adoption replaces only the compilation, the very host-tier
counters compiling would have given), that each dependency of a
template refuses adoption when it differs, and that installs stay
per machine.
"""

import dataclasses

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from tests.test_cpu_access_cache import build_call_loop
from repro.cpu.faults import Fault
from repro.cpu.isa import Op
from repro.cpu.jit import TraceLibrary
from repro.cpu.processor import CostModel
from repro.hardening.authstack import AuthReturnStack
from repro.hardening.config import HardeningConfig
from repro.serve.sessions import SessionConfig, SessionPool, TENANT_MACHINE
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from tests.test_serve_sessions import job

#: call_loop iterations: enough for the loop head to get hot
COUNT = 200


def call_loop_pair(library, count=COUNT, **machine_kwargs):
    """Two identically built call-loop machines sharing ``library``;
    the first runs (compiling and publishing), then the second."""
    runs = []
    for _ in range(2):
        machine, process = build_call_loop(
            count=count, jit_tier_enabled=True, **machine_kwargs
        )
        machine.processor.jit_cache.library = library
        runs.append((machine, machine.run(process, "caller$main", ring=4)))
    return runs


def interpreted_call_loop(count=COUNT):
    machine, process = build_call_loop(count=count, fast_path_enabled=False)
    return machine.run(process, "caller$main", ring=4)


def the_template(library):
    [template] = library._templates.values()
    return template


class TestAdoption:
    def test_second_machine_adopts_and_matches_the_interpreter(self):
        library = TraceLibrary()
        (first, a), (second, b) = call_loop_pair(library)
        assert first.processor.jit_cache.stats()["compiled"] == 1
        stats = second.processor.jit_cache.stats()
        assert (stats["compiled"], stats["adopted"]) == (0, 1)
        assert stats["jit_instructions"] > b.instructions // 2
        assert library.adopted == 1 and len(library) == 1
        reference = interpreted_call_loop()
        for result in (a, b):
            assert (result.a, result.ring, result.halted) == (
                reference.a, reference.ring, reference.halted
            )
            assert result.metrics.architectural() == (
                reference.metrics.architectural()
            )
        # adoption replaces the compilation only: host tiers included,
        # the adopter counts exactly what compiling would have
        assert b.metrics.as_dict() == a.metrics.as_dict()

    def test_adoption_under_the_parity_backstop(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        library = TraceLibrary()
        (_, a), (second, b) = call_loop_pair(library)
        assert second.processor.jit_cache.parity
        assert second.processor.jit_cache.stats()["adopted"] == 1
        assert b.metrics.architectural() == (
            interpreted_call_loop().metrics.architectural()
        )

    def test_fault_verdict_after_an_adopted_trace(self):
        """A hot loop whose indexed LDQ walks past the bound faults at
        the same place on an adopter as on the interpreter."""

        def run(library=None, **proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            if library is not None:
                bm.proc.jit_cache.library = library
            words = [
                asm_inst(Op.LDA, offset=0, immediate=True),
                asm_inst(Op.ADA, offset=1, immediate=True),
                asm_inst(Op.LDQ, offset=2, indexed=True),
                asm_inst(Op.TRA, offset=1),
            ]
            bm.add_segment(8, words=words, size=40, r1=4)
            bm.start(8, 0, ring=4)
            with pytest.raises(Fault) as excinfo:
                bm.run(max_steps=5000)
            fault = excinfo.value
            return bm, (
                fault.code, fault.at_segno, fault.at_wordno, fault.cur_ring,
                bm.proc.cycles, bm.proc.stats.instructions, bm.regs.a,
                bm.memory.reads,
            )

        library = TraceLibrary()
        _, first = run(library, jit_tier=True)
        adopter, second = run(library, jit_tier=True)
        _, interpreted = run(fast_path=False)
        assert adopter.proc.jit_cache.stats()["adopted"] == 1
        assert adopter.proc.jit_cache.stats()["hits"] > 0
        assert first == second == interpreted


class TestSessionShard:
    def test_hydrated_tenants_adopt_and_answer_like_a_fresh_engine(
        self, tmp_path
    ):
        """The n-th call after every admission answers exactly what a
        fresh engine's n-th call does — host-tier counters included —
        while the shard compiles its loop once."""
        engine = GateCallEngine(Machine(TENANT_MACHINE))
        expected = [
            engine.run_job(job("ref", f"r{call}", 4))["metrics"]
            for call in range(3)
        ]
        pool = SessionPool(
            SessionConfig(
                max_live=1, store_dir=str(tmp_path / "store"), fsync_every=1
            )
        )
        for visit in range(3):
            for user in ("a", "b", "c"):
                for call in range(3):
                    out = pool.execute(job(user, f"{user}{visit}{call}", 4))
                    assert out["metrics"] == expected[call], (visit, user)
        stats = pool.stats()
        assert stats["trace_library_entries"] == 1
        # one compile on the shard's first second call; every later
        # second call adopts
        assert stats["traces_adopted"] == 3 * 3 - 1
        assert pool.traces.adopted == stats["traces_adopted"]


class TestDependencies:
    """Each input a template was compiled against refuses adoption when
    it differs on the would-be adopter."""

    def bound(self):
        """A published template and a second machine it binds to."""
        library = TraceLibrary()
        machine, process = build_call_loop(count=COUNT, jit_tier_enabled=True)
        machine.processor.jit_cache.library = library
        machine.run(process, "caller$main", ring=4)
        other, process = build_call_loop(count=COUNT, jit_tier_enabled=True)
        other.run(process, "caller$main", ring=4)
        template = the_template(library)
        assert template.bind(other.processor) is not None
        return template, other.processor

    def replace_sdw(self, proc, segno, **changes):
        """Swap the cached SDW of ``segno`` for an edited copy, PTLB
        entries included, so only the value compare can tell."""
        old = proc.sdw_cache._entries[segno]
        new = dataclasses.replace(old, **changes)
        proc.sdw_cache._entries[segno] = new
        for pair, held in proc.access_cache._entries.items():
            if held is old:
                proc.access_cache._entries[pair] = new

    def test_cost_model(self):
        template, proc = self.bound()
        proc.cost = CostModel(memory_reference=2)
        assert template.bind(proc) is None

    def test_stack_rule(self):
        template, proc = self.bound()
        proc.stack_rule = "simple"
        assert template.bind(proc) is None

    def test_baseline645_profile(self):
        template, proc = self.bound()
        proc.hardware_rings = False
        assert template.bind(proc) is None

    def test_auth_return_stack(self):
        template, proc = self.bound()
        proc.auth_stack = AuthReturnStack(0)
        assert template.bind(proc) is None

    def test_dbr_stack_base(self):
        template, proc = self.bound()
        assert template.stacks  # the loop's crossing folded a stack
        proc.dbr = dataclasses.replace(proc.dbr, stack=proc.dbr.stack + 8)
        assert template.bind(proc) is None

    def test_sdw_bound(self):
        template, proc = self.bound()
        segno, sdw = template.pins[0]
        self.replace_sdw(proc, segno, bound=sdw.bound + 1)
        assert template.bind(proc) is None

    def test_sdw_bracket(self):
        template, proc = self.bound()
        segno, sdw = template.pins[-1]
        self.replace_sdw(proc, segno, r3=sdw.r3 + 1)
        assert template.bind(proc) is None

    def test_ptlb_pair(self):
        template, proc = self.bound()
        del proc.access_cache._entries[template.pairs[0]]
        assert template.bind(proc) is None

    def test_ring_domains_machine_keeps_its_traces(self):
        library = TraceLibrary()
        machine, process = build_call_loop(
            count=COUNT,
            jit_tier_enabled=True,
            hardening=HardeningConfig.from_flags(["ring_domains"]),
        )
        machine.processor.jit_cache.library = library
        machine.run(process, "caller$main", ring=4)
        assert machine.processor.jit_cache.stats()["compiled"] == 1
        assert len(library) == 0

    def test_patched_code_word(self):
        """Two loops that differ in one immediate record paths equal in
        every position and outcome: only the code word tells them
        apart, and the second must compile its own trace (adopting the
        first's would leave the wrong Q)."""

        def run(step, library=None, **proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            if library is not None:
                bm.proc.jit_cache.library = library
            words = [
                asm_inst(Op.LDA, offset=200, immediate=True),
                asm_inst(Op.LDQ, offset=step, immediate=True),
                asm_inst(Op.SBA, offset=1, immediate=True),
                asm_inst(Op.TNZ, offset=1),
                halt_word(),
            ]
            bm.add_segment(8, words=words, r1=4)
            bm.start(8, 0, ring=4)
            bm.run(max_steps=5000)
            assert bm.proc.halted
            return bm, (bm.regs.a, bm.regs.q, bm.proc.cycles,
                        bm.proc.stats.instructions, bm.memory.writes)

        library = TraceLibrary()
        run(1, library, jit_tier=True)
        patched, figures = run(2, library, jit_tier=True)
        stats = patched.proc.jit_cache.stats()
        assert stats["adopted"] == 0 and stats["compiled"] >= 1
        assert figures == run(2, fast_path=False)[1]


class TestPerInstall:
    def smc_machine(self, library):
        """A writable-code loop that halts after 200 passes."""
        bm = BareMachine(jit_tier=True)
        bm.proc.jit_cache.library = library
        words = [
            asm_inst(Op.LDA, offset=200, immediate=True),
            asm_inst(Op.NOP),
            asm_inst(Op.NOP),
            asm_inst(Op.SBA, offset=1, immediate=True),
            asm_inst(Op.TNZ, offset=1),
            halt_word(),
        ]
        self.sdw = bm.add_segment(8, words=words, r1=4)
        bm.start(8, 0, ring=4)
        bm.run()
        assert bm.proc.halted
        return bm

    def test_a_store_into_one_tenants_code_drops_only_its_install(self):
        library = TraceLibrary()
        a = self.smc_machine(library)
        b = self.smc_machine(library)
        assert b.proc.jit_cache.stats()["adopted"] == 1
        [trace_a] = a.proc.jit_cache._traces.values()
        [trace_b] = b.proc.jit_cache._traces.values()
        assert trace_a is not trace_b

        a.proc.write_word(self.sdw, 8, 2, asm_inst(Op.NOP))
        assert not trace_a.valid and len(a.proc.jit_cache) == 0
        assert trace_b.valid and b.proc.jit_cache.get(trace_b.key) is trace_b

        hits = b.proc.jit_cache.hits
        b.start(8, 0, ring=4)
        b.run()
        assert b.proc.halted
        assert b.proc.jit_cache.hits > hits
