"""The trace-compile tier: hot interpreted paths as specialized closures.

The fast path (:mod:`repro.cpu.access_cache`) makes each *individual*
instruction cheap to re-execute, but the interpreter still pays, per
instruction, a ``step()`` frame, a PTLB probe and counter mirror in
:meth:`Processor.validate_access`, a charged word read, a decoded-cache
probe, and a handler call.  Along a *recorded* hot path every one of
those per-instruction decisions has a known answer, so fold them into
the code itself.

A **compiled trace** is a Python closure generated (source text →
``compile``/``exec``) from one concretely observed instruction path
starting at a hot trace head (see :meth:`Processor.run` for where heads
are counted):

* operand decode and effective-address formation are constant-folded
  against the recorded instruction words and the validated
  ``(segno, ring)`` translations — a memory read becomes a single
  ``mem[addr]`` subscript;
* the CALL and RETURN decision procedures (Figures 8 and 9) are
  evaluated at compile time against the SDWs the entry guards pin, so a
  repeat gate call performs only the register writes of the crossing;
  the compiler also tracks what each pointer register was last loaded
  with along the path, so Figure 9's upward PR sweep folds to constant
  stores (PRs loaded earlier in the pass), inline compares (PRs loaded
  only later) and one entry flag, ``low``, over the PRs the path never
  loads — a crossing then costs the host what a same-ring call does;
* every architectural counter update — cycles, memory traffic, the
  SDW/PTLB/icache hit mirrors, call/return/crossing statistics, the
  interval-timer and event countdowns — is accumulated as path
  constants and applied in one batch add on trace exit;
* a path that returns to its own head at the same ring compiles into an
  internal loop, so the dominant cost of a hot gate-call cycle is a few
  dozen Python bytecodes per iteration.

**Exactness contract.**  A trace may execute an instruction only when
it can prove, before executing it, that per-step execution would have
completed it with the recorded outcome; otherwise it exits *before* the
instruction with the batch counters of the completed prefix, and the
interpreter re-executes it per step — so a trace can never fault, and
fault attribution stays pinned to the per-step interpreter.
Concretely:

* entry guards re-check, by identity, every PTLB translation and every
  SDW the compilation folded, and compare every covered code word
  against memory (the word-compare backstop of the decoded-instruction
  cache, hoisted to entry);
* data-dependent branches and folded indirect words and pointer
  registers are guarded inline, every iteration;
* the trace length is bounded by ``min(budget, timer - 1, soonest
  event - 1)`` so countdowns still expire *between* instructions on the
  per-step path;
* stores go through :meth:`Processor.write_word` (keeping the charge
  and the precise-invalidation fan-out), and the trace checks its own
  ``valid`` flag after each store so self-modifying code stops it after
  the current instruction.

Mid-trace coherence needs no further checks because a trace performs no
SDW fetches (everything is folded) and the host is single-threaded: the
only mutation vectors inside a trace are its own stores, and those are
covered by the ``valid`` flip.  Wholesale invalidations (DBR loads,
``invalidate_sdw``) and SDW-cache evictions fan out to this cache from
the processor exactly as they do to the fast-path caches.

**Trace library.**  A compiled trace is a decision folded against one
machine's protection state, so it may serve every machine whose state
matches what it was folded against.  A :class:`TraceLibrary` holds,
per recording, the :class:`TraceTemplate` compiled from it: the code
object plus everything the compiler read from its machine — the cost
model, ring mode, authenticated-return-stack presence and stack rule,
the DBR stack segment of each crossing it folded, the pinned SDWs (by
value) and the PTLB pairs it required.  A cache attached to a library
(the session pool attaches its shard's to every tenant) still counts
heads and records exactly as before, but then *adopts* a template that
binds to its machine instead of compiling: a fresh namespace with its
own SDW objects and its own :class:`CompiledTrace`, so validity and
self-modifying-code invalidation stay per machine.  Because only the
compilation is replaced, an adopter installs the very trace it would
have compiled, at the same moment, and every counter it reports — host
tiers included — is what compiling would have given.

**Parity backstop.**  With ``REPRO_JIT_PARITY=1`` in the environment the
tier turns on wherever the fast path is on and every trace execution is
co-executed against the reference interpreter: run the trace with a
write-logging store hook, rewind (registers, counters, logged words),
replay the same number of instructions through :meth:`Processor.step`,
and compare the complete end states.  Any divergence raises
:class:`JitParityError`.  Like the other host tiers the trace cache is
architecturally invisible: simulated figures are bit-identical with the
tier on or off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import CodeType
from typing import Dict, List, Optional, Tuple

from ..core.effective import effective_ring_after_indirect
from ..core.gates import decide_call, decide_return
from ..formats.indirect import unpack_raw
from ..formats.instruction import Instruction
from ..words import HALF_MASK, WORD_MASK
from .access_cache import GROUP_EXECUTE, GROUP_READ, GROUP_WRITE
from .isa import BY_NUMBER, Op
from .operations import needs_effective_address
from .registers import NUM_PR
from .validate import brackets_of

#: Longest instruction path one recording may cover.
MAX_TRACE_LEN = 64

#: Shortest non-cyclic path worth compiling (cyclic paths always are).
MIN_LINEAR_LEN = 4

#: Visits to a trace-less head before recording starts there.
HOT_THRESHOLD = 4

#: The same, in a run that starts on a just-flushed cache: a process
#: re-attached after another one ran (a DBR switch drops every trace)
#: compiles only a loop that runs long enough to repay ``compile()``,
#: ~0.35 ms for a call_loop trace on the 2-vCPU host, about as long as
#: a hundred interpreted instructions.
COLD_THRESHOLD = 32

#: Hotness-counter floor marking a head given up on for good.
GIVEN_UP = -(1 << 30)

#: Extra visits required to re-record after an invalidation or a
#: failed recording — ``compile()`` is expensive, so churn is backed
#: off hard.
REBUILD_BACKOFF = 16

#: Permanently give up on a head after this many failed compilations.
MAX_COMPILE_FAILURES = 3

#: Wholesale-flush ceiling on compiled traces.
MAX_TRACES = 256

#: Ceiling on the hotness-counter table.
MAX_HOT_COUNTERS = 4096

#: Environment switch: force the tier on and co-execute every trace
#: against the per-step interpreter (the parity backstop mode).
PARITY_ENV = "REPRO_JIT_PARITY"


def parity_requested() -> bool:
    """Is the parity-backstop environment switch set?"""
    return os.environ.get(PARITY_ENV, "") == "1"


class JitParityError(AssertionError):
    """A compiled trace diverged from the per-step interpreter."""


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

#: read-group ops a trace can inline (A/Q arithmetic over an operand)
_READ_OPS = (Op.LDA, Op.LDQ, Op.ADA, Op.SBA, Op.ANA, Op.ORA, Op.ERA)

#: write-group ops a trace can inline -> stored-value expression
_WRITE_OPS = {Op.STA: "acc", Op.STQ: "qreg", Op.STZ: "0"}

#: no-EA ops a trace can inline (immediate read group and register ops)
_SIMPLE_OPS = _READ_OPS + (Op.NOP, Op.LDCR, Op.ARS, Op.ALS)

#: plain transfers and their taken-condition source expressions
_XFER_CONDS = {
    Op.TRA: None,
    Op.TZE: "acc == 0",
    Op.TNZ: "acc != 0",
    Op.TMI: "acc >> 35",
    Op.TPL: "not (acc >> 35)",
}

#: step kinds (trace-local; a trace path has no terminal notion)
S_SIMPLE = 0
S_EA = 1
S_XFER = 2
S_CALL = 3
S_RETURN = 4


class _Step:
    """One recorded instruction: pre-state, decode, captured operands."""

    __slots__ = (
        "ring", "segno", "wordno", "word", "inst", "op", "kind",
        "taken", "pr", "iword", "post",
    )

    def __init__(self, ring, segno, wordno, word, inst, op, kind):
        self.ring = ring
        self.segno = segno
        self.wordno = wordno
        self.word = word
        self.inst = inst
        self.op = op
        self.kind = kind
        self.taken: Optional[bool] = None
        self.pr: Optional[Tuple[int, int, int]] = None
        self.iword: Optional[int] = None
        self.post: Tuple[int, int, int] = (0, 0, 0)


def _classify(proc, inst, op) -> Optional[int]:
    """The step kind for a supportable instruction, else None.

    Anything this returns None for ends the recording *before* the
    instruction: the trace simply stops there and the interpreter runs
    the remainder, so refusing an instruction is always safe.
    """
    if op is None or op.privileged or op is Op.HALT:
        return None
    if inst.immediate and (op.is_eap or op.is_spr or op.transfer):
        return None  # illegal combination: must fault on the slow path
    if op is Op.CALL:
        if inst.prflag or inst.indexed:
            return None
        return S_CALL
    if op is Op.RETURN:
        if inst.indirect or inst.indexed:
            return None
        return S_RETURN
    if op.transfer:
        if inst.indirect or inst.prflag or inst.indexed:
            return None
        return S_XFER
    if not needs_effective_address(op, inst):
        return S_SIMPLE if op in _SIMPLE_OPS else None
    if inst.indirect or inst.immediate:
        return None  # indirect chases and odd immediates stay per-step
    if op.is_eap or op in _READ_OPS or op in _WRITE_OPS or op is Op.AOS:
        return S_EA
    return None


def _record(proc, budget: int):
    """Single-step up to ``MAX_TRACE_LEN`` instructions, logging the path.

    Execution *is* the ordinary interpreter — the log is pure host-side
    observation, so the recorded instructions are charged and counted
    exactly.  The path ends before the head of another installed trace,
    which then takes over.  Returns ``(steps, cyclic, consumed)``;
    ``steps`` is None when the path cannot be compiled (a fault or tick
    landed mid-path, so the log does not describe straight-line
    execution).  A HALT propagates as
    :class:`~repro.errors.MachineHalted`.
    """
    regs = proc.registers
    ipr = regs.ipr
    head = (ipr.ring, ipr.segno, ipr.wordno)
    traces = proc.jit_cache._traces
    faults_before = proc.stats.faults
    steps: List[_Step] = []
    consumed = 0
    limit = min(MAX_TRACE_LEN, budget)
    while consumed < limit:
        ring, segno, wordno = ipr.ring, ipr.segno, ipr.wordno
        if consumed and (segno, wordno, ring) in traces:
            break
        sdw = proc.sdw_cache._entries.get(segno)
        if sdw is None or sdw.paged or wordno >= sdw.bound:
            break
        word = proc.memory._words[sdw.addr + wordno]
        inst = Instruction.unpack(word)
        op = BY_NUMBER.get(inst.opcode)
        kind = _classify(proc, inst, op)
        if kind is None:
            break
        step = _Step(ring, segno, wordno, word, inst, op, kind)
        if kind == S_XFER:
            step.taken = _taken(op, regs.a)
        elif kind == S_CALL and inst.indirect:
            if inst.offset >= sdw.bound:
                break
            iword = proc.memory._words[sdw.addr + inst.offset]
            if unpack_raw(iword)[3]:
                break  # multi-hop chains keep the per-step chase
            step.iword = iword
        if inst.prflag:
            pr = regs.prs[inst.prnum]
            step.pr = (pr.segno, pr.wordno, pr.ring)
        proc.step()
        consumed += 1
        if proc.stats.faults != faults_before:
            return None, False, consumed
        step.post = (ipr.ring, ipr.segno, ipr.wordno)
        steps.append(step)
        if step.post == head:
            return steps, True, consumed
    return steps, False, consumed


def _taken(op: Op, a: int) -> bool:
    if op is Op.TRA:
        return True
    if op is Op.TZE:
        return a == 0
    if op is Op.TNZ:
        return a != 0
    negative = bool(a >> 35)
    return negative if op is Op.TMI else not negative


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


class _Abort(Exception):
    """The recorded path cannot be folded; give up on this compilation."""


class CompiledTrace:
    """One compiled path: the closure plus its invalidation footprint."""

    __slots__ = (
        "key", "fn", "length", "cyclic", "closing", "valid", "words", "source",
    )

    def __init__(self, key, fn, length, cyclic, closing, words, source):
        self.key = key  # (segno, wordno, ring)
        self.fn = fn  # fn(proc, budget, write_word) -> steps consumed
        self.length = length
        self.cyclic = cyclic
        #: (segno, wordno, ring) of a cyclic trace's loop-closing branch,
        #: where it exits when the loop ends; None for a linear trace
        self.closing = closing
        self.valid = True
        #: segno -> set of covered code wordnos (precise invalidation)
        self.words: Dict[int, set] = words
        self.source = source  # kept for diagnostics


def _finish(proc, regs, acc, qreg, it, ex, itc):
    """Apply one exit point's batched counters and materialize state.

    ``ex`` holds the exit's prefix constants, ``itc`` the per-iteration
    constants (all zero for non-cyclic traces), both as
    ``(n, cycles, reads, sdw_hits, ptlb_hits, calls, returns,
    crossings)`` with the exit's IPR target appended to ``ex``.  This
    mirrors, in one batch, exactly the updates per-step execution would
    have made.
    """
    n = it * itc[0] + ex[0]
    proc.cycles += it * itc[1] + ex[1]
    proc.memory.reads += it * itc[2] + ex[2]
    proc.sdw_cache.hits += it * itc[3] + ex[3]
    proc.access_cache.hits += it * itc[4] + ex[4]
    proc.inst_cache.hits += n
    stats = proc.stats
    stats.instructions += n
    stats.calls += it * itc[5] + ex[5]
    stats.returns += it * itc[6] + ex[6]
    stats.ring_crossings += it * itc[7] + ex[7]
    regs.a = acc
    regs.q = qreg
    ipr = regs.ipr
    ipr.ring = ex[8]
    ipr.segno = ex[9]
    ipr.wordno = ex[10]
    if proc.timer is not None:
        proc.timer -= n
    for event in proc._events:
        event[0] -= n
    return n


class _Compiler:
    """Source generator for one recorded path."""

    def __init__(self, proc, key, steps: List[_Step], cyclic: bool):
        self.proc = proc
        self.key = key
        self.steps = steps
        self.cyclic = cyclic
        self.head = (key[2], key[0], key[1])  # (ring, segno, wordno)
        self.body: List[str] = []
        self.consts: Dict[str, object] = {}
        self._exit_names: Dict[tuple, str] = {}
        self.sdw_guards: Dict[int, object] = {}  # segno -> SDW
        self.pair_guards: Dict[tuple, int] = {}  # (segno, ring, group) -> segno
        self.code_words: Dict[int, Dict[int, int]] = {}
        #: ring -> the DBR stack segment a folded crossing into it uses
        self.stacks: Dict[int, int] = {}
        self.prs_used: set = set()
        #: PRs some step of the path loads (EAP, and CALL's PR0)
        self.prs_written = {
            step.op.pr_index for step in steps
            if step.kind == S_EA and step.op.is_eap
        }
        if any(step.kind == S_CALL for step in steps):
            self.prs_written.add(0)
        #: n -> (segno, wordno, ring) of PRn's last load in this pass of
        #: the body; None marks a segno or wordno known only at run time
        #: (the ring is always a folded constant).  Empty at the head, so
        #: a cyclic body assumes nothing across passes.
        self.pr_known: Dict[int, tuple] = {}
        #: highest upward-RETURN floor the PRs the path never loads are
        #: checked against at entry (None: no such RETURN)
        self.low_floor: Optional[int] = None
        self.uses_ww = False
        # path accumulators: n, cyc, reads, sdwh, ptlbh, calls, rets, cross
        self.acc = [0] * 8
        # the accumulators as of the *start* of the current step: a
        # guard that exits before its instruction must commit exactly
        # the completed prefix — the per-step path re-fetches (and
        # re-charges) the instruction it exits in front of
        self.step_start = (0,) * 8
        self.pos = self.head

    # -- constants and guards ------------------------------------------------

    def sdw_const(self, segno: int):
        """Pin ``segno``'s SDW by identity; returns its constant name.

        The name is bound when the trace is instantiated (see
        :meth:`TraceTemplate.instantiate`), not folded into the code.
        """
        sdw = self.proc.sdw_cache._entries.get(segno)
        if sdw is None or sdw.paged:
            raise _Abort(f"segment {segno} has no usable cached SDW")
        held = self.sdw_guards.setdefault(segno, sdw)
        if held is not sdw:  # cannot happen; defensive
            raise _Abort("SDW identity changed during compilation")
        return f"S{segno}"

    def pair(self, segno: int, ring: int, group: str):
        """Require a live PTLB entry for ``(segno, ring, group)``.

        Folding a validation is sound only while the PTLB still holds
        this exact SDW for the pair — the same identity rule
        ``validate_access`` applies per reference, hoisted to trace
        entry.  Returns the SDW (a compile-time constant thereafter).
        """
        name = self.sdw_const(segno)
        sdw = self.sdw_guards[segno]
        held = self.proc.access_cache._entries.get((segno, ring, group))
        if held is not sdw:
            raise _Abort(f"no PTLB entry for ({segno}, {ring}, {group})")
        self.pair_guards[(segno, ring, group)] = segno
        return sdw

    def exit_call(self, pos, it_expr: str, prefix=None) -> str:
        """A ``return`` statement committing a counter prefix at ``pos``."""
        ex = tuple(self.acc if prefix is None else prefix) + pos
        name = self._exit_names.get(ex)
        if name is None:
            name = f"E{len(self._exit_names)}"
            self._exit_names[ex] = name
            self.consts[name] = ex
        return f"return _X(proc, regs, acc, qreg, {it_expr}, {name}, IT)"

    def exit_before(self, step: _Step, it_expr: str) -> str:
        """Exit in front of ``step``: prefix as of the step's start."""
        return self.exit_call(
            (step.ring, step.segno, step.wordno), it_expr, self.step_start
        )

    # -- per-kind emission ---------------------------------------------------

    def effective_address(self, step: _Step, it_expr: str):
        """Fold Figure 5's non-indirect case for ``step``.

        Returns ``(ring, segno, wordno_expr, const_wordno)`` where
        ``wordno_expr`` is source text and ``const_wordno`` is its value
        when compile-time constant (None when runtime).  Pointer-register
        fields are guarded inline against their recorded values, so the
        fold is exact whenever the guard passes; the guard is dropped
        when this pass of the body already loaded exactly those values.
        """
        inst = step.inst
        if inst.prflag:
            ps, pw, pring = step.pr
            n = inst.prnum
            known = self.pr_known.get(n)
            if known is not None and any(
                k is not None and k != r for k, r in zip(known, step.pr)
            ):
                raise _Abort("known pointer register disagrees with the recording")
            if known != step.pr:
                self.prs_used.add(n)
                self.body.append(
                    f"if p{n}.segno != {ps} or p{n}.wordno != {pw} "
                    f"or p{n}.ring != {pring}: "
                    + self.exit_before(step, it_expr)
                )
            ring = pring if pring > step.ring else step.ring
            if inst.indexed:
                expr = f"(({pw} + (({inst.offset} + (acc & HM)) & HM)) & HM)"
                return ring, ps, expr, None
            wordno = (pw + inst.offset) & HALF_MASK
            return ring, ps, str(wordno), wordno
        if inst.indexed:
            expr = f"(({inst.offset} + (acc & HM)) & HM)"
            return step.ring, step.segno, expr, None
        return step.ring, step.segno, str(inst.offset), inst.offset

    def emit_fetch(self, step: _Step):
        """Account one instruction fetch (base + word read + mirrors)."""
        sdw = self.pair(step.segno, step.ring, GROUP_EXECUTE)
        if step.wordno >= sdw.bound:
            raise _Abort("recorded fetch is outside the current bound")
        self.code_words.setdefault(step.segno, {})[step.wordno] = step.word
        cost = self.proc.cost
        self.acc[0] += 1
        self.acc[1] += cost.instruction_base + cost.memory_reference
        self.acc[2] += 1
        self.acc[3] += 1
        self.acc[4] += 1

    def emit_simple(self, step: _Step):
        op, inst = step.op, step.inst
        if op is Op.NOP:
            return
        if op is Op.LDCR:
            self.body.append("acc = regs.crr")
        elif op is Op.ARS:
            self.body.append(f"acc >>= {min(inst.offset, 35)}")
        elif op is Op.ALS:
            self.body.append(f"acc = (acc << {min(inst.offset, 35)}) & WM")
        else:
            self.emit_alu(op, str(inst.offset))

    def emit_alu(self, op: Op, value_expr: str):
        """A/Q arithmetic on an operand expression (masks maintained)."""
        if op is Op.LDA:
            self.body.append(f"acc = {value_expr}")
        elif op is Op.LDQ:
            self.body.append(f"qreg = {value_expr}")
        elif op is Op.ADA:
            self.body.append(f"acc = (acc + {value_expr}) & WM")
        elif op is Op.SBA:
            self.body.append(f"acc = (acc - {value_expr}) & WM")
        elif op is Op.ANA:
            self.body.append(f"acc &= {value_expr}")
        elif op is Op.ORA:
            self.body.append(f"acc |= {value_expr}")
        else:  # ERA
            self.body.append(f"acc ^= {value_expr}")

    def operand_site(self, step, ring, segno, wexpr, wconst, group, it_expr):
        """Validate-and-translate fold for one operand reference.

        Returns the memory index expression.  Constant word numbers are
        bound-checked at compile time (the entry guards pin the bound);
        runtime word numbers get an inline bound guard that exits before
        the instruction, exactly where per-step execution would fault.
        """
        sdw = self.pair(segno, ring, group)
        if wconst is not None:
            if wconst >= sdw.bound:
                raise _Abort("recorded operand is outside the current bound")
            index = str(sdw.addr + wconst)
        else:
            self.body.append(f"w = {wexpr}")
            self.body.append(
                f"if w >= {sdw.bound}: " + self.exit_before(step, it_expr)
            )
            index = f"{sdw.addr} + w"
        self.acc[3] += 1  # the mirrored SDW-cache hit
        self.acc[4] += 1  # the mirrored PTLB hit
        return index

    def emit_ea(self, step: _Step, it_expr: str):
        op = step.op
        ring, segno, wexpr, wconst = self.effective_address(step, it_expr)
        if op.is_eap:
            n = op.pr_index
            self.prs_used.add(n)
            if wconst is None:
                self.body.append(f"w = {wexpr}")
                wexpr = "w"
            self.body.append(
                f"p{n}.segno = {segno}; p{n}.wordno = {wexpr}; "
                f"p{n}.ring = {ring}"
            )
            self.pr_known[n] = (segno, wconst, ring)
            return
        if op in _READ_OPS:
            index = self.operand_site(
                step, ring, segno, wexpr, wconst, GROUP_READ, it_expr
            )
            self.acc[1] += self.proc.cost.memory_reference  # the charged read
            self.acc[2] += 1
            self.emit_alu(op, f"mem[{index}]")
            return
        if op is Op.AOS:
            sdw = self.pair(segno, ring, GROUP_READ)
            if not (
                sdw.write
                and brackets_of(sdw).write_allowed(ring)
                and (wconst is None or wconst < sdw.bound)
            ):
                raise _Abort("AOS write half would fault")
            index = self.operand_site(
                step, ring, segno, wexpr, wconst, GROUP_READ, it_expr
            )
            self.acc[1] += self.proc.cost.memory_reference
            self.acc[2] += 1
            sname = self.sdw_const(segno)
            wno = "w" if wconst is None else str(wconst)
            self.emit_store(step, sname, segno, wno, f"(mem[{index}] + 1) & WM", it_expr)
            return
        # write group (STA/STQ/STZ)
        index = self.operand_site(
            step, ring, segno, wexpr, wconst, GROUP_WRITE, it_expr
        )
        sname = self.sdw_const(segno)
        wno = "w" if wconst is None else str(wconst)
        self.emit_store(step, sname, segno, wno, _WRITE_OPS[op], it_expr)

    def emit_store(self, step, sname, segno, wordno_expr, value_expr, it_expr):
        """A charged store through ``write_word`` plus the SMC backstop.

        The store keeps the per-word invalidation fan-out; if it landed
        in this very trace the ``valid`` flip exits after the current
        instruction.
        """
        self.uses_ww = True
        self.body.append(f"ww({sname}, {segno}, {wordno_expr}, {value_expr})")
        # Commit the store's instruction before exiting: position and
        # counters are those *after* this instruction completes.
        saved_pos, saved_acc = self.pos, list(self.acc)
        self.pos = (step.ring, step.segno, (step.wordno + 1) & HALF_MASK)
        self.body.append(
            "if not TR.valid: " + self.exit_call(self.pos, it_expr)
        )
        self.pos, self.acc = saved_pos, saved_acc

    def emit_xfer(self, step: _Step, it_expr: str):
        cond = _XFER_CONDS[step.op]
        target = step.inst.offset
        if step.taken:
            if cond is not None:
                self.body.append(
                    f"if not ({cond}): " + self.exit_before(step, it_expr)
                )
            sdw = self.pair(step.segno, step.ring, GROUP_EXECUTE)
            if target >= sdw.bound:
                raise _Abort("recorded transfer target is out of bounds")
            self.acc[3] += 1  # the advance check's mirrored hits
            self.acc[4] += 1
            self.pos = (step.ring, step.segno, target)
        else:
            self.body.append(
                f"if {cond}: " + self.exit_before(step, it_expr)
            )
            self.pos = (step.ring, step.segno, (step.wordno + 1) & HALF_MASK)

    def emit_call(self, step: _Step, it_expr: str):
        proc = self.proc
        inst = step.inst
        ering, tseg, tword = step.ring, step.segno, inst.offset
        if inst.indirect:
            src = self.pair(step.segno, step.ring, GROUP_READ)
            if inst.offset >= src.bound:
                raise _Abort("indirect word is outside the current bound")
            iaddr = src.addr + inst.offset
            self.body.append(
                f"if mem[{iaddr}] != {step.iword}: "
                + self.exit_before(step, it_expr)
            )
            self.acc[1] += self.proc.cost.memory_reference  # the hop's read
            self.acc[2] += 1
            self.acc[3] += 1  # its mirrored validation hits
            self.acc[4] += 1
            tseg, tword, iring, _ = unpack_raw(step.iword)
            ering = effective_ring_after_indirect(step.ring, iring, src.r1)
        self.sdw_const(tseg)
        tsdw = self.sdw_guards[tseg]
        self.acc[3] += 1  # op_call's fetch_sdw hits the associative memory
        if tword >= tsdw.bound:
            raise _Abort("CALL target is outside the current bound")
        decision = decide_call(
            eff_ring=ering,
            cur_ring=step.ring,
            brackets=brackets_of(tsdw),
            execute_flag=tsdw.execute,
            wordno=tword,
            gate_count=tsdw.gate,
            same_segment=tseg == step.segno,
        )
        if not decision.proceeds:
            raise _Abort("folded CALL decision does not proceed")
        new_ring = decision.new_ring
        if not proc.hardware_rings and new_ring != step.ring:
            raise _Abort("software-ring CALL crossing traps")
        if proc.auth_stack is not None and new_ring != step.ring:
            # auth_return_stack: the crossing mutates the MAC chain;
            # keep crossings on the interpreted path, like the 645 case.
            raise _Abort("authenticated-return-stack CALL crossing")
        if proc.stack_rule == "simple":
            stack = new_ring
        elif new_ring == step.ring:
            self.prs_used.add(6)
            stack = None  # the caller's stack: p6.segno at run time
        else:
            stack = proc.dbr.stack_segno(new_ring)
            self.stacks[new_ring] = stack
        self.prs_used.add(0)
        self.body.append(
            f"p0.segno = {'p6.segno' if stack is None else stack}; "
            f"p0.wordno = 0; p0.ring = {new_ring}; regs.crr = {step.ring}"
        )
        self.pr_known[0] = (stack, 0, new_ring)
        self.acc[5] += 1
        if new_ring != step.ring:
            self.acc[7] += 1
            self.acc[1] += proc.cost.ring_crossing_extra
        self.pos = (new_ring, tseg, tword)
        if self.pos != step.post:
            raise _Abort("folded CALL disagrees with the recording")

    def emit_return(self, step: _Step, it_expr: str):
        proc = self.proc
        ering, tseg, wexpr, tword = self.effective_address(step, it_expr)
        if tword is None:
            raise _Abort("RETURN target is not constant under the guards")
        self.sdw_const(tseg)
        tsdw = self.sdw_guards[tseg]
        self.acc[3] += 1  # op_return's fetch_sdw hits the associative memory
        if tword >= tsdw.bound:
            raise _Abort("RETURN target is outside the current bound")
        decision = decide_return(
            eff_ring=ering,
            cur_ring=step.ring,
            brackets=brackets_of(tsdw),
            execute_flag=tsdw.execute,
        )
        if not decision.proceeds:
            raise _Abort("folded RETURN decision does not proceed")
        new_ring = decision.new_ring
        if not proc.hardware_rings and new_ring != step.ring:
            raise _Abort("software-ring RETURN crossing traps")
        if proc.auth_stack is not None and new_ring != step.ring:
            # auth_return_stack: the verification consumes a MAC frame;
            # keep crossings on the interpreted path.
            raise _Abort("authenticated-return-stack RETURN crossing")
        if new_ring > step.ring:
            self.emit_raise(new_ring)
        self.acc[6] += 1
        if new_ring != step.ring:
            self.acc[7] += 1
            self.acc[1] += proc.cost.ring_crossing_extra
        self.pos = (new_ring, tseg, tword)
        if self.pos != step.post:
            raise _Abort("folded RETURN disagrees with the recording")

    def emit_raise(self, floor: int):
        """Figure 9's upward sweep, folded against the path's PR loads.

        A PR loaded earlier in this pass has a known ring: it becomes a
        constant store, and only when that ring is below ``floor``.  A
        PR the path loads only later gets an inline compare.  The PRs
        the path never loads change only through sweeps, so one entry
        check decides them for the whole trace: ``low`` is true when
        any sits below the highest floor, and then every upward RETURN
        runs the full sweep — exact on any path.
        """
        for n in range(NUM_PR):
            known = self.pr_known.get(n)
            if known is not None:
                if known[2] < floor:
                    self.body.append(f"p{n}.ring = {floor}")
                    self.pr_known[n] = (known[0], known[1], floor)
            elif n in self.prs_written:
                self.prs_used.add(n)
                self.body.append(f"if p{n}.ring < {floor}: p{n}.ring = {floor}")
        if len(self.prs_written) < NUM_PR:
            self.low_floor = max(floor, self.low_floor or 0)
            self.body.append(f"if low: regs.raise_pr_rings({floor})")

    # -- assembly ------------------------------------------------------------

    def compile(self) -> "TraceTemplate":
        it_expr = "it" if self.cyclic else "0"
        for step in self.steps:
            if self.pos != (step.ring, step.segno, step.wordno):
                raise _Abort("recorded path is not position-consistent")
            self.step_start = tuple(self.acc)
            self.emit_fetch(step)
            if step.kind == S_SIMPLE:
                self.emit_simple(step)
                self.pos = (step.ring, step.segno, (step.wordno + 1) & HALF_MASK)
            elif step.kind == S_EA:
                self.emit_ea(step, it_expr)
                self.pos = (step.ring, step.segno, (step.wordno + 1) & HALF_MASK)
            elif step.kind == S_XFER:
                self.emit_xfer(step, it_expr)
            elif step.kind == S_CALL:
                self.emit_call(step, it_expr)
            else:
                self.emit_return(step, it_expr)
            if step.kind in (S_SIMPLE, S_EA) and self.pos != step.post:
                raise _Abort("straight-line step disagrees with the recording")
        if self.cyclic and self.pos != self.head:
            raise _Abort("cyclic recording does not close at its head")
        source = self._assemble(it_expr)
        segno, wordno, ring = self.key
        last = self.steps[-1]
        return TraceTemplate(
            key=self.key,
            code=compile(source, f"<jit {segno}:{wordno} r{ring}>", "exec"),
            consts=self.consts,
            pins=tuple(sorted(self.sdw_guards.items())),
            pairs=tuple(sorted(self.pair_guards)),
            stacks=tuple(sorted(self.stacks.items())),
            machine=_machine_key(self.proc),
            length=len(self.steps),
            cyclic=self.cyclic,
            closing=(last.segno, last.wordno, last.ring) if self.cyclic else None,
            words={
                segno: set(per_seg)
                for segno, per_seg in self.code_words.items()
            },
            source=source,
        )

    def _prologue(self) -> List[str]:
        lines = [
            "def _trace(proc, budget, ww):",
            "    regs = proc.registers",
            "    se = proc.sdw_cache._entries",
        ]
        if self.pair_guards:
            lines.append("    ac = proc.access_cache._entries")
        for segno in sorted(self.sdw_guards):
            lines.append(f"    if se.get({segno}) is not S{segno}: return 0")
        for pair in sorted(self.pair_guards):
            pname = f"P{len([k for k in self.consts if k.startswith('P')])}"
            self.consts[pname] = pair
            lines.append(f"    if ac.get({pname}) is not S{pair[0]}: return 0")
        lines.append("    mem = proc.memory._words")
        for segno in sorted(self.code_words):
            sdw = self.sdw_guards[segno]
            per_seg = self.code_words[segno]
            for start, values in _runs(per_seg):
                base = sdw.addr + start
                if len(values) == 1:
                    lines.append(
                        f"    if mem[{base}] != {values[0]}: return 0"
                    )
                else:
                    cname = f"C{len([k for k in self.consts if k.startswith('C')])}"
                    self.consts[cname] = list(values)
                    lines.append(
                        f"    if mem[{base}:{base + len(values)}] != {cname}:"
                        " return 0"
                    )
        lines += [
            "    limit = budget",
            "    timer = proc.timer",
            "    if timer is not None:",
            "        if timer <= 1: return 0",
            "        if timer - 1 < limit: limit = timer - 1",
            "    events = proc._events",
            "    if events:",
            "        soonest = min(event[0] for event in events)",
            "        if soonest <= 1: return 0",
            "        if soonest - 1 < limit: limit = soonest - 1",
        ]
        return lines

    def _assemble(self, it_expr: str) -> str:
        n_total = self.acc[0]
        lines = self._prologue()
        if self.cyclic:
            # Enter iteration ``it`` only when even a divergence exit at
            # the last instruction stays within ``limit`` — countdowns
            # can then never expire mid-trace.
            lines.append(f"    iters = (limit - {n_total - 1}) // {n_total}")
            lines.append("    if iters <= 0: return 0")
        else:
            lines.append(f"    if limit < {n_total}: return 0")
        lines.append("    acc = regs.a")
        lines.append("    qreg = regs.q")
        if self.prs_used or self.low_floor is not None:
            lines.append("    prs = regs.prs")
            for n in sorted(self.prs_used):
                lines.append(f"    p{n} = prs[{n}]")
        if self.low_floor is not None:
            unloaded = " or ".join(
                f"prs[{n}].ring < {self.low_floor}"
                for n in range(NUM_PR)
                if n not in self.prs_written
            )
            lines.append(f"    low = {unloaded}")
        if self.cyclic:
            lines.append("    it = 0")
            lines.append("    while True:")
            lines += [f"        {line}" for line in self.body]
            lines.append("        it += 1")
            # ``it`` full iterations are complete here, so the head
            # exit's prefix is all-zero: the per-iteration constants
            # (IT) carry the whole batch.
            head_exit = self.exit_call(self.head, "it", prefix=(0,) * 8)
            lines.append(f"        if it >= iters: {head_exit}")
        else:
            lines += [f"    {line}" for line in self.body]
            lines.append(f"    {self.exit_call(self.pos, '0')}")
        self.consts["IT"] = tuple(self.acc) if self.cyclic else (0,) * 8
        return "\n".join(lines) + "\n"


def _runs(per_seg: Dict[int, int]):
    """Consecutive (start, [words...]) runs of a wordno -> word mapping."""
    run_start = None
    run: List[int] = []
    for wordno in sorted(per_seg):
        if run_start is not None and wordno == run_start + len(run):
            run.append(per_seg[wordno])
            continue
        if run:
            yield run_start, run
        run_start, run = wordno, [per_seg[wordno]]
    if run:
        yield run_start, run


def _compile(proc, key, steps, cyclic) -> Optional["TraceTemplate"]:
    try:
        return _Compiler(proc, key, steps, cyclic).compile()
    except _Abort:
        return None


# ---------------------------------------------------------------------------
# templates and the trace library
# ---------------------------------------------------------------------------


def _machine_key(proc) -> Optional[tuple]:
    """The whole-machine settings a compilation folds, or None.

    The cost model, ring mode, authenticated-return-stack presence and
    stack rule.  A ``ring_domains`` machine has no key: its domain
    check runs before the PTLB consult and depends on the *executing*
    segment, which no guard of a trace captures, so such a machine
    keeps its traces to itself.
    """
    if proc.domains is not None:
        return None
    return (
        tuple(vars(proc.cost).values()),
        proc.hardware_rings,
        proc.auth_stack is None,
        proc.stack_rule,
    )


def _signature(steps: List[_Step], cyclic: bool) -> tuple:
    """Everything a recording hands the compiler, as a hashable value:
    per step its position, code word, branch outcome, pointer register,
    indirect word and successor."""
    return (cyclic,) + tuple(
        (s.ring, s.segno, s.wordno, s.word, s.taken, s.pr, s.iword, s.post)
        for s in steps
    )


@dataclass(eq=False)
class TraceTemplate:
    """One compiled path, detached from the machine that compiled it.

    Holds the code object plus every input the compiler read from its
    machine besides the recording: the whole-machine settings
    (:func:`_machine_key`), the DBR stack segment of each crossing it
    folded (a constant no guard re-checks), the SDW it pinned per
    segment, and the PTLB pairs it required.  That set is closed — the
    compiler reads nothing else — so a machine that made the same
    recording and matches all of it would compile this very code
    (:meth:`bind`).
    """

    key: tuple  # (segno, wordno, ring)
    code: CodeType
    consts: Dict[str, object]
    pins: tuple  # ((segno, SDW), ...), bound to S<segno>
    pairs: tuple  # ((segno, ring, group), ...)
    stacks: tuple  # ((ring, stack segno), ...)
    machine: Optional[tuple]  # _machine_key of the compiling machine
    length: int
    cyclic: bool
    closing: Optional[tuple]
    words: Dict[int, set]
    source: str

    def bind(self, proc) -> Optional[List[object]]:
        """``proc``'s own SDW for each pin, or None on any mismatch.

        Pinned SDWs compare by value (they are frozen dataclasses), and
        the PTLB must hold each one for every folded pair — where the
        compiler would have given up, adoption refuses too.
        """
        if self.machine is None or _machine_key(proc) != self.machine:
            return None
        dbr = proc.dbr
        for ring, stack in self.stacks:
            if dbr.stack_segno(ring) != stack:
                return None
        entries = proc.sdw_cache._entries
        live = []
        for segno, sdw in self.pins:
            held = entries.get(segno)
            if held is None or held != sdw:
                return None
            live.append(held)
        ptlb = proc.access_cache._entries
        for pair in self.pairs:
            if ptlb.get(pair) is not entries[pair[0]]:
                return None
        return live

    def instantiate(self, sdws) -> CompiledTrace:
        """A fresh install of this code with ``sdws`` bound to the pins.

        Each install gets its own namespace and :class:`CompiledTrace`:
        ``valid``, self-modifying-code invalidation and ``_by_seg``
        membership belong to one machine's cache.
        """
        namespace = dict(self.consts)
        namespace["_X"] = _finish
        namespace["WM"] = WORD_MASK
        namespace["HM"] = HALF_MASK
        for (segno, _), sdw in zip(self.pins, sdws):
            namespace[f"S{segno}"] = sdw
        exec(self.code, namespace)
        trace = CompiledTrace(
            self.key, namespace["_trace"], self.length, self.cyclic,
            self.closing, self.words, self.source,
        )
        namespace["TR"] = trace
        return trace


#: Ceiling on one library's templates (then a wholesale clear, like
#: ``MAX_TRACES``).
MAX_LIBRARY_TEMPLATES = 1024


class TraceLibrary:
    """Compiled traces shared by the machines of one session shard.

    One template per recording (:func:`_signature`), the newest.  A
    cache attached to the library publishes every template it compiles
    and, having recorded a path, adopts the template compiled from the
    same recording when :meth:`TraceTemplate.bind` accepts it, instead
    of compiling.
    """

    def __init__(self):
        self._templates: Dict[tuple, TraceTemplate] = {}
        #: traces installed from the library, all machines together
        self.adopted = 0

    def __len__(self) -> int:
        return len(self._templates)

    def add(self, signature: tuple, template: TraceTemplate) -> None:
        """Publish ``template`` (a keyless machine's stays private)."""
        if template.machine is None:
            return
        if len(self._templates) >= MAX_LIBRARY_TEMPLATES:
            self._templates.clear()
        self._templates[signature] = template

    def adopt(self, proc, signature: tuple) -> Optional[CompiledTrace]:
        """A fresh install for ``proc`` of the template compiled from
        the same recording, if it binds to ``proc``; else None."""
        template = self._templates.get(signature)
        if template is None:
            return None
        sdws = template.bind(proc)
        if sdws is None:
            return None
        self.adopted += 1
        return template.instantiate(sdws)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class TraceCache:
    """Compiled traces keyed by ``(segno, wordno, ring)``.

    Hotness counters decide when to record, precise invalidation drops
    traces covering a written code word, and DBR switches flush
    everything.  ``parity`` co-executes every trace against the
    per-step interpreter (see the module docstring).
    """

    def __init__(self, enabled: bool = False, parity: bool = False):
        self.enabled = enabled
        self.parity = parity
        self._traces: Dict[tuple, CompiledTrace] = {}
        #: segno -> traces whose code includes that segment
        self._by_seg: Dict[int, set] = {}
        self._hot: Dict[tuple, int] = {}
        self._fails: Dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.compiled = 0
        #: traces installed from the library instead of compiled
        self.adopted = 0
        #: instructions retired inside compiled traces (host diagnostic)
        self.instructions = 0
        #: set by a wholesale flush; read and cleared when a run starts
        self.flushed = False
        #: the session shard's shared :class:`TraceLibrary`, if any
        self.library: Optional[TraceLibrary] = None

    # -- dispatch ------------------------------------------------------------

    def note_dispatch(
        self, key: tuple, threshold: int = HOT_THRESHOLD
    ) -> bool:
        """Count one visit to a trace-less head; True when it is hot.

        Backoff states (negative counts) delay re-recording after an
        invalidation or a failed compilation.
        """
        if len(self._hot) >= MAX_HOT_COUNTERS:
            self._hot.clear()
        count = self._hot.get(key, 0) + 1
        self._hot[key] = count
        return count >= threshold

    def record(self, proc, budget: int) -> int:
        """Record the path at the current IPR and install its trace.

        Returns the steps consumed — the recording steps through the
        ordinary interpreter, so the instructions it covers are
        executed (and charged) exactly regardless of the outcome.  With
        a library attached, a trace another machine compiled from the
        same recording is adopted when this machine matches what it
        was compiled against; otherwise the path is compiled.  Either
        way the installed trace is the one this machine would compile,
        so every counter, host tiers included, is what compiling would
        have given.
        """
        ipr = proc.registers.ipr
        key = (ipr.segno, ipr.wordno, ipr.ring)
        steps, cyclic, consumed = _record(proc, budget)
        if not steps or not (cyclic or len(steps) >= MIN_LINEAR_LEN):
            self._failed(key)
            return consumed
        signature = None
        if self.library is not None:
            signature = _signature(steps, cyclic)
            trace = self.library.adopt(proc, signature)
            if trace is not None:
                # not a compilation: no source text, no compile()
                self.install(trace)
                self.adopted += 1
                return consumed
        self.record_and_compile(proc, key, steps, cyclic, signature)
        return consumed

    def record_and_compile(self, proc, key, steps, cyclic, signature) -> None:
        """Compile one recorded path and install its trace; publish it
        to the library under ``signature`` when there is one.

        Only compilations run here (an adoption does not), which is
        what the end-to-end tracer's ``cpu.compile`` span counts.
        """
        template = _compile(proc, key, steps, cyclic)
        if template is None:
            self._failed(key)
            return
        self.install(template.instantiate([sdw for _, sdw in template.pins]))
        self.compiled += 1
        if signature is not None:
            self.library.add(signature, template)

    def _failed(self, key: tuple) -> None:
        """Back off a head whose recording could not be compiled."""
        failures = self._fails.get(key, 0) + 1
        self._fails[key] = failures
        self._hot[key] = (
            GIVEN_UP if failures >= MAX_COMPILE_FAILURES else 1 - REBUILD_BACKOFF
        )

    def execute(self, proc, trace: CompiledTrace, budget: int) -> int:
        """Run one trace (optionally under the parity backstop)."""
        if not self.parity:
            consumed = trace.fn(proc, budget, proc.write_word)
            if consumed:
                self.hits += 1
                self.instructions += consumed
            else:
                self.misses += 1
            return consumed
        return self._execute_parity(proc, trace, budget)

    def _execute_parity(self, proc, trace: CompiledTrace, budget: int) -> int:
        before = _capture(proc)
        writes: List[Tuple[int, int]] = []
        real_ww = proc.write_word
        words = proc.memory._words

        def logging_ww(sdw, segno, wordno, value):
            # Traces only reference unpaged segments, so the address
            # arithmetic below is the whole translation.
            addr = sdw.addr + wordno
            writes.append((addr, words[addr]))
            real_ww(sdw, segno, wordno, value)

        consumed = trace.fn(proc, budget, logging_ww)
        if consumed == 0:
            self.misses += 1
            return 0
        after_trace = _capture(proc)
        _restore(proc, before, writes)
        try:
            for _ in range(consumed):
                proc.step()
        except Exception as exc:  # the reference diverged structurally
            raise JitParityError(
                f"trace {trace.key}: replay raised {exc!r}"
            ) from exc
        after_replay = _capture(proc)
        if after_trace != after_replay:
            # Decoded-icache counters are host diagnostics outside the
            # exactness contract: the trace mirrors an every-fetch-hits
            # convention, while the per-step reference
            # consults real cache content — a store to a trace's own
            # code word (self-modifying loop) leaves the entry cold at
            # the next fetch and the two legitimately disagree.  All
            # architectural counters must still match bit for bit.
            diffs = [
                f"{name}: trace={t!r} replay={r!r}"
                for name, t, r in zip(
                    _CAPTURE_FIELDS, after_trace, after_replay
                )
                if t != r and name not in _DIAGNOSTIC_FIELDS
            ]
            if diffs:
                raise JitParityError(
                    f"trace {trace.key} diverged over {consumed} "
                    "instructions: " + "; ".join(diffs)
                )
        # Keep the trace tier's icache figures so a parity run is
        # bit-for-bit indistinguishable from a non-parity jit run.
        icache = proc.inst_cache
        icache.hits, icache.misses, icache.invalidations = (
            after_trace[_ICACHE_SLICE]
        )
        self.hits += 1
        self.instructions += consumed
        return consumed

    # -- installation and invalidation --------------------------------------

    def get(self, key: tuple) -> Optional[CompiledTrace]:
        """The installed trace at ``(segno, wordno, ring)``, if any."""
        return self._traces.get(key)

    def install(self, trace: CompiledTrace) -> None:
        """Install ``trace``, replacing any prior trace at its key."""
        if not self.enabled:
            return
        if len(self._traces) >= MAX_TRACES:
            self.invalidate()
        old = self._traces.get(trace.key)
        if old is not None:
            self._drop(old)
        self._traces[trace.key] = trace
        for segno in trace.words:
            self._by_seg.setdefault(segno, set()).add(trace)
        self._fails.pop(trace.key, None)

    def _drop(self, trace: CompiledTrace) -> None:
        trace.valid = False
        if self._traces.get(trace.key) is trace:
            del self._traces[trace.key]
        for segno in trace.words:
            traces = self._by_seg.get(segno)
            if traces is not None:
                traces.discard(trace)
                if not traces:
                    del self._by_seg[segno]

    def invalidate_word(self, segno: int, wordno: int) -> None:
        """Drop every trace whose *code* covers one written word.

        Flips ``valid`` so an executing trace exits after the current
        instruction (the store that got here came from inside it), and
        applies the rebuild backoff against recompile churn.
        """
        traces = self._by_seg.get(segno)
        if not traces:
            return
        stale = [
            trace for trace in traces if wordno in trace.words.get(segno, ())
        ]
        for trace in stale:
            self._drop(trace)
            self.invalidations += 1
            self._hot[trace.key] = 1 - REBUILD_BACKOFF

    def pause_segment(self, segno: int) -> None:
        """Stop and drop traces touching a segment whose SDW was evicted."""
        traces = self._by_seg.get(segno)
        if not traces:
            return
        for trace in list(traces):
            self._drop(trace)
        self.invalidations += 1

    def invalidate(self, segno: Optional[int] = None) -> None:
        """Drop a segment's traces, or everything when ``segno`` is None."""
        self.invalidations += 1
        if segno is None:
            self.flushed = True
            for trace in self._traces.values():
                trace.valid = False
            self._traces.clear()
            self._by_seg.clear()
            self._hot.clear()
            self._fails.clear()
            return
        traces = self._by_seg.get(segno)
        if traces:
            for trace in list(traces):
                self._drop(trace)

    # -- accounting ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._traces)

    def reset_stats(self) -> None:
        """Zero the counters (benchmark hygiene); traces survive."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.compiled = 0
        self.adopted = 0
        self.instructions = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters for benchmarks and metrics."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "compiled": self.compiled,
            "adopted": self.adopted,
            "jit_instructions": self.instructions,
            "entries": len(self._traces),
        }


# ---------------------------------------------------------------------------
# parity capture
# ---------------------------------------------------------------------------

_CAPTURE_FIELDS = (
    "ipr", "prs", "a", "q", "crr", "cycles", "stats", "memory.reads",
    "memory.writes", "sdw_cache.hits", "sdw_cache.misses",
    "access_cache.hits", "access_cache.misses", "inst_cache.hits",
    "inst_cache.misses", "inst_cache.invalidations", "timer", "events",
)

#: Capture fields outside the exactness contract (see
#: :meth:`TraceCache._execute_parity`): decoded-icache counters follow
#: the trace's every-fetch-hits mirror, not real cache content.
_DIAGNOSTIC_FIELDS = frozenset(
    {"inst_cache.hits", "inst_cache.misses", "inst_cache.invalidations"}
)

#: Slice of a capture tuple holding the decoded-icache counters.
_ICACHE_SLICE = slice(
    _CAPTURE_FIELDS.index("inst_cache.hits"),
    _CAPTURE_FIELDS.index("inst_cache.invalidations") + 1,
)


def _capture(proc) -> tuple:
    """Freeze every counter and register a trace may touch."""
    regs = proc.registers
    stats = proc.stats
    memory = proc.memory
    return (
        (regs.ipr.ring, regs.ipr.segno, regs.ipr.wordno),
        tuple((pr.segno, pr.wordno, pr.ring) for pr in regs.prs),
        regs.a,
        regs.q,
        regs.crr,
        proc.cycles,
        (
            stats.instructions, stats.faults, stats.traps_delivered,
            stats.calls, stats.returns, stats.ring_crossings,
        ),
        memory.reads,
        memory.writes,
        proc.sdw_cache.hits,
        proc.sdw_cache.misses,
        proc.access_cache.hits,
        proc.access_cache.misses,
        proc.inst_cache.hits,
        proc.inst_cache.misses,
        proc.inst_cache.invalidations,
        proc.timer,
        tuple(event[0] for event in proc._events),
    )


def _restore(proc, snap: tuple, writes: List[Tuple[int, int]]) -> None:
    """Rewind the processor to ``snap``, undoing the logged stores.

    All restores are in place (the register *objects* are preserved —
    the dispatcher holds references to them).  Host-cache entries the
    trace invalidated stay invalidated — dropping them is always safe
    — except the decoded-icache entries of written words, which the
    caller re-fills so the replay's fetch counters match the original
    execution's.
    """
    (
        (iring, isegno, iwordno), prs, a, q, crr, cycles, stats_t,
        reads, mem_writes, sdw_h, sdw_m, ac_h, ac_m, ic_h, ic_m, ic_i,
        timer, events,
    ) = snap
    regs = proc.registers
    regs.ipr.ring, regs.ipr.segno, regs.ipr.wordno = iring, isegno, iwordno
    for pr, (segno, wordno, ring) in zip(regs.prs, prs):
        pr.segno, pr.wordno, pr.ring = segno, wordno, ring
    regs.a, regs.q, regs.crr = a, q, crr
    proc.cycles = cycles
    stats = proc.stats
    (
        stats.instructions, stats.faults, stats.traps_delivered,
        stats.calls, stats.returns, stats.ring_crossings,
    ) = stats_t
    memory = proc.memory
    memory.reads = reads
    memory.writes = mem_writes
    proc.sdw_cache.hits, proc.sdw_cache.misses = sdw_h, sdw_m
    proc.access_cache.hits, proc.access_cache.misses = ac_h, ac_m
    proc.inst_cache.hits, proc.inst_cache.misses = ic_h, ic_m
    proc.inst_cache.invalidations = ic_i
    proc.timer = timer
    for event, countdown in zip(proc._events, events):
        event[0] = countdown
    words = memory._words
    for addr, old in reversed(writes):
        words[addr] = old
