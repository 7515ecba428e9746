"""The processor: instruction cycle, traps, and cycle accounting.

The instruction cycle follows the paper's narrative exactly:

1. **fetch** (Figure 4) — the next instruction's SDW is obtained and the
   ring of execution is matched against the execute bracket before the
   instruction word is read;
2. **effective address** (Figure 5) — when the instruction has an
   operand, the two-part address *and the effective ring* are formed in
   the TPR, validating each indirect-word retrieval on the way;
3. **perform** (Figures 6–9) — the operand reference is validated by
   group and the operation executed.

Any violation raises a :class:`~repro.cpu.faults.Fault`, "derailing the
instruction cycle": the processor charges the trap overhead, conceptually
switches to ring 0, and hands the fault to the installed supervisor
handler.  Without a handler (bare machine) the fault propagates to the
host caller — convenient for unit tests that assert on fault codes.

Cycle accounting is a deterministic cost model, not a timing claim: one
cycle per memory word moved (instruction words, operands, indirect
words, SDW fetches, page-table words) plus a per-instruction base cost
and a fixed trap overhead.  Relative costs — what the paper argues
about — are therefore meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..errors import BracketOrderError, ConfigurationError, MachineHalted
from ..formats.instruction import Instruction
from ..hardening import AuthReturnStack, DomainMap, HardeningConfig
from ..formats.sdw import SDW, SDW_WORDS
from ..mem.descriptor import DBR
from ..mem.paging import PageFaultSignal, translate_paged
from ..mem.physical import PhysicalMemory
from . import operations
from .access_cache import (
    DecodedInstructionCache,
    GROUP_EXECUTE,
    GROUP_READ,
    GROUP_WRITE,
    ValidatedTranslationCache,
)
from .address import form_effective_address
from .faults import Fault, FaultCode
from .isa import BY_NUMBER, Op
from .jit import COLD_THRESHOLD, HOT_THRESHOLD, TraceCache, parity_requested
from .registers import RegisterFile, STACK_PTR_PR, TPR
from .sdwcache import SDWCache
from .validate import validate_fetch, validate_read, validate_write

#: PTLB access-group -> slow-path validator (Figures 4 and 6).
_VALIDATORS = {
    GROUP_READ: validate_read,
    GROUP_WRITE: validate_write,
    GROUP_EXECUTE: validate_fetch,
}

#: Action strings a fault handler may return.
HANDLER_RETRY = "retry"
HANDLER_CONTINUE = "continue"
HANDLER_ABORT = "abort"

#: Signature of a supervisor fault handler.
FaultHandler = Callable[["Processor", Fault], Optional[str]]


@dataclass
class CostModel:
    """The deterministic cycle-cost parameters of the simulation.

    ``trap_overhead`` models what the hardware does on every trap —
    saving processor state, forcing ring 0, vectoring into the
    supervisor, and the eventual privileged restore — and is charged on
    top of whatever work the software handler itself performs.
    """

    #: cycles per word moved to or from memory
    memory_reference: int = 1
    #: base cycles per instruction, on top of its memory traffic
    instruction_base: int = 1
    #: cycles for trap entry + state save + restore instruction
    trap_overhead: int = 30
    #: extra cycles CALL/RETURN spend on ring bookkeeping (tiny: the
    #: paper stresses the "very small additional costs in hardware
    #: logic and processor speed", p. 39)
    ring_crossing_extra: int = 1
    #: cycles per MAC operation of the authenticated return stack
    #: (repro.hardening.authstack); charged once per downward CALL and
    #: once per verified upward RETURN when ``auth_return_stack`` is on
    auth_mac_cycles: int = 1


def resolve_tiers(fast_path: bool, jit_tier: Optional[bool]) -> bool:
    """Whether a processor with these knobs runs the trace tier.

    The trace tier is built on the fast path.  ``None`` leaves it off
    unless ``REPRO_JIT_PARITY`` asks for it wherever the fast path
    runs.  Enabling it with the fast path off is a contradiction, not a
    preference.
    """
    jit = (parity_requested() and fast_path) if jit_tier is None else jit_tier
    if jit and not fast_path:
        raise ConfigurationError(
            "jit_tier_enabled=True requires fast_path_enabled=True: "
            "compiled traces fold the fast-path PTLB's validations"
        )
    return jit


@dataclass
class ProcessorStats:
    """Counters the benchmarks and experiments read out."""

    instructions: int = 0
    faults: int = 0
    traps_delivered: int = 0
    calls: int = 0
    returns: int = 0
    ring_crossings: int = 0


class Processor:
    """One simulated processor attached to a physical memory.

    ``stack_rule`` selects the stack-segment selection rule for CALL:
    ``"simple"`` is the body-text rule (stack segno = new ring number);
    ``"dbr"`` is the footnote's refined rule (same-ring calls keep the
    current stack pointer's segment, cross-ring calls use
    ``DBR.STACK + new ring``).

    ``hardware_rings=False`` turns the processor into the Honeywell-645
    baseline: CALL and RETURN still run their full validation, but any
    ring change traps to the supervisor instead of being performed — the
    "before" machine of the paper's comparison.
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        dbr: Optional[DBR] = None,
        cost: Optional[CostModel] = None,
        sdw_cache: Optional[SDWCache] = None,
        stack_rule: str = "dbr",
        hardware_rings: bool = True,
        nrings: int = 8,
        fast_path: bool = True,
        jit_tier: Optional[bool] = None,
        hardening: Optional[HardeningConfig] = None,
    ):
        if stack_rule not in ("simple", "dbr"):
            raise ConfigurationError(f"unknown stack rule {stack_rule!r}")
        if not 2 <= nrings <= 8:
            raise ConfigurationError(f"nrings must be in [2, 8], got {nrings}")
        jit_tier = resolve_tiers(fast_path, jit_tier)
        # REPRO_JIT_PARITY=1 is the parity-backstop mode: the trace tier
        # runs wherever the fast path does (resolve_tiers), and every
        # trace is co-executed against the per-step interpreter.
        parity = parity_requested()
        self.memory = memory
        self.dbr = dbr or DBR()
        self.cost = cost or CostModel()
        self.sdw_cache = sdw_cache or SDWCache()
        #: host-side fast path (see repro.cpu.access_cache): cycle
        #: accounting is identical with these on or off
        self.access_cache = ValidatedTranslationCache(enabled=fast_path)
        self.inst_cache = DecodedInstructionCache(enabled=fast_path)
        #: trace-compile execution tier (see repro.cpu.jit): compiled
        #: traces above the fast path, architecturally invisible
        self.jit_cache = TraceCache(enabled=jit_tier, parity=parity)
        if jit_tier:
            # An SDW capacity eviction must drop every compiled trace of
            # the victim segment: per-step execution would pay (and
            # charge) an SDW refetch at its next instruction fetch.
            self.sdw_cache.on_evict = self.jit_cache.pause_segment
        self.stack_rule = stack_rule
        self.hardware_rings = hardware_rings
        self.nrings = nrings
        #: hardening extensions (repro.hardening): each off by default
        self.hardening = hardening or HardeningConfig()
        self.auth_stack: Optional[AuthReturnStack] = (
            AuthReturnStack(self.hardening.auth_key_seed)
            if self.hardening.auth_return_stack
            else None
        )
        self.domains: Optional[DomainMap] = (
            DomainMap(self.hardening.domains)
            if self.hardening.ring_domains
            else None
        )
        self.nx_brackets = self.hardening.nx_brackets
        self.registers = RegisterFile()
        self.cycles = 0
        self.stats = ProcessorStats()
        self.fault_handler: Optional[FaultHandler] = None
        self.io_handler: Optional[Callable[["Processor", int], None]] = None
        self.trace_hook: Optional[Callable[[str], None]] = None
        #: snapshots pushed by trap delivery, popped by RCU
        self._save_stack: List[RegisterFile] = []
        self.halted = False
        #: interval timer: instructions until a TIMER fault (None = off)
        self.timer: Optional[int] = None
        #: pending asynchronous events: [countdown, code, detail]
        self._events: List[list] = []

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Advance the simulated clock."""
        self.cycles += cycles

    def reset_counters(self) -> None:
        """Zero the clock and statistics (benchmark hygiene).

        Covers every counter a benchmark can read: the clock, the
        processor stats, memory traffic, and the hit/miss/invalidation
        statistics of the SDW associative memory and every host
        tier — otherwise warm-up runs pollute the measured figures.
        Cache *contents* survive, exactly like real hardware across a
        counter reset.
        """
        self.cycles = 0
        self.stats = ProcessorStats()
        self.memory.reset_counters()
        self.sdw_cache.reset_stats()
        self.access_cache.reset_stats()
        self.inst_cache.reset_stats()
        self.jit_cache.reset_stats()

    def drop_host_caches(self) -> None:
        """Empty every host-side cache; counters and SDWs survive.

        Checkpoint hook: a snapshot never records host-tier contents, so
        a worker that keeps running past a checkpoint must continue from
        the same cold host caches a restored successor would start with
        — that is what keeps a snapshot-resumed replay bit-identical in
        *every* counter, host tiers included.
        """
        self.access_cache.invalidate()
        self.inst_cache.invalidate()
        if self.jit_cache.enabled:
            self.jit_cache.invalidate()

    def warm_sdw_cache(self, segnos: List[int]) -> None:
        """Refill the SDW associative memory from descriptor memory.

        Restore hook for :mod:`repro.state.snapshot`: a snapshot records
        only which segment numbers were cached (in fill order), never the
        SDW bits — descriptor memory is authoritative.  The refill is
        uncharged and uncounted (no cycles, no memory traffic, no
        hit/miss accounting) so a restored machine continues with exactly
        the cycle and counter stream of the uninterrupted one.
        """
        self.sdw_cache._entries.clear()
        for segno in segnos:
            if segno >= self.dbr.bound:
                continue
            base = self.dbr.sdw_addr(segno)
            w0, w1 = self.memory.peek_block(base, SDW_WORDS)
            sdw = SDW.unpack(w0, w1)
            if sdw.present:
                self.sdw_cache._entries[segno] = sdw

    # ------------------------------------------------------------------
    # address translation and memory access
    # ------------------------------------------------------------------

    def fetch_sdw(self, segno: int, wordno: Optional[int] = None) -> SDW:
        """Obtain the SDW for ``segno``, via the associative memory.

        Faults when the segment number exceeds the descriptor bound or
        the segment is missing (present bit clear).  ``wordno`` is pure
        fault context: the word number the reference was aimed at (the
        linkage-fault machinery reads the link id out of it).
        """
        if segno >= self.dbr.bound:
            raise Fault(
                FaultCode.ACV_SEGNO_BOUND,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
                detail=f"descriptor bound is {self.dbr.bound}",
            )
        sdw = self.sdw_cache.lookup(segno)
        if sdw is None:
            self.charge(self.cost.memory_reference * SDW_WORDS)
            base = self.dbr.sdw_addr(segno)
            w0 = self.memory.read(base)
            w1 = self.memory.read(base + 1)
            try:
                sdw = SDW.unpack(w0, w1)
            except BracketOrderError as exc:
                # Corrupted descriptor memory is a machine event, not a
                # host bug: trap so the supervisor can decide.
                raise Fault(
                    FaultCode.INVALID_SDW,
                    segno=segno,
                    cur_ring=self.registers.ipr.ring,
                    detail=str(exc),
                ) from None
            if sdw.present:
                self.sdw_cache.fill(segno, sdw)
        if not sdw.present:
            raise Fault(
                FaultCode.MISSING_SEGMENT,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
            )
        return sdw

    def translate(self, sdw: SDW, segno: int, wordno: int) -> int:
        """Two-part address -> absolute address (transparent paging)."""
        if not sdw.paged:
            return sdw.addr + wordno
        self.charge(self.cost.memory_reference)  # the PTW fetch
        try:
            return translate_paged(self.memory, sdw.addr, wordno)
        except PageFaultSignal as sig:
            raise Fault(
                FaultCode.MISSING_PAGE,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
                detail=f"page {sig.page_index}",
            ) from None

    def validate_access(
        self, segno: int, ring: int, wordno: int, group: str
    ) -> Tuple[SDW, Optional[FaultCode]]:
        """``fetch_sdw`` + Figure 4/6 validation, memoized in the PTLB.

        Returns ``(sdw, code)`` with ``code`` None on success; raises
        :class:`~repro.cpu.faults.Fault` exactly like :meth:`fetch_sdw`
        for descriptor-bound and missing-segment conditions.

        A PTLB entry is honoured only while the SDW associative memory
        still holds the identical SDW object, so any eviction, refetch,
        or supervisor invalidation retires it automatically; the bound
        check is repeated per word because the word number is not part
        of the key.  On a hit the counters a slow-path reference would
        have bumped (an SDW-cache hit) are mirrored and no cycles are
        charged — exactly what the slow path does when the SDW is in
        the associative memory, which the identity check guarantees.

        With ``ring_domains`` on, the domain check runs *before* the
        PTLB consult on every reference: the PTLB key carries no
        executing segment, so a validation cached for code in one
        domain must not be honoured for code in another.  Ring 0 is
        outside the domain system — domains compartmentalize the
        non-privileged rings the way LOTRx86's domains partition user
        mode, and the supervisor must reach every compartment to
        service it.  With ``nx_brackets`` on, an execute validation of
        a segment that is also writable fails with ``ACV_NX`` (W^X);
        the check lives on the slow path only, which is sound because
        failed validations are never cached.
        """
        domains = self.domains
        if domains is not None:
            ipr = self.registers.ipr
            if ipr.ring != 0:
                target_domain = domains.by_segno.get(segno)
                if target_domain is not None and target_domain != (
                    domains.by_segno.get(ipr.segno)
                ):
                    raise Fault(
                        FaultCode.ACV_DOMAIN,
                        segno=segno,
                        wordno=wordno,
                        ring=ring,
                        cur_ring=ipr.ring,
                        detail=f"target domain {target_domain!r}",
                    )
        cache = self.access_cache
        if cache.enabled:
            sdw = cache._entries.get((segno, ring, group))
            if (
                sdw is not None
                and self.sdw_cache._entries.get(segno) is sdw
                and wordno < sdw.bound
            ):
                cache.hits += 1
                self.sdw_cache.hits += 1
                return sdw, None
            cache.misses += 1
        sdw = self.fetch_sdw(segno, wordno)
        if (
            self.nx_brackets
            and group is GROUP_EXECUTE
            and sdw.execute
            and sdw.write
        ):
            return sdw, FaultCode.ACV_NX
        code = _VALIDATORS[group](sdw, ring, wordno)
        if code is None and cache.enabled:
            cache._entries[(segno, ring, group)] = sdw
        return sdw, code

    def read_word(self, sdw: SDW, segno: int, wordno: int) -> int:
        """Charged, translated read of one virtual word (pre-validated)."""
        addr = self.translate(sdw, segno, wordno)
        self.charge(self.cost.memory_reference)
        return self.memory.read(addr)

    def write_word(self, sdw: SDW, segno: int, wordno: int, value: int) -> None:
        """Charged, translated write of one virtual word (pre-validated)."""
        addr = self.translate(sdw, segno, wordno)
        self.charge(self.cost.memory_reference)
        self.memory.write(addr, value)
        # Self-modifying code: drop the decoded entry and any compiled
        # trace covering the written word (writes the processor cannot
        # see are caught by the word-compare backstops on the next fetch
        # or trace entry).
        if self.inst_cache.enabled:
            self.inst_cache.invalidate_word(segno, wordno)
        if self.jit_cache.enabled:
            self.jit_cache.invalidate_word(segno, wordno)

    # ------------------------------------------------------------------
    # instruction cycle
    # ------------------------------------------------------------------

    def fetch_instruction(self) -> tuple:
        """Figure 4: validate, retrieve, and decode the next instruction.

        Returns the decoded-instruction-cache entry tuple
        ``(word, op, inst, needs_ea, handler)``; see
        :class:`~repro.cpu.access_cache.DecodedInstructionCache`.  The
        instruction word is always read (and charged) through the
        normal translated path; only the host-side decode work is
        memoized, and a cached decode is used only when the word just
        read equals the word it was decoded from.
        """
        ipr = self.registers.ipr
        segno, wordno, ring = ipr.segno, ipr.wordno, ipr.ring
        sdw, code = self.validate_access(segno, ring, wordno, GROUP_EXECUTE)
        if code is not None:
            raise Fault(
                code,
                segno=segno,
                wordno=wordno,
                ring=ring,
                cur_ring=ring,
                detail="instruction fetch",
            )
        word = self.read_word(sdw, segno, wordno)
        icache = self.inst_cache
        if icache.enabled:
            seg = icache._entries.get(segno)
            if seg is not None:
                entry = seg.get(wordno)
                if entry is not None and entry[0] == word:
                    icache.hits += 1
                    return entry
            icache.misses += 1
        inst = Instruction.unpack(word)
        op = BY_NUMBER.get(inst.opcode)
        if op is None:
            raise Fault(
                FaultCode.ILLEGAL_OPCODE,
                segno=segno,
                wordno=wordno,
                cur_ring=ring,
                detail=f"opcode {inst.opcode:#o}",
            )
        entry = (
            word,
            op,
            inst,
            operations.needs_effective_address(op, inst),
            operations.resolve_handler(op, inst),
        )
        if icache.enabled:
            icache.fill(segno, wordno, entry)
        return entry

    def step(self) -> None:
        """Execute one instruction, delivering any fault it raises."""
        ipr = self.registers.ipr
        at = (ipr.ring, ipr.segno, ipr.wordno)
        try:
            self.charge(self.cost.instruction_base)
            _, op, inst, needs_ea, handler = self.fetch_instruction()
            if op.privileged and ipr.ring != 0:
                raise Fault(
                    FaultCode.ACV_PRIVILEGED,
                    segno=ipr.segno,
                    wordno=ipr.wordno,
                    cur_ring=ipr.ring,
                    detail=op.name,
                )
            self.registers.ipr.advance()
            tpr: Optional[TPR] = None
            if needs_ea:
                tpr = form_effective_address(self, inst)
            before_ring = self.registers.ipr.ring
            try:
                if handler is not None:
                    handler(self, inst, tpr)
                else:
                    operations.execute(self, op, inst, tpr)
            except MachineHalted:
                self.stats.instructions += 1
                raise
            # Completed instructions only: a CALL that faulted (e.g. for
            # demand initiation) and is retried must not double-count.
            if op is Op.CALL:
                self.stats.calls += 1
            elif op is Op.RETURN:
                self.stats.returns += 1
            if self.registers.ipr.ring != before_ring:
                self.stats.ring_crossings += 1
                self.charge(self.cost.ring_crossing_extra)
            self.stats.instructions += 1
            if self.trace_hook is not None:
                self.trace_hook(
                    f"({at[0]},{at[1]},{at[2]}) {op.name} "
                    f"-> ring {self.registers.ipr.ring}"
                )
        except Fault as fault:
            fault.at_segno, fault.at_wordno = at[1], at[2]
            if fault.cur_ring is None:
                fault.cur_ring = at[0]
            self._deliver_fault(fault, at)
            return
        # Only completed instructions advance the interval timer and the
        # event countdowns; both are delivered *between* instructions so
        # the interrupted computation is resumable.
        self._tick_timer()
        self._tick_events()

    def set_timer(self, instructions: Optional[int]) -> None:
        """Arm (or disarm with None) the interval timer.

        When the count reaches zero a TIMER fault fires *between*
        instructions — the interrupted computation is resumable exactly
        where it stopped, which is what makes the timer usable for
        preemption and runaway control.
        """
        if instructions is not None and instructions <= 0:
            raise ConfigurationError("timer count must be positive")
        self.timer = instructions

    def schedule_event(
        self, after_instructions: int, code: FaultCode, detail: str = ""
    ) -> None:
        """Arrange an asynchronous event (I/O completion and the like).

        After ``after_instructions`` further completed instructions a
        fault of ``code`` is delivered between instructions — the
        device-interrupt model: the running program is oblivious, the
        supervisor fields the event and returns control.
        """
        if after_instructions <= 0:
            raise ConfigurationError("event delay must be positive")
        self._events.append([after_instructions, code, detail])

    @property
    def pending_events(self) -> int:
        """Number of scheduled events that have not yet fired."""
        return len(self._events)

    def _tick_events(self) -> None:
        if not self._events:
            return
        due = []
        for event in self._events:
            event[0] -= 1
            if event[0] <= 0:
                due.append(event)
        for event in due:
            self._events.remove(event)
            ipr = self.registers.ipr
            fault = Fault(
                event[1],
                cur_ring=ipr.ring,
                at_segno=ipr.segno,
                at_wordno=ipr.wordno,
                detail=event[2],
            )
            self._deliver_fault(fault, (ipr.ring, ipr.segno, ipr.wordno))

    def _tick_timer(self) -> None:
        if self.timer is None:
            return
        self.timer -= 1
        if self.timer > 0:
            return
        self.timer = None
        ipr = self.registers.ipr
        fault = Fault(
            FaultCode.TIMER,
            cur_ring=ipr.ring,
            at_segno=ipr.segno,
            at_wordno=ipr.wordno,
            detail="interval timer runout",
        )
        # Delivered between instructions: "retry" and "continue" agree.
        self._deliver_fault(fault, (ipr.ring, ipr.segno, ipr.wordno))

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until HALT; returns the number of instructions executed.

        Raises :class:`~repro.errors.ConfigurationError` if the step
        budget is exhausted (runaway program) and propagates unhandled
        faults when no supervisor is installed.  With the trace tier
        enabled each iteration runs the compiled trace installed at the
        current ``(segno, wordno, ring)``, records one at a hot trace
        head, or falls back to one :meth:`step`; the simulated figures
        are bit-identical either way.  Tracing keeps every instruction
        on :meth:`step` so the per-step hook fires for each.

        Trace heads are counted in three places only: the run's first
        address, the target of a backward transfer within one segment
        and ring (a loop head), and the address a trace exits at —
        except a loop trace's closing branch, where it exits when the
        loop ends: the code after a loop runs once per loop, and is
        often just a return.  Counting every interpreted address would
        record a fresh trace at each of them in turn on a cold machine.
        A run that starts on a just-flushed trace cache needs
        ``COLD_THRESHOLD`` visits to a head instead of ``HOT_THRESHOLD``.
        """
        self.halted = False
        jit = self.jit_cache
        jit_on = jit.enabled
        threshold = COLD_THRESHOLD if jit.flushed else HOT_THRESHOLD
        jit.flushed = False
        traces = jit._traces
        ipr = self.registers.ipr
        remaining = max_steps
        head = True
        try:
            while remaining > 0:
                if not jit_on or self.trace_hook is not None:
                    self.step()
                    remaining -= 1
                    continue
                segno, wordno, ring = ipr.segno, ipr.wordno, ipr.ring
                key = (segno, wordno, ring)
                trace = traces.get(key)
                if trace is not None:
                    consumed = jit.execute(self, trace, remaining)
                    if consumed:
                        remaining -= consumed
                        head = (
                            ipr.segno, ipr.wordno, ipr.ring
                        ) != trace.closing
                        continue
                elif head and jit.note_dispatch(key, threshold):
                    remaining -= jit.record_and_compile(self, remaining)
                    head = False
                    continue
                self.step()
                remaining -= 1
                head = (
                    ipr.wordno < wordno
                    and ipr.segno == segno
                    and ipr.ring == ring
                )
        except MachineHalted:
            self.halted = True
            return self.stats.instructions
        raise ConfigurationError(
            f"program did not halt within {max_steps} steps "
            f"(at ring {ipr.ring}, segment {ipr.segno}, word {ipr.wordno})"
        )

    # ------------------------------------------------------------------
    # traps
    # ------------------------------------------------------------------

    def _deliver_fault(self, fault: Fault, at: Tuple[int, int, int]) -> None:
        """Trap: save state, force ring 0, invoke the supervisor handler.

        With no handler installed the fault propagates to the host (the
        bare-machine mode unit tests rely on).
        """
        self.stats.faults += 1
        if self.fault_handler is None:
            raise fault
        self.stats.traps_delivered += 1
        self.charge(self.cost.trap_overhead)
        depth = len(self._save_stack)
        self._save_stack.append(self.registers.snapshot())
        # The handler conceptually executes in ring 0 at the trap vector.
        action = self.fault_handler(self, fault)
        if action == HANDLER_ABORT:
            # The aborted program is done with: discard everything this
            # trap pushed, or an attack that faults repeatedly would
            # grow the save stack without bound (and leak the aborted
            # registers into snapshots).
            del self._save_stack[depth:]
            raise fault
        if action == HANDLER_RETRY:
            ring, segno, wordno = at
            self.registers.ipr.set(ring, segno, wordno)
        # HANDLER_CONTINUE (or None after the handler rewrote the IPR):
        # execution proceeds wherever the registers now point.  Pop our
        # frame only if the handler did not already consume it via RCU.
        if len(self._save_stack) > depth:
            self._save_stack.pop()

    def restore_control_unit(self) -> None:
        """RCU: reload the register state saved at the last trap."""
        if not self._save_stack:
            raise Fault(
                FaultCode.ILLEGAL_OPCODE,
                cur_ring=self.registers.ipr.ring,
                detail="RCU with no saved state",
            )
        self.registers.restore(self._save_stack.pop())

    # ------------------------------------------------------------------
    # instruction support (called from repro.cpu.operations)
    # ------------------------------------------------------------------

    def stack_segno_for_call(self, new_ring: int, old_ring: int) -> int:
        """The stack-segment selection rule (paper p. 30 + footnote)."""
        if self.stack_rule == "simple":
            return new_ring
        if new_ring == old_ring:
            return self.registers.pr(STACK_PTR_PR).segno
        return self.dbr.stack_segno(new_ring)

    def load_dbr_words(self, w0: int, w1: int) -> None:
        """LDBR: install a new DBR and clear the SDW associative memory.

        Both fast-path tiers are flushed too: a DBR load switches
        descriptor segments, so every cached validation and every
        cached decode is for the wrong virtual memory.
        """
        self.dbr = DBR.unpack(w0, w1)
        self.sdw_cache.invalidate()
        self.access_cache.invalidate()
        self.inst_cache.invalidate()
        if self.jit_cache.enabled:
            self.jit_cache.invalidate()

    def set_dbr(self, dbr: DBR) -> None:
        """Supervisor-side DBR switch (process dispatch)."""
        self.dbr = dbr
        self.sdw_cache.invalidate()
        self.access_cache.invalidate()
        self.inst_cache.invalidate()
        if self.jit_cache.enabled:
            self.jit_cache.invalidate()

    def connect_io(self, word: int) -> None:
        """CIOC: hand a channel-program word to the attached I/O system."""
        if self.io_handler is not None:
            self.io_handler(self, word)

    def invalidate_sdw(self, segno: Optional[int] = None) -> None:
        """Supervisor notification that SDWs changed in memory.

        Clears the affected entries in the SDW associative memory and
        in both fast-path tiers, making the change immediately
        effective (paper p. 9): the next reference revalidates against
        the descriptor segment's current contents.
        """
        self.sdw_cache.invalidate(segno)
        self.access_cache.invalidate(segno)
        self.inst_cache.invalidate(segno)
        if self.jit_cache.enabled:
            self.jit_cache.invalidate(segno)
