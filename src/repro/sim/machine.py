"""The assembled system: one machine, one supervisor, many processes.

``Machine`` is the public face of the reproduction.  A typical session::

    m = Machine()
    alice = m.add_user("alice")
    m.store_program(">udd>alice>prog", PROG_SOURCE, acl=[...])
    process = m.login(alice)
    m.initiate(process, ">udd>alice>prog")
    result = m.run(process, "prog$main", ring=4)
    print(result.console)

The machine's shape — hardware rings or the 645's trapped crossings,
the stack rule, paging, the host tiers, the hardening extensions — is
one validated :class:`~repro.sim.config.MachineConfig`, kept as
``machine.config``.  ``Machine(config)`` builds from it, and keyword
fields override it, so ``Machine(hardware_rings=False)`` and
``Machine(config, fast_gate=True)`` both work.

``fast_gate`` skips the supervisor re-attach in :meth:`Machine.start`
when the processor is already pointed at the same process and DBR —
the software analogue of the paper's repeat-gate-call hardware path.
Host caches (PTLB, icache, superblocks, traces) survive between runs,
and so does the paper's SDW associative memory: a repeat call
re-validates nothing, so its simulated figures drop by the descriptor
fetches the first call paid — the measured form of the paper's claim
that hardware rings make repeat protected calls as cheap as ordinary
ones.  Off by default: each ``run`` then starts from a fresh attach
and figures repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

from ..asm import assemble
from ..core.acl import AclEntry
from ..cpu.processor import Processor
from ..cpu.sdwcache import SDWCache
from ..krnl.process import Process
from ..krnl.services import install_services
from ..krnl.supervisor import Supervisor
from ..krnl.users import User
from ..mem.physical import PhysicalMemory
from ..mem.segment import SegmentImage
from .config import MachineConfig
from .metrics import MetricsSnapshot


@dataclass
class RunResult:
    """What came out of one :meth:`Machine.run`.

    ``metrics`` is the cumulative :class:`MetricsSnapshot` at the end of
    the run; ``run_metrics`` is the per-run delta (end minus start), so
    consecutive ``run(..., reset_counters=False)`` calls still report
    meaningful per-run figures — including cache hit rates — while the
    plain counters (``instructions``, ``cycles``, ...) keep accumulating.
    With ``reset_counters=True`` (the default) the two are the same
    snapshot.
    """

    halted: bool
    instructions: int
    cycles: int
    a: int
    q: int
    ring: int
    console: List[int] = field(default_factory=list)
    faults: int = 0
    ring_crossings: int = 0
    metrics: Optional[MetricsSnapshot] = None
    run_metrics: Optional[MetricsSnapshot] = None


class Machine:
    """A complete simulated system."""

    def __init__(self, config: Optional[MachineConfig] = None, **fields: Any):
        #: this machine's validated shape (``replace`` raises TypeError
        #: for a config that is not a MachineConfig or an unknown field)
        self.config = config = replace(
            config or MachineConfig(), **fields
        ).validate()
        self.fast_gate = config.fast_gate
        self.memory = PhysicalMemory(config.memory_words)
        self.supervisor = Supervisor(self.memory)
        self.supervisor.paged = config.paged
        self.supervisor.lazy_linking = config.lazy_linking
        self.hardening = config.hardening
        self.processor = Processor(
            self.memory,
            cost=config.cost,
            stack_rule=config.stack_rule,
            hardware_rings=config.hardware_rings,
            sdw_cache=SDWCache(
                slots=config.sdw_cache_slots, enabled=config.sdw_cache_enabled
            ),
            fast_path=config.fast_path_enabled,
            block_tier=config.block_tier_enabled,
            jit_tier=config.jit_tier_enabled,
            hardening=config.hardening,
        )
        # ring_domains: the supervisor binds segment numbers to domains
        # as it initiates segments.
        self.supervisor.domains = self.processor.domains
        self.system_user = self.supervisor.users.register(
            "system", administrator=True
        )
        if config.services:
            install_services(self.fs, self.system_user)

    # -- delegates ---------------------------------------------------------

    @property
    def fs(self):
        """The simulated file system."""
        return self.supervisor.fs

    @property
    def users(self):
        """The user registry."""
        return self.supervisor.users

    @property
    def console(self) -> List[int]:
        """Words written to the console via the supervisor's CIOC hook."""
        return self.supervisor.console_values()

    # -- system building -----------------------------------------------------

    def add_user(self, name: str, administrator: bool = False) -> User:
        """Register a user."""
        return self.users.register(name, administrator=administrator)

    def store_program(
        self,
        path: str,
        source: str,
        acl: List[AclEntry],
        owner: Optional[User] = None,
        name: Optional[str] = None,
    ) -> SegmentImage:
        """Assemble a program and store it with its ACL."""
        image = assemble(source, name=name or path.split(">")[-1])
        self.fs.create(path, image, owner=owner or self.system_user, acl=acl)
        return image

    def store_data(
        self,
        path: str,
        values: List[int],
        acl: List[AclEntry],
        owner: Optional[User] = None,
        name: Optional[str] = None,
    ) -> SegmentImage:
        """Store a data segment with its ACL."""
        image = SegmentImage.from_values(
            name or path.split(">")[-1], list(values)
        )
        self.fs.create(path, image, owner=owner or self.system_user, acl=acl)
        return image

    def login(
        self,
        user: User,
        descriptor_bound: int = 128,
        stack_base_segno: int = 0,
    ) -> Process:
        """Create the user's process (paper p. 7: one per login)."""
        return self.supervisor.create_process(
            user,
            descriptor_bound=descriptor_bound,
            stack_base_segno=stack_base_segno,
        )

    def initiate(self, process: Process, path: str, name: Optional[str] = None) -> int:
        """Add a stored segment to a process's virtual memory."""
        return self.supervisor.initiate(process, path, name=name)

    def assign_domain(self, name: str, domain: str) -> bool:
        """Bind segment ``name`` to a ring domain (``ring_domains`` only).

        Returns False (a no-op) when the extension is off, so callers
        can assign unconditionally.  Assignments should precede the
        segment's initiation; a late assignment is honoured for
        already-known segments, with the host caches of that segment
        dropped so compiled tiers revalidate under the new domain.
        """
        domains = self.processor.domains
        if domains is None:
            return False
        domains.assign(name, domain)
        active = self.supervisor.active_by_name.get(name)
        if active is not None:
            domains.register(active.segno, name)
            self.processor.invalidate_sdw(active.segno)
        return True

    def make_scheduler(self, quantum: int = 50):
        """A round-robin scheduler multiplexing this machine's processor."""
        from ..krnl.scheduler import RoundRobinScheduler

        return RoundRobinScheduler(
            self.processor, self.supervisor, quantum=quantum
        )

    # -- execution -------------------------------------------------------------

    def detach(self) -> None:
        """Forget which process the processor is attached to.

        The parking discipline of the session layer: a parked snapshot
        records no attachment, so the next :meth:`start` after hydration
        goes through the full supervisor re-attach — the DBR load
        flushes every cache, including the SDW associative memory and
        the ``fast_gate`` attach memo, and the first gate call re-fetches
        its descriptors exactly like a tenant's first call ever did.
        Processor state (registers, DBR contents) is untouched; this
        only invalidates the memo.
        """
        self.supervisor.attached_process = None

    def start(self, process: Process, ref: str, ring: int) -> None:
        """Point the processor at ``ref`` in ``ring`` without running.

        All pointer registers are initialised to the ring's stack base
        (satisfying the ``PRn.RING >= IPR.RING`` invariant from the first
        instruction) and the stack's next-available word is honoured.

        Under ``fast_gate``, a repeat start of the process the
        processor is already attached to skips the supervisor
        re-attach: the DBR switch (which would flush every host cache,
        including compiled traces) is elided and only the interval
        timer is re-armed.  The validated call environment — trap
        handlers, translations, superblocks, traces — survives intact,
        which is what makes repeat gate calls cheap.
        """
        sup = self.supervisor
        if (
            self.fast_gate
            and sup.attached_process is process
            and self.processor.dbr is process.dbr
        ):
            if sup.timer_quantum is not None:
                self.processor.set_timer(sup.timer_quantum)
        else:
            sup.attach(self.processor, process)
        if self.processor.auth_stack is not None:
            # Each start is a fresh call chain: leftover MAC frames from
            # an aborted previous run must not vouch for this one.  Done
            # in both attach branches so fast_gate repeats stay
            # bit-identical with cold starts.
            self.processor.auth_stack.clear()
        segno, wordno = process.entry_of(ref)
        regs = self.processor.registers
        stack_segno = process.stack_segno(ring)
        for pr in regs.prs:
            pr.load(stack_segno, 0, ring)
        regs.crr = ring
        regs.set_a(0)
        regs.set_q(0)
        regs.ipr.set(ring, segno, wordno)

    def run(
        self,
        process: Process,
        ref: str,
        ring: int = 4,
        max_steps: int = 1_000_000,
        reset_counters: bool = True,
    ) -> RunResult:
        """Run ``ref`` in ``ring`` until HALT and collect the results.

        Unhandled faults propagate to the caller as
        :class:`repro.cpu.faults.Fault` — deliberately: tests assert on
        them, and example programs treat them as crashes.
        """
        self.start(process, ref, ring)
        if reset_counters:
            self.processor.reset_counters()
            # Fault-side diagnostics are part of the per-run figure too:
            # a fresh run should not inherit another run's post-mortems.
            self.supervisor.aborted_faults.clear()
            # every counter starts at zero, so the cumulative snapshot
            # is the per-run delta: one collect, no subtraction
            self.processor.run(max_steps=max_steps)
            after = run_metrics = MetricsSnapshot.collect(self.processor)
        else:
            before = MetricsSnapshot.collect(self.processor)
            self.processor.run(max_steps=max_steps)
            after = MetricsSnapshot.collect(self.processor)
            run_metrics = after.minus(before)
        regs = self.processor.registers
        stats = self.processor.stats
        return RunResult(
            halted=self.processor.halted,
            instructions=stats.instructions,
            cycles=self.processor.cycles,
            a=regs.a,
            q=regs.q,
            ring=regs.ipr.ring,
            console=self.console,
            faults=stats.faults,
            ring_crossings=stats.ring_crossings,
            metrics=after,
            run_metrics=run_metrics,
        )
