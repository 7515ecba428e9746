"""Persistent-machine workers behind asyncio worker channels.

Building a fresh machine per call is far too slow for serving
(machine construction costs more than a small gate call), so the
gateway keeps one :class:`~repro.sim.machine.Machine` alive per pool
worker and routes every request to whichever worker is free; programs
and user processes are installed lazily and cached for the worker's
lifetime.

Each worker owns one end of a ``socket.socketpair()``; the gateway
holds the other end as an :class:`asyncio.Protocol` on its own event
loop.  A call is one length-prefixed pickled ``(fn, args)`` frame out
and one ``(ok, value)`` frame back, so the gateway's side of a call is
a pickle, a socket write, and a read callback — no executor manager
thread, no queue feeder thread, no cross-thread wake-up.  On the
``process`` backend each worker is a child forked through
:mod:`multiprocessing`'s fork context (entry points are pickled by
reference; after-fork hooks and exit finalizers run as in any
multiprocessing child); the ``thread`` backend runs each worker as a
thread of the gateway process.  Both run :func:`serve_channel`, so both
backends see the same bytes.  :class:`WorkerPool` serves the classic
layout (any free worker takes the next call) and the session layout
(each call names its shard's worker) alike.

The machine-facing half lives in :class:`GateCallEngine` — a machine
plus its program/process caches and cumulative counters, with no pool
plumbing — so the recovery replayer (:mod:`repro.state.recover`) can
drive the exact same code path the serving workers use.  Worker state
(an engine plus its journal and checkpoint files) lives in a
``threading.local``: a process-backend worker serves its channel on its
single main thread (one machine per process), a thread-backend worker
gets one machine per worker thread.  Jobs and results are plain dicts
so a call crosses the channel as one pickle of small ints and strings
either way.

With a :class:`DurabilityConfig` installed, each worker claims a *slot*
— a directory holding its write-ahead journal and periodic snapshots —
and every executed call is journaled before the result is returned.  A
replacement worker that claims the slot of a crashed one restores the
snapshot, replays the journal tail, and resumes with the dead worker's
machine state and counters intact; the ``generation`` counter in each
result tells the gateway a restart happened so it can re-baseline its
cross-check sums.

Every result carries the per-call :class:`MetricsSnapshot` delta *and*
the worker's own cumulative totals.  The gateway sums the deltas per
worker; the ``stats`` verb then cross-checks its sums against what the
workers themselves counted: the merged figures must equal what the
workers accumulated, held across a network boundary.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..cpu.faults import Fault
from ..errors import ConfigurationError, ReproError
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from ..state.journal import JournalWriter
from ..state.recover import (
    JOURNAL_NAME,
    journal_record,
    recover_slot,
    remember,
    write_checkpoint,
)
from .catalog import resolve
from .protocol import ErrorCode

if TYPE_CHECKING:
    from .sessions import SessionConfig

BACKENDS = ("process", "thread")

#: the shape of a serving machine: the full host tier stack plus the
#: fast-gate entry path, so repeat (user, gate) calls skip
#: re-validation and enter compiled traces directly.  Architectural
#: figures are identical either way.
SERVING_MACHINE = MachineConfig(
    services=False, jit_tier_enabled=True, fast_gate=True
)

#: per-call step cap: generous for any catalog program, small enough
#: that a runaway variant cannot wedge a worker for long
MAX_STEPS_PER_CALL = 2_000_000

_LOCAL = threading.local()


class GateCallEngine:
    """One machine plus its call caches and cumulative counters.

    Everything a gate call touches and nothing the pool owns: the
    serving workers and the journal replayer both execute calls through
    :meth:`run_job`, which is what makes ``snapshot + replay`` land on
    the same machine state the crashed worker had.
    """

    def __init__(self, machine: Optional[Machine] = None):
        self.machine = (
            machine if machine is not None else Machine(SERVING_MACHINE)
        )
        self.processes: Dict[str, Any] = {}  # username -> Process
        self.installed: Dict[str, str] = {}  # variant key -> entry ref
        self.stored_paths: set = set()
        self.initiated: set = set()  # (username, variant key)
        self.calls = 0
        self.total = MetricsSnapshot.zero()

    def process_for(self, user: str):
        """The user's logged-in process, created on first reference."""
        process = self.processes.get(user)
        if process is None:
            registered = self.machine.add_user(user)
            process = self.machine.login(registered)
            self.processes[user] = process
        return process

    def entry_for(self, program: str, args: Dict[str, Any], user: str) -> str:
        """Install (at most once) and return the variant's entry ref.

        Segment storage is per machine; initiation is per process —
        ``self.initiated`` tracks it per (user, path), because variants
        can share segments (every ``call_loop`` variant with the same
        target ring reuses one gate segment) and a process may initiate
        each name only once.

        The image comes from :func:`~repro.serve.catalog.resolve`, the
        process-wide memo the gateway's argument check also uses, so a
        repeat call looks its variant up without building it — part of
        the fast-gate path: a repeat (user, gate) call does no assembly
        work at all.
        """
        image = resolve(program, args)
        process = self.process_for(user)
        if image.key not in self.installed:
            for path, source, acl in image.segments:
                if path not in self.stored_paths:
                    self.machine.store_program(path, source, acl=list(acl))
                    self.stored_paths.add(path)
            for path, values, acl in image.data_segments:
                if path not in self.stored_paths:
                    self.machine.store_data(path, list(values), acl=list(acl))
                    self.stored_paths.add(path)
            for name, domain in image.domains:
                # no-op unless this machine runs ring_domains; done
                # before any initiation so the binding is in force the
                # first time a tier validates the segment
                self.machine.assign_domain(name, domain)
            self.installed[image.key] = image.entry
        for path, _, _ in image.segments + image.data_segments:
            if (user, path) not in self.initiated:
                self.machine.initiate(process, path)
                self.initiated.add((user, path))
        return self.installed[image.key]

    def run_job(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one gate call; returns the core result dict.

        ``job`` carries ``user``, ``ring``, ``program``, ``args``.  The
        result holds either ``payload`` + ``metrics`` (success) or
        ``error`` + ``detail`` (a simulated fault or bad arguments that
        slipped past the gateway's early validation).  Only successful
        calls touch the cumulative counters, on both sides, so the
        gateway/worker cross-check stays exact.  Failed calls can still
        move machine state (partial execution before the fault), which
        is why the journal records them too.
        """
        try:
            entry = self.entry_for(job["program"], job["args"], job["user"])
            process = self.process_for(job["user"])
            result = self.machine.run(
                process, entry, ring=job["ring"], max_steps=MAX_STEPS_PER_CALL
            )
        except Fault as exc:
            return {"error": ErrorCode.MACHINE_FAULT, "detail": str(exc)}
        except KeyError as exc:
            return {
                "error": ErrorCode.UNKNOWN_PROGRAM,
                "detail": f"unknown program {exc}",
            }
        except ReproError as exc:
            return {"error": ErrorCode.BAD_REQUEST, "detail": str(exc)}
        metrics = result.metrics
        self.calls += 1
        self.total = self.total.plus(metrics)
        return {
            "payload": {
                "halted": result.halted,
                "a": result.a,
                "q": result.q,
                "ring": result.ring,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ring_crossings": result.ring_crossings,
            },
            "metrics": metrics.as_dict(),
        }

    def shape(self) -> Dict[str, Any]:
        """The machine shape every result reports, so a client can tell
        which machine answered it."""
        config = self.machine.config
        return {
            "machine_profile": config.profile,
            "hardening": list(config.hardening.enabled_flags()),
        }

    def bookkeeping(self) -> Dict[str, Any]:
        """The engine's non-machine state, JSON-shaped for a snapshot."""
        return {
            "installed": dict(self.installed),
            "stored_paths": sorted(self.stored_paths),
            "initiated": sorted(list(pair) for pair in self.initiated),
            "calls": self.calls,
            "counters": self.total.as_dict(),
        }

    @classmethod
    def from_snapshot(
        cls, snap: Dict[str, Any], **tier_knobs: Any
    ) -> "GateCallEngine":
        """Rebuild an engine from a machine snapshot's ``extra`` block.

        ``tier_knobs`` are forwarded to
        :func:`~repro.state.snapshot.restore_machine` — host-tier
        overrides only, architecturally invisible by contract.
        """
        from ..state.snapshot import restore_machine

        machine = restore_machine(snap, **tier_knobs)
        engine = cls(machine)
        engine.processes = {
            p.user.name: p for p in machine.supervisor.processes
        }
        book = snap.get("extra", {}).get("engine")
        if book:
            engine.installed = dict(book["installed"])
            engine.stored_paths = set(book["stored_paths"])
            engine.initiated = {tuple(pair) for pair in book["initiated"]}
            engine.calls = int(book["calls"])
            engine.total = MetricsSnapshot.from_dict(book["counters"])
        return engine


@dataclass(frozen=True)
class DurabilityConfig:
    """How workers persist their state (handed to each forked worker's
    initializer).

    ``slots`` bounds how many concurrent workers may claim state
    directories under ``dir``; ``checkpoint_interval`` is in executed
    calls; ``fsync_every`` batches journal fsyncs.  Every append
    reaches the kernel before the worker answers, so a worker's death
    loses no journaled call.  A power loss or kernel crash can lose up
    to ``fsync_every - 1`` of them, and the gateway's retry does not
    bring them back: it resubmits only calls still in flight, and these
    were already answered.
    """

    dir: str
    slots: int
    checkpoint_interval: int = 64
    fsync_every: int = 8

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ConfigurationError("durability slots must be positive")
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        if self.fsync_every <= 0:
            raise ConfigurationError("fsync_every must be positive")


#: slot directories owned by live workers of *this* process, each
#: mapped to the durability config it was claimed under.  The claim
#: files carry only a pid, which cannot tell one thread (or pool
#: generation) of our own process from another — this map can.
_LIVE_SLOTS: Dict[str, DurabilityConfig] = {}
_LIVE_LOCK = threading.Lock()


def _init_worker(
    durability: Optional[DurabilityConfig], machine: MachineConfig
) -> None:
    """Worker initializer, run on the worker's own thread.

    The settings are thread-local, like the worker state they shape, so
    pools sharing a process never see each other's durability or
    machine shape.  The worker builds its state on its first call; a
    state inherited from a forked parent (which may have called
    :func:`execute_gate_call` directly) is dropped, or every child
    would report under the parent's stale worker key and bypass
    durability.
    """
    _LOCAL.state = None
    _LOCAL.setup = (durability, machine)


def release_live_slots(owner: Optional[DurabilityConfig] = None) -> None:
    """Forget this process's slot claims made under ``owner`` (a pool's
    durability config, once the pool has fully shut down), or all of
    them.

    Thread-backend pools leave claim files naming our own (live) pid;
    without this, a successor pool in the same process could never
    reclaim them.  Call only after the owner's workers have stopped.
    """
    with _LIVE_LOCK:
        for slot_dir, config in list(_LIVE_SLOTS.items()):
            if owner is None or config is owner:
                del _LIVE_SLOTS[slot_dir]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _try_claim(slot_dir: str, config: DurabilityConfig) -> bool:
    """Claim one slot directory, stealing it from a dead owner if needed.

    The claim file holds the owner's pid.  ``O_CREAT | O_EXCL`` makes
    creation race-free; a steal renames the stale claim to a unique name
    first, so exactly one of several would-be stealers wins the rename
    and proceeds to the exclusive create.
    """
    claim = os.path.join(slot_dir, "claim")
    key = os.path.realpath(slot_dir)
    with _LIVE_LOCK:
        if key in _LIVE_SLOTS:
            return False
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(claim, "r") as handle:
                    owner = int(handle.read().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and owner != os.getpid() and _pid_alive(owner):
                return False
            # dead owner, or a stale claim left by an earlier pool of
            # our own process: steal it
            stale = f"{claim}.stale-{os.getpid()}-{threading.get_ident()}"
            try:
                os.rename(claim, stale)
            except OSError:
                return False  # another stealer won
            os.unlink(stale)
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
            handle.flush()
            os.fsync(handle.fileno())
        _LIVE_SLOTS[key] = config
        return True


def _claim_slot(config: DurabilityConfig) -> Tuple[int, str]:
    """Claim any free slot, waiting briefly for one to open up.

    The wait covers the recovery window where a crashed worker's pid
    has not yet been reaped while its replacement is already starting.
    """
    slots_root = os.path.join(config.dir, "slots")
    os.makedirs(slots_root, exist_ok=True)
    deadline = time.monotonic() + 10.0
    while True:
        for slot in range(config.slots):
            slot_dir = os.path.join(slots_root, f"slot-{slot}")
            os.makedirs(slot_dir, exist_ok=True)
            if _try_claim(slot_dir, config):
                return slot, slot_dir
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"no free durability slot under {slots_root!r} "
                f"(all {config.slots} claimed by live processes)"
            )
        time.sleep(0.1)


def _bump_generation(slot_dir: str) -> int:
    """Count this claim of the slot; 1 on a fresh slot directory."""
    path = os.path.join(slot_dir, "generation")
    try:
        with open(path, "r") as handle:
            generation = int(handle.read().strip() or "0")
    except (OSError, ValueError):
        generation = 0
    generation += 1
    with open(path, "w") as handle:
        handle.write(str(generation))
        handle.flush()
        os.fsync(handle.fileno())
    return generation


class _WorkerState:
    """One worker's engine plus (optionally) its durability plumbing.

    ``machine`` is the shape of a fresh worker machine; a durable worker
    that recovers a slot keeps the shape recorded in the slot.
    """

    def __init__(
        self,
        durability: Optional[DurabilityConfig] = None,
        machine: MachineConfig = SERVING_MACHINE,
    ) -> None:
        self.durability = durability
        self.recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.calls_since_checkpoint = 0
        if durability is None:
            self.engine = GateCallEngine(Machine(machine))
            self.worker_id = f"pid{os.getpid()}-t{threading.get_ident()}"
            self.slot: Optional[int] = None
            self.slot_dir = ""
            self.journal: Optional[JournalWriter] = None
            self.generation = 0
            return
        self.slot, self.slot_dir = _claim_slot(durability)
        self.worker_id = f"slot{self.slot}"
        self.generation = _bump_generation(self.slot_dir)
        recovery = recover_slot(self.slot_dir, machine=machine)
        self.engine = recovery.engine
        self.recent = recovery.recent
        self.journal = JournalWriter(
            os.path.join(self.slot_dir, JOURNAL_NAME),
            fsync_every=durability.fsync_every,
        )
        if recovery.replayed or recovery.snapshot_source == "none":
            # fold a replayed journal tail into a fresh checkpoint, so
            # the next crash replays from here; a fresh slot gets its
            # first checkpoint, which records its shape
            self._checkpoint()

    def _checkpoint(self) -> None:
        self.journal.sync()
        write_checkpoint(
            self.engine, self.slot_dir, self.journal.last_seq,
            generation=self.generation,
        )
        self.calls_since_checkpoint = 0

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        call_id = job.get("call_id")
        cached = (
            self.recent.get(call_id) if call_id is not None else None
        )
        if cached is not None:
            result = dict(cached)
            result["deduplicated"] = True
        else:
            result = self.engine.run_job(job)
            if self.journal is not None:
                self.journal.append(journal_record(job, result))
                self.calls_since_checkpoint += 1
                if (
                    self.calls_since_checkpoint
                    >= self.durability.checkpoint_interval
                ):
                    self._checkpoint()
            remember(self.recent, call_id, result)
        out = dict(result)
        out["worker"] = self.worker_id
        out["pid"] = os.getpid()
        out["generation"] = self.generation
        out.update(self.engine.shape())
        if self.slot is not None:
            out["slot"] = self.slot
        out["worker_calls"] = self.engine.calls
        out["worker_total"] = self.engine.total.architectural()
        return out


def _state() -> _WorkerState:
    state = getattr(_LOCAL, "state", None)
    if state is None:
        state = _WorkerState(*getattr(_LOCAL, "setup", ()))
        _LOCAL.state = state
    return state


def _run_worker(
    sock: socket.socket, initializer: Callable, initargs: Tuple
) -> None:
    """Body of a worker on either backend: set up, serve the channel to
    its end, then close the worker's journal, so a drained worker
    leaves every journaled call on disk."""
    initializer(*initargs)
    try:
        serve_channel(sock)
    finally:
        state = getattr(_LOCAL, "state", None)
        if state is not None and state.journal is not None:
            state.journal.close()


def worker_ping(token: int) -> Dict[str, Any]:
    """Liveness probe; also forces lazy machine construction/recovery."""
    state = _state()
    return {
        "worker": state.worker_id,
        "token": token,
        "generation": state.generation,
    }


def execute_gate_call(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one gate call on this worker's persistent machine.

    See :meth:`GateCallEngine.run_job` for the result contract; on top
    of the core result this adds the worker identity fields (``worker``,
    ``pid``, ``generation``, ``slot`` under durability) and the
    cumulative ``worker_calls`` / ``worker_total`` the gateway
    cross-checks against.  Under durability the call is journaled, and
    a ``call_id`` seen before returns the journaled result instead of
    re-executing (``deduplicated: true``).
    """
    return _state().execute(job)



# ---------------------------------------------------------------------------
# worker channels
# ---------------------------------------------------------------------------

#: frame header: the pickled payload's length, little-endian u32
_FRAME = struct.Struct("<I")

#: how long the start-up probe may take before the process backend is
#: declared unavailable
PROBE_TIMEOUT = 60.0

#: how long workers get to exit once shutdown has closed their channels
EXIT_TIMEOUT = 30.0

#: every channel socket a pool of this process created.  A forked
#: worker closes all of them but its own: a copy of a sibling's socket
#: held open would keep that sibling's channel from reaching end of
#: file when the sibling dies.
_CHANNEL_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


class WorkerError(ReproError):
    """A worker-side exception (or result) that cannot cross a channel
    as itself; carries the original's text."""


def _socketpair() -> Tuple[socket.socket, socket.socket]:
    ours, theirs = socket.socketpair()
    _CHANNEL_SOCKETS.add(ours)
    _CHANNEL_SOCKETS.add(theirs)
    return ours, theirs


def _frame(obj: Any) -> bytes:
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(body)) + body


def _reply_frame(ok: bool, value: Any) -> bytes:
    """One reply frame.  A value that cannot make the round trip comes
    back as a :class:`WorkerError`, so one bad reply never leaves a
    caller without an answer."""
    try:
        frame = _frame((ok, value))
        if not ok:
            # an exception that pickles may still fail to unpickle (a
            # constructor with required arguments); find out here,
            # where the original's text is at hand
            pickle.loads(frame[_FRAME.size:])
        return frame
    except Exception as exc:
        text = str(value) if not ok else f"unpicklable result: {exc}"
        return _frame((False, WorkerError(text)))


def serve_channel(sock: socket.socket) -> None:
    """Serve the calls arriving on ``sock`` until its peer closes it.

    Every request frame is a pickled ``(fn, args)``; the reply is
    ``(True, fn(*args))`` or ``(False, exception)``.  Calls on one
    channel run one at a time in arrival order and each gets exactly
    one reply, so the gateway matches replies to calls by order alone.
    """
    reader = sock.makefile("rb")
    try:
        while True:
            header = reader.read(_FRAME.size)
            if len(header) < _FRAME.size:
                return  # the gateway closed the channel: drained
            (size,) = _FRAME.unpack(header)
            try:
                fn, args = pickle.loads(reader.read(size))
                frame = _reply_frame(True, fn(*args))
            except Exception as exc:
                frame = _reply_frame(False, exc)
            sock.sendall(frame)
    except OSError:
        return  # the gateway dropped the channel mid-reply
    finally:
        reader.close()
        sock.close()


def _channel_main(
    sock: socket.socket, initializer: Callable, initargs: Tuple
) -> None:
    """Body of a forked worker process: one channel, served to EOF.

    The child forgets the parent's slot claims along with its sockets:
    its own claims are all it may count as live.
    """
    with _LIVE_LOCK:
        _LIVE_SLOTS.clear()
    for inherited in list(_CHANNEL_SOCKETS):
        if inherited is not sock:
            # detach first: a socket with an open reader is otherwise
            # only marked closed
            with contextlib.suppress(OSError):
                os.close(inherited.detach())
    # The gateway drains a worker by closing its channel, so Ctrl-C
    # (sent to the whole process group) is ignored here.  Nor may a
    # signal reach the gateway's event loop through the inherited
    # wake-up fd.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(ValueError):
        signal.set_wakeup_fd(-1)
    _run_worker(sock, initializer, initargs)


class _Channel(asyncio.Protocol):
    """The gateway's end of one worker's socketpair."""

    def __init__(self, pool: "WorkerPool", index: int):
        self.pool = pool
        self.index = index
        self.transport: Optional[asyncio.Transport] = None
        #: futures of the calls sent and not yet answered, oldest first
        self.pending: Deque[asyncio.Future] = deque()
        #: resolves once the worker's end has closed
        self.closed: asyncio.Future = pool._loop.create_future()
        self._partial = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def send(self, future: asyncio.Future, fn: Callable, args: Tuple) -> None:
        try:
            frame = _frame((fn, args))
        except Exception as exc:
            future.set_exception(exc)
            return
        self.pending.append(future)
        self.transport.write(frame)

    def data_received(self, data: bytes) -> None:
        if self._partial:
            data = self._partial + data
        view = memoryview(data)
        offset = 0
        while len(data) - offset >= _FRAME.size:
            (size,) = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            if len(data) - start < size:
                break
            offset = start + size
            ok, value = pickle.loads(view[start:offset])
            future = self.pending.popleft()
            if future.done():  # cancelled by its caller
                continue
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._partial = data[offset:]
        if not self.pending:
            self.pool._channel_idle(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.closed.done():
            self.closed.set_result(None)
        self.pool._channel_lost(self)


class WorkerPool:
    """A pool of persistent-machine workers, one channel each.

    ``backend`` is ``"process"`` (real parallelism) or ``"thread"``
    (GIL-bound but dependency-free); hosts where worker processes
    cannot be forked or probed fall back to threads with identical
    results.
    ``durability`` installs per-worker journaling and checkpointing
    (see :class:`DurabilityConfig`).  ``machine`` is the shape of every
    worker's machine.  ``session`` selects the session layout: worker
    ``k`` hosts session shard ``k`` of :mod:`repro.serve.sessions`,
    calls name their shard's worker, and tenants take their shape from
    ``session.machine``.

    Construct, then ``await start()`` on the event loop that will
    submit calls.  A worker whose channel closes unexpectedly breaks
    the whole pool: every queued and in-flight call fails with
    :class:`~concurrent.futures.BrokenExecutor`, as does every later
    :meth:`submit`, and the owner replaces the pool.
    """

    def __init__(
        self,
        workers: int = 4,
        backend: str = "process",
        durability: Optional[DurabilityConfig] = None,
        machine: MachineConfig = SERVING_MACHINE,
        session: Optional["SessionConfig"] = None,
    ):
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown worker backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if durability is not None and durability.slots < workers:
            raise ConfigurationError(
                "durability needs at least one slot per worker"
            )
        self.workers = workers
        self.backend = backend
        self.durability = durability
        self.machine = machine.validate()
        self.session = session
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._channels: List[_Channel] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._threads: List[threading.Thread] = []
        #: calls waiting for a free worker, oldest first
        self._queue: Deque[Tuple[asyncio.Future, Callable, Tuple]] = deque()
        self._broken: Optional[str] = None
        self._closing = False

    # -- start -------------------------------------------------------------

    async def start(self) -> None:
        """Start the workers and connect their channels to the running
        event loop."""
        self._loop = asyncio.get_running_loop()
        if self.backend == "process":
            try:
                await self._start_processes()
                return
            except (
                OSError, ValueError, BrokenExecutor, asyncio.TimeoutError
            ):
                self.backend = "thread (process pool unavailable)"
        ends = []
        for index in range(self.workers):
            ours, theirs = _socketpair()
            thread = threading.Thread(
                target=_run_worker,
                args=(theirs, *self._initializer()),
                name=f"ringworker{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            ends.append(ours)
        await self._connect(ends)

    async def _start_processes(self) -> None:
        try:
            await self._connect(self._fork_workers())
            # Probe one call end to end: forking succeeds on some hosts
            # where the first real call then dies.
            if self.session is not None:
                from .sessions import session_ping

                probe = self.submit(session_ping, 0, 0)
            else:
                probe = self.submit(worker_ping, 0)
            await asyncio.wait_for(probe, PROBE_TIMEOUT)
        except BaseException:
            self._break("worker processes failed to start")
            await self._reap(kill=True)
            self._broken = None
            self._closing = False
            raise

    def _initializer(self) -> Tuple[Callable, Tuple]:
        """What each worker runs on its own thread before serving."""
        if self.session is not None:
            from .sessions import _init_session_worker

            return _init_session_worker, (self.session,)
        return _init_worker, (self.durability, self.machine)

    def _fork_workers(self) -> List[socket.socket]:
        # ValueError where the platform cannot fork
        context = multiprocessing.get_context("fork")
        initializer, initargs = self._initializer()
        ends: List[socket.socket] = []
        try:
            for index in range(self.workers):
                ours, theirs = _socketpair()
                ends.append(ours)
                process = context.Process(
                    target=_channel_main,
                    args=(theirs, initializer, initargs),
                    name=f"ringworker{index}",
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    theirs.close()
                self._processes.append(process)
        except BaseException:
            for sock in ends:
                sock.close()
            raise
        return ends

    async def _connect(self, ends: List[socket.socket]) -> None:
        for index, sock in enumerate(ends):
            _, channel = await self._loop.connect_accepted_socket(
                functools.partial(_Channel, self, index), sock
            )
            self._channels.append(channel)

    # -- calls -------------------------------------------------------------

    def pids(self) -> List[int]:
        """The worker processes' pids in worker order (none on the
        thread backend)."""
        return [process.pid for process in self._processes]

    def submit(
        self, fn: Callable, *args: Any, worker: Optional[int] = None
    ) -> asyncio.Future:
        """Run ``fn(*args)`` on a worker; returns an asyncio future.

        ``worker=None`` takes the first free worker, or joins one FIFO
        queue for the next worker to come free.  An index sends the
        call to that worker, behind any calls already sent to it (the
        session layout's shard affinity).  ``fn`` crosses the channel
        pickled by reference, so it must be a module-level function.
        Raises :class:`~concurrent.futures.BrokenExecutor` once a
        worker has died and ``RuntimeError`` once shutdown has begun.
        """
        if self._broken is not None:
            raise BrokenExecutor(self._broken)
        if self._closing or not self._channels:
            raise RuntimeError("worker pool is not running")
        future = self._loop.create_future()
        if worker is None:
            channel = next(
                (ch for ch in self._channels if not ch.pending), None
            )
            if channel is None:
                self._queue.append((future, fn, args))
                return future
        else:
            channel = self._channels[worker]
        channel.send(future, fn, args)
        return future

    def _channel_idle(self, channel: _Channel) -> None:
        while self._queue and not channel.pending:
            future, fn, args = self._queue.popleft()
            if not future.done():  # skip calls cancelled while queued
                channel.send(future, fn, args)

    def _channel_lost(self, channel: _Channel) -> None:
        if self._closing and not channel.pending:
            return  # a drained worker exiting
        self._break(f"worker {channel.index} exited unexpectedly")

    def _break(self, reason: str) -> None:
        """Fail every queued and in-flight call; refuse new ones."""
        if self._broken is not None:
            return
        self._broken = reason
        doomed = [future for future, _, _ in self._queue]
        self._queue.clear()
        for channel in self._channels:
            doomed.extend(channel.pending)
            channel.pending.clear()
            channel.transport.abort()
        for future in doomed:
            if not future.done():
                future.set_exception(BrokenExecutor(reason))

    # -- shutdown ------------------------------------------------------------

    async def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        With ``wait``, a healthy pool first finishes every queued and
        in-flight call; then each worker reads end of file on its
        channel and exits on its own, with exit code 0.  A broken pool,
        or ``wait=False``, kills its worker processes instead, which
        frees their durability slots for a replacement pool at once.
        """
        self._closing = True
        if wait and self._broken is None:
            outstanding = [future for future, _, _ in self._queue]
            for channel in self._channels:
                outstanding.extend(channel.pending)
            if outstanding:
                await asyncio.wait(outstanding)
            for channel in self._channels:
                channel.transport.write_eof()
            closed = [channel.closed for channel in self._channels]
            if closed:
                await asyncio.wait(closed, timeout=EXIT_TIMEOUT)
        else:
            self._break("worker pool shut down")
        # a worker may also have died while the pool drained
        await self._reap(kill=self._broken is not None)

    async def _reap(self, kill: bool) -> None:
        """Wait for every worker to exit, killing processes first if
        ``kill`` and stragglers past :data:`EXIT_TIMEOUT`."""
        deadline = self._loop.time() + EXIT_TIMEOUT
        for process in self._processes:
            if kill:
                process.kill()
            while process.exitcode is None and self._loop.time() < deadline:
                await asyncio.sleep(0.005)
            if process.exitcode is None:
                process.kill()
            process.join()
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - self._loop.time()))
        self._channels = []
        self._processes = []
        self._threads = []
        if self.durability is not None:
            release_live_slots(self.durability)
