"""Persistent-machine workers behind asyncio worker channels.

The fleet driver (:mod:`repro.sim.fleet`) builds a fresh machine per
shard — right for batch sweeps, far too slow for serving (machine
construction costs more than a small gate call).  The gateway instead
keeps one :class:`~repro.sim.machine.Machine` alive per pool worker and
routes every request to whichever worker is free; programs and user
processes are installed lazily and cached for the worker's lifetime.

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
workers themselves counted — the same merge-exactness contract the
fleet's ``verify_merge`` pins, held across a network boundary.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
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
from ..hardening import HARDENING_FLAGS, HardeningConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from ..state.journal import JournalWriter
from ..state.recover import JOURNAL_NAME, SNAPSHOT_NAME, recover_slot
from ..state.snapshot import snapshot_machine, write_snapshot_file
from .catalog import build_program
from .protocol import ErrorCode

if TYPE_CHECKING:
    from .sessions import SessionConfig

BACKENDS = ("process", "thread")

#: selectable worker machine profiles: ``ringed`` runs the paper's ring
#: hardware; ``baseline645`` runs the GE-645 trap machine, where every
#: ring crossing is completed by the software assist at
#: ``SOFT_CROSSING_CYCLES`` apiece.  Protection verdicts are identical
#: (validation precedes the trap); only the crossing cost differs —
#: which is exactly what the live A/B measures.
MACHINE_PROFILES = ("ringed", "baseline645")

_MACHINE_PROFILE = "ringed"

#: hardening extensions enabled for engines built in this process, as a
#: tuple of flag names from :data:`~repro.hardening.HARDENING_FLAGS`
_HARDENING: Tuple[str, ...] = ()

#: per-call step cap: generous for any catalog program, small enough
#: that a runaway variant cannot wedge a worker for long
MAX_STEPS_PER_CALL = 2_000_000

#: bound on the per-worker duplicate-suppression cache; a retried call
#: older than this many calls re-executes instead (harmless — catalog
#: programs are idempotent per invocation)
RECENT_CALLS = 512

_LOCAL = threading.local()


def configure_machine_profile(profile: str) -> None:
    """Select the machine profile for engines built in this process.

    Like :func:`configure_durability`, this is process-level state: the
    thread backend calls it directly, forked workers get it via
    :func:`_init_worker`.  Restored engines keep the profile of the
    machine that was snapshotted (``hardware_rings`` is serialized), so
    recovery is unaffected.
    """
    global _MACHINE_PROFILE
    if profile not in MACHINE_PROFILES:
        raise ConfigurationError(
            f"unknown machine profile {profile!r}; expected one of "
            f"{MACHINE_PROFILES}"
        )
    _MACHINE_PROFILE = profile


def machine_profile() -> str:
    """The machine profile engines in this process are built with."""
    return _MACHINE_PROFILE


def hardware_rings_enabled() -> bool:
    """Whether new engine machines run the ring hardware."""
    return _MACHINE_PROFILE != "baseline645"


def configure_hardening(flags: Tuple[str, ...]) -> None:
    """Select the hardening extensions for engines built in this process.

    Process-level state like the machine profile: the thread backend
    calls it directly, forked workers get it via :func:`_init_worker`.
    Restored engines keep the hardening of the machine that was
    snapshotted (the config is serialized).
    """
    global _HARDENING
    flags = tuple(flags)
    for flag in flags:
        if flag not in HARDENING_FLAGS:
            raise ConfigurationError(
                f"unknown hardening flag {flag!r}; expected a subset of "
                f"{HARDENING_FLAGS}"
            )
    _HARDENING = flags


def hardening_flags() -> Tuple[str, ...]:
    """The hardening flags engines in this process are built with."""
    return _HARDENING


class GateCallEngine:
    """One machine plus its call caches and cumulative counters.

    Everything a gate call touches and nothing the pool owns: the
    serving workers and the journal replayer both execute calls through
    :meth:`run_job`, which is what makes ``snapshot + replay`` land on
    the same machine state the crashed worker had.
    """

    def __init__(self, machine: Optional[Machine] = None):
        # Serving machines run the full tier stack: the trace-compile
        # tier plus the fast-gate entry path, so repeat (user, gate)
        # calls skip re-validation and enter compiled traces directly.
        # Architectural figures are identical either way.
        self.machine = (
            machine
            if machine is not None
            else Machine(
                services=False,
                jit_tier_enabled=True,
                fast_gate=True,
                hardware_rings=hardware_rings_enabled(),
                hardening=HardeningConfig.from_flags(hardening_flags()),
            )
        )
        self.processes: Dict[str, Any] = {}  # username -> Process
        self.installed: Dict[str, str] = {}  # variant key -> entry ref
        self.stored_paths: set = set()
        self.initiated: set = set()  # (username, variant key)
        self._images: Dict[str, Any] = {}  # build_program memo
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

        ``build_program`` is pure in ``(program, args)``, so repeat
        calls reuse the memoized image — part of the fast-gate path:
        a repeat (user, gate) call does no assembly work at all.
        """
        memo_key = program + "\0" + json.dumps(args, sort_keys=True)
        image = self._images.get(memo_key)
        if image is None:
            image = self._images[memo_key] = build_program(program, args)
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
    calls; ``fsync_every`` batches journal fsyncs (a crash can lose at
    most ``fsync_every - 1`` journaled calls, which the gateway's
    at-least-once retry absorbs).
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


_DURABILITY: Optional[DurabilityConfig] = None

#: slot indices owned by live workers of *this* process.  The claim
#: files carry only a pid, which cannot tell one thread (or pool
#: generation) of our own process from another — this set can.
_LIVE_SLOTS: set = set()
_LIVE_LOCK = threading.Lock()


def configure_durability(config: Optional[DurabilityConfig]) -> None:
    """Install the durability config for workers created in this process.

    Used directly for the thread backend; forked workers go through
    :func:`_init_worker`, which also clears forked-in state.
    """
    global _DURABILITY
    _DURABILITY = config


def _init_worker(
    config: Optional[DurabilityConfig],
    profile: str = "ringed",
    hardening: Tuple[str, ...] = (),
) -> None:
    """Forked worker initializer.

    A forked child inherits the parent's module state wholesale —
    including a worker state the parent built by calling
    :func:`execute_gate_call` directly (its worker id names the
    *parent's* pid, its machine carries the parent's history, and it
    predates any durability config) and the parent's live-slot set.
    Serving from that inherited state would make every child report
    under one stale worker key and bypass durability entirely, so drop
    it: this process builds its own state on first call.
    """
    _LOCAL.state = None
    with _LIVE_LOCK:
        _LIVE_SLOTS.clear()
    configure_durability(config)
    configure_machine_profile(profile)
    configure_hardening(hardening)


def release_live_slots() -> None:
    """Forget this process's slot claims (pool fully shut down).

    Thread-backend pools leave claim files naming our own (live) pid;
    without this, a successor pool in the same process could never
    reclaim them.  Call only after the pool's workers have stopped.
    """
    with _LIVE_LOCK:
        _LIVE_SLOTS.clear()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _try_claim(slot: int, slot_dir: str) -> bool:
    """Claim one slot directory, stealing it from a dead owner if needed.

    The claim file holds the owner's pid.  ``O_CREAT | O_EXCL`` makes
    creation race-free; a steal renames the stale claim to a unique name
    first, so exactly one of several would-be stealers wins the rename
    and proceeds to the exclusive create.
    """
    claim = os.path.join(slot_dir, "claim")
    with _LIVE_LOCK:
        if slot in _LIVE_SLOTS:
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
        _LIVE_SLOTS.add(slot)
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
            if _try_claim(slot, slot_dir):
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
    """One worker's engine plus (optionally) its durability plumbing."""

    def __init__(self) -> None:
        config = _DURABILITY
        self.durability = config
        self.recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.calls_since_checkpoint = 0
        if config is None:
            self.engine = GateCallEngine()
            self.worker_id = f"pid{os.getpid()}-t{threading.get_ident()}"
            self.slot: Optional[int] = None
            self.slot_dir = ""
            self.journal: Optional[JournalWriter] = None
            self.generation = 0
            return
        self.slot, self.slot_dir = _claim_slot(config)
        self.worker_id = f"slot{self.slot}"
        self.generation = _bump_generation(self.slot_dir)
        recovery = recover_slot(self.slot_dir)
        self.engine = recovery.engine
        self.recent = recovery.recent
        self._trim_recent()
        self.journal = JournalWriter(
            os.path.join(self.slot_dir, JOURNAL_NAME),
            fsync_every=config.fsync_every,
        )
        if recovery.replayed:
            # the journal tail beyond the last snapshot was replayed;
            # fold the recovered state into a fresh checkpoint so the
            # next crash replays from here instead
            self._checkpoint()

    def _trim_recent(self) -> None:
        while len(self.recent) > RECENT_CALLS:
            self.recent.popitem(last=False)

    def _checkpoint(self) -> None:
        self.journal.sync()
        # Drop the live machine's host caches at the checkpoint
        # boundary: a restored successor starts with cold host tiers
        # (snapshots don't serialize translations, superblocks, or
        # traces), so the live worker must go cold at the same point —
        # otherwise post-checkpoint calls would report different host
        # diagnostics live vs. replayed and verified replay would
        # diverge.  Architectural counters are unaffected.
        self.engine.machine.processor.drop_host_caches()
        extra = {
            "engine": self.engine.bookkeeping(),
            "last_seq": self.journal.last_seq,
            "generation": self.generation,
            "recent_calls": [
                [call_id, result] for call_id, result in self.recent.items()
            ],
        }
        snap = snapshot_machine(self.engine.machine, extra=extra)
        current = os.path.join(self.slot_dir, SNAPSHOT_NAME)
        if os.path.exists(current):
            os.replace(current, current + ".prev")
        write_snapshot_file(snap, current)
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
                self.journal.append(
                    {
                        "call_id": call_id,
                        "job": {
                            "user": job["user"],
                            "ring": job["ring"],
                            "program": job["program"],
                            "args": job["args"],
                        },
                        "result": result,
                    }
                )
                self.calls_since_checkpoint += 1
                if (
                    self.calls_since_checkpoint
                    >= self.durability.checkpoint_interval
                ):
                    self._checkpoint()
            if call_id is not None:
                self.recent[call_id] = result
                self._trim_recent()
        out = dict(result)
        out["worker"] = self.worker_id
        out["pid"] = os.getpid()
        out["generation"] = self.generation
        out["machine_profile"] = (
            "ringed"
            if self.engine.machine.processor.hardware_rings
            else "baseline645"
        )
        out["hardening"] = list(self.engine.machine.hardening.enabled_flags())
        if self.slot is not None:
            out["slot"] = self.slot
        out["worker_calls"] = self.engine.calls
        out["worker_total"] = metrics_architectural(self.engine.total)
        return out


def _state() -> _WorkerState:
    state = getattr(_LOCAL, "state", None)
    if state is None:
        state = _WorkerState()
        _LOCAL.state = state
    return state


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


def metrics_architectural(snapshot: MetricsSnapshot) -> Dict[str, int]:
    """The architectural counters of ``snapshot`` as a plain dict."""
    return snapshot.architectural()



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
    """Body of a forked worker process: one channel, served to EOF."""
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
    initializer(*initargs)
    serve_channel(sock)


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
    results, mirroring the fleet driver's serial fallback.
    ``durability`` installs per-worker journaling and checkpointing
    (see :class:`DurabilityConfig`).  ``session`` selects the session
    layout: worker ``k`` hosts session shard ``k`` of
    :mod:`repro.serve.sessions`, and calls name their shard's worker.

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
        machine_profile: str = "ringed",
        hardening: Tuple[str, ...] = (),
        session: Optional["SessionConfig"] = None,
    ):
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown worker backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if machine_profile not in MACHINE_PROFILES:
            raise ConfigurationError(
                f"unknown machine profile {machine_profile!r}; expected "
                f"one of {MACHINE_PROFILES}"
            )
        hardening = tuple(hardening)
        for flag in hardening:
            if flag not in HARDENING_FLAGS:
                raise ConfigurationError(
                    f"unknown hardening flag {flag!r}; expected a subset "
                    f"of {HARDENING_FLAGS}"
                )
        if durability is not None and durability.slots < workers:
            raise ConfigurationError(
                "durability needs at least one slot per worker"
            )
        if session is not None and (
            durability is not None or machine_profile != "ringed" or hardening
        ):
            raise ConfigurationError(
                "session workers keep their own per-tenant durability and "
                "run ringed, unhardened machines"
            )
        self.workers = workers
        self.backend = backend
        self.durability = durability
        self.machine_profile = machine_profile
        self.hardening = hardening
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
        if self.session is not None:
            from .sessions import configure_sessions

            configure_sessions(self.session)
        else:
            configure_durability(self.durability)
            configure_machine_profile(self.machine_profile)
            configure_hardening(self.hardening)
        ends = []
        for index in range(self.workers):
            ours, theirs = _socketpair()
            thread = threading.Thread(
                target=serve_channel,
                args=(theirs,),
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

    def _fork_workers(self) -> List[socket.socket]:
        # ValueError where the platform cannot fork
        context = multiprocessing.get_context("fork")
        if self.session is not None:
            from .sessions import _init_session_worker

            initializer, initargs = _init_session_worker, (self.session,)
        else:
            initializer, initargs = _init_worker, (
                self.durability,
                self.machine_profile,
                self.hardening,
            )
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
        release_live_slots()
