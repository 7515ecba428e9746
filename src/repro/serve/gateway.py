"""The ring gateway: an asyncio gate-call service in front of the workers.

``RingGateway`` accepts JSON-lines-over-TCP sessions
(:mod:`repro.serve.protocol`), binds each to a (user, ring) pair via the
``hello`` verb, and executes ``call`` requests on a pool of persistent
machine workers (:mod:`repro.serve.workers`) behind per-ring admission
control (:mod:`repro.serve.admission`).

Life of a request:

1. **validate** — verb shape and catalog arguments are checked before
   any shared resource is touched; bad requests cost nothing;
2. **admit** — the session ring's token bucket and pending bound decide;
   rejections are explicit (``rate_limited`` / ``queue_full`` with
   ``retry_after``), never silent drops;
3. **execute** — :meth:`WorkerPool.submit` writes the job onto the
   channel of the first free worker (in session mode, onto the
   channel of the user's shard), and the reply comes back as a read
   callback on this same event loop: no executor thread sits between
   the gateway and its workers.  ``call_timeout`` guards the wait.  A
   timeout answers the client immediately; the worker-side call is
   not interruptible (one machine step is atomic host Python), so its
   slot is released — and its metrics counted — when it actually
   finishes, keeping the accounting exact;
4. **account** — per-worker metric sums, latency reservoir, and the
   counter set the ``stats`` verb reports.

A worker that dies breaks its pool: every call the pool held fails
with ``BrokenExecutor``, the first caller to notice rebuilds the pool
(promoting warm replicas first when replication is on), and each
failed call is retried on the new workers, up to ``CALL_ATTEMPTS``.

Shutdown is a drain: stop accepting, reject new calls with
``shutting_down``, wait for in-flight calls (bounded by
``drain_timeout``), park live session tenants, then close connections
and the pool, whose workers exit on their own once their channels
close.

The ``stats`` verb returns the merged
:class:`~repro.sim.metrics.MetricsSnapshot` figures, per-worker
snapshots, and gateway counters; ``consistent`` is the merge-exactness
contract held across the network boundary — the gateway's per-worker
sums must equal the totals the workers themselves counted.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import uuid
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from math import ceil
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.config import MachineConfig
from ..sim.metrics import MetricsSnapshot
from . import catalog
from .admission import AdmissionController, RingPolicy
from .protocol import (
    ErrorCode,
    GatewayProtocolError,
    MAX_LINE_BYTES,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from .sessions import (
    SessionConfig,
    TENANT_MEMORY_WORDS,
    execute_session_call,
    session_control,
)
from .standby import ReplicaSet, ReplicationConfig
from .workers import (
    SERVING_MACHINE,
    DurabilityConfig,
    WorkerPool,
    execute_gate_call,
)

#: retry hint handed to callers rejected because the gateway is draining
DRAIN_RETRY_AFTER = 1.0

#: submissions per admitted call: the original plus retries after a
#: worker-pool crash (each retry rebuilds the pool first)
CALL_ATTEMPTS = 3


@dataclass
class GatewayConfig:
    """Everything a gateway needs to start serving."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: let the kernel pick (tests, benchmarks)
    workers: int = 4
    backend: str = "process"
    call_timeout: float = 10.0
    drain_timeout: float = 10.0
    default_policy: RingPolicy = field(
        default_factory=lambda: RingPolicy(
            rate=None, burst=64, max_pending=256
        )
    )
    ring_policies: Dict[int, RingPolicy] = field(default_factory=dict)
    #: latency reservoir size for the p50/p99 figures
    latency_samples: int = 8192
    #: directory for per-worker journals and snapshots; ``None`` keeps
    #: workers in-memory only (a crash loses their machines)
    durability_dir: Optional[str] = None
    #: snapshot each worker machine every this many executed calls
    checkpoint_interval: int = 64
    #: batch journal fsyncs: a power loss can take at most
    #: ``fsync_every - 1`` answered calls, which no retry brings back;
    #: a worker's death takes none (each append reaches the kernel)
    fsync_every: int = 8
    #: session virtualization: total live tenant slots across all
    #: worker shards; ``None`` keeps the classic one-machine-per-worker
    #: layout.  With a value, every distinct user gets its own parked
    #: machine and the gateway serves arbitrarily many tenants over
    #: this many live machines.
    max_sessions: Optional[int] = None
    #: directory backing parked tenants and their WAL tails; ``None``
    #: parks in worker memory (lost on crash); requires ``max_sessions``
    session_store_dir: Optional[str] = None
    #: warm standbys spawned in-process; each mirrors every slot by
    #: applying shipped journal records (requires ``durability_dir``)
    replicas: int = 0
    #: most journal records per ship line (a line also stays under
    #: the protocol's line limit)
    ship_every: int = 8
    #: ship lines in flight before the shipper waits for an ack
    ack_window: int = 4
    #: external ``repro standby`` endpoints (``HOST:PORT``) to ship to,
    #: in addition to any in-process replicas
    replica_endpoints: Tuple[str, ...] = ()
    #: worker machine profile, one of
    #: :data:`~repro.sim.config.MACHINE_PROFILES` — the knob behind the
    #: live hardware-vs-software A/B
    machine_profile: str = "ringed"
    #: hardening extensions enabled on every worker machine, as a tuple
    #: of flag names from :data:`~repro.hardening.HARDENING_FLAGS`;
    #: advertised in ``stats`` and in every call result so clients can
    #: tell which machine answered them
    hardening: Tuple[str, ...] = ()

    def machine(self) -> MachineConfig:
        """The shape of every worker machine: a serving machine on
        ``machine_profile``'s processor with ``hardening``'s flags."""
        return SERVING_MACHINE.with_profile(
            self.machine_profile, self.hardening
        )

    def durability(self) -> Optional[DurabilityConfig]:
        """The worker-side durability config, or ``None`` if disabled."""
        if not self.durability_dir:
            return None
        return DurabilityConfig(
            dir=self.durability_dir,
            slots=self.workers,
            checkpoint_interval=self.checkpoint_interval,
            fsync_every=self.fsync_every,
        )

    def replication(self) -> Optional[ReplicationConfig]:
        """The replica-set config, or ``None`` if replication is off."""
        if not self.replicas and not self.replica_endpoints:
            return None
        if not self.durability_dir:
            raise ConfigurationError(
                "replication ships the gate-call journal, so --replicas / "
                "--replica-endpoint require --durability-dir"
            )
        return ReplicationConfig(
            dir=self.durability_dir,
            slots=self.workers,
            replicas=self.replicas,
            ship_every=self.ship_every,
            ack_window=self.ack_window,
            endpoints=tuple(self.replica_endpoints),
        )

    def sessions(self) -> Optional[SessionConfig]:
        """The shard-side session config, or ``None`` if disabled."""
        if not self.max_sessions:
            return None
        return SessionConfig(
            max_live=max(1, ceil(self.max_sessions / self.workers)),
            shards=self.workers,
            store_dir=self.session_store_dir,
            machine=replace(
                self.machine(), memory_words=TENANT_MEMORY_WORDS
            ),
            fsync_every=self.fsync_every,
        )


@dataclass
class GatewayCounters:
    """Gateway-level event counters the ``stats`` verb reports."""

    accepted: int = 0
    completed: int = 0
    rejected_rate_limited: int = 0
    rejected_queue_full: int = 0
    rejected_shutting_down: int = 0
    timed_out: int = 0
    machine_faults: int = 0
    worker_errors: int = 0
    bad_requests: int = 0
    protocol_errors: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: worker-pool rebuilds after a crash
    recoveries: int = 0
    #: calls resubmitted to a rebuilt pool
    retried_calls: int = 0
    #: calls answered from a worker's journal instead of re-executing
    deduplicated_calls: int = 0
    #: slots failed over onto a warm follower instead of cold-restoring
    promotions: int = 0
    #: retried calls answered from a follower's shipped journal (the
    #: cross-slot dedup path; also counted in ``deduplicated_calls``)
    replica_answered_calls: int = 0
    #: session mode: tenants hydrated from a parked delta on demand
    session_hydrated: int = 0
    #: session mode: tenants built fresh (first call ever)
    session_created: int = 0
    #: session mode: executed calls that paid the cold-attach vector
    session_cold_calls: int = 0

    @property
    def answered(self) -> int:
        """Calls the machine answered, whether OK or faulted."""
        return self.completed + self.machine_faults

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict, for the ``stats`` payload."""
        return dict(self.__dict__)


class _Session:
    """Per-connection authentication state."""

    __slots__ = ("user", "ring")

    def __init__(self) -> None:
        self.user: Optional[str] = None
        self.ring: int = 0


def _percentile(samples: List[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``samples`` (nearest-rank)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def stable_shard(key: str, shards: int) -> int:
    """Deterministically map ``key`` onto ``[0, shards)``.

    The first 8 bytes of its sha1, big-endian, mod ``shards``: Python's
    builtin ``hash`` is salted per interpreter (``PYTHONHASHSEED``),
    which would send the same user to a different shard, away from its
    parked tenant, after a gateway restart.
    """
    if shards <= 0:
        raise ConfigurationError("shards must be positive")
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class RingGateway:
    """The asyncio gate-call server.  See the module docstring."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        if self.config.max_sessions and self.config.durability_dir:
            raise ConfigurationError(
                "session mode has its own per-tenant durability (the "
                "session store); worker durability_dir does not compose "
                "with it — set session_store_dir instead"
            )
        if self.config.session_store_dir and not self.config.max_sessions:
            raise ConfigurationError(
                "session_store_dir persists parked session tenants, so "
                "it requires session mode (max_sessions)"
            )
        #: the shape of every worker machine, validated here so a bad
        #: profile or hardening flag fails at construction
        self.machine = self.config.machine()
        self._sessions = self.config.sessions()
        #: validated eagerly so a bad replication setup fails at
        #: construction, not mid-failover
        self._replication = self.config.replication()
        self._replicas: Optional[ReplicaSet] = None
        self.counters = GatewayCounters()
        self.admission = AdmissionController(
            self.config.default_policy, self.config.ring_policies
        )
        self.pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._inflight: set = set()
        self._serving = 0  # requests between receive and response-sent
        self._writers: set = set()
        self._latencies_ms: deque = deque(maxlen=self.config.latency_samples)
        #: gateway-side per-worker sums of per-call metric deltas
        self._per_worker: Dict[str, MetricsSnapshot] = {}
        self._per_worker_calls: Dict[str, int] = {}
        #: the cumulative totals each worker last reported about itself
        self._worker_reported: Dict[str, Tuple[int, Dict[str, int]]] = {}
        #: the generation each worker last reported, and the baseline
        #: (calls, totals) offset sampled when that generation was first
        #: seen — a recovered worker's cumulative figures include
        #: journal-replayed history this gateway never routed, so the
        #: cross-check compares growth since first contact, not history
        self._worker_generation: Dict[str, int] = {}
        self._worker_baseline: Dict[str, Tuple[int, Dict[str, int]]] = {}
        #: identity details per worker (pid, slot) for the stats payload
        self._worker_info: Dict[str, Dict[str, Any]] = {}
        self._pool_epoch = 0
        self._recovery_lock = asyncio.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ConfigurationError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _start_pool(self) -> WorkerPool:
        pool = WorkerPool(
            workers=self.config.workers,
            backend=self.config.backend,
            durability=self.config.durability(),
            machine=self.machine,
            session=self._sessions,
        )
        await pool.start()
        return pool

    async def start(self) -> None:
        """Create the worker pool and start accepting connections."""
        if self._server is not None:
            raise ConfigurationError("gateway is already started")
        self.pool = await self._start_pool()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=2 * MAX_LINE_BYTES,
        )
        if self._replication is not None:
            self._replicas = ReplicaSet(self._replication)
            await self._replicas.start()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Serve until ``stop_event`` fires, then drain and stop."""
        await stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful drain: no new work, finish in-flight, close up."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        if self._inflight:
            await asyncio.wait(
                list(self._inflight), timeout=self.config.drain_timeout
            )
        # Let handlers flush the responses for the calls that just
        # finished before their connections are torn down.
        while self._serving and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        with contextlib.suppress(asyncio.TimeoutError, OSError):
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        self._server = None
        if self.pool is not None:
            if self._sessions is not None and self._sessions.store_dir:
                # park every live tenant so the next incarnation (or
                # another gateway) can hydrate them from the store; the
                # shards park concurrently under one drain deadline
                with contextlib.suppress(
                    BrokenExecutor, RuntimeError, asyncio.TimeoutError
                ):
                    await asyncio.wait_for(
                        asyncio.gather(
                            *(
                                self._session_op(shard, "park_all")
                                for shard in range(self.config.workers)
                            ),
                            return_exceptions=True,
                        ),
                        timeout=self.config.drain_timeout,
                    )
            await self.pool.shutdown(wait=True)
            self.pool = None
        if self._replicas is not None:
            # after the pool drained: the shippers do one final
            # poll/ship round so followers end current
            await self._replicas.stop()
            self._replicas = None

    async def _ensure_pool(self, observed_epoch: int) -> None:
        """Replace a broken worker pool (at most once per epoch).

        Every in-flight call that saw the break converges here; the
        first one through the lock rebuilds, the rest observe the bumped
        epoch and return.  The old pool is shut down first — a broken
        process pool kills its remaining children on shutdown, which
        frees their durability slots for the replacement workers to
        claim, restore, and replay.
        """
        async with self._recovery_lock:
            if self._pool_epoch != observed_epoch or self._draining:
                return
            if self.pool is not None:
                await self.pool.shutdown(wait=True)
            if self._replicas is not None:
                # hot failover: each slot's lowest-lag follower replays
                # the unshipped journal tail and writes a promotion
                # snapshot *before* the replacement workers claim the
                # slots — the successors then recover with an empty
                # tail instead of cold-restoring and replaying
                self.counters.promotions += await self._replicas.promote_all()
            self.pool = await self._start_pool()
            self._pool_epoch += 1
            self.counters.recoveries += 1

    def _session_op(
        self, shard: int, op: str, **fields: Any
    ) -> asyncio.Future:
        """Submit one shard maintenance op (see
        :func:`~repro.serve.sessions.session_control`) to its worker."""
        request = {"op": op, "shard": shard}
        return self.pool.submit(
            session_control, {**request, **fields}, worker=shard
        )

    # -- connection handling -----------------------------------------------

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(encode(message))
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self.counters.sessions_opened += 1
        session = _Session()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # reset, or a line beyond the stream limit: the
                    # framing is unrecoverable, drop the connection
                    self.counters.protocol_errors += 1
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line.strip())
                except GatewayProtocolError as exc:
                    self.counters.protocol_errors += 1
                    await self._send(
                        writer,
                        error_response(
                            ErrorCode.BAD_REQUEST, detail=str(exc)
                        ),
                    )
                    continue
                self._serving += 1
                try:
                    response = await self._handle_message(session, message)
                    await self._send(writer, response)
                finally:
                    self._serving -= 1
                if message.get("verb") == "bye":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            self.counters.sessions_closed += 1
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- verbs --------------------------------------------------------------

    async def _handle_message(
        self, session: _Session, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        verb = message.get("verb")
        request_id = message.get("id")
        if verb == "hello":
            return self._verb_hello(session, message)
        if verb == "call":
            return await self._verb_call(session, message)
        if verb == "stats":
            return await self._verb_stats(request_id)
        if verb == "park":
            return await self._verb_park(message)
        if verb == "bye":
            return ok_response(request_id, verb="bye")
        self.counters.bad_requests += 1
        return error_response(
            ErrorCode.BAD_REQUEST,
            request_id,
            detail=f"unknown verb {verb!r}",
        )

    def _verb_hello(
        self, session: _Session, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        request_id = message.get("id")
        user = message.get("user")
        ring = message.get("ring", 4)
        if not isinstance(user, str) or not 1 <= len(user) <= 64:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail="hello requires a user name (1..64 chars)",
            )
        if (
            not isinstance(ring, int)
            or isinstance(ring, bool)
            or not catalog.MIN_RING <= ring <= catalog.MAX_RING
        ):
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail=f"ring must be an integer in "
                f"[{catalog.MIN_RING}, {catalog.MAX_RING}]",
            )
        session.user = user
        session.ring = ring
        return ok_response(request_id, verb="hello", user=user, ring=ring)

    async def _verb_call(
        self, session: _Session, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        request_id = message.get("id")
        if session.user is None:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.AUTH_REQUIRED,
                request_id,
                detail="send hello before call",
            )
        if self._draining:
            self.counters.rejected_shutting_down += 1
            return error_response(
                ErrorCode.SHUTTING_DOWN,
                request_id,
                retry_after=DRAIN_RETRY_AFTER,
            )
        program = message.get("program")
        args = message.get("args", {})
        try:
            catalog.resolve(program, args)
        except KeyError:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.UNKNOWN_PROGRAM,
                request_id,
                detail=f"unknown program {program!r}; catalog: "
                f"{sorted(catalog.CATALOG)}",
            )
        except (ConfigurationError, TypeError) as exc:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.BAD_REQUEST, request_id, detail=str(exc)
            )

        decision = self.admission.admit(session.ring)
        if not decision.admitted:
            if decision.reason == ErrorCode.RATE_LIMITED:
                self.counters.rejected_rate_limited += 1
            else:
                self.counters.rejected_queue_full += 1
            return error_response(
                decision.reason,
                request_id,
                ring=session.ring,
                retry_after=decision.retry_after,
            )

        self.counters.accepted += 1
        job = {
            "user": session.user,
            "ring": session.ring,
            "program": program,
            "args": args,
            # lets a durable worker that journaled this call before a
            # crash answer the retry from its journal instead of
            # executing twice
            "call_id": uuid.uuid4().hex,
        }
        if self._sessions is not None:
            # worker affinity: the user's live machine (or parked
            # image) belongs to exactly one shard
            job["shard"] = stable_shard(session.user, self.config.workers)
        loop = asyncio.get_running_loop()
        started = loop.time()
        result: Optional[Dict[str, Any]] = None
        failure: Optional[BaseException] = None
        for attempt in range(CALL_ATTEMPTS):
            epoch = self._pool_epoch
            try:
                if self._sessions is not None:
                    job["epoch"] = epoch
                    future = self.pool.submit(
                        execute_session_call, job, worker=job["shard"]
                    )
                else:
                    future = self.pool.submit(execute_gate_call, job)
            except (BrokenExecutor, RuntimeError) as exc:
                # the submit itself failed: no future was created, so
                # this call still holds its admission slot
                failure = exc
            else:
                self._inflight.add(future)
                future.add_done_callback(
                    functools.partial(
                        self._call_finished, loop, session.ring, started
                    )
                )
                # asyncio.wait never cancels what it waits on
                done, _ = await asyncio.wait(
                    (future,), timeout=self.config.call_timeout
                )
                if not done:
                    # The response is a timeout; the worker-side call
                    # still runs to completion and is accounted by
                    # _call_finished, so the stats cross-check stays
                    # exact.
                    self.counters.timed_out += 1
                    return error_response(
                        ErrorCode.TIMEOUT,
                        request_id,
                        timeout=self.config.call_timeout,
                    )
                try:
                    result = future.result()
                    failure = None
                    break
                except BrokenExecutor as exc:
                    # the pool died under the call; _call_finished just
                    # released our slot — reclaim it for the retry
                    failure = exc
                    self.admission.readmit(session.ring)
                except Exception as exc:
                    return error_response(
                        ErrorCode.BAD_REQUEST,
                        request_id,
                        detail=f"worker failure: {exc}",
                    )
            if self._draining or attempt == CALL_ATTEMPTS - 1:
                break
            await self._ensure_pool(epoch)
            if self._replicas is not None:
                # Before resubmitting: the dead pool may have journaled
                # this call already, and the retry can land on a
                # *different* slot whose worker has never seen the
                # call_id — per-slot dedup cannot catch that.  The
                # followers collectively saw every shipped journal;
                # answering from them is what guarantees zero
                # double-execution across a failover.
                answered = await self._replicas.lookup(job["call_id"])
                if answered is not None:
                    self.admission.release(session.ring)
                    slot, journaled = answered
                    return self._replica_answer(
                        request_id, slot, journaled, loop.time() - started
                    )
            self.counters.retried_calls += 1
        if failure is not None:
            self.admission.release(session.ring)
            if self._draining:
                self.counters.rejected_shutting_down += 1
                return error_response(
                    ErrorCode.SHUTTING_DOWN,
                    request_id,
                    retry_after=DRAIN_RETRY_AFTER,
                )
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail=f"worker failure: {failure}",
            )
        if "error" in result:
            return error_response(
                result["error"],
                request_id,
                detail=result.get("detail", ""),
                worker=result.get("worker"),
            )
        latency_ms = round((loop.time() - started) * 1e3, 3)
        response = ok_response(
            request_id,
            verb="call",
            result=result["payload"],
            # parsed by _call_finished: registered on the future before
            # asyncio.wait's own callback, it has run by the time this
            # coroutine resumes
            metrics=result["metrics"].architectural(),
            worker=result["worker"],
            latency_ms=latency_ms,
        )
        if "session" in result:
            response["session"] = result["session"]
        if result.get("deduplicated"):
            response["deduplicated"] = True
        return response

    def _replica_answer(
        self,
        request_id: Any,
        slot: Any,
        journaled: Dict[str, Any],
        elapsed: float,
    ) -> Dict[str, Any]:
        """Answer a retried call from a follower's journaled result.

        The dead pool executed (and journaled) the call; the machine
        state change is part of the replayed history the per-worker
        baseline absorbs, so the per-worker sums are *not* touched —
        exactly like a worker-side dedup hit.
        """
        self.counters.deduplicated_calls += 1
        self.counters.replica_answered_calls += 1
        worker = f"slot{slot}"
        if "error" in journaled:
            self.counters.machine_faults += 1
            return error_response(
                journaled["error"],
                request_id,
                detail=journaled.get("detail", ""),
                worker=worker,
                deduplicated=True,
            )
        self.counters.completed += 1
        self._latencies_ms.append(elapsed * 1e3)
        metrics = MetricsSnapshot.from_dict(journaled["metrics"])
        return ok_response(
            request_id,
            verb="call",
            result=journaled["payload"],
            metrics=metrics.architectural(),
            worker=worker,
            latency_ms=round(elapsed * 1e3, 3),
            deduplicated=True,
        )

    def _call_finished(
        self,
        loop: asyncio.AbstractEventLoop,
        ring: int,
        started: float,
        future: "asyncio.Future",
    ) -> None:
        """Always runs once per admitted call, however it ended."""
        self._inflight.discard(future)
        self.admission.release(ring)
        if future.cancelled() or future.exception() is not None:
            self.counters.worker_errors += 1
            return
        result = future.result()
        if "error" in result:
            self.counters.machine_faults += 1
            return
        # parse once per call; the response reuses the snapshot
        result["metrics"] = delta = MetricsSnapshot.from_dict(
            result["metrics"]
        )
        self.counters.completed += 1
        self._latencies_ms.append((loop.time() - started) * 1e3)
        worker = result["worker"]
        deduplicated = bool(result.get("deduplicated"))
        session_info = result.get("session")
        if session_info is not None:
            if session_info.get("admitted") == "hydrated":
                self.counters.session_hydrated += 1
            elif session_info.get("admitted") == "created":
                self.counters.session_created += 1
            if session_info.get("cold") and not deduplicated:
                self.counters.session_cold_calls += 1
        if deduplicated:
            # answered from the worker's journal: the machine executed
            # this call in a previous incarnation (it is part of the
            # replayed history the baseline absorbs), so summing its
            # delta again would double-count it
            self.counters.deduplicated_calls += 1
        else:
            current = self._per_worker.get(worker)
            self._per_worker[worker] = (
                delta if current is None else current.plus(delta)
            )
            self._per_worker_calls[worker] = (
                self._per_worker_calls.get(worker, 0) + 1
            )
        self._worker_reported[worker] = (
            result["worker_calls"],
            result["worker_total"],
        )
        self._worker_info[worker] = {
            "generation": result.get("generation", 0),
            "pid": result.get("pid"),
            "slot": result.get("slot"),
            "machine_profile": result.get("machine_profile"),
            "hardening": result.get("hardening", []),
        }
        generation = result.get("generation", 0)
        if self._worker_generation.get(worker) != generation:
            # first result from this worker incarnation: its cumulative
            # figures may include journal-replayed calls (or a previous
            # gateway's traffic) this gateway never summed — sample the
            # offset so the cross-check compares growth, not history
            self._worker_generation[worker] = generation
            summed = self._per_worker.get(
                worker, MetricsSnapshot.zero()
            ).architectural()
            baseline_total = {
                name: result["worker_total"].get(name, 0) - summed[name]
                for name in summed
            }
            baseline_calls = result["worker_calls"] - self._per_worker_calls.get(
                worker, 0
            )
            self._worker_baseline[worker] = (baseline_calls, baseline_total)

    async def _verb_park(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Park one user's live tenant now.

        The park writes the tenant's current state into the session
        store, and the user's next call hydrates it back; a client can
        use it to set up parked tenants ahead of load.  ``parked`` is
        false when the user had no live tenant.
        """
        request_id = message.get("id")
        if self._sessions is None:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail="park requires session mode (--max-sessions)",
            )
        user = message.get("user")
        if not isinstance(user, str) or not user:
            self.counters.bad_requests += 1
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail="park requires a user name",
            )
        shard = stable_shard(user, self.config.workers)
        try:
            result = await self._session_op(shard, "park", user=user)
        except (BrokenExecutor, RuntimeError, AttributeError) as exc:
            if self._draining:
                self.counters.rejected_shutting_down += 1
                return error_response(
                    ErrorCode.SHUTTING_DOWN,
                    request_id,
                    retry_after=DRAIN_RETRY_AFTER,
                    detail=f"park failed: {exc}",
                )
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail=f"park failed: {exc}",
            )
        return ok_response(
            request_id, verb="park", user=user,
            parked=bool(result.get("parked")),
        )

    # -- stats ---------------------------------------------------------------

    async def _verb_stats(
        self, request_id: Optional[Any] = None
    ) -> Dict[str, Any]:
        """The ``stats`` response, with per-shard session figures
        gathered from the workers in session mode."""
        payload = self.stats_payload(request_id)
        if self._sessions is None or self.pool is None:
            return payload

        async def shard_stats(shard: int) -> Dict[str, Any]:
            return await asyncio.wait_for(
                self._session_op(shard, "stats"),
                timeout=self.config.call_timeout,
            )

        # a shard that is broken, stopping or slow is left out
        replies = await asyncio.gather(
            *(shard_stats(shard) for shard in range(self.config.workers)),
            return_exceptions=True,
        )
        shards = [reply for reply in replies if isinstance(reply, dict)]
        summable = [
            "live", "parked", "created", "hydrated", "parks", "evictions",
            "cold_calls", "warm_calls", "deduplicated", "replayed_tail_calls",
            "park_delta_bytes", "park_full_bytes", "park_stored_bytes",
            "trace_library_entries", "traces_adopted",
        ]
        totals = {
            name: sum(entry.get(name, 0) for entry in shards)
            for name in summable
        }
        full = totals["park_full_bytes"]
        payload["sessions"] = {
            "enabled": True,
            "max_sessions": self.config.max_sessions,
            "store_dir": self.config.session_store_dir,
            "park_size_ratio": (
                round(totals["park_delta_bytes"] / full, 6) if full else None
            ),
            **totals,
            # no prefetcher hydrates ahead of demand; the keys stay for
            # clients that still read them
            "prefetch_hydrated": 0,
            "prefetch_hits": 0,
            "per_shard": shards,
        }
        return payload

    def stats_payload(self, request_id: Optional[Any] = None) -> Dict[str, Any]:
        """The ``stats`` response: counters, merged metrics, cross-check."""
        merged = MetricsSnapshot.sum_of(self._per_worker.values())
        per_worker: Dict[str, Dict[str, Any]] = {}
        consistent = True
        seen = set(self._per_worker) | set(self._worker_reported)
        for worker in sorted(seen):
            summed = self._per_worker.get(worker, MetricsSnapshot.zero())
            reported_calls, reported_total = self._worker_reported.get(
                worker, (0, {})
            )
            gateway_calls = self._per_worker_calls.get(worker, 0)
            baseline_calls, baseline_total = self._worker_baseline.get(
                worker, (0, {})
            )
            architectural = summed.architectural()
            # the worker's own totals must equal what this gateway
            # summed plus the baseline sampled at first contact with
            # the worker's current incarnation (replayed history)
            expected_total = {
                name: architectural[name] + baseline_total.get(name, 0)
                for name in architectural
            }
            agrees = (
                expected_total == reported_total
                and gateway_calls + baseline_calls == reported_calls
            )
            consistent = consistent and agrees
            per_worker[worker] = {
                "calls": gateway_calls,
                "worker_reported_calls": reported_calls,
                "baseline_calls": baseline_calls,
                "architectural": architectural,
                "consistent": agrees,
                **self._worker_info.get(worker, {}),
            }
        samples = list(self._latencies_ms)
        latency = {
            "count": len(samples),
            "p50_ms": round(_percentile(samples, 0.50), 3),
            "p95_ms": round(_percentile(samples, 0.95), 3),
            "p99_ms": round(_percentile(samples, 0.99), 3),
        }
        replication: Dict[str, Any] = {"enabled": False}
        if self._replicas is not None:
            replication = self._replicas.stats()
            replication["promotions"] = self.counters.promotions
            replication["replica_answered_calls"] = (
                self.counters.replica_answered_calls
            )
        return ok_response(
            request_id,
            verb="stats",
            gateway={
                **self.counters.as_dict(),
                "in_flight": len(self._inflight),
                "pending_by_ring": {
                    str(ring): count
                    for ring, count in self.admission.pending_by_ring().items()
                },
                "latency": latency,
                "draining": self._draining,
            },
            workers={
                "backend": self.pool.backend if self.pool else "stopped",
                "configured": self.config.workers,
                "machine_profile": self.machine.profile,
                "hardening": list(self.machine.hardening.enabled_flags()),
                "pool_epoch": self._pool_epoch,
                "durability": {
                    "enabled": bool(self.config.durability_dir),
                    "dir": self.config.durability_dir,
                    "checkpoint_interval": self.config.checkpoint_interval,
                    "fsync_every": self.config.fsync_every,
                },
                "per_worker": per_worker,
            },
            replication=replication,
            merged=merged.as_dict(),
            architectural=merged.architectural(),
            rates=merged.rates(),
            consistent=consistent,
        )
