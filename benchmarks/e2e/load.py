"""The benchmark's client: connections, the two load shapes, and checks.

Load comes from one asyncio loop over at most two TCP connections.  A
closed loop keeps one call in flight per connection; the open loop
replays a seeded visit schedule through two client slots, and a visit
that is due while both slots are busy waits on the client, so its
first call is timed from its due time.

Every OK answer is checked against reference vectors computed in this
process from a fresh :class:`~repro.serve.workers.GateCallEngine` built
like the workload's workers: the payload and the architectural metrics
must equal the cold-attach vector or the warm repeat vector.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.protocol import ErrorCode, MAX_LINE_BYTES, decode_line, encode
from repro.sim.metrics import MetricsSnapshot

#: retries of a call rejected with ``retry_after`` before it counts as
#: failed
MAX_RETRIES = 50

#: problems kept verbatim per lifecycle; the rest are only counted
MAX_PROBLEMS = 8


class Conn:
    """One JSON-lines connection to the gateway."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=2 * MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.writer.write(encode(message))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return decode_line(line)

    async def hello(self, user: str, ring: int) -> None:
        reply = await self.request({"verb": "hello", "user": user, "ring": ring})
        if not reply.get("ok"):
            raise ConnectionError(f"hello refused: {reply}")

    async def close(self) -> None:
        """Say ``bye`` (briefly: the gateway may be hung) and close."""
        try:
            await asyncio.wait_for(self.request({"verb": "bye"}), 2.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def reference_vectors(engine, program: str, args: Dict[str, Any]) -> Dict[str, Tuple]:
    """``{"cold": (payload, metrics), "warm": (payload, metrics)}``.

    The first call on a fresh engine pays the cold attach; the second
    repeats warm through the fast-gate path.  Payloads carry the
    caller's ring, so they are stored for ring 4 and re-ringed on use.
    """
    job = {"user": "ref", "ring": 4, "program": program, "args": args}
    out = {}
    for kind in ("cold", "warm"):
        result = engine.run_job({**job, "call_id": f"ref-{kind}"})
        metrics = {
            name: result["metrics"][name] for name in MetricsSnapshot.ARCHITECTURAL
        }
        out[kind] = (result["payload"], metrics)
    return out


class Checker:
    """Per-call output checks and the client-side metric sums."""

    def __init__(self, vectors: Dict[str, Tuple], sessions: bool):
        self.vectors = vectors
        self.sessions = sessions
        self.sums: Dict[str, int] = {name: 0 for name in MetricsSnapshot.ARCHITECTURAL}
        self.problems: List[str] = []
        self.failed_checks = 0
        self.cold_workers: set = set()

    def problem(self, text: str) -> None:
        self.failed_checks += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def check(self, response: Dict[str, Any], ring: int) -> bool:
        """Whether one OK call answer is right; sums its metrics."""
        metrics = response.get("metrics", {})
        for name, value in metrics.items():
            self.sums[name] = self.sums.get(name, 0) + value
        if self.sessions:
            session = response.get("session", {})
            kind = "cold" if session.get("cold") else "warm"
        else:
            kind = "cold" if metrics == self.vectors["cold"][1] else "warm"
            if kind == "cold":
                # a classic worker attaches its one user exactly once
                worker = response.get("worker")
                if worker in self.cold_workers:
                    self.problem(f"second cold call on worker {worker}")
                    return False
                self.cold_workers.add(worker)
        payload, expected = self.vectors[kind]
        if response.get("result") != {**payload, "ring": ring}:
            self.problem(f"{kind} payload {response.get('result')} != {payload}")
            return False
        if metrics != expected:
            self.problem(f"{kind} metrics {metrics} != {expected}")
            return False
        return True


@dataclass
class Phase:
    """What the client saw during one phase of a lifecycle."""

    attempted: int = 0
    ok: int = 0
    #: client-observed latency per OK call, in ms (open loop: the first
    #: call of a visit is timed from the visit's due time)
    rtt_ms: List[float] = field(default_factory=list)
    #: sums over OK calls of the round trip from the final send, and of
    #: the gateway's own ``latency_ms``; their difference is the time
    #: spent in front of the gateway's executor submit
    wire_ms_total: float = 0.0
    server_ms_total: float = 0.0
    #: open loop: round trip of the first call of each visit, from its
    #: due time
    first_ms: List[float] = field(default_factory=list)
    #: how late each visit started against its due time, in ms
    lag_ms: List[float] = field(default_factory=list)
    visits: int = 0
    started: float = 0.0
    ended: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ended - self.started


async def call(
    conn: Conn,
    ring: int,
    program: str,
    args: Dict[str, Any],
    phase: Phase,
    checker: Checker,
    timed_from: Optional[float] = None,
) -> None:
    """One gate call, retried while rejected with ``retry_after``.

    The call is counted and, when its answer passes the checks, timed
    into ``phase``.  ``timed_from`` marks the first call of a visit,
    timed from the visit's due time.
    """
    message = {"verb": "call", "id": 1, "program": program, "args": args}
    started = time.perf_counter() if timed_from is None else timed_from
    phase.attempted += 1
    for _ in range(MAX_RETRIES + 1):
        sent = time.perf_counter()
        response = await conn.request(message)
        if response.get("ok"):
            now = time.perf_counter()
            if checker.check(response, ring):
                rtt = (now - started) * 1e3
                phase.ok += 1
                phase.rtt_ms.append(rtt)
                phase.wire_ms_total += (now - sent) * 1e3
                phase.server_ms_total += response["latency_ms"]
                if timed_from is not None:
                    phase.first_ms.append(rtt)
            return
        if response.get("error") not in ErrorCode.RETRYABLE:
            break
        await asyncio.sleep(max(0.001, float(response.get("retry_after", 0.01))))
    checker.problem(f"call failed: {response}")


async def closed_loop(
    conns: List[Tuple[Conn, int]],
    program: str,
    args: Dict[str, Any],
    seconds: float,
    phase: Phase,
    checker: Checker,
) -> None:
    """Each connection calls back to back until ``seconds`` elapse."""
    phase.started = time.perf_counter()
    deadline = phase.started + seconds

    async def drive(conn: Conn, ring: int) -> None:
        while time.perf_counter() < deadline:
            await call(conn, ring, program, args, phase, checker)

    await asyncio.gather(*(drive(conn, ring) for conn, ring in conns))
    phase.ended = time.perf_counter()


def visit_schedule(
    rng: random.Random, rate: float, seconds: float, tenants: int
) -> List[Tuple[float, int]]:
    """Seeded jittered arrivals as ``(offset_s, tenant)``, sorted.

    Time is cut into ``1 / rate`` slots and each slot holds one visit at
    a seeded uniform offset, to a seeded uniform tenant.  The offered
    load is the same for every seed.  Poisson arrivals were tried
    first: with two client slots their bursts queue visits on the
    client, and over the 800 visits of a 20-second run the queueing tail
    differs so much between seeds that the p99 latency moved by 30%.
    """
    slot = 1.0 / rate
    count = max(1, round(rate * seconds))
    return [
        ((index + rng.random()) * slot, rng.randrange(tenants))
        for index in range(count)
    ]


def tenant_name(index: int) -> str:
    return f"tenant{index:03d}"


async def open_loop(
    port: int,
    schedule: List[Tuple[float, int]],
    ring: int,
    calls_per_visit: int,
    program: str,
    args: Dict[str, Any],
    phase: Phase,
    checker: Checker,
    slots: int = 2,
) -> None:
    """Replay ``schedule``: each visit connects, says hello, makes its
    calls and says bye, on one of ``slots`` client slots."""
    phase.started = time.perf_counter()
    pending = iter(schedule)

    async def slot() -> None:
        for offset, tenant in pending:
            due = phase.started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lag_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            conn = await Conn.open(port)
            try:
                await conn.hello(tenant_name(tenant), ring)
                for index in range(calls_per_visit):
                    await call(
                        conn, ring, program, args, phase, checker,
                        timed_from=due if index == 0 else None,
                    )
            finally:
                await conn.close()
            phase.visits += 1

    await asyncio.gather(*(slot() for _ in range(slots)))
    phase.ended = time.perf_counter()
