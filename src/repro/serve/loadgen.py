"""Load generator for the ring gateway.

Opens many concurrent sessions against a running gateway, drives a
burst of gate calls through each, honours backpressure (a rejection's
``retry_after`` is slept, then the call is retried up to
``max_retries`` times), and reports client-side figures next to the
gateway's own ``stats`` so the two can be cross-checked:

* every request must terminate in exactly one of OK / rejected-and-
  retried-to-OK / timed out / errored — nothing silently dropped;
* the gateway's merged architectural counters must equal the sum of the
  per-worker snapshots it reports (``consistent``), and the sum of the
  per-call metrics this client saw must match the merged figures.

``run_load`` is the library entry point (the benchmark uses it
in-process); ``repro loadgen`` wraps it on the CLI.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .protocol import ErrorCode, MAX_LINE_BYTES, decode_line, encode


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, round(fraction * len(ordered) + 0.5)))
    return ordered[rank - 1]


@dataclass
class LoadReport:
    """What one load-generation run observed, client side."""

    sessions: int
    calls_per_session: int
    sent: int = 0
    ok: int = 0
    rejected: int = 0  # rejections seen (each is retried)
    retries_exhausted: int = 0
    timed_out: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: session-mode split: calls the serving pool ran against a cold
    #: (just created or just hydrated) machine vs a warm live slot
    cold_calls: int = 0
    warm_calls: int = 0
    hydrated: int = 0
    created: int = 0
    prefetch_hits: int = 0
    cold_latencies_ms: List[float] = field(default_factory=list)
    warm_latencies_ms: List[float] = field(default_factory=list)
    #: client-side sum of the per-call architectural metrics
    client_metrics: Dict[str, int] = field(default_factory=dict)
    #: the first few non-retryable error responses, for diagnosis
    error_details: List[Dict[str, Any]] = field(default_factory=list)
    #: the gateway's final ``stats`` response
    stats: Optional[Dict[str, Any]] = None
    #: adversarial mode: the fault-code name every call is REQUIRED to
    #: come back with (``None`` = normal load, faults are errors)
    expect_fault: Optional[str] = None
    #: adversarial mode: machine_fault responses carrying the expected
    #: code — the *success* count of an attack run
    expected_faults: int = 0
    #: adversarial mode: calls that came back OK (the attack "won") —
    #: any non-zero value is a protection failure
    unexpected_ok: int = 0
    #: machine profile the gateway is REQUIRED to be serving with
    #: (``None`` = don't check)
    expect_profile: Optional[str] = None
    #: hardening flags the gateway is REQUIRED to be serving with, in
    #: any order (``None`` = don't check; ``()`` = require none)
    expect_hardening: Optional[Sequence[str]] = None

    @property
    def answered(self) -> int:
        """Calls the machine answered: OK, or faulted with the code an
        adversarial run demands."""
        return self.ok + self.expected_faults

    @property
    def throughput(self) -> float:
        """Answered calls per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.answered / self.elapsed_seconds

    @property
    def dropped(self) -> int:
        """Requests that ended without an OK and without an explicit,
        honoured rejection: timeouts, errors, exhausted retries."""
        return self.timed_out + self.errors + self.retries_exhausted

    def percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile in milliseconds (0 if empty)."""
        return percentile(self.latencies_ms, fraction)

    def check(self) -> List[str]:
        """Self-consistency violations (empty list == all good)."""
        problems: List[str] = []
        if self.expect_fault is not None:
            if self.unexpected_ok:
                problems.append(
                    f"{self.unexpected_ok} attack call(s) SUCCEEDED — "
                    f"expected every call to fault with {self.expect_fault}"
                )
            if self.errors:
                problems.append(
                    f"{self.errors} call(s) failed with something other "
                    f"than the expected {self.expect_fault} fault"
                )
        if self.dropped:
            problems.append(
                f"{self.dropped} dropped request(s): "
                f"{self.timed_out} timed out, {self.errors} errored, "
                f"{self.retries_exhausted} exhausted retries"
            )
        if self.stats is None:
            problems.append("no final stats response")
            return problems
        if not self.stats.get("consistent"):
            problems.append(
                "gateway reports merged != sum of per-worker snapshots"
            )
        # the gateway advertises a shape, and each worker reports the
        # shape of the machine that answered: all must match
        workers = self.stats.get("workers", {})
        for who, info in [("gateway", workers)] + [
            (f"worker {name}", info)
            for name, info in workers.get("per_worker", {}).items()
        ]:
            profile = info.get("machine_profile")
            if self.expect_profile not in (None, profile):
                problems.append(
                    f"{who} serves machine profile {profile!r}, "
                    f"expected {self.expect_profile!r}"
                )
            flags = sorted(info.get("hardening") or [])
            if self.expect_hardening is not None and flags != sorted(
                self.expect_hardening
            ):
                problems.append(
                    f"{who} serves hardening {flags!r}, "
                    f"expected {sorted(self.expect_hardening)!r}"
                )
        gateway = self.stats.get("gateway", {})
        completed = gateway.get("completed", -1)
        if completed < self.ok:
            problems.append(
                f"gateway completed {completed} < client OK count {self.ok}"
            )
        # Only meaningful when this client was the gateway's sole
        # traffic, nothing timed out (timed-out calls are counted
        # server side but invisible here), and no worker crashed: a
        # call answered from a recovered worker's journal reaches this
        # client but is part of the replayed history the gateway's
        # baselines absorb, so the two sums legitimately differ.
        crash_free = not gateway.get("recoveries", 0)
        gateway_arch = self.stats.get("architectural", {})
        if (
            not self.dropped
            and crash_free
            and self.client_metrics
            and gateway_arch != self.client_metrics
        ):
            problems.append(
                "client-side metric sums disagree with the gateway's "
                "merged architectural counters"
            )
        return problems

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable report, as written by ``repro loadgen --json``."""
        return {
            "sessions": self.sessions,
            "calls_per_session": self.calls_per_session,
            "sent": self.sent,
            "ok": self.ok,
            "rejected": self.rejected,
            "retries_exhausted": self.retries_exhausted,
            "timed_out": self.timed_out,
            "errors": self.errors,
            "dropped": self.dropped,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "throughput_calls_per_second": round(self.throughput, 1),
            "latency_mean_ms": round(
                sum(self.latencies_ms) / len(self.latencies_ms), 3
            )
            if self.latencies_ms
            else 0.0,
            "latency_p50_ms": round(self.percentile(0.50), 3),
            "latency_p95_ms": round(self.percentile(0.95), 3),
            "latency_p99_ms": round(self.percentile(0.99), 3),
            "cold_calls": self.cold_calls,
            "warm_calls": self.warm_calls,
            "hydrated": self.hydrated,
            "created": self.created,
            "prefetch_hits": self.prefetch_hits,
            "cold_latency_p99_ms": round(
                percentile(self.cold_latencies_ms, 0.99), 3
            ),
            "warm_latency_p50_ms": round(
                percentile(self.warm_latencies_ms, 0.50), 3
            ),
            "expect_fault": self.expect_fault,
            "expected_faults": self.expected_faults,
            "unexpected_ok": self.unexpected_ok,
            "expect_hardening": (
                None
                if self.expect_hardening is None
                else sorted(self.expect_hardening)
            ),
            "client_metrics": dict(self.client_metrics),
            "error_details": list(self.error_details),
            "stats": self.stats,
            "problems": self.check(),
        }


class _Connection:
    """One JSON-lines client connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=2 * MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.writer.write(encode(message))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return decode_line(line.strip())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _merge_counts(total: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


async def _drive_session(
    host: str,
    port: int,
    user: str,
    ring: int,
    calls: int,
    program: str,
    args: Dict[str, Any],
    max_retries: int,
    report: LoadReport,
    expect_fault: Optional[str] = None,
) -> None:
    conn = await _Connection.open(host, port)
    try:
        hello = await conn.request({"verb": "hello", "user": user, "ring": ring})
        if not hello.get("ok"):
            raise ConfigurationError(f"hello rejected: {hello}")
        for seq in range(calls):
            message = {
                "verb": "call",
                "id": seq,
                "program": program,
                "args": args,
            }
            attempts = 0
            started = time.perf_counter()
            # All sessions share one event loop, and none of the
            # report mutations below spans an await: plain writes are
            # race-free.
            while True:
                report.sent += 1
                response = await conn.request(message)
                if response.get("ok"):
                    report.ok += 1
                    if expect_fault is not None:
                        report.unexpected_ok += 1
                    latency_ms = (time.perf_counter() - started) * 1e3
                    report.latencies_ms.append(latency_ms)
                    _merge_counts(report.client_metrics, response["metrics"])
                    session_info = response.get("session")
                    if session_info and not response.get("deduplicated"):
                        if session_info.get("cold"):
                            report.cold_calls += 1
                            report.cold_latencies_ms.append(latency_ms)
                        else:
                            report.warm_calls += 1
                            report.warm_latencies_ms.append(latency_ms)
                        admitted = session_info.get("admitted")
                        if admitted == "hydrated":
                            report.hydrated += 1
                        elif admitted == "created":
                            report.created += 1
                        if session_info.get("prefetch_hit"):
                            report.prefetch_hits += 1
                    break
                code = response.get("error")
                if code in ErrorCode.RETRYABLE:
                    report.rejected += 1
                    attempts += 1
                    if attempts > max_retries:
                        report.retries_exhausted += 1
                        break
                    await asyncio.sleep(
                        max(0.001, float(response.get("retry_after", 0.01)))
                    )
                    continue
                if (
                    expect_fault is not None
                    and code == ErrorCode.MACHINE_FAULT
                    and str(response.get("detail", "")).startswith(
                        expect_fault
                    )
                ):
                    # the attack was caught with exactly the fault the
                    # oracle demands: that IS the success path here
                    report.expected_faults += 1
                    report.latencies_ms.append(
                        (time.perf_counter() - started) * 1e3
                    )
                    break
                if code == ErrorCode.TIMEOUT:
                    report.timed_out += 1
                else:
                    report.errors += 1
                if len(report.error_details) < 8:
                    report.error_details.append(
                        {"user": user, "call": seq, "response": response}
                    )
                break
        await conn.request({"verb": "bye"})
    finally:
        await conn.close()


async def run_load(
    host: str,
    port: int,
    sessions: int = 8,
    calls: int = 50,
    program: str = "call_loop",
    args: Optional[Dict[str, Any]] = None,
    rings: Sequence[int] = (4,),
    user_prefix: str = "load",
    user_offset: int = 0,
    max_retries: int = 50,
    fetch_stats: bool = True,
    concurrency: Optional[int] = None,
    expect_fault: Optional[str] = None,
    expect_profile: Optional[str] = None,
    expect_hardening: Optional[Sequence[str]] = None,
) -> LoadReport:
    """Drive ``sessions`` concurrent sessions of ``calls`` calls each.

    Session ``i`` authenticates as ``{user_prefix}{user_offset + i}``
    bound to ``rings[i % len(rings)]`` — pass several rings for
    mixed-ring traffic, or an offset to address a different slice of
    an established user population.  ``concurrency`` caps how many sessions are in flight at
    once (default: all of them) so very large user populations can be
    streamed through a bounded connection pool.  Returns the
    consolidated :class:`LoadReport`; call :meth:`LoadReport.check`
    for the self-consistency verdict.

    ``expect_fault`` flips the run into adversarial mode: every call is
    *required* to come back as a ``machine_fault`` whose detail starts
    with that fault-code name — matching faults count as
    ``expected_faults``, an OK response is a protection failure.
    ``expect_profile`` asserts the gateway's worker machine profile
    (``ringed`` / ``baseline645``) in the final stats;
    ``expect_hardening`` likewise asserts the exact set of hardening
    flags the workers were built with (order-insensitive).
    """
    if sessions <= 0 or calls <= 0:
        raise ConfigurationError("sessions and calls must be positive")
    if not rings:
        raise ConfigurationError("rings must be non-empty")
    if concurrency is not None and concurrency <= 0:
        raise ConfigurationError("concurrency must be positive")
    args = dict(args or {})
    report = LoadReport(
        sessions=sessions,
        calls_per_session=calls,
        expect_fault=expect_fault,
        expect_profile=expect_profile,
        expect_hardening=expect_hardening,
    )
    started = time.perf_counter()

    async def _drive(index: int) -> None:
        await _drive_session(
            host,
            port,
            f"{user_prefix}{user_offset + index}",
            rings[index % len(rings)],
            calls,
            program,
            args,
            max_retries,
            report,
            expect_fault=expect_fault,
        )

    workers = min(concurrency or sessions, sessions)
    if workers >= sessions:
        await asyncio.gather(*(_drive(index) for index in range(sessions)))
    else:
        pending = iter(range(sessions))

        async def _worker() -> None:
            for index in pending:
                await _drive(index)

        await asyncio.gather(*(_worker() for _ in range(workers)))
    report.elapsed_seconds = time.perf_counter() - started
    if fetch_stats:
        conn = await _Connection.open(host, port)
        try:
            report.stats = await conn.request({"verb": "stats"})
            await conn.request({"verb": "bye"})
        finally:
            await conn.close()
    return report
