"""The worker-channel pool: one socketpair per worker, on both backends.

Pins the pool contract the gateway builds on: a worker-side exception
reaches its caller (one that cannot cross the channel arrives as a
``WorkerError`` with its text), a dead worker breaks the pool instead of
leaving callers hanging, calls wait for a free worker in FIFO order,
thread and process workers answer alike, and a drain lets every call
finish and every worker exit cleanly.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.serve import gateway as gateway_module
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.protocol import ErrorCode
from repro.serve.sessions import SessionPool
from repro.serve.workers import WorkerError, WorkerPool, execute_gate_call
from repro.sim.metrics import MetricsSnapshot

BACKENDS = ("thread", "process")


class Unpicklable(Exception):
    """Holds a lock, so it cannot be pickled."""

    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


class NeedsTwoArgs(Exception):
    """Pickles, but cannot be unpickled (its constructor needs two
    arguments, its ``args`` hold one)."""

    def __init__(self, text, code):
        super().__init__(f"{text} ({code})")


def fail(kind, text):
    if kind == "plain":
        raise ValueError(text)
    if kind == "unpicklable":
        raise Unpicklable(text)
    raise NeedsTwoArgs(text, 7)


def stamp(token, hold):
    """When this call started, and on which worker; then hold the
    worker for ``hold`` seconds."""
    started = time.monotonic()
    time.sleep(hold)
    return token, started, (os.getpid(), threading.get_ident())


def failing_gate_call(job):
    """``execute_gate_call``, except for two users whose calls raise."""
    if job["user"] == "plain":
        raise ValueError("plain failure")
    if job["user"] == "opaque":
        raise Unpicklable("opaque failure")
    return execute_gate_call(job)


async def started_pool(backend, workers=1):
    pool = WorkerPool(workers=workers, backend=backend)
    await pool.start()
    if pool.backend != backend:
        await pool.shutdown()
        pytest.skip("worker processes unavailable in this environment")
    return pool


def gateway_config(**overrides):
    defaults = dict(
        port=0,
        workers=1,
        backend="thread",
        call_timeout=30.0,
        drain_timeout=30.0,
        default_policy=RingPolicy(rate=None, max_pending=64),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class Client:
    """A JSON-lines client bound to one user."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port, user, ring=4):
        client = cls(*await asyncio.open_connection("127.0.0.1", port))
        reply = await client.request(verb="hello", user=user, ring=ring)
        assert reply["ok"], reply
        return client

    async def request(self, **message):
        self.writer.write(json.dumps(message).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def call(self, program="call_loop", **args):
        return await self.request(
            verb="call", program=program, args=args or {"count": 2}
        )

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestWorkerExceptions:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exception_reaches_the_caller(self, backend):
        async def main():
            pool = await started_pool(backend)
            try:
                with pytest.raises(ValueError, match="^plain failure$"):
                    await pool.submit(fail, "plain", "plain failure")
                with pytest.raises(WorkerError, match="^opaque failure$"):
                    await pool.submit(fail, "unpicklable", "opaque failure")
                with pytest.raises(WorkerError, match=r"^two-arg \(7\)$"):
                    await pool.submit(fail, "two_args", "two-arg")
                # the channel stayed in step: the next call answers
                token, _, _ = await pool.submit(stamp, "after", 0)
                assert token == "after"
            finally:
                await pool.shutdown()

        asyncio.run(main())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gateway_answers_a_worker_failure(self, backend, monkeypatch):
        monkeypatch.setattr(
            gateway_module, "execute_gate_call", failing_gate_call
        )

        async def main():
            gateway = RingGateway(gateway_config(backend=backend))
            await gateway.start()
            try:
                if gateway.pool.backend != backend:
                    pytest.skip("worker processes unavailable here")
                replies = {}
                for user in ("plain", "opaque", "alice"):
                    client = await Client.open(gateway.port, user)
                    replies[user] = await client.call()
                    await client.close()
                return replies, gateway.counters.worker_errors
            finally:
                await gateway.stop()

        replies, worker_errors = asyncio.run(main())
        for user, text in (("plain", "plain failure"),
                           ("opaque", "opaque failure")):
            assert replies[user]["ok"] is False
            assert replies[user]["error"] == ErrorCode.BAD_REQUEST
            assert replies[user]["detail"] == f"worker failure: {text}"
        assert replies["alice"]["ok"] is True
        assert worker_errors == 2


class TestIdleWorkerDeath:
    def test_sigkill_of_an_idle_worker_retries_on_a_rebuilt_pool(self):
        async def main():
            gateway = RingGateway(gateway_config(workers=2, backend="process"))
            await gateway.start()
            try:
                if not gateway.pool.backend.startswith("process"):
                    pytest.skip("worker processes unavailable here")
                client = await Client.open(gateway.port, "alice")
                first = await client.call()
                victims = gateway.pool.pids()
                os.kill(victims[0], signal.SIGKILL)
                # nothing is in flight: the next call finds the pool
                # broken, rebuilds it, and retries
                second = await asyncio.wait_for(client.call(), timeout=60)
                await client.close()
                return first, second, victims, gateway.pool.pids(), (
                    gateway.counters
                )
            finally:
                await gateway.stop()

        first, second, victims, survivors, counters = asyncio.run(main())
        assert first["ok"] and second["ok"], second
        assert counters.recoveries == 1
        assert counters.retried_calls == 1
        assert not set(victims) & set(survivors)


class TestFifoDispatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_queued_calls_run_in_submission_order(self, backend):
        async def main():
            pool = await started_pool(backend, workers=2)
            try:
                # worker 0 frees up first; worker 1 stays busy until
                # every queued call has run
                short = pool.submit(stamp, "short", 0.2)
                long = pool.submit(stamp, "long", 1.5)
                queued = [pool.submit(stamp, n, 0.01) for n in range(6)]
                return await short, await long, await asyncio.gather(*queued)
            finally:
                await pool.shutdown()

        short, long, queued = asyncio.run(main())
        assert short[2] != long[2]  # the first two took both workers
        assert [token for token, _, _ in queued] == list(range(6))
        starts = [started for _, started, _ in queued]
        assert starts == sorted(starts)
        assert {worker for _, _, worker in queued} == {short[2]}


JOBS = [
    ("alice", 4, "call_loop", {"count": 3}),
    ("bob", 5, "compute", {"n": 200}),
    ("alice", 4, "call_loop", {"count": 3}),
    ("carol", 4, "echo", {"value": 17}),
    ("bob", 5, "call_loop", {"count": 2, "target_ring": 1}),
    ("alice", 4, "compute", {"n": 50}),
]


class TestBackendParity:
    def test_thread_and_process_workers_answer_alike(self):
        async def replay(backend):
            pool = await started_pool(backend)
            try:
                answers = []
                for index, (user, ring, program, args) in enumerate(JOBS):
                    job = {
                        "user": user,
                        "ring": ring,
                        "program": program,
                        "args": args,
                        "call_id": f"call-{index}",
                    }
                    result = await pool.submit(execute_gate_call, job)
                    metrics = MetricsSnapshot.from_dict(result["metrics"])
                    answers.append(
                        (
                            result["payload"],
                            metrics.architectural(),
                            result["worker_calls"],
                            result["worker_total"],
                        )
                    )
                return answers
            finally:
                await pool.shutdown()

        threads = asyncio.run(replay("thread"))
        processes = asyncio.run(replay("process"))
        assert len(threads) == len(JOBS)
        assert threads == processes


class TestDrain:
    def test_shutdown_finishes_calls_and_workers_exit_zero(self):
        async def main():
            pool = await started_pool("process", workers=2)
            children = [
                child
                for child in multiprocessing.active_children()
                if child.pid in pool.pids()
            ]
            # two calls in flight, four queued behind them
            futures = [pool.submit(stamp, token, 0.1) for token in range(6)]
            await pool.shutdown(wait=True)
            return futures, children

        futures, children = asyncio.run(main())
        assert [future.result()[0] for future in futures] == list(range(6))
        assert len(children) == 2
        assert [child.exitcode for child in children] == [0, 0]


class TestSessionDrain:
    def test_stop_parks_every_live_tenant_once(self, tmp_path, monkeypatch):
        parked = []
        park = SessionPool.park

        def recording_park(pool, tenant):
            parked.append(tenant.user)
            return park(pool, tenant)

        monkeypatch.setattr(SessionPool, "park", recording_park)
        users = [f"tenant{index}" for index in range(6)]
        # 8 live slots per shard: no tenant is evicted before the drain
        config = gateway_config(
            workers=2,
            max_sessions=16,
            session_store_dir=str(tmp_path / "store"),
            prefetch_interval=0,
        )

        async def visit_all():
            gateway = RingGateway(config)
            await gateway.start()
            try:
                replies = []
                for user in users:
                    client = await Client.open(gateway.port, user)
                    replies.append(await client.call())
                    await client.close()
                return replies
            finally:
                await gateway.stop()

        first = asyncio.run(visit_all())
        assert sorted(parked) == users
        # a fresh gateway on the same store finds every tenant parked
        second = asyncio.run(visit_all())
        assert all(reply["ok"] for reply in first + second)
        assert [r["session"]["admitted"] for r in first] == ["created"] * 6
        assert [r["session"]["admitted"] for r in second] == ["hydrated"] * 6
