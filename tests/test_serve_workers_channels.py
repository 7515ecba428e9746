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
from repro.serve import workers as workers_module
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.protocol import ErrorCode
from repro.hardening import HardeningConfig
from repro.serve.sessions import SessionPool
from repro.serve.workers import (
    SERVING_MACHINE,
    DurabilityConfig,
    GateCallEngine,
    WorkerError,
    WorkerPool,
    execute_gate_call,
)
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.journal import read_journal
from repro.state.recover import JOURNAL_NAME, recover_slot

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


def shape_job(index):
    """A crossing gate call: its cycles tell the two profiles apart."""
    return {
        "user": "alice",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": 3, "target_ring": 1},
        "call_id": f"shape-{index}",
    }


class TestPoolShapes:
    def test_two_thread_pools_keep_their_own_shapes(self):
        """Two thread-backend pools in one process: each serves the
        machine shape it was configured with, before and after the
        other one starts."""
        shapes = {
            "ringed": ({}, {}),
            "hardened645": (
                {"machine_profile": "baseline645",
                 "hardening": ("nx_brackets",)},
                {"hardware_rings": False,
                 "hardening": HardeningConfig.from_flags(["nx_brackets"])},
            ),
        }

        async def main():
            gateways = {
                name: RingGateway(gateway_config(**config))
                for name, (config, _) in shapes.items()
            }
            for gateway in gateways.values():
                await gateway.start()
            try:
                served = {}
                for name, gateway in gateways.items():
                    client = await Client.open(gateway.port, "alice")
                    replies = [
                        await client.call(count=3, target_ring=1)
                        for _ in range(2)
                    ]
                    stats = await client.request(verb="stats")
                    await client.close()
                    served[name] = (replies, stats)
                return served
            finally:
                for gateway in gateways.values():
                    await gateway.stop()

        served = asyncio.run(main())
        for name, (_, machine_kw) in shapes.items():
            reference = GateCallEngine(
                Machine(
                    services=False,
                    jit_tier_enabled=True,
                    fast_gate=True,
                    **machine_kw,
                )
            )
            expected = [
                reference.run_job(shape_job(i))["payload"] for i in range(2)
            ]
            replies, stats = served[name]
            assert [reply["result"] for reply in replies] == expected, name
            (worker,) = stats["workers"]["per_worker"].values()
            config = reference.machine.config
            assert worker["machine_profile"] == config.profile, name
            assert worker["hardening"] == list(
                config.hardening.enabled_flags()
            ), name
        ringed = served["ringed"][0][0]["result"]["cycles"]
        trapped = served["hardened645"][0][0]["result"]["cycles"]
        assert trapped > ringed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drain_leaves_every_journaled_call_on_disk(
        self, backend, tmp_path
    ):
        """A graceful drain closes each worker's journal: calls still
        in its fsync batch reach the disk, and the drained slot
        replays verified on its own (baseline645) shape."""
        machine = SERVING_MACHINE.with_profile("baseline645")
        durability = DurabilityConfig(
            dir=str(tmp_path), slots=1, fsync_every=8
        )

        async def main():
            pool = WorkerPool(
                workers=1,
                backend=backend,
                durability=durability,
                machine=machine,
            )
            await pool.start()
            if pool.backend != backend:
                await pool.shutdown()
                pytest.skip("worker processes unavailable here")
            results = [
                await pool.submit(execute_gate_call, shape_job(i))
                for i in range(3)
            ]
            await pool.shutdown(wait=True)
            return results

        results = asyncio.run(main())
        slot_dir = tmp_path / "slots" / "slot-0"
        records = list(read_journal(str(slot_dir / JOURNAL_NAME)))
        assert len(records) == 3
        recovery = recover_slot(str(slot_dir), verify=True)
        assert recovery.replayed == 3
        assert recovery.engine.machine.config == machine
        assert [record["result"]["payload"] for record in records] == [
            result["payload"] for result in results
        ]
        assert {result["machine_profile"] for result in results} == {
            "baseline645"
        }


class TestSlotClaims:
    def test_two_durable_gateways_claim_and_release_their_own_slots(
        self, tmp_path
    ):
        """Two thread-backend durable gateways in one process, on
        different directories: each claims its own slot 0, and stopping
        one leaves the other's claim live."""
        dirs = [tmp_path / "first", tmp_path / "second"]

        async def main():
            gateways = [
                RingGateway(gateway_config(durability_dir=str(d)))
                for d in dirs
            ]
            for gateway in gateways:
                await gateway.start()
            try:
                replies = []
                for gateway in gateways:
                    client = await Client.open(gateway.port, "alice")
                    replies.append(await client.call())
                    await client.close()
                await gateways[0].stop()
                return replies, set(workers_module._LIVE_SLOTS)
            finally:
                await gateways[-1].stop()

        replies, live = asyncio.run(main())
        for reply in replies:
            assert reply["ok"], reply
            assert reply["worker"] == "slot0"
        assert live == {os.path.realpath(dirs[1] / "slots" / "slot-0")}
        assert not workers_module._LIVE_SLOTS


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
