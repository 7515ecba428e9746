"""The ring gateway end to end: sessions, calls, backpressure, drain.

Every test spins up a real asyncio gateway on an ephemeral port with the
thread worker backend (fast startup) and talks to it over
an actual TCP connection — the wire format is part of the contract.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.adversary.corpus import ATTACK_FAMILIES
from repro.errors import ConfigurationError
from repro.serve import catalog
from repro.serve.admission import RingPolicy
from repro.serve.gateway import (
    GatewayConfig,
    RingGateway,
    _percentile,
    stable_shard,
)
from repro.serve.loadgen import run_load
from repro.serve.protocol import ErrorCode
from repro.serve.workers import GateCallEngine, execute_gate_call

#: a compute burst long enough (hundreds of ms even with the superblock
#: tier on) to still be in flight when a competing request arrives
SLOW_ARGS = {"n": 200000}


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
    """Minimal raw JSON-lines client for exact protocol assertions."""

    def __init__(self, port):
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def request(self, **message):
        await self.send_raw(json.dumps(message).encode() + b"\n")
        return await self.read()

    async def read(self):
        line = await self.reader.readline()
        assert line, "gateway closed the connection unexpectedly"
        return json.loads(line)

    async def hello(self, user="alice", ring=4):
        response = await self.request(verb="hello", user=user, ring=ring)
        assert response["ok"], response
        return response

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run(coro):
    return asyncio.run(coro)


async def with_gateway(config, body):
    gateway = RingGateway(config)
    await gateway.start()
    try:
        return await body(gateway)
    finally:
        await gateway.stop()


class TestSessions:
    def test_call_requires_hello(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            response = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert not response["ok"]
            assert response["error"] == ErrorCode.AUTH_REQUIRED
            assert response["id"] == 1
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_hello_validates_ring_and_user(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            for bad in (
                {"verb": "hello", "user": "a", "ring": 0},
                {"verb": "hello", "user": "a", "ring": 6},
                {"verb": "hello", "user": "a", "ring": True},
                {"verb": "hello", "user": "", "ring": 4},
                {"verb": "hello", "ring": 4},
            ):
                response = await client.request(**bad)
                assert not response["ok"], bad
                assert response["error"] == ErrorCode.BAD_REQUEST
            assert (await client.hello("bob", 5))["ring"] == 5
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_malformed_json_answers_bad_request(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.send_raw(b"this is not json\n")
            response = await client.read()
            assert not response["ok"]
            assert response["error"] == ErrorCode.BAD_REQUEST
            # the connection survives a bad line
            assert (await client.hello())["ok"]
            await client.close()
            assert gateway.counters.protocol_errors == 1

        run(with_gateway(gateway_config(), body))

    def test_unknown_verb_and_bye(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            response = await client.request(verb="frobnicate")
            assert response["error"] == ErrorCode.BAD_REQUEST
            assert (await client.request(verb="bye"))["ok"]
            await client.close()

        run(with_gateway(gateway_config(), body))


class TestCalls:
    def test_echo_roundtrip(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello("alice", 4)
            response = await client.request(
                verb="call", id=9, program="echo", args={"value": 1234}
            )
            assert response["ok"], response
            assert response["id"] == 9
            assert response["result"]["halted"]
            assert response["result"]["a"] == 1234
            assert response["result"]["ring"] == 4
            assert response["metrics"]["instructions"] == 2
            assert response["latency_ms"] >= 0
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_call_loop_crosses_rings(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello("alice", 4)
            response = await client.request(
                verb="call",
                id=1,
                program="call_loop",
                args={"count": 3, "target_ring": 0},
            )
            assert response["ok"], response
            assert response["result"]["ring_crossings"] == 6
            assert response["metrics"]["calls"] == 3
            assert response["metrics"]["returns"] == 3
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_unknown_program_and_bad_args(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            response = await client.request(
                verb="call", id=1, program="mystery", args={}
            )
            assert response["error"] == ErrorCode.UNKNOWN_PROGRAM
            response = await client.request(
                verb="call", id=2, program="echo", args={"value": -5}
            )
            assert response["error"] == ErrorCode.BAD_REQUEST
            # neither touched a worker or took a slot
            assert gateway.counters.accepted == 0
            assert gateway.admission.total_pending == 0
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_lookalike_args_never_reuse_a_warm_variant(self):
        """The argument memo keys on canonical JSON: after a valid
        ``{"count": 4}``, ``true``, ``4.0`` and ``"4"`` are still bad
        requests answered before any worker is involved."""

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            warm = await client.request(
                verb="call", id=1, program="call_loop", args={"count": 4}
            )
            assert warm["ok"], warm
            accepted = gateway.counters.accepted
            bad_requests = gateway.counters.bad_requests
            for request_id, value in enumerate((True, 4.0, "4"), start=2):
                response = await client.request(
                    verb="call",
                    id=request_id,
                    program="call_loop",
                    args={"count": value},
                )
                assert response["error"] == ErrorCode.BAD_REQUEST, response
            assert gateway.counters.bad_requests == bad_requests + 3
            assert gateway.counters.accepted == accepted
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_per_user_isolation_on_one_worker(self):
        """Two users share a worker machine but get their own process."""

        async def body(gateway):
            alice = await Client(gateway.port).connect()
            bob = await Client(gateway.port).connect()
            await alice.hello("alice", 4)
            await bob.hello("bob", 5)
            a = await alice.request(
                verb="call", id=1, program="echo", args={"value": 1}
            )
            b = await bob.request(
                verb="call", id=1, program="echo", args={"value": 2}
            )
            assert a["result"]["a"] == 1 and a["result"]["ring"] == 4
            assert b["result"]["a"] == 2 and b["result"]["ring"] == 5
            await alice.close()
            await bob.close()

        run(with_gateway(gateway_config(), body))


class TestAdmission:
    def test_rate_limit_rejection_carries_retry_after(self):
        config = gateway_config(
            default_policy=RingPolicy(rate=0.5, burst=1, max_pending=8)
        )

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            first = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert first["ok"]
            second = await client.request(
                verb="call", id=2, program="echo", args={}
            )
            assert not second["ok"]
            assert second["error"] == ErrorCode.RATE_LIMITED
            assert second["retry_after"] > 0
            assert second["ring"] == 4
            assert gateway.counters.rejected_rate_limited == 1
            await client.close()

        run(with_gateway(config, body))

    def test_ring_quota_exhausted_rejects_queue_full(self):
        """The satellite case end to end: one slow call holds ring 4's
        only slot; the next caller is told queue_full + retry_after,
        while ring 5 is unaffected."""
        config = gateway_config(
            default_policy=RingPolicy(
                rate=None, max_pending=1, queue_retry_after=0.125
            )
        )

        async def body(gateway):
            slow = await Client(gateway.port).connect()
            await slow.hello("slow", 4)
            fast = await Client(gateway.port).connect()
            await fast.hello("fast", 4)
            other = await Client(gateway.port).connect()
            await other.hello("other", 5)

            slow_task = asyncio.ensure_future(
                slow.request(
                    verb="call", id=1, program="compute", args=SLOW_ARGS
                )
            )
            # wait until the slow call holds the ring-4 slot
            for _ in range(2000):
                if gateway.admission.pending(4):
                    break
                await asyncio.sleep(0.001)
            assert gateway.admission.pending(4) == 1

            rejected = await fast.request(
                verb="call", id=2, program="echo", args={}
            )
            assert not rejected["ok"]
            assert rejected["error"] == ErrorCode.QUEUE_FULL
            assert rejected["retry_after"] == 0.125
            ok_other = await other.request(
                verb="call", id=3, program="echo", args={}
            )
            assert ok_other["ok"]  # ring 5 has its own quota

            slow_response = await slow_task
            assert slow_response["ok"]
            # slot released after completion; ring 4 admits again
            retried = await fast.request(
                verb="call", id=4, program="echo", args={}
            )
            assert retried["ok"]
            assert gateway.counters.rejected_queue_full == 1
            for client in (slow, fast, other):
                await client.close()

        run(with_gateway(config, body))

    def test_timeout_answers_client_and_keeps_accounting_exact(self):
        # The timeout must undercut the call's worker-side execution
        # even with the trace-compile tier collapsing the compute loop:
        # 200k simulated iterations still cost a few milliseconds, and
        # pool dispatch alone exceeds this deadline.
        config = gateway_config(call_timeout=0.002)

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            response = await client.request(
                verb="call", id=1, program="compute", args=SLOW_ARGS
            )
            assert not response["ok"]
            assert response["error"] == ErrorCode.TIMEOUT
            assert gateway.counters.timed_out == 1
            # the worker-side call still finishes and is accounted
            for _ in range(2000):
                if not gateway._inflight:
                    break
                await asyncio.sleep(0.005)
            assert not gateway._inflight
            stats = await client.request(verb="stats")
            assert stats["consistent"]
            assert stats["gateway"]["completed"] == 1
            assert stats["gateway"]["timed_out"] == 1
            assert stats["gateway"]["in_flight"] == 0
            assert gateway.admission.total_pending == 0
            await client.close()

        run(with_gateway(config, body))


class TestDrainAndStats:
    def test_queue_drains_on_shutdown(self):
        """The satellite case: stop() waits for the in-flight call,
        delivers its response, and leaves the accounting balanced."""

        async def body():
            gateway = RingGateway(gateway_config())
            await gateway.start()
            client = await Client(gateway.port).connect()
            await client.hello()
            call_task = asyncio.ensure_future(
                client.request(
                    verb="call", id=1, program="compute", args=SLOW_ARGS
                )
            )
            for _ in range(2000):
                if gateway._inflight:
                    break
                await asyncio.sleep(0.001)
            assert gateway._inflight
            await gateway.stop()
            response = await call_task
            assert response["ok"], response
            assert gateway.counters.completed == 1
            assert gateway.admission.total_pending == 0
            assert not gateway._inflight
            await client.close()

        run(body())

    def test_draining_gateway_rejects_new_calls(self):
        async def body():
            gateway = RingGateway(gateway_config())
            await gateway.start()
            client = await Client(gateway.port).connect()
            await client.hello()
            gateway._draining = True
            response = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert response["error"] == ErrorCode.SHUTTING_DOWN
            assert response["retry_after"] > 0
            assert gateway.counters.rejected_shutting_down == 1
            await client.close()
            gateway._draining = False
            await gateway.stop()

        run(body())

    def test_stats_merge_equals_sum_of_workers(self):
        config = gateway_config(workers=2)

        async def body(gateway):
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=4,
                calls=5,
                program="call_loop",
                args={"count": 2},
                rings=(4, 5),
            )
            assert report.ok == 20
            assert report.dropped == 0
            assert report.check() == []
            stats = report.stats
            assert stats["consistent"]
            # merged == integer sum of the per-worker snapshots
            per_worker = stats["workers"]["per_worker"].values()
            for counter, value in stats["architectural"].items():
                assert value == sum(
                    worker["architectural"][counter] for worker in per_worker
                )
            assert stats["gateway"]["completed"] == 20
            assert sum(w["calls"] for w in per_worker) == 20
            # 20 calls x 2 pairs x 2 crossings
            assert stats["architectural"]["ring_crossings"] == 80
            assert stats["rates"]["sdw_hit_rate"] is not None
            assert stats["gateway"]["latency"]["count"] == 20
            assert (
                stats["gateway"]["latency"]["p99_ms"]
                >= stats["gateway"]["latency"]["p50_ms"]
            )

        run(with_gateway(config, body))


    def test_faulted_calls_count_as_answered(self):
        """Every call of an attack run faults as expected.  Those
        faults are answers: they count toward the client's throughput
        and the gateway's served total."""

        async def body(gateway):
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=3,
                calls=2,
                program="attack",
                args={"family": "gate_skip", "seed": 5},
                expect_fault="ACV_NOT_GATE",
            )
            assert report.check() == []
            assert report.ok == 0
            assert report.answered == report.expected_faults == 6
            assert report.throughput == 6 / report.elapsed_seconds
            assert gateway.counters.completed == 0
            assert gateway.counters.answered == 6

        run(with_gateway(gateway_config(), body))


class TestParkVerb:
    """``park``: write a live session tenant to the store now."""

    def session_config(self, **overrides):
        return gateway_config(max_sessions=4, **overrides)

    def test_park_then_hydrate_matches_a_never_parked_twin(self):
        async def body(gateway):
            parked = await Client(gateway.port).connect()
            await parked.hello("alice", 4)
            twin = await Client(gateway.port).connect()
            await twin.hello("bob", 4)
            call = dict(verb="call", program="call_loop", args={"count": 2})
            first = await parked.request(id=1, **call)
            assert first["ok"], first

            reply = await parked.request(verb="park", id=2, user="alice")
            assert reply["ok"], reply
            assert reply["parked"] is True
            again = await parked.request(verb="park", id=3, user="alice")
            assert again["ok"], again
            assert again["parked"] is False

            hydrated = await parked.request(id=4, **call)
            assert hydrated["ok"], hydrated
            assert hydrated["session"]["admitted"] == "hydrated"
            # a hydrated tenant re-attaches cold, exactly like the first
            # call of a tenant that never left its slot
            fresh = await twin.request(id=5, **call)
            assert fresh["ok"], fresh
            assert hydrated["metrics"] == fresh["metrics"]
            warm = await twin.request(id=6, **call)
            assert warm["metrics"] != fresh["metrics"]
            assert gateway.counters.session_hydrated == 1
            await parked.close()
            await twin.close()

        run(with_gateway(self.session_config(), body))

    def test_bad_park_requests(self):
        async def classic(gateway):
            client = await Client(gateway.port).connect()
            reply = await client.request(verb="park", id=1, user="alice")
            assert reply["error"] == ErrorCode.BAD_REQUEST
            assert gateway.counters.bad_requests == 1
            await client.close()

        async def session(gateway):
            client = await Client(gateway.port).connect()
            for bad in ({}, {"user": ""}, {"user": 7}, {"user": ["alice"]}):
                before = gateway.counters.bad_requests
                reply = await client.request(verb="park", id=1, **bad)
                assert reply["error"] == ErrorCode.BAD_REQUEST, bad
                assert gateway.counters.bad_requests == before + 1, bad
            await client.close()

        run(with_gateway(gateway_config(), classic))
        run(with_gateway(self.session_config(), session))

    def test_park_failing_while_draining_asks_for_a_retry(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()

            def broken(shard, op, **fields):
                raise RuntimeError("pool is stopping")

            gateway._session_op = broken
            gateway._draining = True
            try:
                reply = await client.request(verb="park", id=1, user="alice")
            finally:
                gateway._draining = False
                del gateway._session_op
            assert reply["error"] == ErrorCode.SHUTTING_DOWN
            assert reply["retry_after"] > 0
            assert gateway.counters.rejected_shutting_down == 1
            await client.close()

        run(with_gateway(self.session_config(), body))

    def test_session_store_requires_session_mode(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_sessions"):
            RingGateway(gateway_config(session_store_dir=str(tmp_path)))


class TestStableShard:
    """The user-to-shard map: parked tenants live on the shard it names,
    so it must never change between releases or interpreters."""

    PINNED = {
        "alice": [1, 2, 1, 3],
        "bob": [0, 0, 2, 3],
        "tenant000": [0, 0, 2, 0],
        "u0": [1, 2, 3, 2],
    }
    SHARDS = (2, 3, 4, 7)

    def test_pinned_values(self):
        for key, expected in self.PINNED.items():
            assert [stable_shard(key, n) for n in self.SHARDS] == expected

    def test_results_lie_in_range(self):
        for n in range(1, 17):
            for index in range(64):
                assert 0 <= stable_shard(f"user{index}", n) < n

    def test_independent_of_the_hash_seed(self):
        script = (
            "from repro.serve.gateway import stable_shard\n"
            f"print([[stable_shard(k, n) for n in {self.SHARDS!r}]"
            f" for k in {sorted(self.PINNED)!r}])"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        expected = [self.PINNED[key] for key in sorted(self.PINNED)]
        assert outputs[0] == outputs[1] == f"{expected}\n"

    @pytest.mark.parametrize("shards", [0, -1])
    def test_rejects_non_positive_shards(self, shards):
        with pytest.raises(ConfigurationError):
            stable_shard("alice", shards)


class TestWorkerFunction:
    """execute_gate_call directly: the worker half without the network."""

    def test_persistent_machine_reuses_programs(self):
        job = {
            "user": "carol",
            "ring": 4,
            "program": "echo",
            "args": {"value": 42},
        }
        first = execute_gate_call(job)
        second = execute_gate_call(job)
        assert first["payload"]["a"] == 42
        assert second["worker_calls"] == first["worker_calls"] + 1
        # cumulative totals advance by exactly one call's metrics
        assert second["worker_total"]["instructions"] == (
            first["worker_total"]["instructions"]
            + second["metrics"]["instructions"]
        )

    def test_unknown_program_reports_error(self):
        result = execute_gate_call(
            {"user": "carol", "ring": 4, "program": "nope", "args": {}}
        )
        assert result["error"] == ErrorCode.UNKNOWN_PROGRAM


class TestResolveMemo:
    """catalog.resolve: one bounded memo for the gateway and workers."""

    def test_engine_rejects_lookalike_args_after_a_warm_call(self):
        engine = GateCallEngine()
        entry = engine.entry_for("call_loop", {"count": 4}, "alice")
        assert entry == engine.entry_for("call_loop", {"count": 4}, "alice")
        for value in (True, 4.0, "4"):
            with pytest.raises(ConfigurationError):
                engine.entry_for("call_loop", {"count": value}, "alice")
            result = engine.run_job(
                {
                    "user": "alice",
                    "ring": 4,
                    "program": "call_loop",
                    "args": {"count": value},
                }
            )
            assert result["error"] == ErrorCode.BAD_REQUEST

    def test_memo_stays_within_its_bound(self):
        family = sorted(ATTACK_FAMILIES)[0]
        for seed in range(catalog.RESOLVE_CACHE_SIZE + 16):
            catalog.resolve(
                "attack", {"family": family, "seed": seed, "ring": 4}
            )
        info = catalog.resolve.cache_info()
        assert info.maxsize == catalog.RESOLVE_CACHE_SIZE
        assert info.currsize <= catalog.RESOLVE_CACHE_SIZE

    def test_resolve_is_build_program(self):
        args = {"count": 3, "target_ring": 1}
        assert catalog.resolve("call_loop", args) == catalog.build_program(
            "call_loop", args
        )
        with pytest.raises(KeyError):
            catalog.resolve("mystery", {})


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert _percentile(samples, 0.50) == 50.0
        assert _percentile(samples, 0.99) == 99.0
        assert _percentile([7.0], 0.99) == 7.0
        assert _percentile([], 0.5) == 0.0
