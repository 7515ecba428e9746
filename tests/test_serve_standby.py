"""Replication end to end: standby service, shipping, hot failover.

The acceptance bar for the replication subsystem is exactness under
failover: killing the primary mid-load with ``--replicas >= 1`` must
yield merged architectural counters bit-identical to the no-failure
run of the same call set — zero dropped calls, zero double-executed
calls.  That is pinned twice here: once at the unit level
(:class:`TestPromotionExactness`, a hand-driven crash/promote/resume
sequence compared against a single uninterrupted engine) and once end
to end (:class:`TestFailoverUnderLoad`, SIGKILL against a real process
pool, with the slot journals' record-by-record metric sums compared to
the client-side per-call sums).
"""

import asyncio
import base64
import logging
import os
import signal
import threading

import pytest

from repro.serve import workers
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.serve.protocol import MAX_LINE_BYTES, encode
from repro.serve.standby import (
    ReplicaClient,
    ReplicationConfig,
    StandbyConfig,
    StandbyServer,
)
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.journal import read_frames
from repro.state.recover import JOURNAL_NAME, recover_slot, slot_engine
from repro.state.replication import (
    JournalTailer,
    ReplicaApplier,
    encode_span,
)


#: machine shapes the replication tests run over: the default serving
#: machine, and the 645 software-ring baseline with a hardening flag
SHAPES = {
    "default": {},
    "baseline645_auth_return_stack": {
        "machine_profile": "baseline645",
        "hardening": ("auth_return_stack",),
    },
}


def run(coro):
    return asyncio.run(coro)


def gateway_config(**overrides):
    defaults = dict(
        port=0,
        workers=1,
        backend="thread",
        call_timeout=60.0,
        drain_timeout=60.0,
        default_policy=RingPolicy(rate=None, max_pending=64),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


async def with_gateway(config, body):
    gateway = RingGateway(config)
    await gateway.start()
    try:
        return await body(gateway)
    finally:
        await gateway.stop()


def make_jobs(count, user="alice", start=0):
    return [
        {
            "user": user,
            "ring": 4,
            "program": "call_loop",
            "args": {"count": 2},
            "call_id": f"call-{user}-{start + i}",
        }
        for i in range(count)
    ]


def journal_architectural_sum(durability_dir):
    """Sum of every slot journal's per-record architectural metrics.

    Each executed call appears in exactly one journal record, so this
    equals the client-side per-call sum iff nothing was dropped or
    double-executed — the strongest failover-exactness check there is.
    """
    total = MetricsSnapshot.zero()
    calls = 0
    slots_root = os.path.join(durability_dir, "slots")
    for name in sorted(os.listdir(slots_root)):
        journal = os.path.join(slots_root, name, JOURNAL_NAME)
        for frame in read_frames(journal):
            metrics = frame.record["result"].get("metrics")
            if metrics is not None:
                total = total.plus(MetricsSnapshot.from_dict(metrics))
                calls += 1
    return calls, total.architectural()


@pytest.fixture
def durable_state(tmp_path):
    state = workers._WorkerState(
        workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=10_000,
            fsync_every=1,
        )
    )
    yield state
    workers.release_live_slots()


class TestStandbyServer:
    def test_ship_stats_audit_lookup_over_tcp(self, durable_state, tmp_path):
        jobs = make_jobs(6)
        for job in jobs:
            assert "error" not in durable_state.execute(job)
        durable_state.journal.sync()
        frames = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        primary_arch = durable_state.engine.total.architectural()

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            client = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                ack = await client.request(
                    {"verb": "ship", "slot": 0, **encode_span(frames[:4])}
                )
                assert ack["ok"] and ack["applied_seq"] == 4
                # redelivery is skipped idempotently
                ack = await client.request(
                    {"verb": "ship", "slot": 0, **encode_span(frames)}
                )
                assert ack["applied_seq"] == 6
                assert ack["skipped"] == 4
                stats = await client.request({"verb": "stats"})
                assert stats["slots"]["0"]["applied_seq"] == 6
                # the replica answers with the primary's figures,
                # locally, without touching the primary
                assert stats["slots"]["0"]["architectural"] == primary_arch
                audit = await client.request({"verb": "audit", "slot": 0})
                assert audit["applied_seq"] == 6
                assert "call-alice-5" in audit["recent_call_ids"]
                assert audit["users"] == ["alice"]
                hit = await client.request(
                    {"verb": "lookup", "call_id": "call-alice-2"}
                )
                assert hit["found"] and hit["slot"] == 0
                miss = await client.request(
                    {"verb": "lookup", "call_id": "nope"}
                )
                assert miss["found"] is False
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_tampered_ship_batch_is_refused(self, durable_state, tmp_path):
        job = make_jobs(1)[0]
        assert "error" not in durable_state.execute(job)
        durable_state.journal.sync()
        (frame,) = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        forged = frame.data.replace(b"call-alice-0", b"forged-call0")
        assert forged != frame.data and len(forged) == len(frame.data)

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            client = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                ack = await client.request(
                    {
                        "verb": "ship",
                        "slot": 0,
                        "first_seq": 1,
                        "bytes": base64.b64encode(forged).decode("ascii"),
                    }
                )
                assert ack["ok"] is False
                assert "CRC" in ack["detail"]
                # the old wire format, a list of decoded records, is
                # refused too
                ack = await client.request(
                    {
                        "verb": "ship",
                        "slot": 0,
                        "frames": [
                            {"seq": 1, "crc": frame.crc, "record": {}}
                        ],
                    }
                )
                assert ack["ok"] is False
                assert ack["error"] == "bad_request"
                stats = await client.request({"verb": "stats"})
                assert stats["slots"] == {}  # nothing was applied
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_a_long_ship_does_not_hold_the_event_loop(
        self, durable_state, tmp_path, monkeypatch
    ):
        """A standby applies a batch on its event loop one record per
        turn: a ``stats`` asked mid-batch on another connection is
        answered before the batch's ack, and no record is applied off
        the loop's thread."""
        count = 64  # fits one ship line of at most 64 KiB
        for job in make_jobs(count):
            assert "error" not in durable_state.execute(job)
        frames = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        assert len(frames) == count
        apply_threads = set()
        real_apply = ReplicaApplier.apply

        def apply(self, frame):
            apply_threads.add(threading.get_ident())
            return real_apply(self, frame)

        monkeypatch.setattr(ReplicaApplier, "apply", apply)

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            shipper = await ReplicaClient.open("127.0.0.1", server.port)
            observer = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                await shipper.send(
                    {"verb": "ship", "slot": 0, **encode_span(frames)}
                )
                applied_seq = 0
                for _ in range(count):
                    stats = await observer.request({"verb": "stats"})
                    slot = stats["slots"].get("0")
                    if slot is not None and slot["applied_seq"] > 0:
                        applied_seq = slot["applied_seq"]
                        break
                ack = await shipper.recv()
            finally:
                await shipper.close()
                await observer.close()
                await server.stop()
            return applied_seq, ack

        applied_seq, ack = run(body())
        assert 0 < applied_seq < count
        assert ack["ok"] and ack["applied_seq"] == count
        assert apply_threads == {threading.get_ident()}

    def test_an_oversized_ship_line_gets_bad_request(
        self, durable_state, tmp_path, caplog
    ):
        """A line over the protocol's limit is answered, not dropped
        with an unhandled exception."""
        for job in make_jobs(160):
            assert "error" not in durable_state.execute(job)
        frames = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        ship = {"verb": "ship", "slot": 0, **encode_span(frames)}
        assert len(encode(ship)) > MAX_LINE_BYTES

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            client = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                await client.send(ship)
                return await client.recv()
            finally:
                await client.close()
                await server.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            response = run(body())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert str(MAX_LINE_BYTES) in response["detail"]
        assert "Unhandled exception" not in caplog.text

    def test_replication_config_validation(self):
        with pytest.raises(Exception, match="replicas"):
            ReplicationConfig(dir="x", slots=1, replicas=0)
        with pytest.raises(Exception, match="durability"):
            GatewayConfig(replicas=1).replication()


class TestPromotionExactness:
    """The unit-level half of the failover-exactness acceptance bar."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_crash_promote_resume_is_bit_identical(self, tmp_path, shape):
        # One user throughout, with mid-journal checkpoints: the
        # hardest case for replica verification, because the primary's
        # checkpoint-boundary cache drops make its *host-tier* figures
        # diverge from any fresh replayer — while the architectural
        # figures must stay bit-identical.
        machine = GatewayConfig(**SHAPES[shape]).machine()
        jobs = make_jobs(40, user="solo")
        durability = workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=6,
            fsync_every=1,
        )
        try:
            primary = workers._WorkerState(durability, machine)
            slot_dir = primary.slot_dir
            for job in jobs[:30]:
                assert "error" not in primary.execute(job)
            primary.journal.sync()

            # a follower shipped to within 4 records of the crash
            from repro.state.replication import ReplicaApplier

            frames = JournalTailer(
                os.path.join(slot_dir, JOURNAL_NAME)
            ).poll()
            assert len(frames) == 30
            applier = ReplicaApplier(slot_engine(slot_dir))
            assert applier.engine.machine.config == machine
            for frame in frames[:26]:
                applier.apply(frame)

            # the primary dies; its claim is abandoned
            workers.release_live_slots()

            # hot failover: replay only the 4-record tail, snapshot
            report = applier.promote(slot_dir)
            assert report["replayed_tail"] == 4

            # the successor claims the slot (generation bump = fence),
            # recovers from the promotion snapshot with an empty tail
            successor = workers._WorkerState(durability, machine)
            assert successor.slot_dir == slot_dir
            assert successor.engine.machine.config == machine
            assert successor.generation == primary.generation + 1
            assert successor.engine.calls == 30

            # a call in flight at the crash is retried: the dedup cache
            # the successor rebuilt from the slot journal answers it,
            # no double execution
            retry = successor.execute(jobs[28])
            assert retry["deduplicated"] is True
            assert successor.engine.calls == 30

            # traffic resumes on the promoted state
            for job in jobs[30:]:
                assert "error" not in successor.execute(job)
            resumed_arch = successor.engine.total.architectural()
            resumed_calls = successor.engine.calls
        finally:
            workers.release_live_slots()

        # the no-failure reference: one engine, same 40 calls, no
        # crash, no checkpoints, no replication
        from repro.serve.workers import GateCallEngine

        reference = GateCallEngine(Machine(machine))
        payloads = []
        for job in jobs:
            result = reference.run_job(job)
            assert "error" not in result
            payloads.append(result["payload"])
        assert resumed_calls == reference.calls == 40
        assert resumed_arch == reference.total.architectural()

        # and the journal agrees record by record: 40 distinct calls,
        # summing to the same architectural figures
        calls, journal_arch = journal_architectural_sum(str(tmp_path))
        assert calls == 40
        assert journal_arch == reference.total.architectural()
        journal = os.path.join(slot_dir, JOURNAL_NAME)
        assert [
            frame.record["result"]["payload"] for frame in read_frames(journal)
        ] == payloads


class TestReplicatedGateway:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shipping_reaches_zero_lag_and_mirrors_the_primary(
        self, tmp_path, shape
    ):
        config = gateway_config(
            durability_dir=str(tmp_path),
            checkpoint_interval=10_000,
            fsync_every=1,
            replicas=1,
            ship_every=2,
            ack_window=2,
            **SHAPES[shape],
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=2, calls=8
            )
            assert report.check() == [], report.check()
            # shipping is asynchronous: wait until every executed call
            # (one journal record each) has been applied — a momentary
            # lag_records == 0 can fire between fsync batches
            for _ in range(200):
                stats = gateway.stats_payload()
                followers = stats["replication"]["followers"]
                if followers and all(
                    f["applied_seq"] == report.ok for f in followers
                ):
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail(f"followers never caught up: {followers}")
            for follower in followers:
                assert follower["lag_records"] == 0
                assert follower["error"] is None
            assert stats["replication"]["enabled"] is True
            assert stats["replication"]["promotions"] == 0
            for follower in followers:
                assert follower["shipped_seq"] == follower["journal_seq"]
                assert follower["last_ack_age_s"] is not None
            # the in-process standby's replica machine carries the
            # gateway's merged architectural figures, bit for bit
            (follower_handle,) = gateway._replicas._followers
            applier = follower_handle.server.applier_for(0)
            assert applier.engine.machine.config == gateway.machine
            assert (
                applier.engine.total.architectural()
                == stats["architectural"]
            )
            return report

        run(with_gateway(config, body))

    def test_ship_every_above_one_line_still_reaches_zero_lag(
        self, tmp_path, monkeypatch
    ):
        """With ``ship_every=256`` a backlog of 200 records is more than
        one 64 KiB ship line holds: the shipper cuts it into several
        lines and the follower catches up."""
        durability = workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=64,
            fsync_every=8,
        )
        try:
            primary = workers._WorkerState(durability)
            for job in make_jobs(200, user="backlog"):
                assert "error" not in primary.execute(job)
            primary.journal.close()
        finally:
            workers.release_live_slots()
        line_sizes = []
        real_send = ReplicaClient.send

        async def send(self, message):
            if message.get("verb") == "ship":
                line_sizes.append(len(encode(message)))
            await real_send(self, message)

        monkeypatch.setattr(ReplicaClient, "send", send)
        config = gateway_config(
            durability_dir=str(tmp_path),
            checkpoint_interval=64,
            fsync_every=8,
            replicas=1,
            ship_every=256,
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=4, calls=25
            )
            assert report.check() == [], report.check()
            for _ in range(250):
                (follower,) = gateway.stats_payload()["replication"][
                    "followers"
                ]
                if follower["applied_seq"] == 200 + report.ok:
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail(f"the follower never caught up: {follower}")
            assert follower["lag_records"] == 0
            assert follower["error"] is None

        run(with_gateway(config, body))
        assert len(line_sizes) >= 3
        assert max(line_sizes) <= MAX_LINE_BYTES

    def test_stats_verb_carries_the_replication_block(self, tmp_path):
        config = gateway_config(
            durability_dir=str(tmp_path), replicas=1
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=2
            )
            assert report.check() == []
            block = report.stats["replication"]
            assert block["enabled"] is True
            assert block["replicas"] == 1
            assert block["ship_every"] == 8
            assert {"follower", "slot", "shipped_seq", "applied_seq",
                    "lag_records", "last_ack_age_s"} <= set(
                block["followers"][0]
            )

        run(with_gateway(config, body))

    def test_unreplicated_stats_say_disabled(self):
        config = gateway_config()

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=1
            )
            assert report.stats["replication"] == {"enabled": False}

        run(with_gateway(config, body))


class TestFailoverUnderLoad:
    """The end-to-end half of the failover-exactness acceptance bar."""

    @pytest.mark.parametrize(
        "shape, fsync_every",
        [
            pytest.param(shape, fsync_every, id=shape + suffix)
            for fsync_every, suffix in ((1, ""), (8, "-fsync8"))
            for shape in sorted(SHAPES)
        ],
    )
    def test_sigkill_primary_promotes_and_stays_exact(
        self, tmp_path, shape, fsync_every
    ):
        config = gateway_config(
            workers=2,
            backend="process",
            durability_dir=str(tmp_path),
            checkpoint_interval=8,
            fsync_every=fsync_every,
            replicas=1,
            ship_every=2,
            ack_window=2,
            **SHAPES[shape],
        )

        async def body(gateway):
            if not gateway.pool.backend.startswith("process"):
                pytest.skip("process pool unavailable in this environment")

            async def assassin():
                while gateway.counters.completed < 20:
                    await asyncio.sleep(0.02)
                victim = gateway.pool.pids()[0]
                os.kill(victim, signal.SIGKILL)

            kill_task = asyncio.create_task(assassin())
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=4,
                calls=40,
                args={"n": 30000},
                program="compute",
            )
            await kill_task
            return report

        report = run(with_gateway(config, body))
        assert report.check() == [], report.check()
        assert report.ok == report.sessions * report.calls_per_session
        gateway_stats = report.stats["gateway"]
        assert gateway_stats["recoveries"] >= 1
        # the recovery went through promotion, not cold restore
        assert gateway_stats["promotions"] >= 1
        assert report.stats["consistent"] is True
        assert report.stats["replication"]["promotions"] >= 1

        # Exactness under failover: every accepted call executed
        # exactly once.  The journals hold one record per executed
        # call; their architectural sum must be bit-identical to what
        # the clients summed from their per-call responses — a dropped
        # call would make the journal sum smaller, a double-executed
        # one would make it larger.
        calls, journal_arch = journal_architectural_sum(str(tmp_path))
        assert calls == report.ok
        assert journal_arch == report.client_metrics

        # and the promoted slots recover clean after the fact
        for name in sorted(os.listdir(os.path.join(str(tmp_path), "slots"))):
            recovery = recover_slot(
                os.path.join(str(tmp_path), "slots", name)
            )
            assert recovery.engine.calls >= 0
            assert recovery.engine.machine.config == config.machine()
