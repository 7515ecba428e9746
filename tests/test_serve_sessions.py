"""Session virtualization: the LRU live-slot pool, park/hydrate paging,
and the exactness contract that makes paging architecturally invisible.

The properties pinned here are the ones the serving design leans on:

* LRU discipline — eviction order follows recency of use, and the
  live set never exceeds ``max_live``;
* park idempotence — park, hydrate, park again (with no intervening
  call) stores byte-identical blobs, so re-parking a clean tenant
  never rewrites the store;
* the hydrated-cold contract — a hydrated machine's attach memo is
  invalid, its first gate call re-fetches descriptors (SDW misses
  reappear) and lands exactly on the fresh-machine cold vector, and
  the next call is warm again;
* journal-tail dedup — a call journaled to the per-tenant tail but
  lost with a crashed live incarnation replays on hydrate, so the
  client's retry deduplicates against the replayed result;
* parked deltas stay small — the delta-vs-base encoding keeps a
  parked call_loop tenant under 10% of its full snapshot;
* base election is atomic — a shard electing a shape's base while
  another shard's pointer is being published adopts that base;
* the restore-equivalence matrix extends to park/hydrate cycles under
  every host-cache/jit knob combination.
"""

import asyncio
import json
import os
import threading

import pytest

from repro.serve.sessions import (
    SessionConfig,
    SessionPool,
    SessionStore,
    TENANT_MACHINE,
    TENANT_MEMORY_WORDS,
)
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.snapshot import apply_delta, canonical_bytes, decode_delta

#: host-tier knob combinations for the hydrate-equivalence matrix
#: (fast_path, jit_tier) — the trace-compile tier requires the fast path
KNOBS = [
    (False, False),
    (True, False),
    (True, True),
]


def make_pool(tmp_path, max_live=2, store=None, **overrides):
    config = SessionConfig(
        max_live=max_live,
        store_dir=str(tmp_path / "store"),
        fsync_every=1,
        **overrides,
    )
    return SessionPool(config, store=store)


def job(user, call_id, count=3):
    return {
        "user": user,
        "ring": 4,
        "program": "call_loop",
        "args": {"count": count},
        "call_id": call_id,
    }


def reference_vectors(count=3):
    """(M_cold, M_warm) on a fresh, identically-configured engine."""
    engine = GateCallEngine(
        Machine(
            services=False,
            jit_tier_enabled=True,
            fast_gate=True,
            memory_words=TENANT_MEMORY_WORDS,
        )
    )
    cold = engine.run_job(job("ref", "r0", count))["metrics"]
    warm = engine.run_job(job("ref", "r1", count))["metrics"]
    return cold, warm


class TestLruPool:
    def test_eviction_follows_recency(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))
        assert list(pool.live) == ["a", "b"]

        # admitting c evicts the least recently used: a
        pool.execute(job("c", "c0"))
        assert list(pool.live) == ["b", "c"]
        assert pool.store.get("a") is not None
        assert pool.counters["evictions"] == 1

        # touching b makes c the LRU; admitting d evicts c
        pool.execute(job("b", "b1"))
        pool.execute(job("d", "d0"))
        assert list(pool.live) == ["b", "d"]
        assert pool.store.get("c") is not None
        assert pool.counters["evictions"] == 2

    def test_live_set_never_exceeds_max_live(self, tmp_path):
        pool = make_pool(tmp_path, max_live=3)
        for i in range(10):
            pool.execute(job(f"u{i}", f"c{i}"))
            assert len(pool.live) <= 3
        assert pool.counters["created"] == 10
        assert pool.counters["parks"] == 7

    def test_reuse_hydrates_parked_tenant(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))  # parks a
        out = pool.execute(job("a", "a1"))  # hydrates a, parks b
        assert out["session"]["admitted"] == "hydrated"
        assert out["session"]["cold"] is True
        assert pool.counters["hydrated"] == 1


class TestParkIdempotence:
    def test_park_hydrate_park_is_byte_identical(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("a", "a1"))
        assert pool.park_user("a")
        first = pool.store.get("a")

        # hydrate without running anything, then park again
        tenant, admitted = pool._admit("a")
        assert admitted == "hydrated"
        assert pool.park_user("a")
        second = pool.store.get("a")
        assert first == second

    def test_dirty_tenant_reparks_to_new_bytes(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        assert pool.park_user("a")
        first = pool.store.get("a")
        pool.execute(job("a", "a1"))
        assert pool.park_user("a")
        assert pool.store.get("a") != first


class TestHydratedColdContract:
    def test_first_call_after_hydrate_refetches_descriptors(self, tmp_path):
        """Satellite regression: the fast-gate attach memo must not
        leak across a park/hydrate cycle — the hydrated machine's first
        call pays the full cold vector (descriptor re-fetch: SDW misses
        reappear), then goes warm again."""
        m_cold, m_warm = reference_vectors()
        assert m_cold["sdw_misses"] > 0
        assert m_warm["sdw_misses"] == 0

        pool = make_pool(tmp_path, max_live=1)
        first = pool.execute(job("t", "t0"))
        warm = pool.execute(job("t", "t1"))
        assert first["metrics"] == m_cold
        assert warm["metrics"] == m_warm
        assert pool.park_user("t")

        rehydrated = pool.execute(job("t", "t2"))
        assert rehydrated["session"]["admitted"] == "hydrated"
        assert rehydrated["session"]["cold"] is True
        # bit-for-bit the fresh-machine cold vector, misses included
        assert rehydrated["metrics"] == m_cold
        assert pool.execute(job("t", "t3"))["metrics"] == m_warm

    def test_cold_warm_counters_track_the_split(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("t", "t0"))
        pool.execute(job("t", "t1"))
        pool.park_user("t")
        pool.execute(job("t", "t2"))
        assert pool.counters["cold_calls"] == 2
        assert pool.counters["warm_calls"] == 1


class TestJournalTailDedup:
    def test_retried_call_racing_a_park_deduplicates(self, tmp_path):
        """A call journaled to the tenant tail but never parked (the
        live incarnation crashed) replays on hydrate; the client's
        retry of that call_id then dedups to the replayed result."""
        store = SessionStore(str(tmp_path / "store"))
        pool = make_pool(tmp_path, max_live=1, store=store)
        pool.execute(job("u", "u0"))
        pool.park_user("u")  # parked image includes u0

        # the tenant comes back, runs one more call (journaled to the
        # tail), and the shard dies before the next park
        original = pool.execute(job("u", "u1"))
        assert original["session"]["admitted"] == "hydrated"
        del pool

        # a replacement shard hydrates: parked image + tail replay
        fresh = make_pool(tmp_path, max_live=1, store=store)
        retry = fresh.execute(job("u", "u1"))
        assert retry["deduplicated"] is True
        assert retry["payload"] == original["payload"]
        assert retry["metrics"] == original["metrics"]
        assert fresh.counters["replayed_tail_calls"] == 1
        assert fresh.counters["deduplicated"] == 1

    def test_clean_park_fences_the_old_tail(self, tmp_path):
        store = SessionStore(str(tmp_path / "store"))
        pool = make_pool(tmp_path, max_live=1, store=store)
        pool.execute(job("u", "u0"))
        pool.park_user("u")
        fresh = make_pool(tmp_path, max_live=1, store=store)
        out = fresh.execute(job("u", "u1"))
        # the parked image already contains u0 — nothing replays
        assert fresh.counters["replayed_tail_calls"] == 0
        assert not out.get("deduplicated")


class TestParkedDeltaSize:
    def test_parked_delta_under_ten_percent_of_full(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        for i in range(8):
            user = f"u{i % 4}"
            pool.execute(job(user, f"c{i}"))
        pool.park_all()
        stats = pool.stats()
        assert stats["parks"] >= 4
        assert 0 < stats["park_size_ratio"] < 0.10


class TestHydrateKnobMatrix:
    def test_park_hydrate_equivalent_under_every_knob_combo(self, tmp_path):
        """Extend the restore-equivalence matrix to park/hydrate: a
        parked tenant hydrated under any host-cache knob combination
        continues to bit-identical *architectural* figures (host-tier
        counters differ across combos by design — that's what the
        knobs toggle)."""

        def architectural(metrics):
            return {
                key: metrics[key] for key in MetricsSnapshot.ARCHITECTURAL
            }

        pool = make_pool(tmp_path / "paged", max_live=1)
        pool.execute(job("m", "m0"))
        pool.execute(job("m", "m1"))
        pool.park_user("m")
        blob = pool.store.get("m")
        envelope = decode_delta(blob)
        base = pool.store.base_by_digest(envelope["base_sha256"])
        snap = apply_delta(base, envelope)

        # the canonical continuation: hydrate with the snapshot's own
        # tier configuration, run two more calls (cold, then warm)
        reference = GateCallEngine.from_snapshot(snap)
        expected = [
            architectural(reference.run_job(job("m", call_id))["metrics"])
            for call_id in ("m2", "m3")
        ]

        for fast_path, jit in KNOBS:
            engine = GateCallEngine.from_snapshot(
                snap,
                fast_path_enabled=fast_path,
                jit_tier_enabled=jit,
            )
            got = [
                architectural(engine.run_job(job("m", call_id))["metrics"])
                for call_id in ("m2", "m3")
            ]
            assert got == expected, (
                f"divergence with fast_path={fast_path} jit={jit}"
            )


class TestBaseSharing:
    def test_parked_tenants_share_one_base_image(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        for user in ("a", "b", "c"):
            pool.execute(job(user, f"{user}0"))
        pool.park_all()
        digests = set()
        for user in ("a", "b", "c"):
            digests.add(decode_delta(pool.store.get(user))["base_sha256"])
        assert len(digests) == 1

    def test_totals_survive_eviction(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        total = MetricsSnapshot.zero()
        for i in range(4):
            out = pool.execute(job(f"u{i}", f"c{i}"))
            total = total.plus(MetricsSnapshot.from_dict(out["metrics"]))
        assert pool.total == total
        assert pool.calls == 4


class TestBaseElection:
    def test_loser_never_reads_an_unfinished_pointer(
        self, tmp_path, monkeypatch
    ):
        """Two shards elect a shape's base at once.  The winner is held
        right after its pointer file becomes visible; the loser, electing
        in that window, must still adopt the winner's base."""
        root = str(tmp_path / "store")
        winner, loser = SessionStore(root), SessionStore(root)
        pointer = winner._pointer_path("shape")
        visible, resume = threading.Event(), threading.Event()
        real_open, real_link = os.open, os.link

        def hold_once_visible():
            if not visible.is_set():
                visible.set()
                resume.wait(10)

        def spy_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if path == pointer:
                hold_once_visible()
            return fd

        def spy_link(source, target, *args, **kwargs):
            real_link(source, target, *args, **kwargs)
            if target == pointer:
                hold_once_visible()

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "link", spy_link)
        elected = {}

        def elect_winner():
            elected["winner"] = winner.base_for_shape("shape", {"by": "w"})

        thread = threading.Thread(target=elect_winner)
        thread.start()
        try:
            assert visible.wait(10)
            elected["loser"] = loser.base_for_shape("shape", {"by": "l"})
        finally:
            resume.set()
            thread.join(10)
        assert elected == {"winner": {"by": "w"}, "loser": {"by": "w"}}


class TestPrefetch:
    def test_prefetch_fills_free_slots_most_recent_first(self, tmp_path):
        pool = make_pool(tmp_path, max_live=3)
        for user in ("a", "b", "c"):
            pool.execute(job(user, f"{user}0"))
        pool.park_all()
        assert pool.prefetch(limit=2) == 2
        # c was parked last (park_all drains LRU-first), so it is the
        # best prediction; never more than the free-slot budget
        assert list(pool.live) == ["b", "c"]
        assert pool.counters["prefetch_hydrated"] == 2

    def test_prefetch_never_evicts_live_work(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))  # parks a; b live, pool full
        assert pool.prefetch(limit=4) == 0
        assert list(pool.live) == ["b"]

    def test_prefetched_tenant_counts_a_hit_then_behaves_normally(
        self, tmp_path
    ):
        m_cold, _ = reference_vectors()
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        assert pool.prefetch(limit=1) == 1
        out = pool.execute(job("a", "a1"))
        assert out["session"]["prefetch_hit"] is True
        # prefetch hydration is exact: the call still pays (exactly)
        # the cold vector, it just pays it without the hydrate stall
        assert out["session"]["cold"] is True
        assert out["metrics"] == m_cold
        assert pool.counters["prefetch_hits"] == 1

    def test_prefetched_tenants_are_first_out(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        pool.execute(job("b", "b0"))
        assert pool.prefetch(limit=1) == 1  # a re-enters at the LRU head
        assert list(pool.live) == ["a", "b"]
        pool.execute(job("c", "c0"))  # evicts the prefetched a, not b
        assert list(pool.live) == ["b", "c"]


class TestSessionShape:
    """Session tenants run the gateway's machine shape and keep it
    across a park and a hydration."""

    def test_hydrated_tenant_keeps_a_non_default_shape(self, tmp_path):
        config = GatewayConfig(
            port=0,
            workers=1,
            backend="thread",
            call_timeout=30.0,
            drain_timeout=30.0,
            default_policy=RingPolicy(rate=None, max_pending=64),
            max_sessions=2,
            session_store_dir=str(tmp_path / "store"),
            prefetch_interval=0,
            machine_profile="baseline645",
            hardening=("auth_return_stack",),
        )
        call = {"verb": "call", "program": "call_loop",
                "args": {"count": 3, "target_ring": 1}}

        async def main():
            gateway = RingGateway(config)
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )

                async def request(**message):
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                assert (await request(verb="hello", user="alice", ring=4))[
                    "ok"
                ]
                replies = [await request(**call) for _ in range(2)]
                assert (await request(verb="park", user="alice"))["parked"]
                replies.append(await request(**call))
                stats = await request(verb="stats")
                writer.close()
                return replies, stats, gateway._sessions.machine
            finally:
                await gateway.stop()

        replies, stats, machine = asyncio.run(main())
        assert machine.profile == "baseline645"
        assert replies[2]["session"]["admitted"] == "hydrated"

        # the unparked twin: the same shape, the same calls, and the
        # park's detach in place of a park
        twin = GateCallEngine(Machine(machine))
        job = {"user": "alice", "ring": 4, "program": call["program"],
               "args": call["args"]}
        expected = [twin.run_job(job) for _ in range(2)]
        twin.machine.detach()
        expected.append(twin.run_job(job))
        for reply, want in zip(replies, expected):
            assert reply["result"] == want["payload"]
            assert reply["metrics"] == MetricsSnapshot.from_dict(
                want["metrics"]
            ).architectural()

        # the shape mattered: a default tenant answers differently
        plain = GateCallEngine(Machine(TENANT_MACHINE)).run_job(job)
        assert plain["payload"]["cycles"] != replies[2]["result"]["cycles"]

        (worker,) = stats["workers"]["per_worker"].values()
        assert worker["machine_profile"] == "baseline645"
        assert worker["hardening"] == ["auth_return_stack"]
