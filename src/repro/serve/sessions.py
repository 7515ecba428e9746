"""Session virtualization: park/hydrate tenant machines over live slots.

The serving layer's unit of tenancy becomes the *session* — one user's
single-tenant machine — instead of a worker machine shared by every
user routed to it.  Each worker shard owns a bounded LRU pool of live
slots holding the machines currently executing; every other tenant is
**parked**: detached from its process (cold-attach discipline), host
caches dropped, and serialized as a delta against a memoized
per-(program set, config) base image.  Tenant machines built through
the same code path place every segment at the same physical addresses,
so the sparse memory chunks of a parked tenant almost all match the
base and are stored by reference — a parked ``call_loop`` tenant costs
a few KB, not a full machine.  A parked tenant **hydrates** back into
a slot on its next call, replaying any write-ahead tail journaled
after the park, and resumes with bit-for-bit the architectural
counters it parked with.

Parking is deliberately *not* checkpointing.  A durability checkpoint
(PR 4) snapshots the machine mid-service — attached, SDW associative
memory warm — so restore-then-continue is identical to never stopping.
A park instead normalizes the machine to the detached state first:
the snapshot records no attachment, hydration skips the re-attach, and
the first gate call after hydration goes through the full supervisor
attach — DBR load, cache flush, descriptor re-fetch — exactly like the
tenant's first call ever did.  That yields three properties the session
layer is built on:

* every call's metric delta is one of exactly two vectors — the
  cold-attach first-call figures or the warm fast-gate repeat figures —
  so merged counters can be cross-checked against per-tenant
  expectations in closed form;
* ``park -> hydrate -> park`` with no call in between is byte-identical
  (parking is idempotent);
* the ``fast_gate`` attach memo can never leak across a hydration — a
  hydrated machine re-fetches its descriptors on first use.

Worker shards: the gateway hashes each user onto one shard
(:func:`repro.serve.gateway.stable_shard`) and each shard runs on its own
pool worker, so a tenant's machine state always lives in exactly one
process.  The shard-side state in this module is keyed by
shard index, which keeps the thread fallback (all shards in one
process) and the process backend (one shard per child) on the same
code path.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..cpu.jit import TraceLibrary
from ..errors import ConfigurationError, SnapshotError
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from ..state.journal import JournalWriter
from ..state.recover import journal_record, replay_journal
from ..state.snapshot import (
    DEFAULT_COMPRESS_LEVEL,
    apply_delta,
    canonical_bytes,
    decode_delta,
    delta_snapshot,
    encode_delta,
    read_snapshot_file,
    snapshot_machine,
    write_snapshot_file,
)
from .workers import SERVING_MACHINE, GateCallEngine

#: per-tenant duplicate-suppression cache, persisted across parks — a
#: retried call id that raced a park is answered from here instead of
#: re-executing on the hydrated machine
SESSION_RECENT_CALLS = 64

#: how much of the dedup cache survives a park: a retry that races a
#: park is by definition one of the last calls before it — older
#: history cannot race the park window, and every persisted entry is
#: bytes in the parked delta
PARKED_RECENT_CALLS = 2

#: tenant machines are deliberately small: the catalog programs fit in
#: a fraction of this, and memory size is the dominant cost of both
#: machine construction and hydration
TENANT_MEMORY_WORDS = 1 << 16

#: the default tenant shape: a serving machine at tenant size
TENANT_MACHINE = replace(SERVING_MACHINE, memory_words=TENANT_MEMORY_WORDS)


@dataclass(frozen=True)
class SessionConfig:
    """Shard-side session configuration (handed to each forked shard
    worker's initializer).

    ``max_live`` bounds the live slots *per shard*; ``store_dir`` backs
    parked tenants (and their WAL tails) with files shared across
    shards and gateways — ``None`` keeps them in shard memory, which
    serves fine but loses parked tenants with the process and cannot
    hand sessions across gateways.  ``machine`` is the shape of a new
    tenant's machine; a hydrated tenant keeps the shape it parked with.
    """

    max_live: int
    shards: int = 1
    store_dir: Optional[str] = None
    machine: MachineConfig = TENANT_MACHINE
    fsync_every: int = 8

    def __post_init__(self) -> None:
        if self.max_live <= 0:
            raise ConfigurationError("max_live must be positive")
        if self.shards <= 0:
            raise ConfigurationError("shards must be positive")
        if self.fsync_every <= 0:
            raise ConfigurationError("fsync_every must be positive")


def _name_hash(name: str) -> str:
    """Filesystem-safe stable name for a user or base key."""
    return hashlib.sha1(name.encode("utf-8")).hexdigest()


def _slim_result(result: Dict[str, Any]) -> Dict[str, Any]:
    """A dedup-cache entry worth persisting in a parked delta.

    Host-tier counters are diagnostics of a machine incarnation that no
    longer exists once the tenant is parked, so a dedup reply served
    after a hydration carries architectural counters only — and the
    parked delta stays small.  Idempotent (slimming twice is a no-op),
    which park -> hydrate -> park byte-identity relies on.
    """
    slim = dict(result)
    if "metrics" in slim:
        slim["metrics"] = {
            name: value
            for name, value in slim["metrics"].items()
            if name in MetricsSnapshot.ARCHITECTURAL
        }
    return slim


class SessionStore:
    """Parked tenant deltas plus the base images they reference.

    In-memory by default; with ``dir`` every artifact is a file, safe
    to share across shards because each user's files are only ever
    touched by the one shard that user hashes to, and across gateway
    restarts because the hash is stable.

    Base images are named by their snapshot digest, with a per-shape
    pointer file electing the shape's base; concurrent first-parkers
    may both publish a base, but deltas reference their base by digest,
    so every delta stays resolvable no matter who wins the pointer.
    The pointer appears atomically with its digest in it, so a loser
    never reads a pointer its winner has not finished writing.
    """

    def __init__(self, dir: Optional[str] = None):
        self.dir = dir
        self._parked: Dict[str, bytes] = {}
        self._bases: Dict[str, Dict[str, Any]] = {}  # digest -> snapshot
        self._shape_digest: Dict[str, str] = {}  # shape key -> digest
        self._lock = threading.Lock()
        if dir:
            os.makedirs(os.path.join(dir, "parked"), exist_ok=True)
            os.makedirs(os.path.join(dir, "bases"), exist_ok=True)
            os.makedirs(os.path.join(dir, "tails"), exist_ok=True)

    # -- parked deltas ------------------------------------------------------

    def _parked_path(self, user: str) -> str:
        return os.path.join(self.dir, "parked", _name_hash(user) + ".delta")

    def put(self, user: str, blob: bytes) -> None:
        """Durably record ``user``'s parked delta (replacing any)."""
        if self.dir is None:
            with self._lock:
                self._parked[user] = blob
            return
        path = self._parked_path(user)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def get(self, user: str) -> Optional[bytes]:
        """The user's parked delta, or ``None`` if never parked."""
        if self.dir is None:
            with self._lock:
                return self._parked.get(user)
        try:
            with open(self._parked_path(user), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def parked_count(self) -> int:
        """How many parked tenants the store holds."""
        if self.dir is None:
            with self._lock:
                return len(self._parked)
        return len(os.listdir(os.path.join(self.dir, "parked")))

    # -- base images --------------------------------------------------------

    def _base_path(self, digest: str) -> str:
        return os.path.join(self.dir, "bases", digest + ".json")

    def _pointer_path(self, shape: str) -> str:
        return os.path.join(self.dir, "bases", _name_hash(shape) + ".ptr")

    def base_for_shape(
        self, shape: str, candidate: Dict[str, Any], digest: str
    ) -> Tuple[Dict[str, Any], str]:
        """The base image for ``shape`` and its digest, electing
        ``candidate`` (whose snapshot digest is ``digest``) if the shape
        has none yet."""
        with self._lock:
            elected = self._shape_digest.get(shape)
            if elected is not None:
                return self._bases[elected], elected
            if self.dir is None:
                self._bases[digest] = candidate
                self._shape_digest[shape] = digest
                return candidate, digest
        # On-disk election: publish the candidate base, write the
        # pointer under a private name, then link it into place — the
        # link fails if the shape already has a pointer, and otherwise
        # makes the complete pointer visible at once.  A loser adopts
        # the winner's digest; its published base stays on disk for
        # any deltas already referencing it.
        base_path = self._base_path(digest)
        if not os.path.exists(base_path):
            write_snapshot_file(candidate, base_path)
        pointer = self._pointer_path(shape)
        draft = f"{pointer}.{os.getpid()}-{threading.get_ident()}.tmp"
        with open(draft, "w") as handle:
            handle.write(digest)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(draft, pointer)
        except FileExistsError:
            with open(pointer, "r") as handle:
                digest = handle.read().strip()
        finally:
            os.unlink(draft)
        base = self.base_by_digest(digest)
        with self._lock:
            self._shape_digest[shape] = digest
        return base, digest

    def base_by_digest(self, digest: str) -> Dict[str, Any]:
        """The base snapshot with ``digest`` (cached after the first
        read, which checks the file against the digest it records)."""
        with self._lock:
            base = self._bases.get(digest)
        if base is not None:
            return base
        if self.dir is None:
            raise SnapshotError(
                f"no base image with digest {digest!r} in this store"
            )
        base = read_snapshot_file(self._base_path(digest))
        with self._lock:
            self._bases[digest] = base
        return base

    # -- WAL tails ----------------------------------------------------------

    def tail_path(self, user: str, epoch: int) -> Optional[str]:
        """The user's tail journal path for ``epoch`` (``None`` when the
        store is memory-only — tails need a filesystem)."""
        if self.dir is None:
            return None
        return os.path.join(
            self.dir, "tails", f"{_name_hash(user)}.{epoch}.wal"
        )


class TenantSession:
    """One live tenant: its engine plus session bookkeeping."""

    __slots__ = (
        "user",
        "engine",
        "recent",
        "tail_epoch",
        "tail",
        "tail_records",
        "dirty",
    )

    def __init__(self, user: str, engine: GateCallEngine):
        self.user = user
        self.engine = engine
        #: call_id -> result, insertion-ordered for trimming
        self.recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.tail_epoch = 0
        self.tail: Optional[JournalWriter] = None
        self.tail_records = 0
        #: whether the machine executed anything since admission — a
        #: clean tenant re-parks without re-normalizing, so a
        #: park -> hydrate -> park cycle with no call in between is
        #: byte-identical (no spurious cache-invalidation ticks)
        self.dirty = False

    def attach_is_warm(self) -> bool:
        """Whether the next call runs on the fast-gate warm path.

        Mirrors the memo check in :meth:`Machine.start`: this is what
        decides whether the call's metric delta will be the cold-attach
        vector or the warm repeat vector.
        """
        machine = self.engine.machine
        process = self.engine.processes.get(self.user)
        return (
            process is not None
            and machine.fast_gate
            and machine.supervisor.attached_process is process
            and machine.processor.dbr is process.dbr
        )


class SessionPool:
    """The LRU live-slot pool of one worker shard.

    Owns tenant admission (create / hydrate), LRU eviction with park,
    the per-shard slice of the parked store, and the cumulative
    per-shard counters the gateway cross-checks.
    """

    def __init__(
        self,
        config: SessionConfig,
        store: Optional[SessionStore] = None,
        shard: int = 0,
    ):
        self.config = config
        self.store = store if store is not None else SessionStore(
            config.store_dir
        )
        self.shard = shard
        #: user -> TenantSession, least-recently-used first
        self.live: "OrderedDict[str, TenantSession]" = OrderedDict()
        #: compiled traces every tenant of this shard publishes and adopts
        self.traces = TraceLibrary()
        self.calls = 0
        self.total = MetricsSnapshot.zero()
        self.counters: Dict[str, int] = {
            "created": 0,
            "hydrated": 0,
            "parks": 0,
            "evictions": 0,
            "cold_calls": 0,
            "warm_calls": 0,
            "deduplicated": 0,
            "replayed_tail_calls": 0,
            "park_delta_bytes": 0,
            "park_full_bytes": 0,
            "park_stored_bytes": 0,
        }

    # -- park ---------------------------------------------------------------

    def _shape_key(self, snap: Dict[str, Any]) -> str:
        book = snap["extra"]["engine"]
        ident = {
            "config": snap["config"],
            "stored": book["stored_paths"],
            "installed": sorted(book["installed"]),
        }
        return json.dumps(ident, sort_keys=True, separators=(",", ":"))

    def park(self, tenant: TenantSession) -> bytes:
        """Park one tenant: normalize, snapshot, delta, store.

        Returns the stored blob (the idempotence tests compare it).
        """
        engine = tenant.engine
        bump_epoch = tenant.tail_records > 0
        epoch = tenant.tail_epoch + 1 if bump_epoch else tenant.tail_epoch
        if tenant.dirty:
            engine.machine.detach()
            engine.machine.processor.drop_host_caches()
        extra = {
            "engine": engine.bookkeeping(),
            "session": {
                "user": tenant.user,
                "recent": [
                    [call_id, _slim_result(result)]
                    for call_id, result in list(tenant.recent.items())[
                        -PARKED_RECENT_CALLS:
                    ]
                ],
                "tail_epoch": epoch,
            },
        }
        # the engine's cumulative host-tier counts die with the live
        # incarnation (like the caches they describe); architectural
        # totals carry across the park
        extra["engine"]["counters"] = {
            name: value
            for name, value in extra["engine"]["counters"].items()
            if name in MetricsSnapshot.ARCHITECTURAL
        }
        snap = snapshot_machine(engine.machine, extra=extra)
        # the one full encoding of a park: it gives the snapshot's
        # digest and its size
        full = canonical_bytes(snap)
        digest = hashlib.sha256(full).hexdigest()
        base, base_digest = self.store.base_for_shape(
            self._shape_key(snap), snap, digest
        )
        delta = delta_snapshot(
            snap, base, base_digest=base_digest, digest=digest
        )
        body = encode_delta(delta)
        blob = zlib.compress(body, DEFAULT_COMPRESS_LEVEL)
        self.store.put(tenant.user, blob)
        if tenant.tail is not None:
            # no fsync: the blob just synced holds every call this tail
            # journaled, and the fence below deletes the file
            tenant.tail.close(sync=False)
            tenant.tail = None
        if bump_epoch:
            # the parked image includes every journaled call: fence the
            # old tail off (it must never replay on top of this park)
            old = self.store.tail_path(tenant.user, tenant.tail_epoch)
            if old is not None:
                try:
                    os.unlink(old)
                except FileNotFoundError:
                    pass
        tenant.tail_epoch = epoch
        tenant.tail_records = 0
        self.counters["parks"] += 1
        self.counters["park_delta_bytes"] += len(body)
        self.counters["park_full_bytes"] += len(full)
        self.counters["park_stored_bytes"] += len(blob)
        return blob

    def park_user(self, user: str) -> bool:
        """Park ``user`` now if live (the gateway's ``park`` verb)."""
        tenant = self.live.pop(user, None)
        if tenant is None:
            return False
        self.park(tenant)
        return True

    def park_all(self) -> int:
        """Park every live tenant (drain)."""
        parked = 0
        while self.live:
            _, tenant = self.live.popitem(last=False)
            self.park(tenant)
            parked += 1
        return parked

    # -- admit --------------------------------------------------------------

    def _hydrate(self, user: str) -> Optional[TenantSession]:
        blob = self.store.get(user)
        if blob is None:
            return None
        delta = decode_delta(blob)
        # the store holds the base under the digest the delta names, so
        # the one full encoding here hashes the rebuilt snapshot
        base_digest = delta["base_sha256"]
        base = self.store.base_by_digest(base_digest)
        snap = apply_delta(base, delta, base_digest=base_digest)
        engine = GateCallEngine.from_snapshot(snap)
        tenant = TenantSession(user, engine)
        session = snap["extra"].get("session", {})
        tenant.recent = OrderedDict(
            (call_id, result)
            for call_id, result in session.get("recent", [])
        )
        tenant.tail_epoch = int(session.get("tail_epoch", 0))
        tail_path = self.store.tail_path(user, tenant.tail_epoch)
        if tail_path is not None and os.path.exists(tail_path):
            # the worker died after journaling calls it never folded
            # into a park: replay them through the same engine path
            report = replay_journal(
                tail_path, engine=engine, recent=tenant.recent
            )
            tenant.tail_records = report.replayed
            tenant.dirty = tenant.dirty or report.replayed > 0
            self.counters["replayed_tail_calls"] += report.replayed
        self._trim_recent(tenant)
        return tenant

    def _evict_to_fit(self) -> None:
        while len(self.live) >= self.config.max_live:
            _, victim = self.live.popitem(last=False)
            self.park(victim)
            self.counters["evictions"] += 1

    def _admit(self, user: str) -> Tuple[TenantSession, str]:
        """Bring ``user`` live; returns (tenant, "hydrated"|"created")."""
        self._evict_to_fit()
        tenant = self._hydrate(user)
        how = "hydrated"
        if tenant is None:
            engine = GateCallEngine(Machine(self.config.machine))
            tenant = TenantSession(user, engine)
            how = "created"
        tenant.engine.machine.processor.jit_cache.library = self.traces
        self.live[user] = tenant
        self.counters[how] += 1
        return tenant, how

    # -- execute ------------------------------------------------------------

    def _trim_recent(self, tenant: TenantSession) -> None:
        while len(tenant.recent) > SESSION_RECENT_CALLS:
            tenant.recent.popitem(last=False)

    def _ensure_tail(self, tenant: TenantSession) -> Optional[JournalWriter]:
        if tenant.tail is not None:
            return tenant.tail
        path = self.store.tail_path(tenant.user, tenant.tail_epoch)
        if path is None:
            return None
        tenant.tail = JournalWriter(
            path, fsync_every=self.config.fsync_every
        )
        return tenant.tail

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one gate call against the job's tenant session."""
        user = job["user"]
        call_id = job.get("call_id")
        tenant = self.live.get(user)
        admitted = "live"
        if tenant is None:
            tenant, admitted = self._admit(user)
        else:
            self.live.move_to_end(user)
        warm = tenant.attach_is_warm()
        cached = (
            tenant.recent.get(call_id) if call_id is not None else None
        )
        if cached is not None:
            result = dict(cached)
            result["deduplicated"] = True
            self.counters["deduplicated"] += 1
        else:
            self.counters["warm_calls" if warm else "cold_calls"] += 1
            result = tenant.engine.run_job(job)
            tenant.dirty = True
            tail = self._ensure_tail(tenant)
            if tail is not None:
                tail.append(journal_record(job, result))
                tenant.tail_records += 1
            if call_id is not None:
                tenant.recent[call_id] = result
                self._trim_recent(tenant)
            if "error" not in result:
                self.calls += 1
                self.total = self.total.plus(
                    MetricsSnapshot.from_dict(result["metrics"])
                )
        out = dict(result)
        out.update(tenant.engine.shape())
        out["session"] = {
            "cold": not warm,
            "admitted": admitted,
            # no prefetcher warms a slot ahead of demand; the field
            # stays for clients that still read it
            "prefetch_hit": False,
        }
        return out

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Shard-level session figures for the gateway's ``stats`` verb."""
        delta = self.counters["park_delta_bytes"]
        full = self.counters["park_full_bytes"]
        return {
            "shard": self.shard,
            "live": len(self.live),
            "max_live": self.config.max_live,
            "parked": self.store.parked_count(),
            "park_size_ratio": round(delta / full, 6) if full else None,
            **self.counters,
            "trace_library_entries": len(self.traces),
            "traces_adopted": self.traces.adopted,
        }


# ---------------------------------------------------------------------------
# worker-side entry points (the shard workers run these)
# ---------------------------------------------------------------------------

#: the shard a worker serves: its session config and, once it has served
#: a call, its pool — thread-local, so every thread-backend worker holds
#: its own shard and pools sharing a process never see each other
_WORKER = threading.local()


def _init_session_worker(config: SessionConfig) -> None:
    """Shard worker initializer, run on the worker's own thread (it
    also drops a shard pool inherited from a forked parent)."""
    _WORKER.config = config
    _WORKER.pool = None


def _pool(shard: int) -> SessionPool:
    pool = getattr(_WORKER, "pool", None)
    if pool is None:
        config = getattr(_WORKER, "config", None)
        if config is None:
            raise ConfigurationError(
                "this thread is not a configured session worker"
            )
        pool = _WORKER.pool = SessionPool(config, shard=shard)
    return pool


def session_ping(shard: int, token: int) -> Dict[str, Any]:
    """Liveness probe for a shard worker."""
    return {"shard": shard, "token": token, "pid": os.getpid()}


def execute_session_call(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one gate call on the job's shard pool.

    Same result contract as :func:`repro.serve.workers
    .execute_gate_call`, plus a ``session`` block (``cold`` — this call
    paid the cold-attach metric vector; ``admitted`` — how the tenant
    reached its slot; ``prefetch_hit`` — always false).
    ``worker_calls`` and ``worker_total`` are the *pool's* cumulative
    figures: they keep growing across evictions and hydrations, so the
    gateway's cross-check spans the whole shard, not one tenant.
    """
    shard = int(job.get("shard", 0))
    pool = _pool(shard)
    out = pool.execute(job)
    out["worker"] = f"shard{shard}"
    out["pid"] = os.getpid()
    out["generation"] = int(job.get("epoch", 0))
    out["worker_calls"] = pool.calls
    out["worker_total"] = pool.total.architectural()
    return out


def session_control(op: Dict[str, Any]) -> Dict[str, Any]:
    """Shard maintenance operations (stats / park / drain)."""
    shard = int(op.get("shard", 0))
    pool = _pool(shard)
    kind = op.get("op")
    if kind == "stats":
        return pool.stats()
    if kind == "park":
        return {"parked": pool.park_user(op["user"])}
    if kind == "park_all":
        return {"parked": pool.park_all()}
    raise ConfigurationError(f"unknown session op {kind!r}")
