"""Warm standbys: the network half of the replication subsystem.

Three pieces, layered over :mod:`repro.state.replication`:

* :class:`StandbyServer` — an asyncio JSON-lines TCP service (the same
  wire format as the gateway, :mod:`repro.serve.protocol`) that hosts
  one :class:`~repro.state.replication.ReplicaApplier` per primary
  slot, each on a fresh machine of the shape the slot's checkpoint
  records, so every machine profile and hardening replicates.  Verbs:
  ``ship`` (apply a span of the journal's bytes, ack with the
  applied seq), ``stats``/``audit`` (read-only health and architectural
  figures answered locally, without touching the primary),
  ``promote`` (tail replay + promotion snapshot into the
  slot directory), ``lookup`` (call_id -> journaled result), ``bye``.
* :class:`ReplicaClient` — a minimal client for one standby, used by
  the shippers and anything driving a standalone ``repro standby``.
* :class:`ReplicaSet` — the gateway-side half: spawns in-process
  standbys (``--replicas N``) and/or connects to external ones
  (``--replica-endpoint``), runs one shipper task per (follower,
  slot) that tails the slot journal live and streams its bytes (at
  most ``--ship-every`` records per ship line, each line under the
  protocol's :data:`~repro.serve.protocol.MAX_LINE_BYTES`, at most
  ``ack-window`` lines in flight), tracks shipped/acked seq lag, and
  on pool death promotes the lowest-lag follower per slot before the
  gateway rebuilds its pool.

A ``ship`` line carries ``first_seq`` and the journal's framed bytes
for that run of records, unaltered (see
:func:`~repro.state.replication.decode_span`): the shipper never
parses a record, and the standby parses each once, as it applies it,
one record per event-loop turn.  Shipping is deliberately
at-least-once: a reconnect or a promotion re-ships from the follower's
last acked position, and the applier skips already-applied seqs
idempotently.  The standby never needs to trust the shipper.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, JournalError, ReproError
from ..state.journal import Frame
from ..state.recover import JOURNAL_NAME, slot_engine
from ..state.replication import (
    JournalTailer,
    ReplicaApplier,
    decode_span,
    encode_span,
)
from .protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    GatewayProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)

#: how long a shipper sleeps between polls of an idle journal
POLL_INTERVAL = 0.02

#: backoff before a shipper retries a failed standby connection
RECONNECT_BACKOFF = 0.2

#: how long :meth:`ReplicaSet.stop` waits for the shippers' final
#: round before cancelling them — a stalled follower (connected but
#: not acking) must not hold up gateway drain indefinitely
STOP_GRACE = 5.0

#: sanity bound on slot indices a ship/promote message may name
MAX_SLOTS = 4096

#: journal bytes per ship line: their base64 plus the message envelope
#: stays under the protocol's line limit
SPAN_BYTES = (MAX_LINE_BYTES - 256) // 4 * 3


@dataclass(frozen=True)
class StandbyConfig:
    """Where a standby listens and whose slot directories it mirrors.

    ``dir`` is the *primary's* durability directory (shared
    filesystem): promotion replays the journal tail from it and writes
    the promotion snapshot into it, which is what lets the successor
    worker recover in place.
    """

    dir: str
    host: str = "127.0.0.1"
    port: int = 0

    def slot_dir(self, slot: int) -> str:
        """Where this standby keeps (and promotes) the slot's replica."""
        return os.path.join(self.dir, "slots", f"slot-{slot}")


class StandbyServer:
    """A standby process: warm replica appliers behind a TCP verb set."""

    def __init__(self, config: StandbyConfig):
        self.config = config
        self._appliers: Dict[int, ReplicaApplier] = {}
        self._locks: Dict[int, asyncio.Lock] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None

    def applier_for(self, slot: int) -> ReplicaApplier:
        """The slot's applier, created empty on first reference, on a
        fresh machine of the shape the slot's checkpoint records."""
        if not (isinstance(slot, int) and 0 <= slot < MAX_SLOTS):
            raise ConfigurationError(f"bad slot index {slot!r}")
        applier = self._appliers.get(slot)
        if applier is None:
            engine = slot_engine(self.config.slot_dir(slot))
            applier = self._appliers[slot] = ReplicaApplier(engine)
            self._locks[slot] = asyncio.Lock()
        return applier

    async def start(self) -> None:
        """Bind and serve; ``self.port`` holds the bound port after."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener; appliers stay warm for inspection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # over the reader's limit: where the next line
                    # starts is lost, so answer, then hang up
                    too_long = error_response(
                        ErrorCode.BAD_REQUEST,
                        detail=f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )
                    writer.write(encode(too_long))
                    break
                if not line:
                    break
                try:
                    message = decode_line(line)
                except GatewayProtocolError as exc:
                    response = error_response(
                        ErrorCode.BAD_REQUEST, detail=str(exc)
                    )
                else:
                    response = await self._dispatch(message)
                    if response is None:  # bye
                        break
                writer.write(encode(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        verb = message.get("verb")
        request_id = message.get("id")
        try:
            if verb == "ship":
                return await self._verb_ship(message, request_id)
            if verb == "stats":
                return self._verb_stats(request_id)
            if verb == "audit":
                return self._verb_audit(message, request_id)
            if verb == "promote":
                return await self._verb_promote(message, request_id)
            if verb == "lookup":
                return self._verb_lookup(message, request_id)
            if verb == "bye":
                return None
        except (JournalError, ReproError) as exc:
            return error_response(
                ErrorCode.BAD_REQUEST,
                request_id,
                detail=f"{type(exc).__name__}: {exc}",
            )
        return error_response(
            ErrorCode.BAD_REQUEST,
            request_id,
            detail=f"unknown standby verb {verb!r}",
        )

    async def _verb_ship(
        self, message: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        slot = message.get("slot")
        frames = decode_span(message)
        applier = self.applier_for(slot)
        applied = skipped = 0
        # Applying runs real gate calls on the event loop, one record
        # per turn: the loop is never held for more than one record,
        # and no executor hop is paid.  The slot lock serializes
        # spans (the seq chain admits no concurrency).
        async with self._locks[slot]:
            for frame in frames:
                if applier.apply(frame):
                    applied += 1
                else:
                    skipped += 1
                await asyncio.sleep(0)
        return ok_response(
            request_id,
            verb="ship",
            slot=slot,
            applied_seq=applier.applied_seq,
            applied=applied,
            skipped=skipped,
        )

    def _verb_stats(self, request_id: Any) -> Dict[str, Any]:
        return ok_response(
            request_id,
            verb="stats",
            slots={
                str(slot): applier.stats()
                for slot, applier in sorted(self._appliers.items())
            },
        )

    def _verb_audit(
        self, message: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        slot = message.get("slot")
        applier = self.applier_for(slot)
        payload = applier.stats()
        payload["recent_call_ids"] = list(applier.recent)[-16:]
        payload["installed_programs"] = sorted(applier.engine.installed)
        payload["users"] = sorted(applier.engine.processes)
        return ok_response(request_id, verb="audit", slot=slot, **payload)

    async def _verb_promote(
        self, message: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        slot = message.get("slot")
        applier = self.applier_for(slot)
        slot_dir = self.config.slot_dir(slot)
        os.makedirs(slot_dir, exist_ok=True)
        loop = asyncio.get_running_loop()
        async with self._locks[slot]:
            report = await loop.run_in_executor(
                None, applier.promote, slot_dir
            )
        return ok_response(request_id, verb="promote", slot=slot, **report)

    def _verb_lookup(
        self, message: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        call_id = message.get("call_id")
        for slot, applier in sorted(self._appliers.items()):
            result = applier.lookup(call_id)
            if result is not None:
                return ok_response(
                    request_id,
                    verb="lookup",
                    found=True,
                    slot=slot,
                    result=result,
                )
        return ok_response(request_id, verb="lookup", found=False)


class ReplicaClient:
    """One JSON-lines connection to a standby.

    ``request`` is the serialized ask/answer path (internally locked,
    safe to share across tasks); ``send``/``recv`` are the pipelined
    halves the shippers use to keep an ack window open.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def open(cls, host: str, port: int) -> "ReplicaClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES * 4
        )
        return cls(reader, writer)

    async def send(self, message: Dict[str, Any]) -> None:
        """Write one JSON line to the standby."""
        self._writer.write(encode(message))
        await self._writer.drain()

    async def recv(self) -> Dict[str, Any]:
        """Read one JSON-line response; EOF is a ConnectionError."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("standby closed the connection")
        return decode_line(line)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One serialized send/recv round trip."""
        async with self._lock:
            await self.send(message)
            return await self.recv()

    async def close(self) -> None:
        """Close the connection, swallowing teardown races."""
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass(frozen=True)
class ReplicationConfig:
    """How a gateway replicates its slots (see module docstring)."""

    dir: str
    slots: int
    replicas: int = 1
    ship_every: int = 8
    ack_window: int = 4
    endpoints: Tuple[str, ...] = ()
    poll_interval: float = POLL_INTERVAL

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ConfigurationError("replication needs at least one slot")
        if self.replicas < 0:
            raise ConfigurationError("replicas must be non-negative")
        if self.replicas == 0 and not self.endpoints:
            raise ConfigurationError(
                "replication needs --replicas >= 1 or a --replica-endpoint"
            )
        if self.ship_every <= 0:
            raise ConfigurationError("ship_every must be positive")
        if self.ack_window <= 0:
            raise ConfigurationError("ack_window must be positive")


@dataclass
class _SlotShipState:
    """One shipper's view of one (follower, slot) stream."""

    shipped_seq: int = 0
    acked_seq: int = 0
    journal_seq: int = 0
    last_ack: Optional[float] = None
    error: Optional[str] = None


class _Follower:
    """One standby (in-process or external) and its per-slot streams."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        server: Optional[StandbyServer] = None,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.server = server  # owned, when spawned in-process
        self.control: Optional[ReplicaClient] = None
        self.slots: Dict[int, _SlotShipState] = {}


def _parse_endpoint(endpoint: str) -> Tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"replica endpoint {endpoint!r} is not HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"replica endpoint {endpoint!r} has a non-numeric port"
        ) from None


class ReplicaSet:
    """The gateway's followers: shippers, lag tracking, promotion."""

    def __init__(self, config: ReplicationConfig):
        self.config = config
        self._followers: List[_Follower] = []
        self._tasks: List[asyncio.Task] = []
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn in-process standbys, connect followers, start shippers."""
        for index in range(self.config.replicas):
            server = StandbyServer(
                StandbyConfig(dir=self.config.dir, host="127.0.0.1", port=0)
            )
            await server.start()
            self._followers.append(
                _Follower(
                    f"replica{index}", "127.0.0.1", server.port, server=server
                )
            )
        for endpoint in self.config.endpoints:
            host, port = _parse_endpoint(endpoint)
            self._followers.append(
                _Follower(f"standby@{endpoint}", host, port)
            )
        for follower in self._followers:
            follower.control = await ReplicaClient.open(
                follower.host, follower.port
            )
            for slot in range(self.config.slots):
                follower.slots[slot] = _SlotShipState()
                self._tasks.append(
                    asyncio.create_task(self._ship_loop(follower, slot))
                )

    async def stop(self) -> None:
        """Final-ship whatever the journals gained, then shut down.

        Call after the worker pool has drained: each shipper does one
        last poll/ship round (so followers end current, and stats read
        zero lag after a clean drain) before exiting.  A follower that
        has stopped acking gets :data:`STOP_GRACE` seconds, then its
        shipper is cancelled — drain must not hang on a dead replica.
        """
        self._stopping.set()
        deadline = asyncio.get_running_loop().time() + STOP_GRACE
        for task in self._tasks:
            remaining = deadline - asyncio.get_running_loop().time()
            try:
                if remaining > 0:
                    await asyncio.wait_for(asyncio.shield(task), remaining)
                else:
                    task.cancel()
                    await task
            except (asyncio.CancelledError, asyncio.TimeoutError):
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        for follower in self._followers:
            if follower.control is not None:
                await follower.control.close()
            if follower.server is not None:
                await follower.server.stop()

    # -- shipping -----------------------------------------------------

    def _journal_path(self, slot: int) -> str:
        return os.path.join(
            self.config.dir, "slots", f"slot-{slot}", JOURNAL_NAME
        )

    async def _ship_loop(self, follower: _Follower, slot: int) -> None:
        state = follower.slots[slot]
        tailer = JournalTailer(self._journal_path(slot))
        backlog: List[Frame] = []
        conn: Optional[ReplicaClient] = None
        try:
            while True:
                try:
                    frames = tailer.poll()
                except JournalError as exc:
                    state.error = str(exc)
                    return
                state.journal_seq = tailer.last_seq
                backlog.extend(frames)
                while backlog and backlog[0].seq <= state.acked_seq:
                    backlog.pop(0)
                to_send = [
                    frame
                    for frame in backlog
                    if frame.seq > state.shipped_seq
                ]
                if to_send:
                    if conn is None:
                        conn = await ReplicaClient.open(
                            follower.host, follower.port
                        )
                    await self._ship_frames(conn, slot, state, to_send)
                    # Re-poll at once after a full window (more is
                    # likely waiting) and in the final round (the drain
                    # may have appended while this batch was in flight);
                    # otherwise wait for the next batch to gather.
                    window = self.config.ship_every * self.config.ack_window
                    if len(to_send) >= window or self._stopping.is_set():
                        continue
                if self._stopping.is_set():
                    return
                await asyncio.sleep(self.config.poll_interval)
        except (ConnectionError, OSError, GatewayProtocolError) as exc:
            if self._stopping.is_set():
                return
            state.error = f"{type(exc).__name__}: {exc}"
            if conn is not None:
                await conn.close()
            # at-least-once: resume from the acked position; the
            # applier skips anything it already has
            state.shipped_seq = state.acked_seq
            await asyncio.sleep(RECONNECT_BACKOFF)
            self._tasks.append(
                asyncio.create_task(self._ship_loop(follower, slot))
            )
        finally:
            if conn is not None:
                await conn.close()

    async def _ship_frames(
        self,
        conn: ReplicaClient,
        slot: int,
        state: _SlotShipState,
        frames: List[Frame],
    ) -> None:
        pending = 0
        for span in self._spans(frames):
            message = {"verb": "ship", "slot": slot, **encode_span(span)}
            await conn.send(message)
            state.shipped_seq = span[-1].seq
            pending += 1
            if pending >= self.config.ack_window:
                self._absorb_ack(state, await conn.recv())
                pending -= 1
        while pending:
            self._absorb_ack(state, await conn.recv())
            pending -= 1

    def _spans(self, frames: List[Frame]) -> Iterator[List[Frame]]:
        """Runs of at most ``ship_every`` frames and :data:`SPAN_BYTES`
        bytes, one per ship line (a lone frame larger than that ships
        alone, and the standby refuses its line)."""
        span: List[Frame] = []
        size = 0
        for frame in frames:
            if span and (
                len(span) >= self.config.ship_every
                or size + len(frame.data) > SPAN_BYTES
            ):
                yield span
                span, size = [], 0
            span.append(frame)
            size += len(frame.data)
        if span:
            yield span

    def _absorb_ack(
        self, state: _SlotShipState, ack: Dict[str, Any]
    ) -> None:
        if not ack.get("ok"):
            raise ConnectionError(
                f"standby refused a shipped batch: {ack.get('detail')}"
            )
        state.acked_seq = max(state.acked_seq, int(ack.get("applied_seq", 0)))
        state.last_ack = time.monotonic()
        state.error = None

    # -- failover -----------------------------------------------------

    async def promote_all(self) -> int:
        """Fail the dead pool's slots over onto their best followers.

        For each slot with a journal, pick the follower with the
        highest acked seq (the lowest-lag one) and have it promote:
        replay the unshipped tail from the journal file, then write the
        promotion snapshot the successor worker will recover from.
        Returns how many slots were promoted.
        """
        promoted = 0
        for slot in range(self.config.slots):
            if not os.path.exists(self._journal_path(slot)):
                continue
            candidates = [
                follower
                for follower in self._followers
                if follower.control is not None
            ]
            if not candidates:
                break
            best = max(
                candidates, key=lambda f: f.slots[slot].acked_seq
            )
            try:
                response = await best.control.request(
                    {"verb": "promote", "slot": slot}
                )
            except (ConnectionError, OSError, GatewayProtocolError):
                continue
            if response.get("ok"):
                promoted += 1
        return promoted

    async def lookup(
        self, call_id: Any
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The journaled result of ``call_id``, from any follower.

        The cross-slot dedup path: a retried call that was journaled by
        the dead pool may be resubmitted to a *different* slot's worker,
        whose own recent-calls cache has never seen it.  The followers
        collectively have — asking them closes the double-execution
        window that per-slot dedup alone leaves open.
        """
        for follower in self._followers:
            if follower.control is None:
                continue
            try:
                response = await follower.control.request(
                    {"verb": "lookup", "call_id": call_id}
                )
            except (ConnectionError, OSError, GatewayProtocolError):
                continue
            if response.get("ok") and response.get("found"):
                return response.get("slot"), response.get("result")
        return None

    # -- health -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Shipper-side replication health, cheap enough for every
        ``stats`` verb call."""
        now = time.monotonic()
        followers = []
        for follower in self._followers:
            for slot, state in sorted(follower.slots.items()):
                followers.append(
                    {
                        "follower": follower.name,
                        "slot": slot,
                        "shipped_seq": state.shipped_seq,
                        "applied_seq": state.acked_seq,
                        "journal_seq": state.journal_seq,
                        "lag_records": max(
                            0, state.journal_seq - state.acked_seq
                        ),
                        "last_ack_age_s": (
                            round(now - state.last_ack, 3)
                            if state.last_ack is not None
                            else None
                        ),
                        "error": state.error,
                    }
                )
        return {
            "enabled": True,
            "replicas": len(self._followers),
            "ship_every": self.config.ship_every,
            "ack_window": self.config.ack_window,
            "followers": followers,
        }
