"""Per-ring admission control for the gateway.

The paper's boundary hardware checks every gate transfer before any
callee code runs; the gateway applies the same discipline to network
callers, per ring, before any worker is touched:

* a **token bucket** bounds the sustained call rate (``rate`` calls/s
  with ``burst`` tokens of headroom) — the answer to one tenant
  monopolising the worker pool;
* a **bounded pending count** caps how many admitted calls may be
  queued or executing at once — the backpressure that keeps latency
  bounded instead of letting queues grow without limit.

Both rejections are explicit and carry a ``retry_after`` hint (seconds)
so a well-behaved client can pace itself; nothing is silently dropped.
Admission state is plain arithmetic over an injected clock, so tests
drive it deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from .protocol import ErrorCode


@dataclass(frozen=True)
class RingPolicy:
    """Admission limits for one ring.

    ``rate`` is sustained calls/s (``None`` disables rate limiting);
    ``burst`` is the bucket depth; ``max_pending`` bounds queued plus
    executing calls; ``queue_retry_after`` is the hint returned with a
    ``queue_full`` rejection.
    """

    rate: Optional[float] = None
    burst: int = 32
    max_pending: int = 64
    queue_retry_after: float = 0.05

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError("rate must be positive (or None)")
        if self.burst <= 0:
            raise ConfigurationError("burst must be positive")
        if self.max_pending <= 0:
            raise ConfigurationError("max_pending must be positive")


@dataclass(frozen=True)
class Decision:
    """The outcome of one admission check."""

    admitted: bool
    reason: str = ""
    retry_after: float = 0.0


ADMITTED = Decision(admitted=True)


class TokenBucket:
    """A token bucket over an injectable monotonic clock."""

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        if burst <= 0:
            raise ConfigurationError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_take(self) -> float:
        """Take one token; 0.0 on success, else seconds until one exists."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (after refilling to now)."""
        self._refill()
        return self._tokens


class _RingState:
    """One ring's bucket plus its pending count."""

    def __init__(self, policy: RingPolicy, clock: Callable[[], float]):
        self.policy = policy
        self.bucket = (
            TokenBucket(policy.rate, policy.burst, clock)
            if policy.rate is not None
            else None
        )
        self.pending = 0


class AdmissionController:
    """Admission decisions per ring, with explicit slot accounting.

    Callers must pair every admitted :meth:`admit` with exactly one
    :meth:`release` once the call leaves the system (completed, faulted,
    or timed out *and* finally drained from its worker) — the pending
    count is the gateway's queue bound.
    """

    def __init__(
        self,
        default: RingPolicy,
        per_ring: Optional[Dict[int, RingPolicy]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._default = default
        self._overrides = dict(per_ring or {})
        self._clock = clock
        self._rings: Dict[int, _RingState] = {}

    def _ring(self, ring: int) -> _RingState:
        state = self._rings.get(ring)
        if state is None:
            policy = self._overrides.get(ring, self._default)
            state = _RingState(policy, self._clock)
            self._rings[ring] = state
        return state

    def policy_for(self, ring: int) -> RingPolicy:
        """The effective policy for ``ring``."""
        return self._ring(ring).policy

    def admit(self, ring: int) -> Decision:
        """Try to admit one call in ``ring``; takes a slot on success."""
        state = self._ring(ring)
        if state.pending >= state.policy.max_pending:
            return Decision(
                admitted=False,
                reason=ErrorCode.QUEUE_FULL,
                retry_after=state.policy.queue_retry_after,
            )
        if state.bucket is not None:
            wait = state.bucket.try_take()
            if wait > 0.0:
                return Decision(
                    admitted=False,
                    reason=ErrorCode.RATE_LIMITED,
                    retry_after=round(wait, 6),
                )
        state.pending += 1
        return ADMITTED

    def readmit(self, ring: int) -> None:
        """Re-take the slot of an admitted call being retried internally.

        Unconditional — the call already passed :meth:`admit` once, so a
        gateway-side retry (e.g. resubmitting after a worker-pool crash)
        must not be bounced by its own ring's bucket or pending bound;
        the caller is holding the client connection open either way.
        """
        self._ring(ring).pending += 1

    def release(self, ring: int) -> None:
        """Return the slot taken by a previously admitted call."""
        state = self._ring(ring)
        if state.pending <= 0:
            raise ConfigurationError(
                f"release without a matching admit for ring {ring}"
            )
        state.pending -= 1

    def pending(self, ring: int) -> int:
        """Admitted-but-unreleased calls in ``ring``."""
        return self._ring(ring).pending

    def pending_by_ring(self) -> Dict[int, int]:
        """Pending counts for every ring seen so far."""
        return {
            ring: state.pending
            for ring, state in sorted(self._rings.items())
        }

    @property
    def total_pending(self) -> int:
        """Admitted-but-unreleased calls across all rings."""
        return sum(state.pending for state in self._rings.values())
