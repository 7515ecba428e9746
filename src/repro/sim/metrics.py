"""Metrics collection for experiments, benchmarks, and the gateway.

A :class:`MetricsSnapshot` freezes every counter the simulation keeps —
processor cycles and statistics, memory traffic, SDW-cache behaviour,
and the host-side fast-path tiers — so benchmark code can compute
differences across phases without worrying about which component owns
which counter.

Snapshots are value objects and support arithmetic: :meth:`minus` turns
two cumulative snapshots into a per-phase delta (what
``Machine.run(reset_counters=False)`` uses so consecutive runs still
compose), and :meth:`plus` / :meth:`sum_of` merge the per-worker
snapshots the gateway sums into one total.

Every served gate call is accounted several times over (collected on
the worker, added to its totals, shipped as a dict, parsed and summed
in the gateway), so each operation costs about what its counters cost:
:meth:`collect` reads the counter attributes directly, the arithmetic
and :meth:`from_dict` construct positionally, and :meth:`as_dict`
copies the values without ``dataclasses.asdict``'s recursive deepcopy.
Field order is part of the contract — positional construction relies
on it, and snapshot bytes and base-image digests depend on the key
order of :meth:`as_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, attrgetter, sub
from typing import Dict, Iterable, Optional

from ..cpu.processor import Processor


@dataclass(frozen=True)
class MetricsSnapshot:
    """All simulation counters at one instant."""

    cycles: int
    instructions: int
    faults: int
    traps_delivered: int
    calls: int
    returns: int
    ring_crossings: int
    memory_reads: int
    memory_writes: int
    sdw_hits: int
    sdw_misses: int
    #: fast-path tiers (host-side only; see repro.cpu.access_cache)
    ptlb_hits: int = 0
    ptlb_misses: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    #: superblock tier (host-side only; see repro.cpu.blockcache)
    block_hits: int = 0
    block_misses: int = 0
    block_invalidations: int = 0
    block_instructions: int = 0
    #: trace-compile tier (host-side only; see repro.cpu.jit)
    jit_hits: int = 0
    jit_misses: int = 0
    jit_invalidations: int = 0
    jit_instructions: int = 0

    #: counters that describe the simulated machine itself; identical
    #: whether the host-side tiers are on or off (the host-tier hit
    #: counters above are diagnostics of *how* the figures were reached)
    ARCHITECTURAL = (
        "cycles",
        "instructions",
        "faults",
        "traps_delivered",
        "calls",
        "returns",
        "ring_crossings",
        "memory_reads",
        "memory_writes",
        "sdw_hits",
        "sdw_misses",
    )

    @classmethod
    def collect(cls, proc: Processor) -> "MetricsSnapshot":
        """Freeze the current counters of ``proc`` and its memory.

        Reads the counter attributes directly (each cache's ``stats()``
        reports the same values as a dict built per call).
        """
        stats = proc.stats
        memory = proc.memory
        sdw = proc.sdw_cache
        ptlb = proc.access_cache
        icache = proc.inst_cache
        blocks = proc.block_cache
        traces = proc.jit_cache
        return cls(
            proc.cycles,
            stats.instructions,
            stats.faults,
            stats.traps_delivered,
            stats.calls,
            stats.returns,
            stats.ring_crossings,
            memory.reads,
            memory.writes,
            sdw.hits,
            sdw.misses,
            ptlb.hits,
            ptlb.misses,
            icache.hits,
            icache.misses,
            blocks.hits,
            blocks.misses,
            blocks.invalidations,
            blocks.block_instructions,
            traces.hits,
            traces.misses,
            traces.invalidations,
            traces.instructions,
        )

    @classmethod
    def zero(cls) -> "MetricsSnapshot":
        """The additive identity (an all-zero snapshot)."""
        return cls(*_ZEROS)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "MetricsSnapshot":
        """The inverse of :meth:`as_dict`.

        Unknown keys are rejected (they signal a version skew between
        whoever serialized the dict and this build); missing host-tier
        counters default to 0 so architectural-only dicts — what workers
        report as their totals — round-trip too.  Values are coerced
        with ``int``.
        """
        unknown = data.keys() - _FIELD_SET
        if unknown:
            raise ValueError(
                f"unknown metric counter(s): {sorted(unknown)}"
            )
        get = data.get
        return cls(*[int(get(name, 0)) for name in _FIELDS])

    def delta(self, earlier: "MetricsSnapshot") -> Dict[str, int]:
        """Per-counter difference ``self - earlier`` as a dict."""
        return dict(zip(_FIELDS, map(sub, _values(self), _values(earlier))))

    def minus(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self - earlier`` as a snapshot (per-phase attribution)."""
        return MetricsSnapshot(*map(sub, _values(self), _values(earlier)))

    def plus(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self + other`` as a snapshot (per-worker merging)."""
        return MetricsSnapshot(*map(add, _values(self), _values(other)))

    @classmethod
    def sum_of(
        cls, snapshots: Iterable["MetricsSnapshot"]
    ) -> "MetricsSnapshot":
        """Merge many workers' snapshots into one total."""
        total = cls.zero()
        for snapshot in snapshots:
            total = total.plus(snapshot)
        return total

    #: the hit/miss counter pairs that have a meaningful hit rate
    TIERS = ("sdw", "ptlb", "icache", "block", "jit")

    def rates(self) -> Dict[str, Optional[float]]:
        """Hit rate per cache tier as ``{tier}_hit_rate`` keys.

        A tier that saw no traffic reports ``None`` rather than a fake
        rate.  Shared by ``repro run --metrics-json`` and the gateway's
        ``stats`` verb so the two always agree on the arithmetic.
        """
        out: Dict[str, Optional[float]] = {}
        for tier in self.TIERS:
            hits = getattr(self, f"{tier}_hits")
            misses = getattr(self, f"{tier}_misses")
            total = hits + misses
            out[f"{tier}_hit_rate"] = (
                round(hits / total, 4) if total else None
            )
        return out

    def architectural(self) -> Dict[str, int]:
        """Only the simulated-machine counters (tier-independent)."""
        return dict(zip(self.ARCHITECTURAL, _architectural_values(self)))

    def as_dict(self) -> Dict[str, int]:
        """Every counter as a plain dict, in field order (CLI
        ``--metrics-json``; snapshot bytes and base-image digests
        depend on the order)."""
        return dict(zip(_FIELDS, _values(self)))


#: counter names in dataclass field order — the positional order every
#: constructor call above uses
_FIELDS = tuple(MetricsSnapshot.__dataclass_fields__)
_FIELD_SET = frozenset(_FIELDS)
_ZEROS = (0,) * len(_FIELDS)
#: every counter value as a tuple, in field order
_values = attrgetter(*_FIELDS)
_architectural_values = attrgetter(*MetricsSnapshot.ARCHITECTURAL)
