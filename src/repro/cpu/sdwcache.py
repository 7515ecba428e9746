"""The descriptor associative memory (SDW cache).

Real Multics processors kept recently used SDWs in a small associative
memory so that address translation did not cost two extra memory
references per virtual reference.  The cache is architecturally visible
only through timing — *except* that the supervisor must clear it when it
changes a descriptor segment, or stale access constraints would persist
(the paper's "immediately effective" promise about SDW changes, p. 9,
holds on real hardware precisely because the supervisor issues the
clear).

The replacement policy is round-robin over a fixed number of slots,
matching the simplicity of the era's hardware: entries are kept in an
insertion-ordered mapping and the oldest fill is the victim, all O(1).

The fast-path layer (:mod:`repro.cpu.access_cache`) additionally keys
its validated-translation entries to the *identity* of the SDW object
stored here, via :meth:`SDWCache.peek`: any eviction, refetch, or
invalidation in this cache silently retires every dependent fast-path
entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..formats.sdw import SDW


class SDWCache:
    """A small segno → SDW associative memory with round-robin eviction."""

    def __init__(self, slots: int = 16, enabled: bool = True):
        self.slots = max(1, slots)
        self.enabled = enabled
        self._entries: "OrderedDict[int, SDW]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: called with the victim segno on every capacity eviction —
        #: the trace tier drops the compiled traces whose segment just
        #: lost its SDW (per-step execution would pay a refetch at the
        #: next fetch, so no trace may keep mirroring hits)
        self.on_evict: Optional[Callable[[int], None]] = None

    def lookup(self, segno: int) -> Optional[SDW]:
        """Return the cached SDW for ``segno`` or None on a miss.

        A disabled cache returns None without counting a miss — it is
        not participating, and counting would skew the ablation's
        hit-rate figures.
        """
        if not self.enabled:
            return None
        sdw = self._entries.get(segno)
        if sdw is None:
            self.misses += 1
            return None
        self.hits += 1
        return sdw

    def peek(self, segno: int) -> Optional[SDW]:
        """The cached SDW without touching the hit/miss counters.

        Used by the fast path's identity check, which mirrors the
        slow-path counters itself only once it commits to a hit.
        """
        return self._entries.get(segno)

    def fill(self, segno: int, sdw: SDW) -> None:
        """Install an SDW fetched from the descriptor segment."""
        if not self.enabled:
            return
        entries = self._entries
        if segno in entries:
            entries[segno] = sdw
            return
        if len(entries) >= self.slots:
            victim, _ = entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(victim)
        entries[segno] = sdw

    def invalidate(self, segno: Optional[int] = None) -> None:
        """Drop one entry, or the whole cache when ``segno`` is None.

        The supervisor calls this after any SDW store and on every DBR
        load (a DBR load switches descriptor segments, so every cached
        translation is for the wrong virtual memory).
        """
        self.invalidations += 1
        if segno is None:
            self._entries.clear()
        else:
            self._entries.pop(segno, None)

    def reset_stats(self) -> None:
        """Zero the counters (benchmark hygiene); entries survive."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters for the ablation benchmark."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
