"""Word-addressed physical memory.

The store behind every simulated segment, page table, and descriptor
segment.  Addresses are absolute word numbers in ``[0, size)``.  The
class keeps read/write counters that the cost model and benchmarks use.

A small first-fit allocator is included so the supervisor can place
segments; it is deliberately simple — allocation policy is not part of
the paper — but it does support freeing, coalescing, and an occupancy
report, because several tests and the paging ablation need to create and
destroy many segments.

Every write path raises :attr:`PhysicalMemory.top`, the watermark one
past the highest address ever written, so whoever scans memory (the
snapshot writer) stops there: every word at or above ``top`` is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError, SegmentBoundsError
from ..words import WORD_MASK


@dataclass(frozen=True)
class Allocation:
    """A block of physical memory handed out by the allocator."""

    addr: int
    size: int

    @property
    def end(self) -> int:
        """One past the last word of the block."""
        return self.addr + self.size


class PhysicalMemory:
    """A flat array of 36-bit words with an allocator and counters."""

    def __init__(self, size: int = 1 << 18):
        if size <= 0 or size > (1 << 24):
            raise ConfigurationError(
                f"physical memory size must be in (0, 2**24], got {size}"
            )
        self.size = size
        self._words: List[int] = [0] * size
        #: one past the highest address any write path has touched;
        #: every word at or above it is zero
        self.top = 0
        #: free list of (addr, size) holes, kept sorted by address
        self._holes: List[Tuple[int, int]] = [(0, size)]
        self.reads = 0
        self.writes = 0

    # -- raw word access ----------------------------------------------------

    def read(self, addr: int) -> int:
        """Read one word at absolute address ``addr``."""
        if not 0 <= addr < self.size:
            raise SegmentBoundsError(
                f"physical read at {addr:#o} outside memory of {self.size} words"
            )
        self.reads += 1
        return self._words[addr]

    def write(self, addr: int, value: int) -> None:
        """Write one word at absolute address ``addr`` (value truncated)."""
        if not 0 <= addr < self.top:
            # rare: at or above the watermark, check the real bound and
            # raise the watermark; below it, one compare does both
            if not 0 <= addr < self.size:
                raise SegmentBoundsError(
                    f"physical write at {addr:#o} outside memory of "
                    f"{self.size} words"
                )
            self.top = addr + 1
        self.writes += 1
        self._words[addr] = value & WORD_MASK

    def read_block(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive words (counted as ``count`` reads)."""
        if count < 0 or addr < 0 or addr + count > self.size:
            raise SegmentBoundsError(
                f"physical block read [{addr:#o}, +{count}) outside memory"
            )
        self.reads += count
        return self._words[addr : addr + count]

    def write_block(self, addr: int, values: List[int]) -> None:
        """Write consecutive words (counted as ``len(values)`` writes)."""
        count = len(values)
        if addr < 0 or addr + count > self.size:
            raise SegmentBoundsError(
                f"physical block write [{addr:#o}, +{count}) outside memory"
            )
        self.writes += count
        self._words[addr : addr + count] = [v & WORD_MASK for v in values]
        self.raise_top(addr + count)

    # -- allocation -----------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """First-fit allocate ``size`` words; raises when memory is exhausted.

        Zero-word segments are legal in the architecture (BOUND = 0); they
        receive a distinct zero-length allocation at the current first hole
        so their SDW.ADDR is still a valid address.
        """
        if size < 0:
            raise ConfigurationError(f"cannot allocate {size} words")
        for index, (addr, hole) in enumerate(self._holes):
            if hole >= size:
                if hole == size and size > 0:
                    del self._holes[index]
                else:
                    self._holes[index] = (addr + size, hole - size)
                return Allocation(addr=addr, size=size)
        raise ConfigurationError(
            f"out of physical memory allocating {size} words "
            f"({self.free_words()} free in {len(self._holes)} holes)"
        )

    def free(self, allocation: Allocation) -> None:
        """Return a block to the free list, coalescing neighbours."""
        if allocation.size == 0:
            return
        addr, size = allocation.addr, allocation.size
        self._holes.append((addr, size))
        self._holes.sort()
        merged: List[Tuple[int, int]] = []
        for haddr, hsize in self._holes:
            if merged and merged[-1][0] + merged[-1][1] == haddr:
                merged[-1] = (merged[-1][0], merged[-1][1] + hsize)
            else:
                merged.append((haddr, hsize))
        self._holes = merged

    def free_words(self) -> int:
        """Total words currently unallocated."""
        return sum(size for _, size in self._holes)

    def occupancy(self) -> float:
        """Fraction of memory allocated, for reports."""
        return 1.0 - self.free_words() / self.size

    # -- bulk helpers ---------------------------------------------------------

    def load_image(self, addr: int, words: List[int]) -> None:
        """Place a segment image into memory without counting traffic.

        Used by the loader when it models a DMA-style transfer from
        backing store; the cost model charges for that separately.
        """
        if addr < 0 or addr + len(words) > self.size:
            raise SegmentBoundsError(
                f"image load [{addr:#o}, +{len(words)}) outside memory"
            )
        self._words[addr : addr + len(words)] = [w & WORD_MASK for w in words]
        self.raise_top(addr + len(words))

    def raise_top(self, end: int) -> None:
        """Lift the watermark to ``end`` after a bulk write below it."""
        if end > self.top:
            self.top = end

    def peek_block(self, addr: int, count: int) -> List[int]:
        """Copy words out without counting traffic (debug/verification)."""
        if addr < 0 or count < 0 or addr + count > self.size:
            raise SegmentBoundsError(
                f"peek [{addr:#o}, +{count}) outside memory"
            )
        return list(self._words[addr : addr + count])

    def reset_counters(self) -> None:
        """Zero the read/write counters (benchmark hygiene)."""
        self.reads = 0
        self.writes = 0
