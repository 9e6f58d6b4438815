"""TLB and page-table address mapping.

SLIP stores each page's policies (3 b per SLIP-managed level) and its
sampling/stable state in ignored PTE bits, and a 32 b reuse-distance
distribution per page in DRAM. Both are fetched through the cache
hierarchy itself: this module maps page numbers to synthetic page-table
and distribution-table line addresses in a reserved region of the
address space, so metadata traffic (Figure 12) is simulated with the
same machinery as demand traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

# Reserved address regions (line addresses) for metadata structures.
PTE_TABLE_BASE = 1 << 50
DIST_TABLE_BASE = 1 << 51

PTE_BYTES = 8
DIST_BYTES = 4
LINE_BYTES = 64
PTES_PER_LINE = LINE_BYTES // PTE_BYTES
DISTS_PER_LINE = LINE_BYTES // DIST_BYTES


def pte_line_address(page: int) -> int:
    """Line address holding the PTE of a page."""
    return PTE_TABLE_BASE + page // PTES_PER_LINE


def distribution_line_address(page: int) -> int:
    """Line address holding the packed reuse distribution of a page."""
    return DIST_TABLE_BASE + page // DISTS_PER_LINE


def is_metadata_address(line_addr: int) -> bool:
    return line_addr >= PTE_TABLE_BASE


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class LruKeys:
    """Fully associative LRU set of integer keys, without statistics.

    The Section 7 SLIP-cache of rd-block profile keys is one bare: its
    hit/miss stream is a pure function of the trace window, which the
    SLIP kernel derives itself, so no ledger is kept. :class:`Tlb` adds
    the TLB's published hit/miss counts.
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"{type(self).__name__} needs at least one "
                             f"entry")
        self.entries = entries
        self._keys: "OrderedDict[int, None]" = OrderedDict()

    def access(self, key: int) -> bool:
        """Touch a key; returns True on hit."""
        keys = self._keys
        if key in keys:
            keys.move_to_end(key)
            return True
        keys[key] = None
        if len(keys) > self.entries:
            keys.popitem(last=False)
        return False

    def contains(self, key: int) -> bool:
        return key in self._keys

    def flush(self) -> None:
        self._keys.clear()


class Tlb(LruKeys):
    """Fully associative, LRU translation lookaside buffer."""

    def __init__(self, entries: int = 64) -> None:
        super().__init__(entries)
        self.stats = TlbStats()

    def access(self, page: int) -> bool:
        """Touch a page; returns True on TLB hit."""
        if super().access(page):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False
