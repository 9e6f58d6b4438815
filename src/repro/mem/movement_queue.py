"""The movement queue (Section 4.3).

Lines being moved between ways are held in a small fully associative
queue until written to their destination, so that lookups and
invalidations arriving mid-movement still find them. In this functional
simulator movements complete atomically, but the queue is modelled for
its two observable costs: the 0.3 pJ lookup energy per movement
(synthesized RTL, Section 5) and the correctness requirement that probes
check in-flight lines — exercised directly by the test suite.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class MovementQueueFullError(RuntimeError):
    """Raised when more in-flight movements exist than queue entries."""


@dataclass
class MovementQueueStats:
    enqueues: int = 0
    lookups: int = 0
    peak_occupancy: int = 0
    energy_pj: float = 0.0


class MovementQueue:
    """Bounded FIFO of lines in flight between ways."""

    def __init__(self, entries: int = 16, lookup_pj: float = 0.3) -> None:
        if entries < 1:
            raise ValueError("movement queue needs at least one entry")
        self.entries = entries
        self.lookup_pj = lookup_pj
        self._inflight: "OrderedDict[int, int]" = OrderedDict()
        self.stats = MovementQueueStats()

    def __len__(self) -> int:
        return len(self._inflight)

    def enqueue(self, line_addr: int, destination_way: int) -> None:
        if len(self._inflight) >= self.entries:
            raise MovementQueueFullError(
                f"movement queue overflow ({self.entries} entries)"
            )
        self._inflight[line_addr] = destination_way
        self.stats.enqueues += 1
        self.stats.peak_occupancy = max(
            self.stats.peak_occupancy, len(self._inflight)
        )

    def complete(self, line_addr: int) -> int:
        """The movement finished; returns the destination way."""
        way = self._inflight.pop(line_addr)
        self.stats.lookups += 1
        # Kept live: ``lookups`` counts probes as well as completions,
        # so the ledger cannot be re-derived from any event counter;
        # movements are rare enough that the accumulation is harmless.
        self.stats.energy_pj += self.lookup_pj
        return way

    def probe(self, line_addr: int) -> bool:
        """Lookup/invalidation path: is this line in flight?"""
        self.stats.lookups += 1
        return line_addr in self._inflight

    def invalidate(self, line_addr: int) -> bool:
        """Drop an in-flight line (invalidation hit the queue)."""
        if line_addr in self._inflight:
            del self._inflight[line_addr]
            return True
        return False
