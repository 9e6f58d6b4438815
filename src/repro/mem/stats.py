"""Event and energy counters for cache levels and DRAM.

Energy accounting is *deferred*: the hot-path primitives only bump
integer event counters per (sublevel x event kind) on
:class:`LevelStats`; :meth:`LevelStats.materialize` computes each
``*_pj`` field once, as an exact ``math.fsum`` of count x table
products, at statistics boundaries (collect, reset and finalize).
This removes millions of float adds from the access kernel and makes
the totals independent of accumulation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class EnergyBreakdown:
    """Per-level energy in picojoules, split by cause.

    Figure 11 of the paper groups these as *access* (``read_pj``) versus
    *movement* (``insertion_pj + movement_pj + writeback_pj``), with
    metadata and movement-queue overheads charged on top.
    """

    read_pj: float = 0.0
    insertion_pj: float = 0.0
    movement_pj: float = 0.0
    writeback_pj: float = 0.0
    metadata_pj: float = 0.0
    movement_queue_pj: float = 0.0
    eou_pj: float = 0.0

    def materialize(self, stats: "LevelStats",
                    read_table: Sequence[float],
                    write_table: Sequence[float],
                    metadata_pj: float) -> None:
        """Recompute the deferred fields from event counters.

        Idempotent by construction: every field is overwritten with
        ``fsum(count[s] * table[s])``, never accumulated into, so any
        statistics boundary can call it again.
        ``movement_queue_pj`` and ``eou_pj`` are not touched — the
        queue charge is a per-event float handed in by the placement
        policy, kept live because movements are rare.
        """
        # Imported here: repro.core.__init__ pulls the controller, which
        # imports mem.cache -> mem.stats; a module-level import back
        # into core would close that cycle mid-initialization.
        from ..core.energy_model import exact_dot

        self.read_pj = exact_dot(stats.read_events, read_table)
        self.insertion_pj = exact_dot(stats.insert_events, write_table)
        self.movement_pj = math.fsum(itertools.chain(
            (c * e for c, e in zip(stats.move_read_events, read_table)),
            (c * e for c, e in zip(stats.move_write_events, write_table)),
        ))
        self.writeback_pj = math.fsum(itertools.chain(
            (c * e for c, e in zip(stats.wb_in_events, write_table)),
            (c * e for c, e in zip(stats.wb_out_events, read_table)),
        ))
        self.metadata_pj = stats.metadata_events * metadata_pj

    @property
    def access_pj(self) -> float:
        return self.read_pj

    @property
    def move_total_pj(self) -> float:
        return self.insertion_pj + self.movement_pj + self.writeback_pj

    @property
    def total_pj(self) -> float:
        return (
            self.read_pj
            + self.insertion_pj
            + self.movement_pj
            + self.writeback_pj
            + self.metadata_pj
            + self.movement_queue_pj
            + self.eou_pj
        )

    def merged_with(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            read_pj=self.read_pj + other.read_pj,
            insertion_pj=self.insertion_pj + other.insertion_pj,
            movement_pj=self.movement_pj + other.movement_pj,
            writeback_pj=self.writeback_pj + other.writeback_pj,
            metadata_pj=self.metadata_pj + other.metadata_pj,
            movement_queue_pj=self.movement_queue_pj + other.movement_queue_pj,
            eou_pj=self.eou_pj + other.eou_pj,
        )


#: Histogram keys for small reuse counts; indexing a tuple beats a
#: ``str(hits)`` call on the per-departure path.
REUSE_KEYS = ("0", "1", "2")

#: Insertion classes of Figure 14, in ``insertions_by_class`` order.
INSERTION_CLASSES = ("abp", "partial_bypass", "default", "other")


@dataclass
class LevelStats:
    """Counters for one cache level."""

    name: str
    num_sublevels: int = 1
    demand_hits: int = 0
    demand_misses: int = 0
    metadata_hits: int = 0
    metadata_misses: int = 0
    hits_by_sublevel: List[int] = field(default_factory=list)
    insertions: int = 0
    bypasses: int = 0
    movements: int = 0
    writebacks_out: int = 0
    writebacks_in: int = 0
    #: Dirty lines a bypass policy refused to host, forwarded onward
    #: without a read-out; tracked so the kernels' writeback
    #: conservation audits balance exactly.
    dirty_bypass_forwards: int = 0
    insertions_by_class: Dict[str, int] = field(default_factory=dict)
    reuse_histogram: Dict[str, int] = field(
        default_factory=lambda: {"0": 0, "1": 0, "2": 0, ">2": 0}
    )
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    def __post_init__(self) -> None:
        if not self.hits_by_sublevel:
            self.hits_by_sublevel = [0] * self.num_sublevels
        for cls in INSERTION_CLASSES:
            self.insertions_by_class.setdefault(cls, 0)
        # Deferred-energy event counters, one slot per sublevel. Plain
        # attributes, not dataclass fields: ``asdict`` (and therefore
        # RunResult.to_dict) must keep emitting exactly the published
        # counters and the materialized EnergyBreakdown.
        n = self.num_sublevels
        self.read_events: List[int] = [0] * n
        self.insert_events: List[int] = [0] * n
        self.move_read_events: List[int] = [0] * n
        self.move_write_events: List[int] = [0] * n
        self.wb_in_events: List[int] = [0] * n
        self.wb_out_events: List[int] = [0] * n
        self.metadata_events: int = 0
        self._read_pj_table: Optional[Sequence[float]] = None
        self._write_pj_table: Optional[Sequence[float]] = None
        self._metadata_pj: float = 0.0

    def attach_energy_tables(self, read_pj_by_sublevel: Sequence[float],
                             write_pj_by_sublevel: Sequence[float],
                             metadata_pj: float) -> None:
        """Provide the per-sublevel energy values materialize() needs.

        Called by :class:`~repro.mem.cache.CacheLevel` whenever it
        creates a stats object; stats built without tables (unit tests,
        hand-rolled breakdowns) simply skip materialization.
        """
        self._read_pj_table = read_pj_by_sublevel
        self._write_pj_table = write_pj_by_sublevel
        self._metadata_pj = metadata_pj

    def materialize(self) -> "LevelStats":
        """Fold the event counters into ``energy``; returns self."""
        if self._read_pj_table is not None:
            self.energy.materialize(
                self, self._read_pj_table, self._write_pj_table,
                self._metadata_pj,
            )
        return self

    def adopt_counts(self, *, demand_hits: int, demand_misses: int,
                     metadata_hits: int, metadata_misses: int,
                     hits_by_sublevel: List[int],
                     insert_events: List[int],
                     move_read_events: List[int],
                     move_write_events: List[int],
                     wb_in_events: List[int],
                     wb_out_events: List[int],
                     reuse_histogram: Dict[str, int],
                     insertions_by_class: Dict[str, int],
                     bypasses: int = 0,
                     metadata_events: int = 0,
                     movement_queue_events: int = 0,
                     movement_queue_pj: float = 0.0) -> None:
        """Publish a batch-computed set of event counts into this stats.

        The merge hook for the kernels: both replay kernels land each
        level's tally through the one shared publish step
        (:func:`repro.sim.vector_replay.publish_level`), and the capture
        kernel (:mod:`repro.sim.vector_frontend`) freezes its L1 tallies
        here. A kernel tallies integer event counts per (sublevel x
        kind) and this method lands them on the exact fields the scalar
        hot path would have bumped, keeping the serialization contract
        (which fields ``asdict`` emits, which are derived) in one place.
        Derived totals are recomputed here; ``read_events`` mirrors
        ``hits_by_sublevel`` because every hit bumps both on the scalar
        path and no other read events exist for the eligible policies.
        The movement-queue charge is replayed as the same sequence of
        constant float additions the live path performs, so the
        accumulated value is bit-identical.

        Every caller passes all four ``insertions_by_class`` keys; the
        dict itself keeps the key order ``__post_init__`` gave it, so
        the serialized bytes do not depend on the caller's order. No
        kernel forwards a dirty bypass (their bypassed fills are never
        dirty), so ``dirty_bypass_forwards`` publishes as 0.
        """
        self.demand_hits = demand_hits
        self.demand_misses = demand_misses
        self.metadata_hits = metadata_hits
        self.metadata_misses = metadata_misses
        self.hits_by_sublevel = list(hits_by_sublevel)
        self.read_events = list(hits_by_sublevel)
        self.insert_events = list(insert_events)
        self.move_read_events = list(move_read_events)
        self.move_write_events = list(move_write_events)
        self.wb_in_events = list(wb_in_events)
        self.wb_out_events = list(wb_out_events)
        self.insertions = sum(insert_events)
        self.movements = sum(move_read_events)
        self.writebacks_in = sum(wb_in_events)
        self.writebacks_out = sum(wb_out_events)
        self.bypasses = bypasses
        self.dirty_bypass_forwards = 0
        self.metadata_events = metadata_events
        for key, value in insertions_by_class.items():
            self.insertions_by_class[key] = value
        for key, value in reuse_histogram.items():
            self.reuse_histogram[key] = value
        queue_pj = 0.0
        for _ in range(movement_queue_events):
            queue_pj += movement_queue_pj
        self.energy.movement_queue_pj = queue_pj

    @property
    def hits(self) -> int:
        return self.demand_hits + self.metadata_hits

    @property
    def misses(self) -> int:
        return self.demand_misses + self.metadata_misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def record_reuse_count(self, hits: int) -> None:
        """Count a line eviction by the number of hits it saw (Figure 1)."""
        if hits <= 2:
            self.reuse_histogram[REUSE_KEYS[hits]] += 1
        else:
            self.reuse_histogram[">2"] += 1

    def sublevel_access_fractions(self) -> List[float]:
        """Fraction of this level's hits served by each sublevel."""
        total = sum(self.hits_by_sublevel)
        if not total:
            return [0.0] * self.num_sublevels
        return [h / total for h in self.hits_by_sublevel]


@dataclass
class DramStats:
    """DRAM access counters."""

    reads: int = 0
    writes: int = 0
    energy_pj: float = 0.0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes
