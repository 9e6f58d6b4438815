"""The multi-level memory hierarchy driver.

Wires L1 / L2 / L3 / DRAM together with per-level placement policies,
the TLB runtime (baseline or SLIP), and full energy/latency accounting.
The hierarchy is non-inclusive and write-back / write-allocate at L1;
writebacks are write-no-allocate at L2/L3 (they update a resident copy
or are forwarded onward). Metadata fetches triggered by TLB misses are
real accesses into L2/L3/DRAM at reserved page-table addresses, so the
metadata traffic of Figure 12 emerges from the same machinery as demand
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..policies.base import PlacementPolicy
from ..policies.baseline import BaselinePlacement
from ..sim.config import SystemConfig, line_to_page_shift
from .cache import CacheLevel
from .dram import Dram
from .replacement import LruReplacement, ReplacementPolicy


@dataclass
class KernelDeclines:
    """Why each batched kernel last bypassed this hierarchy.

    One structured record for all vectorized kernels: ``replay`` covers
    both replay flavours (:mod:`repro.sim.vector_replay` and
    :mod:`repro.sim.vector_replay_slip`), ``frontend`` the capture
    kernel (:mod:`repro.sim.vector_frontend`). A field is ``None``
    after a successful kernel run (or before any attempt) and holds
    the decline reason string otherwise; all updates flow through
    :mod:`repro.sim.kernel_report`, which also aggregates process-wide
    counts for ``slip-experiments --kernel-report``.
    """

    replay: Optional[str] = None
    frontend: Optional[str] = None


@dataclass
class HierarchyCounters:
    """Cross-level counters not attributable to a single cache."""

    demand_accesses: int = 0
    l1_hits: int = 0
    dram_demand_reads: int = 0
    dram_metadata_reads: int = 0
    dram_writebacks: int = 0
    total_latency_cycles: int = 0

    @property
    def dram_reads(self) -> int:
        return self.dram_demand_reads + self.dram_metadata_reads


class MemoryHierarchy:
    """A single core's view of the cache hierarchy."""

    def __init__(
        self,
        config: SystemConfig,
        l2_placement: PlacementPolicy,
        l3_placement: PlacementPolicy,
        runtime,
        l2_replacement: Optional[ReplacementPolicy] = None,
        l3_replacement: Optional[ReplacementPolicy] = None,
        track_slip_metadata_energy: bool = False,
        shared_l3: Optional[Tuple[CacheLevel, PlacementPolicy]] = None,
    ) -> None:
        self.config = config
        self.runtime = runtime
        ts_bits = config.slip.timestamp_bits

        self.l1 = CacheLevel(config.l1, LruReplacement(),
                             timestamp_bits=ts_bits)
        self.l1_placement = BaselinePlacement()
        self.l1_placement.attach(self.l1)

        self.l2 = CacheLevel(
            config.l2, l2_replacement or LruReplacement(),
            track_metadata_energy=track_slip_metadata_energy,
            timestamp_bits=ts_bits,
        )
        self.l2_placement = l2_placement
        l2_placement.attach(self.l2)

        if shared_l3 is not None:
            self.l3, self.l3_placement = shared_l3
        else:
            self.l3 = CacheLevel(
                config.l3, l3_replacement or LruReplacement(),
                track_metadata_energy=track_slip_metadata_energy,
                timestamp_bits=ts_bits,
            )
            self.l3_placement = l3_placement
            l3_placement.attach(self.l3)

        self.dram = Dram(config.dram)
        self.counters = HierarchyCounters()
        # page number = line address >> log2(lines per page); the shift
        # is shared with trace footprint reporting via config.
        self._page_shift = line_to_page_shift(config.lines_per_page)
        # Why the most recent kernel attempt (replay or front-end
        # capture) bypassed this hierarchy; updated through
        # repro.sim.kernel_report.record_decline / record_success.
        self.kernel_declines = KernelDeclines()
        # Deferred import: repro.core's __init__ transitively imports
        # repro.mem, so a module-level import here could close a cycle
        # mid-initialization depending on which package loads first.
        from ..core.runtime import BaselineRuntime, SlipRuntime
        pk = type(runtime).profile_key
        # When the profile key provably equals the page (baseline, or
        # SLIP at page grain), access() reuses the page it already
        # computed instead of a per-access method call.
        self._key_is_page = (
            pk is BaselineRuntime.profile_key
            or (pk is SlipRuntime.profile_key
                and runtime.block_shift is None)
        )

    # ------------------------------------------------------------------
    # Public access entry point
    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool = False) -> int:
        """One demand access; returns its total latency in cycles.

        The L1 leg lives directly in this method (rather than a helper
        per level as below L1): it runs once per simulated access and
        the call overhead alone is visible in profiles.
        """
        counters = self.counters
        counters.demand_accesses += 1
        page = line_addr >> self._page_shift
        runtime = self.runtime
        for metadata_addr in runtime.on_reference(page, line_addr):
            self._access_below_l1(metadata_addr, True, -1)
        # The profile key is the page by default, or the rd-block under
        # the Section 7 extension; all SLIP metadata is keyed by it.
        key = page if self._key_is_page \
            else runtime.profile_key(page, line_addr)

        l1 = self.l1
        # Advance L1's access counter T like L2/L3 do in
        # _access_below_l1; without this every L1 timestamp and
        # reuse distance reads as 0. (Inlined l1.tick().)
        l1.access_counter = (l1.access_counter + 1) % l1.timestamp_wrap
        set_idx = line_addr % l1.num_sets
        way = l1._index[set_idx].get(line_addr)
        if way is not None:
            counters.l1_hits += 1
            latency = l1.record_hit(set_idx, way, is_write)
            counters.total_latency_cycles += latency
            return latency
        latency = l1.record_miss()
        latency += self._access_below_l1(line_addr, False, key)
        # Allocate into L1 (write-allocate); dirty if this is a store —
        # the fill itself installs the dirty bit, no re-probe needed.
        outcome = self.l1_placement.fill(line_addr, key, is_write)
        for wb_addr in outcome.writebacks:
            self._writeback_below_l1(wb_addr)
        counters.total_latency_cycles += latency
        return latency

    # ------------------------------------------------------------------
    def _access_below_l1(self, line_addr: int, is_metadata: bool,
                         page: int) -> int:
        """Access L2 -> L3 -> DRAM; fill missing levels on the way back.

        Runs once per L2-visible event (demand miss or metadata fetch),
        both in direct runs and in filtered replay. Below L1 a demand
        hit is always a read (writes allocate at L1). Every hit and
        miss is booked through ``CacheLevel.record_hit`` /
        ``record_miss``, the one place a level's event counters move.
        """
        latency = 0
        runtime = self.runtime

        # ----- L2 ----- (tick and probe are inlined: neither books a
        # statistic.)
        l2 = self.l2
        l2.access_counter = (l2.access_counter + 1) % l2.timestamp_wrap
        set_idx = line_addr % l2.num_sets
        way = l2._index[set_idx].get(line_addr)
        if way is not None:
            latency += l2.record_hit(set_idx, way, is_write=False,
                                     is_metadata=is_metadata)
            self.l2_placement.on_hit(set_idx, way)
            return latency
        latency += l2.record_miss(is_metadata)
        if not is_metadata and runtime.slip_enabled:
            runtime.record_miss_sample("L2", page)

        # ----- L3 -----
        l3 = self.l3
        l3.access_counter = (l3.access_counter + 1) % l3.timestamp_wrap
        l3_set = line_addr % l3.num_sets
        l3_way = l3._index[l3_set].get(line_addr)
        if l3_way is not None:
            latency += l3.record_hit(l3_set, l3_way, is_write=False,
                                     is_metadata=is_metadata)
            self.l3_placement.on_hit(l3_set, l3_way)
        else:
            latency += l3.record_miss(is_metadata)
            if not is_metadata and runtime.slip_enabled:
                runtime.record_miss_sample("L3", page)
            latency += self.dram.read()
            if is_metadata:
                self.counters.dram_metadata_reads += 1
            else:
                self.counters.dram_demand_reads += 1
            # Fill L3 (possibly bypassed by SLIP's ABP).
            outcome = self.l3_placement.fill(line_addr, page, False,
                                             is_metadata)
            for wb_addr in outcome.writebacks:
                self._writeback_to_dram(wb_addr)

        # Fill L2 on the way back (possibly bypassed).
        outcome = self.l2_placement.fill(line_addr, page, False,
                                         is_metadata)
        for wb_addr in outcome.writebacks:
            self._writeback_to_l3(wb_addr)
        return latency

    # ------------------------------------------------------------------
    # Writeback paths (write-no-allocate below the originating level)
    # ------------------------------------------------------------------
    def _writeback_below_l1(self, line_addr: int) -> None:
        l2 = self.l2
        l2.access_counter = (l2.access_counter + 1) % l2.timestamp_wrap
        set_idx = line_addr % l2.num_sets
        way = l2._index[set_idx].get(line_addr)
        if way is not None:
            l2.record_writeback_in(set_idx, way)
            return
        self._writeback_to_l3(line_addr)

    def _writeback_to_l3(self, line_addr: int) -> None:
        l3 = self.l3
        l3.access_counter = (l3.access_counter + 1) % l3.timestamp_wrap
        set_idx = line_addr % l3.num_sets
        way = l3._index[set_idx].get(line_addr)
        if way is not None:
            l3.record_writeback_in(set_idx, way)
            return
        self._writeback_to_dram(line_addr)

    def _writeback_to_dram(self, line_addr: int) -> None:
        self.dram.write()
        self.counters.dram_writebacks += 1

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every counter while keeping cache/TLB/page state warm."""
        for level in self.levels:
            level.reset_stats()
        self.dram.stats = type(self.dram.stats)()
        self.counters = HierarchyCounters()
        self.runtime.tlb.stats = type(self.runtime.tlb.stats)()
        self.runtime.stats = type(self.runtime.stats)()
        if getattr(self.runtime, "slip_enabled", False):
            for eou in self.runtime.eous.values():
                eou.reset_stats()

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Record reuse statistics for lines still resident at the end.

        Also materializes the deferred energy counters, so everything
        downstream of a finished run reads final ``*_pj`` figures.
        """
        for level in (self.l1, self.l2, self.l3):
            for line in level.resident_lines():
                level.stats.record_reuse_count(line.hits)
        self.materialize_energy()

    def materialize_energy(self) -> None:
        """Fold each level's event counters into its energy breakdown.

        Idempotent (each call recomputes from the counters), so it is
        safe at every statistics boundary: finalize and collect_result.
        DRAM energy is deferred the same way; EOU energy needs no
        folding — it is a property computed from the optimization count
        on every read.
        """
        for level in (self.l1, self.l2, self.l3):
            level.stats.materialize()
        self.dram.materialize_energy()

    # ------------------------------------------------------------------
    @property
    def levels(self) -> List[CacheLevel]:
        return [self.l1, self.l2, self.l3]

    def invalidate(self, line_addr: int) -> None:
        """Invalidate a line everywhere, writing back dirty copies."""
        for level, forward in (
            (self.l1, self._writeback_below_l1),
            (self.l2, self._writeback_to_l3),
            (self.l3, self._writeback_to_dram),
        ):
            evicted = level.invalidate(line_addr)
            if evicted is not None and evicted.dirty:
                level.record_writeback_out(evicted.from_way)
                forward(line_addr)
