"""SLIP placement controller (Sections 3.1 and 4.3, Figures 6 and 7).

Implements the SLIP state machine on top of a :class:`CacheLevel`:

* on a fill, the line's page SLIP selects the insertion chunk (or
  bypasses the level entirely under the All-Bypass Policy);
* the displaced victim is moved to the *next* chunk of its own SLIP,
  which can cascade — each cascade step strictly advances the moved
  line's chunk index, so cascades always terminate;
* on a hit, the line's timestamp yields a reuse-distance sample for its
  page's distribution when the page is in the sampling state.

The controller is orthogonal to replacement: victim selection inside a
chunk is delegated to the level's replacement policy.
"""

from __future__ import annotations

from typing import Optional

from ..mem.cache import CacheLevel, EvictedLine
from ..policies.base import FillOutcome, PlacementPolicy
from .policy import SlipSpace
from .runtime import SlipRuntime
from .sampling import PageState


class SlipPlacement(PlacementPolicy):
    """SLIP insertion and movement for one cache level."""

    performs_movement = True

    def __init__(self, space: SlipSpace, runtime: Optional[SlipRuntime],
                 movement_queue_pj: float = 0.3) -> None:
        super().__init__()
        self.space = space
        self.runtime = runtime
        self.movement_queue_pj = movement_queue_pj
        # SlipSpace hot table, bound as an instance attribute so the
        # per-cascade lookups skip one attribute hop each.
        self._num_chunks_by_id = space.num_chunks_by_id
        # on_hit inlines the page-table probe, which needs the concrete
        # SlipRuntime surface (``pages`` dict + ``always_sample``).
        # Duck-typed runtimes (the shared-L3 router) take the generic
        # query path instead.
        self._paged_runtime = (
            runtime if isinstance(runtime, SlipRuntime) else None
        )

    def attach(self, level: CacheLevel) -> None:
        super().attach(level)
        if level.cfg.num_sublevels != self.space.num_sublevels:
            raise ValueError("SlipSpace does not match level sublevels")
        self._level_name = level.cfg.name
        self._default_id = self.space.default_id
        # Hit-path clamp: a reference that hit cannot have a stack
        # distance at or beyond the level's capacity (see on_hit).
        self._max_hit_distance = level.cfg.lines - 1
        # Timestamp quantisation constants (set once in CacheLevel's
        # constructor), bound here so the per-hit timestamp updates
        # skip two attribute hops each.
        self._granule = level._granule
        self._ts_mask = level._ts_mask

    # ------------------------------------------------------------------
    def _slip_for(self, page: int, is_metadata: bool) -> int:
        if is_metadata or self.runtime is None or page < 0:
            return self._default_id
        return self.runtime.policy_for(self._level_name, page)

    def fill(self, line_addr: int, page: int = -1, dirty: bool = False,
             is_metadata: bool = False) -> FillOutcome:
        """Insert a line per its page's SLIP, or bypass under ABP.

        Built from the level's placement primitives, so each step is
        booked by the level's own accounting.
        """
        level = self.level
        assert level is not None
        slip_id = self._slip_for(page, is_metadata)
        slip_class = self.space.classify(slip_id)

        if self.space.num_chunks(slip_id) == 0:
            # All-Bypass Policy: the line never enters this level.
            level.record_bypass(slip_class, dirty=dirty)
            outcome = FillOutcome(inserted=False)
            if dirty:
                outcome.add_writeback(line_addr)
            return outcome

        outcome = FillOutcome(inserted=True)
        set_idx = level.set_index(line_addr)
        candidates = self.space.chunk_ways(slip_id, 0)
        way = level.choose_victim(set_idx, candidates)
        victim = level.extract(set_idx, way)
        level.place_fill(
            set_idx, way, line_addr, dirty=dirty, page=page,
            policy_id=slip_id, chunk_idx=0, is_metadata=is_metadata,
            timestamp=level.timestamp_now(),
        )
        level.stats.insertions_by_class[slip_class] += 1
        if victim is not None:
            self._cascade(set_idx, victim, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _cascade(self, set_idx: int, victim: EvictedLine,
                 outcome: FillOutcome) -> None:
        """Move a displaced line per its own SLIP, cascading (step 7).

        Every iteration strictly advances the pending line's chunk index
        within its own SLIP, so the loop terminates: a line with M
        chunks can be re-victimized at most M-1 times before leaving the
        level. The guard is a backstop, not a policy.
        """
        level = self.level
        assert level is not None
        space = self.space
        num_chunks_by_id = self._num_chunks_by_id
        guard = level.cfg.ways * (space.num_sublevels + 1)
        pending: Optional[EvictedLine] = victim
        while pending is not None:
            guard -= 1
            next_chunk = pending.chunk_idx + 1
            if (
                guard <= 0
                or next_chunk >= num_chunks_by_id[pending.policy_id]
            ):
                self._evict_from_level(pending, outcome)
                return
            ways = space.chunk_ways_by_id[pending.policy_id][next_chunk]
            way = level.choose_victim(set_idx, ways)
            displaced = level.extract(set_idx, way)
            level.place_moved(
                set_idx, way, pending, new_chunk_idx=next_chunk,
                movement_queue_pj=self.movement_queue_pj,
            )
            pending = displaced

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int) -> None:
        """Sample the reuse distance for sampling pages; refresh TL.

        The page-table probe and the sampling-state test are inlined
        (one ``pages.get`` instead of ``is_sampling`` + ``record_reuse``
        probing separately). This fuses only runtime-side queries, which
        book no level statistic, so the sequence of state updates is
        the unfused one.
        """
        level = self.level
        assert level is not None
        line = level.sets[set_idx][way]
        page = line.page
        runtime = self._paged_runtime
        if runtime is not None:
            if page >= 0 and not line.is_metadata:
                entry = runtime.pages.get(page)
                if entry is not None and (
                    runtime.always_sample
                    or entry.state is PageState.SAMPLING
                ):
                    granule = self._granule
                    ts_mask = self._ts_mask
                    delta = (((level.access_counter // granule)
                              & ts_mask) - line.ts) & ts_mask
                    distance = delta * granule
                    # Symmetric to counting misses in the last bin
                    # (Section 4.1): a reference that HIT this level
                    # necessarily had a stack distance below the
                    # level's capacity, so a timestamp difference
                    # inflated past capacity (other pages' accesses
                    # aged the counter) is clamped into the largest hit
                    # bin. Without this, pages with genuine reuse can
                    # be measured as all-miss and wrongly bypassed.
                    if distance > self._max_hit_distance:
                        distance = self._max_hit_distance
                    entry.distributions[self._level_name].record(distance)
                    if entry.period_samples < 63:
                        entry.period_samples += 1
        elif (
            self.runtime is not None
            and page >= 0
            and not line.is_metadata
            and self.runtime.is_sampling(page)
        ):
            distance = level.reuse_distance(line.ts)
            if distance > self._max_hit_distance:
                distance = self._max_hit_distance
            self.runtime.record_reuse(self._level_name, page, distance)
        line.ts = (level.access_counter // self._granule) & self._ts_mask
