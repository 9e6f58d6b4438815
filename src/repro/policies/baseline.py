"""The regular cache hierarchy: insert anywhere, never move.

This is the paper's baseline. Victims are chosen across all ways by the
underlying replacement policy; access energy is the uniform (way-mean)
energy because, with way interleaving, a line lands in a random-energy
way and stays there.
"""

from __future__ import annotations

from .base import FillOutcome, PlacementPolicy


class BaselinePlacement(PlacementPolicy):
    """Ordinary insertion into any way; no intra-level movement.

    Every miss at every level funnels through :meth:`fill`, built from
    the level's placement primitives, so each step is booked by the
    level's own accounting.
    """

    performs_movement = False

    def attach(self, level) -> None:
        super().attach(level)
        # The candidate set never narrows for the baseline.
        self._all_ways = tuple(range(level.cfg.ways))

    def fill(self, line_addr: int, page: int = -1, dirty: bool = False,
             is_metadata: bool = False) -> FillOutcome:
        level = self.level
        outcome = FillOutcome(inserted=True)
        set_idx = line_addr % level.num_sets
        way = level.choose_victim(set_idx, self._all_ways)
        victim = level.extract(set_idx, way)
        if victim is not None:
            self._evict_from_level(victim, outcome)
        level.place_fill(
            set_idx, way, line_addr, dirty=dirty, page=page,
            is_metadata=is_metadata,
            timestamp=level.timestamp_now(),
        )
        level.stats.insertions_by_class["default"] += 1
        return outcome
