"""Replacement policies with restricted-way victim selection.

SLIP chooses victims from a *chunk* — an arbitrary subset of a set's ways
— so every policy here implements ``choose_victim(set_idx, ways, lines)``
over a candidate way list. LRU is the paper's evaluation policy; DRRIP
and SHiP implement the Section 7 adaptation (pick a random sublevel of
the chunk in proportion to sublevel sizes, then apply the policy inside
that sublevel, which preserves scan and thrash resistance).
"""

from __future__ import annotations

import random
import weakref
from abc import ABC, abstractmethod
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import CacheLevel, Line

#: ``(groups, cum_weights)``: a candidate way set split by sublevel.
SublevelSplit = Tuple[Tuple[Tuple[int, ...], ...], List[int]]


class ReplacementPolicy(ABC):
    """Victim selection and recency bookkeeping for one cache level."""

    def attach(self, level: "CacheLevel") -> None:
        # Weak back-reference. The level holds its replacement policy
        # strongly; a strong reverse edge would make every CacheLevel
        # graph cyclic, handing the level's entire (large) Line
        # population to the cyclic collector instead of plain
        # refcounting — measurable as gen-2 pause jitter in sweeps
        # that build and drop one hierarchy per cell.
        self._level_ref = weakref.ref(level)

    @property
    def level(self) -> "CacheLevel":
        level = self._level_ref()
        assert level is not None, "replacement used after level death"
        return level

    @abstractmethod
    def on_hit(self, set_idx: int, way: int, line: "Line") -> None:
        """A lookup hit the given line."""

    @abstractmethod
    def on_fill(self, set_idx: int, way: int, line: "Line") -> None:
        """A new line was installed from the next level."""

    def on_move_in(self, set_idx: int, way: int, line: "Line") -> None:
        """A line was moved into this way from another way (demotion)."""
        self.on_fill(set_idx, way, line)

    @abstractmethod
    def choose_victim(
        self, set_idx: int, candidate_ways: Sequence[int], lines: List["Line"]
    ) -> int:
        """Pick a victim way among the candidates (all valid)."""


class LruReplacement(ReplacementPolicy):
    """Least-recently-used, tracked with a monotone access stamp."""

    def __init__(self) -> None:
        self._clock = 0

    def _stamp(self, line: "Line") -> None:
        self._clock += 1
        line.lru = self._clock

    def on_hit(self, set_idx: int, way: int, line: "Line") -> None:
        self._stamp(line)

    def on_fill(self, set_idx: int, way: int, line: "Line") -> None:
        self._stamp(line)

    def on_move_in(self, set_idx: int, way: int, line: "Line") -> None:
        # A demoted line keeps its recency order relative to other lines
        # rather than becoming MRU; refreshing it would let one demotion
        # shield a line from eviction indefinitely.
        pass

    def choose_victim(
        self, set_idx: int, candidate_ways: Sequence[int], lines: List["Line"]
    ) -> int:
        return min(candidate_ways, key=lambda w: lines[w].lru)


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim; useful as a stress baseline in tests."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_hit(self, set_idx: int, way: int, line: "Line") -> None:
        pass

    def on_fill(self, set_idx: int, way: int, line: "Line") -> None:
        pass

    def choose_victim(
        self, set_idx: int, candidate_ways: Sequence[int], lines: List["Line"]
    ) -> int:
        return self._rng.choice(list(candidate_ways))


class _RripBase(ReplacementPolicy):
    """Shared RRPV machinery for DRRIP and SHiP."""

    def __init__(self, rrpv_bits: int = 2, seed: int = 0) -> None:
        self.rrpv_max = (1 << rrpv_bits) - 1
        self._rng = random.Random(seed)
        self._splits: Dict[Tuple[int, ...], Optional[SublevelSplit]] = {}

    def on_hit(self, set_idx: int, way: int, line: "Line") -> None:
        line.rrpv = 0  # hit promotion

    def sublevel_split(
        self, candidate_ways: Sequence[int]
    ) -> Optional[SublevelSplit]:
        """The Section 7 sublevel split of one candidate way set.

        ``None`` when every candidate sits in one sublevel (nothing to
        draw); otherwise ``(groups, cum_weights)``: the candidates
        grouped by sublevel in first-appearance order, and the running
        group sizes. Cached per candidate tuple; the SLIP replay kernel
        reads the same table.
        """
        key = tuple(candidate_ways)
        if key in self._splits:
            return self._splits[key]
        cfg = self.level.cfg
        split = None
        if cfg.sublevel_ways:
            by_sublevel: Dict[int, List[int]] = {}
            for way in key:
                by_sublevel.setdefault(cfg.sublevel_of_way(way),
                                       []).append(way)
            if len(by_sublevel) > 1:
                groups = tuple(tuple(ways) for ways in by_sublevel.values())
                split = (groups, list(accumulate(map(len, groups))))
        self._splits[key] = split
        return split

    def _restrict_to_sublevel(
        self, candidate_ways: Sequence[int]
    ) -> Sequence[int]:
        """Section 7 adaptation: sample one sublevel, weighted by size.

        ``cum_weights`` consumes the same ``random()`` value and picks
        the same group as ``weights`` over the group sizes would.
        """
        split = self.sublevel_split(candidate_ways)
        if split is None:
            return candidate_ways
        groups, cum_weights = split
        return self._rng.choices(groups, cum_weights=cum_weights)[0]

    def choose_victim(
        self, set_idx: int, candidate_ways: Sequence[int], lines: List["Line"]
    ) -> int:
        ways = self._restrict_to_sublevel(candidate_ways)
        while True:
            for way in ways:
                if lines[way].rrpv >= self.rrpv_max:
                    return way
            for way in ways:
                lines[way].rrpv += 1


class DrripReplacement(_RripBase):
    """Dynamic RRIP with set dueling between SRRIP and BRRIP."""

    def __init__(
        self,
        rrpv_bits: int = 2,
        num_leader_sets: int = 32,
        brrip_long_prob: float = 1.0 / 32.0,
        psel_bits: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__(rrpv_bits, seed)
        self.num_leader_sets = num_leader_sets
        self.brrip_long_prob = brrip_long_prob
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2

    def attach(self, level: "CacheLevel") -> None:
        super().attach(level)
        # Leader-set assignment, per set: interleave SRRIP/BRRIP leaders.
        sets = level.cfg.sets
        stride = max(1, sets // self.num_leader_sets)
        self.set_roles: Tuple[str, ...] = tuple(
            "srrip" if set_idx % stride == 0
            else "brrip" if set_idx % stride == stride // 2 and stride > 1
            else "follower"
            for set_idx in range(sets))

    def _use_brrip(self, set_idx: int) -> bool:
        role = self.set_roles[set_idx]
        if role == "srrip":
            return False
        if role == "brrip":
            return True
        return self.psel > self.psel_max // 2

    def on_fill(self, set_idx: int, way: int, line: "Line") -> None:
        if self._use_brrip(set_idx):
            long_insert = self._rng.random() < self.brrip_long_prob
            line.rrpv = self.rrpv_max - 1 if long_insert else self.rrpv_max
        else:
            line.rrpv = self.rrpv_max - 1

    def on_move_in(self, set_idx: int, way: int, line: "Line") -> None:
        # Demoted lines keep their RRPV: their re-reference prediction is
        # unchanged by the physical move.
        pass

    def record_miss(self, set_idx: int) -> None:
        """Update the dueling counter on misses to leader sets.

        Nothing calls this yet, so ``psel`` stays at ``psel_max // 2``
        and followers insert SRRIP-style (EXPERIMENTS.md, known
        deviation 5).
        """
        role = self.set_roles[set_idx]
        if role == "srrip" and self.psel < self.psel_max:
            self.psel += 1
        elif role == "brrip" and self.psel > 0:
            self.psel -= 1


class ShipReplacement(_RripBase):
    """Signature-based hit prediction (SHiP-mem, page signatures)."""

    def __init__(
        self,
        rrpv_bits: int = 2,
        shct_entries: int = 16384,
        shct_bits: int = 2,
        signature_shift: int = 6,
        seed: int = 0,
    ) -> None:
        super().__init__(rrpv_bits, seed)
        self.shct = [1] * shct_entries
        self.shct_max = (1 << shct_bits) - 1
        self.signature_shift = signature_shift

    def signature_of(self, line_addr: int) -> int:
        return (line_addr >> self.signature_shift) % len(self.shct)

    def on_hit(self, set_idx: int, way: int, line: "Line") -> None:
        super().on_hit(set_idx, way, line)
        if not line.outcome:
            line.outcome = True
            sig = self.shct[line.signature]
            if sig < self.shct_max:
                self.shct[line.signature] = sig + 1

    def on_fill(self, set_idx: int, way: int, line: "Line") -> None:
        line.signature = self.signature_of(line.tag)
        line.outcome = False
        predicted_dead = self.shct[line.signature] == 0
        line.rrpv = self.rrpv_max if predicted_dead else self.rrpv_max - 1

    def on_move_in(self, set_idx: int, way: int, line: "Line") -> None:
        pass

    def on_evict(self, line: "Line") -> None:
        """Train the SHCT when a line dies without reuse."""
        if not line.outcome and self.shct[line.signature] > 0:
            self.shct[line.signature] -= 1


def make_replacement(name: str, seed: int = 0) -> ReplacementPolicy:
    """Factory for replacement policies by short name."""
    name = name.lower()
    if name == "lru":
        return LruReplacement()
    if name == "random":
        return RandomReplacement(seed)
    if name == "drrip":
        return DrripReplacement(seed=seed)
    if name == "ship":
        return ShipReplacement(seed=seed)
    raise ValueError(f"unknown replacement policy: {name!r}")
