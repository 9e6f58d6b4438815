"""SLIP policy representation and enumeration (Section 3.1).

A SLIP partitions a cache level's sublevels into an ordered list of
*chunks*. A line is inserted into chunk 0 and on eviction from chunk i
moves to chunk i+1; eviction from the last chunk leaves the level.
Chunks are consecutive groups of sublevels starting at sublevel 0 —
"skipping" sublevels saves <1% energy (footnote 1 of the paper) — so a
level with S sublevels admits exactly 2**S SLIPs, representable in S
bits. The empty SLIP is the All-Bypass Policy and the single-chunk SLIP
over every sublevel is the Default SLIP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

Chunk = Tuple[int, ...]


@dataclass(frozen=True)
class Slip:
    """One sub-level insertion policy: an ordered tuple of chunks."""

    chunks: Tuple[Chunk, ...]

    def __post_init__(self) -> None:
        expected = 0
        for chunk in self.chunks:
            if not chunk:
                raise ValueError("empty chunk in SLIP")
            for sublevel in chunk:
                if sublevel != expected:
                    raise ValueError(
                        f"SLIP chunks must cover consecutive sublevels "
                        f"starting at 0, got {self.chunks}"
                    )
                expected += 1

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def num_sublevels_used(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def is_abp(self) -> bool:
        """The All-Bypass Policy: no chunks, every access misses."""
        return not self.chunks

    def is_default(self, num_sublevels: int) -> bool:
        """The Default SLIP: one chunk containing every sublevel."""
        return (
            self.num_chunks == 1
            and self.num_sublevels_used == num_sublevels
        )

    def classify(self, num_sublevels: int) -> str:
        """Figure 14's four insertion classes."""
        if self.is_abp:
            return "abp"
        if self.num_sublevels_used < num_sublevels:
            return "partial_bypass"
        if self.is_default(num_sublevels):
            return "default"
        return "other"

    def chunk_of_sublevel(self, sublevel: int) -> int:
        """Index of the chunk containing a sublevel; -1 if bypassed."""
        for idx, chunk in enumerate(self.chunks):
            if sublevel in chunk:
                return idx
        return -1

    def __str__(self) -> str:
        if self.is_abp:
            return "{}"
        inner = ", ".join(
            "[" + ",".join(str(s) for s in chunk) + "]"
            for chunk in self.chunks
        )
        return "{" + inner + "}"


def _compositions(n: int) -> List[Tuple[int, ...]]:
    """All ordered compositions of n (ways to split n into parts)."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def enumerate_slips(num_sublevels: int) -> Tuple[Slip, ...]:
    """All 2**S SLIPs for a level with S sublevels, in canonical order.

    Index 0 is the ABP; the last index is the single-chunk Default SLIP
    convention is not guaranteed — use :func:`default_slip` / ``is_abp``.
    """
    slips: List[Slip] = []
    for used in range(num_sublevels + 1):
        for parts in _compositions(used):
            chunks, start = [], 0
            for part in parts:
                chunks.append(tuple(range(start, start + part)))
                start += part
            slips.append(Slip(tuple(chunks)))
    assert len(slips) == 1 << num_sublevels
    return tuple(slips)


def default_slip(num_sublevels: int) -> Slip:
    """The Default SLIP: one chunk spanning every sublevel."""
    return Slip((tuple(range(num_sublevels)),))


def abp_slip() -> Slip:
    """The All-Bypass Policy."""
    return Slip(())


class SlipSpace:
    """The SLIP universe for one cache level.

    Maps between :class:`Slip` objects and their S-bit hardware ids, and
    resolves chunks to concrete way ranges given the level's sublevel
    partition.
    """

    def __init__(self, sublevel_ways: Sequence[int],
                 sublevel_capacity_lines: Sequence[int]) -> None:
        if len(sublevel_ways) != len(sublevel_capacity_lines):
            raise ValueError("sublevel spec lengths differ")
        self.sublevel_ways = tuple(sublevel_ways)
        self.sublevel_capacity_lines = tuple(sublevel_capacity_lines)
        self.num_sublevels = len(sublevel_ways)
        self.slips = enumerate_slips(self.num_sublevels)
        self._id_of = {slip: idx for idx, slip in enumerate(self.slips)}
        self.default_id = self._id_of[default_slip(self.num_sublevels)]
        self.abp_id = self._id_of[abp_slip()]
        # Precompute way tuples per (slip id, chunk index).
        chunk_ways: List[Tuple[Tuple[int, ...], ...]] = []
        for slip in self.slips:
            per_chunk = []
            for chunk in slip.chunks:
                ways: List[int] = []
                for sublevel in chunk:
                    start = sum(self.sublevel_ways[:sublevel])
                    ways.extend(range(start, start + self.sublevel_ways[sublevel]))
                per_chunk.append(tuple(ways))
            chunk_ways.append(tuple(per_chunk))
        # Hot-path tables, indexed by SLIP id: the placement controller
        # runs one fill per miss at every SLIP level, and indexing a
        # tuple is measurably cheaper than a method call per frame.
        self.chunk_ways_by_id: Tuple[Tuple[Tuple[int, ...], ...], ...] = \
            tuple(chunk_ways)
        self.num_chunks_by_id: Tuple[int, ...] = tuple(
            len(per_chunk) for per_chunk in chunk_ways
        )
        self.class_by_id: Tuple[str, ...] = tuple(
            slip.classify(self.num_sublevels) for slip in self.slips
        )

    def __len__(self) -> int:
        return len(self.slips)

    def slip_of(self, slip_id: int) -> Slip:
        return self.slips[slip_id]

    def id_of(self, slip: Slip) -> int:
        return self._id_of[slip]

    def chunk_ways(self, slip_id: int, chunk_idx: int) -> Tuple[int, ...]:
        """Way indices composing one chunk of one SLIP."""
        return self.chunk_ways_by_id[slip_id][chunk_idx]

    def num_chunks(self, slip_id: int) -> int:
        return self.num_chunks_by_id[slip_id]

    def cumulative_chunk_capacity(self, slip_id: int) -> Tuple[int, ...]:
        """Cumulative line capacity through each chunk of a SLIP."""
        slip = self.slips[slip_id]
        out, total = [], 0
        for chunk in slip.chunks:
            total += sum(self.sublevel_capacity_lines[s] for s in chunk)
            out.append(total)
        return tuple(out)

    def classify(self, slip_id: int) -> str:
        return self.class_by_id[slip_id]
