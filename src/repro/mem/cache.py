"""A set-associative cache level with sublevel-aware accounting.

:class:`CacheLevel` holds the array state (tags, dirty bits, per-line
SLIP metadata) and exposes the primitives that placement policies build
on: probe, hit bookkeeping, victim selection restricted to a subset of
ways, extraction and placement of lines. Every primitive charges the
correct read/write energy for the sublevel of the way it touches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sim.config import CacheLevelConfig
from .replacement import ReplacementPolicy, ShipReplacement
from .stats import LevelStats

#: Sentinel chunk index for lines not managed by a SLIP.
NO_CHUNK = -1


class Line:
    """One cache line's state, including SLIP metadata.

    ``policy_id`` and ``chunk_idx`` realise the 6 b per-line policy copy
    and the position in that policy's chunk sequence; ``ts`` is the 6-bit
    timestamp ``TL`` used to measure reuse distances; ``hits`` counts
    reuses for Figure 1.
    """

    __slots__ = (
        "tag", "valid", "dirty", "lru", "policy_id", "chunk_idx", "ts",
        "demoted", "rrpv", "signature", "outcome", "hits", "page",
        "sampling", "is_metadata",
    )

    def reset(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.lru = 0
        self.policy_id = 0
        self.chunk_idx = NO_CHUNK
        self.ts = 0
        self.demoted = False
        self.rrpv = 0
        self.signature = 0
        self.outcome = False
        self.hits = 0
        self.page = -1
        self.sampling = False
        self.is_metadata = False

    def __init__(self) -> None:
        """Minimal construction: a hierarchy allocates tens of
        thousands of lines, so only the slots a fill does NOT write are
        initialized here — ``valid`` (every reader's guard), plus the
        replacement-state slots that victim selection may read on a
        direct call (``lru``/``rrpv``/``demoted``) and the SHiP
        feedback pair. Every remaining slot is written by
        place_fill/place_moved before the line becomes readable
        (``valid=True``), and :meth:`reset` restores all of them on
        extraction.
        """
        self.valid = False
        self.lru = 0
        self.demoted = False
        self.rrpv = 0
        self.signature = 0
        self.outcome = False


#: The shared never-valid line every way aliases until its first fill.
#: Install sites must materialize a real Line (``line is INVALID_LINE``
#: identity check) before writing; readers only ever consult the slots
#: ``Line.__init__`` sets on an invalid line, so aliasing is invisible
#: to victim scans, probes and invariant sweeps.
INVALID_LINE = Line()


class EvictedLine:
    """Snapshot of a line leaving a way, handed to the placement policy."""

    __slots__ = (
        "tag", "dirty", "policy_id", "chunk_idx", "ts", "hits", "page",
        "sampling", "demoted", "rrpv", "signature", "outcome", "is_metadata",
        "from_way", "lru",
    )

    def __init__(self, line: Line, from_way: int) -> None:
        self.lru = line.lru
        self.tag = line.tag
        self.dirty = line.dirty
        self.policy_id = line.policy_id
        self.chunk_idx = line.chunk_idx
        self.ts = line.ts
        self.hits = line.hits
        self.page = line.page
        self.sampling = line.sampling
        self.demoted = line.demoted
        self.rrpv = line.rrpv
        self.signature = line.signature
        self.outcome = line.outcome
        self.is_metadata = line.is_metadata
        self.from_way = from_way


class CacheLevel:
    """One level of the hierarchy (L1, L2 or L3)."""

    def __init__(self, cfg: CacheLevelConfig, replacement: ReplacementPolicy,
                 track_metadata_energy: bool = False,
                 timestamp_bits: int = 6) -> None:
        self.cfg = cfg
        self.replacement = replacement
        replacement.attach(self)
        self.track_metadata_energy = track_metadata_energy
        self.timestamp_bits = timestamp_bits
        # Exact-type check: subclasses (e.g. PEA's demoted-first LRU)
        # override victim selection and must not take the inlined LRU
        # scans and stamps below.
        self._plain_lru = type(replacement).__name__ == "LruReplacement"
        # Bound once: only SHiP wants eviction-outcome feedback, and an
        # isinstance per departure is measurable on the fill path.
        self._ship_on_evict = (replacement.on_evict
                               if isinstance(replacement, ShipReplacement)
                               else None)
        # Rotating start offset for invalid-way allocation scans.
        self._alloc_rotor = 0
        self.num_sets = cfg.sets
        # Lazy line materialization: every way starts aliased to the
        # shared INVALID_LINE sentinel (a hierarchy allocates tens of
        # thousands of lines, most of which a short run never fills —
        # L3 especially). The install sites (place_fill/place_moved)
        # swap in a real Line on first use; nothing else ever mutates
        # an invalid line, so the sentinel stays pristine. Each row is
        # still a distinct list (slots are replaced in place).
        self.sets: List[List[Line]] = [
            [INVALID_LINE] * cfg.ways for _ in range(cfg.sets)
        ]
        # tag -> way index per set, kept in sync by every placement
        # primitive; makes probe O(1) instead of an associative scan.
        self._index: List[dict] = [{} for _ in range(cfg.sets)]
        #: Valid lines in the array; maintained by place/extract so
        #: occupancy() never rescans the whole array.
        self.valid_count = 0
        # Flat per-way lookup tables (hot path): no sublevel rescans.
        self.sublevel_by_way: List[int] = list(cfg.way_sublevels)
        self.read_pj_by_way: List[float] = list(cfg.way_read_energies_pj)
        # Writes drive the same wires/bitlines as reads (see config).
        self.write_pj_by_way: List[float] = list(cfg.way_read_energies_pj)
        self.latency_by_way: List[int] = list(cfg.way_latencies)
        self.stats = self._new_stats()
        # Level access counter T; wraps every 4C accesses (Section 4.1).
        self.access_counter = 0
        self.timestamp_wrap = 4 * cfg.lines
        # Accesses per timestamp increment; constant for the level's
        # lifetime (timestamp_wrap never changes), so computed once.
        # Floored at 1: a tiny level (fewer than 2**timestamp_bits / 4
        # lines) would otherwise shift the granule to 0 and divide by
        # zero; a 1-access granule only gives the stamp more resolution
        # than it needs.
        self._granule = max(1, self.timestamp_wrap >> timestamp_bits)
        # 2**timestamp_bits is a power of two, so "% span" == "& mask".
        self._ts_mask = (1 << timestamp_bits) - 1

    def _new_stats(self) -> LevelStats:
        stats = LevelStats(self.cfg.name,
                           num_sublevels=self.cfg.num_sublevels)
        stats.attach_energy_tables(
            self.cfg.sublevel_read_energies_pj,
            self.cfg.sublevel_read_energies_pj,
            self.cfg.metadata_energy_pj,
        )
        return stats

    def reset_stats(self) -> None:
        """Zero all counters/energy while keeping the array state.

        Used at the end of a warmup phase, mirroring how the paper's
        SimPoint methodology excludes warmup from measurement. The
        outgoing stats are materialized first so any caller still
        holding them sees final energies rather than zeros.
        """
        self.stats.materialize()
        self.stats = self._new_stats()

    def materialize_energy(self) -> LevelStats:
        """Fold deferred event counters into published energies."""
        return self.stats.materialize()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def probe(self, line_addr: int) -> Tuple[int, Optional[int]]:
        """Locate a line without side effects. Returns (set, way|None)."""
        set_idx = line_addr % self.num_sets
        return set_idx, self._index[set_idx].get(line_addr)

    def tick(self) -> int:
        """Advance and return the level access counter T."""
        self.access_counter = (self.access_counter + 1) % self.timestamp_wrap
        return self.access_counter

    # ------------------------------------------------------------------
    # Timestamps for reuse-distance measurement (Section 4.1)
    # ------------------------------------------------------------------
    def timestamp_now(self) -> int:
        """The ``timestamp_bits`` MSBs of the level access counter."""
        return (self.access_counter // self._granule) & self._ts_mask

    def reuse_distance(self, line_ts: int) -> int:
        """Approximate reuse distance, in lines, from a stored timestamp.

        The wrap-around subtraction mirrors the hardware: a line whose
        timestamp is older than one full wrap aliases to a shorter
        distance, which is the accepted imprecision of a 6-bit stamp.
        """
        delta = (self.timestamp_now() - line_ts) & self._ts_mask
        return delta * self._granule

    # ------------------------------------------------------------------
    # Access primitives (with energy accounting)
    # ------------------------------------------------------------------
    def record_hit(self, set_idx: int, way: int, is_write: bool,
                   is_metadata: bool = False) -> int:
        """Account a demand/metadata hit; returns the hit latency."""
        line = self.sets[set_idx][way]
        line.hits += 1
        if is_write:
            line.dirty = True
        stats = self.stats
        if is_metadata:
            stats.metadata_hits += 1
        else:
            stats.demand_hits += 1
        sublevel = self.sublevel_by_way[way]
        stats.hits_by_sublevel[sublevel] += 1
        stats.read_events[sublevel] += 1
        if self.track_metadata_energy:
            stats.metadata_events += 1
        if self._plain_lru:
            # Inlined LruReplacement.on_hit (_stamp), as in place_fill.
            replacement = self.replacement
            replacement._clock += 1
            line.lru = replacement._clock
        else:
            self.replacement.on_hit(set_idx, way, line)
        return self.latency_by_way[way]

    def record_miss(self, is_metadata: bool = False) -> int:
        """Account a miss; returns the miss-probe latency."""
        stats = self.stats
        if is_metadata:
            stats.metadata_misses += 1
        else:
            stats.demand_misses += 1
        if self.track_metadata_energy:
            stats.metadata_events += 1
        return self.cfg.latency_cycles

    # ------------------------------------------------------------------
    # Placement primitives
    # ------------------------------------------------------------------
    def choose_victim(self, set_idx: int,
                      candidate_ways: Sequence[int]) -> int:
        """Pick a way to vacate: invalid first, else ask replacement.

        The scan for an invalid way starts at a rotating offset: always
        starting at way 0 would fill cold sets lowest-way-first, piling
        recently-inserted (most reusable) lines into sublevel 0 and
        biasing the baseline's sublevel access fractions — real designs
        allocate pseudo-randomly among invalid ways.
        """
        lines = self.sets[set_idx]
        n = len(candidate_ways)
        self._alloc_rotor = rotor = (self._alloc_rotor + 1) % 64
        rotor %= n
        # Rotate by slicing once instead of taking (i + rotor) % n per
        # way: same visit order, no per-iteration modulo.
        if rotor:
            ordered = [*candidate_ways[rotor:], *candidate_ways[:rotor]]
        else:
            ordered = candidate_ways
        if self._plain_lru:
            # Fused invalid + min-LRU scan; one pass, rotated start.
            # inf as the initial floor keeps the loop branch simple
            # (every real LRU stamp is a finite int).
            best_way, best_lru = -1, float("inf")
            for way in ordered:
                line = lines[way]
                if not line.valid:
                    return way
                lru = line.lru
                if lru < best_lru:
                    best_way, best_lru = way, lru
            return best_way
        for way in ordered:
            if not lines[way].valid:
                return way
        return self.replacement.choose_victim(
            set_idx, candidate_ways, lines
        )

    def extract(self, set_idx: int, way: int) -> Optional[EvictedLine]:
        """Remove and return the line at (set, way); None if invalid.

        Extraction alone is neutral: the caller either re-places the
        line (a movement) or calls :meth:`record_departure` when the
        line truly leaves the level.
        """
        line = self.sets[set_idx][way]
        if not line.valid:
            return None
        evicted = EvictedLine(line, way)
        del self._index[set_idx][line.tag]
        line.reset()
        self.valid_count -= 1
        return evicted

    def record_departure(self, evicted: EvictedLine) -> None:
        """Bookkeeping for a line that left the level for good."""
        self.stats.record_reuse_count(evicted.hits)
        if self._ship_on_evict is not None:
            self._ship_on_evict(evicted)

    def place_fill(self, set_idx: int, way: int, line_addr: int, *,
                   dirty: bool = False, policy_id: int = 0,
                   chunk_idx: int = NO_CHUNK, page: int = -1,
                   sampling: bool = False, is_metadata: bool = False,
                   timestamp: int = 0) -> None:
        """Install a brand-new line (fetched from the next level)."""
        line = self.sets[set_idx][way]
        if line.valid:
            raise RuntimeError("place_fill into a valid way; extract first")
        if line is INVALID_LINE:
            line = self.sets[set_idx][way] = Line()
        line.valid = True
        line.tag = line_addr
        self._index[set_idx][line_addr] = way
        line.dirty = dirty
        line.policy_id = policy_id
        line.chunk_idx = chunk_idx
        line.page = page
        line.sampling = sampling
        line.is_metadata = is_metadata
        line.ts = timestamp
        line.hits = 0
        self.valid_count += 1
        stats = self.stats
        stats.insertions += 1
        stats.insert_events[self.sublevel_by_way[way]] += 1
        if self.track_metadata_energy:
            stats.metadata_events += 1
        if self._plain_lru:
            # Inlined LruReplacement.on_fill (_stamp): one call frame
            # saved per insertion on the hottest placement primitive.
            replacement = self.replacement
            replacement._clock += 1
            line.lru = replacement._clock
        else:
            self.replacement.on_fill(set_idx, way, line)

    def place_moved(self, set_idx: int, way: int,
                    moved: EvictedLine, new_chunk_idx: int,
                    movement_queue_pj: float = 0.0,
                    demoted: bool = True) -> None:
        """Install a line moved from another way of the same set."""
        line = self.sets[set_idx][way]
        if line.valid:
            raise RuntimeError("place_moved into a valid way; extract first")
        if line is INVALID_LINE:
            line = self.sets[set_idx][way] = Line()
        line.valid = True
        line.tag = moved.tag
        self._index[set_idx][moved.tag] = way
        line.dirty = moved.dirty
        line.policy_id = moved.policy_id
        line.chunk_idx = new_chunk_idx
        line.ts = moved.ts
        line.hits = moved.hits
        line.page = moved.page
        line.sampling = moved.sampling
        line.demoted = demoted
        line.lru = moved.lru
        line.rrpv = moved.rrpv
        line.signature = moved.signature
        line.outcome = moved.outcome
        line.is_metadata = moved.is_metadata
        self.valid_count += 1
        stats = self.stats
        stats.movements += 1
        # A movement reads the source way and writes the destination way.
        stats.move_read_events[self.sublevel_by_way[moved.from_way]] += 1
        stats.move_write_events[self.sublevel_by_way[way]] += 1
        # Kept live: the queue charge is an arbitrary per-event float
        # from the placement policy, and movements are rare. Deferring
        # it to an event count would also change accumulated-vs-product
        # rounding and break golden byte-identity for no hot-path win.
        stats.energy.movement_queue_pj += movement_queue_pj
        self.replacement.on_move_in(set_idx, way, line)

    def record_writeback_in(self, set_idx: int, way: int) -> None:
        """An incoming writeback updates a resident line in place.

        Writeback updates do not refresh recency: they are not demand
        reuse, and promoting on them would distort the replacement order.
        """
        line = self.sets[set_idx][way]
        line.dirty = True
        self.stats.writebacks_in += 1
        self.stats.wb_in_events[self.sublevel_by_way[way]] += 1

    def record_writeback_out(self, from_way: int) -> None:
        """Charge the read of a dirty line leaving this level."""
        self.stats.writebacks_out += 1
        self.stats.wb_out_events[self.sublevel_by_way[from_way]] += 1

    def record_bypass(self, slip_class: str = "abp",
                      dirty: bool = False) -> None:
        self.stats.bypasses += 1
        self.stats.insertions_by_class[slip_class] += 1
        if dirty:
            self.stats.dirty_bypass_forwards += 1

    # ------------------------------------------------------------------
    # Invalidation (coherence / multi-level consistency)
    # ------------------------------------------------------------------
    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Invalidate a line if present; returns its snapshot if dirty."""
        set_idx, way = self.probe(line_addr)
        if way is None:
            return None
        evicted = self.extract(set_idx, way)
        if evicted is not None:
            self.record_departure(evicted)
        return evicted

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests)
    # ------------------------------------------------------------------
    def resident_lines(self) -> List[Line]:
        """Valid lines, via the per-set probe indices.

        O(resident) instead of O(capacity): cold sets contribute
        nothing, and finalize() on a short run no longer scans every
        way of every set.
        """
        sets = self.sets
        return [
            sets[set_idx][way]
            for set_idx, index in enumerate(self._index)
            for way in index.values()
        ]

    def occupancy(self) -> float:
        return self.valid_count / self.cfg.lines
