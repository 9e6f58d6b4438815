"""SimCheck: runtime invariant checking for the per-access walk.

:class:`HierarchyInvariantChecker` wraps one :class:`~repro.mem.
hierarchy.MemoryHierarchy` with cheap checkers, run every ``period``
accesses and at ``finalize()``. Nothing in the simulator installs it:
the tests' ``walked`` fixture does, on the hierarchies it walks, so the
walked side of every kernel-vs-walk comparison is checked. It checks:

* **array/index consistency** — per-set tag uniqueness and agreement
  between the line array and the O(1) probe index;
* **chunk residence** — every SLIP-managed line physically sits in a
  way belonging to the chunk its metadata claims, so per-chunk
  occupancy can never exceed the chunk's sublevel ways;
* **counter truth** — shadow counters wrap the accounting primitives
  (`record_hit`, `record_miss`, `place_fill`, ...) and must agree with
  the published :class:`~repro.mem.stats.LevelStats`, which implies
  ``hits + misses == accesses`` against the *observed* event stream;
* **line conservation** — ``insertions == departures + resident`` per
  level, measured against the last stats reset, and every movement read
  pairs with a movement write;
* **writeback conservation** — every dirty line read out of a level
  (or forwarded by a dirty bypass) is absorbed exactly once by a lower
  level's in-place update or a DRAM write;
* **energy monotonicity** — per-level energy ledgers are finite,
  non-negative and never decrease between checks;
* **EOU ledger** — EOU energy equals optimizations times the
  configured per-op cost, and TLB block cycles match optimizations.

Violations raise :class:`InvariantViolation` naming the invariant,
level, set/way and counter involved. The checks are wrappers installed
on instances, so an unchecked hierarchy pays nothing.
"""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional

_DEFAULT_PERIOD = 256


class InvariantViolation(Exception):
    """A simulator invariant failed; names the exact state involved."""

    def __init__(self, invariant: str, message: str, *,
                 level: Optional[str] = None,
                 set_idx: Optional[int] = None,
                 way: Optional[int] = None,
                 counter: Optional[str] = None) -> None:
        self.invariant = invariant
        self.level = level
        self.set_idx = set_idx
        self.way = way
        self.counter = counter
        where = [f"[{invariant}]"]
        if level is not None:
            where.append(f"level={level}")
        if set_idx is not None:
            where.append(f"set={set_idx}")
        if way is not None:
            where.append(f"way={way}")
        if counter is not None:
            where.append(f"counter={counter}")
        super().__init__(" ".join(where) + ": " + message)


class _Shadow:
    """Independent event counts observed at the accounting primitives."""

    __slots__ = ("demand_hits", "metadata_hits", "demand_misses",
                 "metadata_misses", "insertions", "departures",
                 "writebacks_out", "writebacks_in",
                 "dirty_bypass_forwards")

    def __init__(self) -> None:
        self.zero()

    def zero(self) -> None:
        self.demand_hits = 0
        self.metadata_hits = 0
        self.demand_misses = 0
        self.metadata_misses = 0
        self.insertions = 0
        self.departures = 0
        self.writebacks_out = 0
        self.writebacks_in = 0
        self.dirty_bypass_forwards = 0


class LevelChecker:
    """Shadow accounting plus structural checks for one cache level."""

    def __init__(self, level: Any, space: Any = None) -> None:
        self.level = level
        self.space = space
        self.shadow = _Shadow()
        self.resident_baseline = self._resident_count()
        self._energy_floor: dict = {}
        self.finalized = False
        self._install()

    # ------------------------------------------------------------------
    def _resident_count(self) -> int:
        return sum(
            1 for line_set in self.level.sets for line in line_set
            if line.valid
        )

    def resync(self) -> None:
        """Re-baseline after a stats reset (warmup boundary)."""
        self.shadow.zero()
        self.resident_baseline = self._resident_count()
        self._energy_floor = {}
        self.finalized = False

    # ------------------------------------------------------------------
    def _install(self) -> None:
        level, shadow = self.level, self.shadow

        orig_hit = level.record_hit

        def record_hit(set_idx, way, is_write, is_metadata=False):
            if is_metadata:
                shadow.metadata_hits += 1
            else:
                shadow.demand_hits += 1
            return orig_hit(set_idx, way, is_write, is_metadata)

        level.record_hit = record_hit

        orig_miss = level.record_miss

        def record_miss(is_metadata=False):
            if is_metadata:
                shadow.metadata_misses += 1
            else:
                shadow.demand_misses += 1
            return orig_miss(is_metadata)

        level.record_miss = record_miss

        orig_fill = level.place_fill

        def place_fill(*args, **kwargs):
            shadow.insertions += 1
            return orig_fill(*args, **kwargs)

        level.place_fill = place_fill

        orig_departure = level.record_departure

        def record_departure(evicted):
            shadow.departures += 1
            return orig_departure(evicted)

        level.record_departure = record_departure

        orig_wb_out = level.record_writeback_out

        def record_writeback_out(from_way):
            shadow.writebacks_out += 1
            return orig_wb_out(from_way)

        level.record_writeback_out = record_writeback_out

        orig_wb_in = level.record_writeback_in

        def record_writeback_in(set_idx, way):
            shadow.writebacks_in += 1
            return orig_wb_in(set_idx, way)

        level.record_writeback_in = record_writeback_in

        orig_bypass = level.record_bypass

        def record_bypass(slip_class="abp", dirty=False):
            if dirty:
                shadow.dirty_bypass_forwards += 1
            return orig_bypass(slip_class, dirty)

        level.record_bypass = record_bypass

        orig_reset = level.reset_stats

        def reset_stats():
            orig_reset()
            self.resync()

        level.reset_stats = reset_stats

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self) -> int:
        """Run every level invariant; returns the resident-line count."""
        resident = self._check_index()
        if self.space is not None:
            self._check_chunk_residence()
        self._check_counters()
        self._check_conservation(resident)
        self._check_energy()
        return resident

    def _check_index(self) -> int:
        level = self.level
        name = level.cfg.name
        resident = 0
        for set_idx, line_set in enumerate(level.sets):
            index = level._index[set_idx]
            seen: dict = {}
            valid = 0
            for way, line in enumerate(line_set):
                if not line.valid:
                    continue
                resident += 1
                valid += 1
                if line.tag < 0:
                    raise InvariantViolation(
                        "tag-uniqueness", f"valid line with tag {line.tag}",
                        level=name, set_idx=set_idx, way=way)
                if line.tag in seen:
                    raise InvariantViolation(
                        "tag-uniqueness",
                        f"tag {line.tag:#x} present in ways "
                        f"{seen[line.tag]} and {way}",
                        level=name, set_idx=set_idx, way=way)
                seen[line.tag] = way
                if index.get(line.tag) != way:
                    raise InvariantViolation(
                        "index-consistency",
                        f"probe index maps tag {line.tag:#x} to "
                        f"{index.get(line.tag)}, array holds it in way "
                        f"{way}",
                        level=name, set_idx=set_idx, way=way)
            if len(index) != valid:
                raise InvariantViolation(
                    "index-consistency",
                    f"probe index holds {len(index)} tags, array holds "
                    f"{valid} valid lines",
                    level=name, set_idx=set_idx)
        return resident

    def _check_chunk_residence(self) -> None:
        from ..mem.cache import NO_CHUNK

        level, space = self.level, self.space
        name = level.cfg.name
        for set_idx, line_set in enumerate(level.sets):
            for way, line in enumerate(line_set):
                if not line.valid or line.chunk_idx == NO_CHUNK:
                    continue
                if not 0 <= line.policy_id < len(space):
                    raise InvariantViolation(
                        "chunk-occupancy",
                        f"policy id {line.policy_id} out of range "
                        f"[0, {len(space)})",
                        level=name, set_idx=set_idx, way=way)
                num_chunks = space.num_chunks(line.policy_id)
                if not 0 <= line.chunk_idx < num_chunks:
                    raise InvariantViolation(
                        "chunk-occupancy",
                        f"chunk index {line.chunk_idx} out of range for "
                        f"SLIP {line.policy_id} with {num_chunks} chunks",
                        level=name, set_idx=set_idx, way=way)
                ways = space.chunk_ways(line.policy_id, line.chunk_idx)
                if way not in ways:
                    raise InvariantViolation(
                        "chunk-occupancy",
                        f"line claims chunk {line.chunk_idx} of SLIP "
                        f"{line.policy_id} (ways {ways}) but resides in "
                        f"way {way}; chunk occupancy would exceed its "
                        f"sublevel ways",
                        level=name, set_idx=set_idx, way=way)

    def _check_counters(self) -> None:
        stats, shadow = self.level.stats, self.shadow
        name = self.level.cfg.name
        pairs = (
            ("demand_hits", stats.demand_hits, shadow.demand_hits),
            ("metadata_hits", stats.metadata_hits, shadow.metadata_hits),
            ("demand_misses", stats.demand_misses, shadow.demand_misses),
            ("metadata_misses", stats.metadata_misses,
             shadow.metadata_misses),
            ("insertions", stats.insertions, shadow.insertions),
            ("writebacks_out", stats.writebacks_out, shadow.writebacks_out),
            ("writebacks_in", stats.writebacks_in, shadow.writebacks_in),
            ("dirty_bypass_forwards", stats.dirty_bypass_forwards,
             shadow.dirty_bypass_forwards),
        )
        for counter, published, observed in pairs:
            if published != observed:
                raise InvariantViolation(
                    "counter-truth",
                    f"published {counter}={published} but {observed} "
                    f"events were observed; hits+misses no longer match "
                    f"accesses",
                    level=name, counter=counter)
        if not self.finalized:
            histogram_total = sum(stats.reuse_histogram.values())
            if histogram_total != shadow.departures:
                raise InvariantViolation(
                    "counter-truth",
                    f"reuse histogram counts {histogram_total} departures "
                    f"but {shadow.departures} were observed",
                    level=name, counter="reuse_histogram")

    def _check_conservation(self, resident: int) -> None:
        shadow = self.shadow
        name = self.level.cfg.name
        expected = self.resident_baseline + shadow.insertions - \
            shadow.departures
        if resident != expected:
            raise InvariantViolation(
                "line-conservation",
                f"insertions({shadow.insertions}) != "
                f"departures({shadow.departures}) + resident delta "
                f"({resident} now vs {self.resident_baseline} at reset)",
                level=name, counter="insertions==evictions+resident")
        # A movement reads its line out of one way and writes it into
        # another, so the two tallies move together.
        stats = self.level.stats
        reads = sum(stats.move_read_events)
        writes = sum(stats.move_write_events)
        if reads != writes:
            raise InvariantViolation(
                "line-conservation",
                f"{reads} movement reads vs {writes} movement writes",
                level=name, counter="move_read_events==move_write_events")

    def _check_energy(self) -> None:
        # Energy accounting is deferred to integer event counters;
        # materialize (idempotent) so the audit sees real picojoules,
        # and corrupted counters surface as negative/shrinking fields.
        energy = self.level.stats.materialize().energy
        name = self.level.cfg.name
        for field in dataclass_fields(energy):
            value = getattr(energy, field.name)
            if not math.isfinite(value) or value < 0.0:
                raise InvariantViolation(
                    "energy-monotonicity",
                    f"{field.name}={value!r} is negative or non-finite",
                    level=name, counter=field.name)
            floor = self._energy_floor.get(field.name, 0.0)
            if value < floor:
                raise InvariantViolation(
                    "energy-monotonicity",
                    f"{field.name} decreased from {floor!r} to {value!r}",
                    level=name, counter=field.name)
            self._energy_floor[field.name] = value


class HierarchyInvariantChecker:
    """Periodic full-state checks over one :class:`MemoryHierarchy`."""

    def __init__(self, hierarchy: Any, period: int = _DEFAULT_PERIOD,
                 l3_shared: bool = False) -> None:
        self.hierarchy = hierarchy
        self.period = max(1, period)
        self.l3_shared = l3_shared
        self.checks_run = 0
        self._since_check = 0

        self.level_checkers: List[LevelChecker] = []
        for level, placement in (
            (hierarchy.l1, hierarchy.l1_placement),
            (hierarchy.l2, hierarchy.l2_placement),
            (hierarchy.l3, hierarchy.l3_placement),
        ):
            existing = getattr(level, "_simcheck", None)
            if existing is not None:
                # Shared level (multicore L3): one checker, one wrap.
                self.level_checkers.append(existing)
                continue
            checker = LevelChecker(level, getattr(placement, "space", None))
            level._simcheck = checker
            self.level_checkers.append(checker)

        eous = getattr(hierarchy.runtime, "eous", None)
        self.eous = list(eous.values()) if eous else []
        self._install_triggers()

    # ------------------------------------------------------------------
    def _install_triggers(self) -> None:
        hierarchy = self.hierarchy
        orig_access = hierarchy.access

        def access(line_addr, is_write=False):
            latency = orig_access(line_addr, is_write)
            self._since_check += 1
            if self._since_check >= self.period:
                self._since_check = 0
                self.check()
            return latency

        hierarchy.access = access

        orig_finalize = hierarchy.finalize

        def finalize():
            # Full check on the pre-finalize state, then let finalize
            # fold resident lines into the reuse histogram (which is
            # exactly the drift the histogram check would flag).
            self.check()
            orig_finalize()
            for checker in self.level_checkers:
                checker.finalized = True

        hierarchy.finalize = finalize

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run every invariant; raises InvariantViolation on failure."""
        self.checks_run += 1
        for checker in self.level_checkers:
            checker.check()
        if not self.l3_shared:
            self._check_writeback_conservation()
        self._check_eous()

    def _check_writeback_conservation(self) -> None:
        shadows = [c.shadow for c in self.level_checkers]
        emitted = sum(s.writebacks_out for s in shadows) + \
            sum(s.dirty_bypass_forwards for s in shadows)
        l2, l3 = self.level_checkers[1].shadow, self.level_checkers[2].shadow
        absorbed = (l2.writebacks_in + l3.writebacks_in
                    + self.hierarchy.counters.dram_writebacks)
        if emitted != absorbed:
            raise InvariantViolation(
                "writeback-conservation",
                f"{emitted} dirty lines left their levels but {absorbed} "
                f"writebacks were absorbed below "
                f"(L2 in={l2.writebacks_in}, L3 in={l3.writebacks_in}, "
                f"DRAM={self.hierarchy.counters.dram_writebacks})",
                counter="writebacks_out==writebacks_in+dram_writebacks")

    def _check_eous(self) -> None:
        for eou in self.eous:
            stats = eou.stats
            if stats.optimizations < 0:
                raise InvariantViolation(
                    "eou-energy",
                    f"negative optimization count {stats.optimizations}",
                    counter="optimizations")
            # ``stats.energy_pj`` is a materialized product of the two
            # fields below, so the old accumulated-vs-expected ledger
            # comparison is structural now; what can still drift is the
            # per-op cost (e.g. a stats reset that drops the configured
            # value) and the cycle ledger.
            if stats.energy_pj_per_op != eou.energy_pj_per_op:
                raise InvariantViolation(
                    "eou-energy",
                    f"stats carry {stats.energy_pj_per_op} pJ/op but the "
                    f"EOU was configured with {eou.energy_pj_per_op} "
                    f"pJ/op (stats object lost the per-op cost)",
                    counter="energy_pj_per_op")
            if stats.tlb_block_cycles != stats.optimizations:
                raise InvariantViolation(
                    "eou-energy",
                    f"{stats.tlb_block_cycles} TLB block cycles for "
                    f"{stats.optimizations} optimizations",
                    counter="tlb_block_cycles")


# ----------------------------------------------------------------------
# Filtered-replay conservation (always on)
# ----------------------------------------------------------------------
def check_capture_replay(hierarchies: Any, captures: Any,
                         slip_kind: bool) -> None:
    """``capture-replay-conservation``: audit one finished replay.

    Full SimCheck cannot observe a replay (its per-access wrappers
    never see the events a replay skips, so it checks only the walk);
    this O(1) audit runs at the end of *every* replay instead, over one
    hierarchy and capture per core.
    It checks that the back end consumed exactly the captured boundary
    events and that the merged front-end statistics still satisfy the
    line/writeback conservation and energy-monotonicity properties of a
    direct run:

    * every captured demand miss / metadata access probed the core's L2
      exactly once (for the slip kind, the metadata count is instead
      balanced against the live runtime's PTE + distribution fetch
      counters);
    * every captured L1 writeback was absorbed exactly once below (L2/L3
      in-place update or DRAM write, net of the writebacks the back end
      itself emitted), summed over the cores: an L3 shared by several
      cores counts once;
    * the merged L1 statistics agree with the hierarchy counters and
      with the captured boundary (hits + misses == accesses, misses ==
      demand events, writebacks_out == writeback events);
    * every merged per-level energy field is finite and non-negative.
    """
    name = "capture-replay-conservation"
    absorbed = emitted_below = captured_wbs = 0
    merged: List[Any] = []
    l3s: Dict[int, Any] = {}
    for core, (hierarchy, capture) in enumerate(zip(hierarchies,
                                                    captures)):
        label = f"[{core}]" if len(hierarchies) > 1 else ""
        counts = capture.frozen["event_counts"]
        l1 = hierarchy.l1.stats
        l2 = hierarchy.l2.stats
        counters = hierarchy.counters
        l3s[id(hierarchy.l3)] = hierarchy.l3.stats

        demand_consumed = l2.demand_hits + l2.demand_misses
        if demand_consumed != counts["demand"]:
            raise InvariantViolation(
                name,
                f"replay consumed {demand_consumed} demand events but "
                f"the capture holds {counts['demand']}",
                level="L2" + label, counter="demand_events")
        metadata_consumed = l2.metadata_hits + l2.metadata_misses
        if slip_kind:
            runtime_stats = hierarchy.runtime.stats
            expected_metadata = (runtime_stats.tlb_miss_fetches
                                 + runtime_stats.distribution_fetches)
        else:
            expected_metadata = counts["metadata"]
        if metadata_consumed != expected_metadata:
            raise InvariantViolation(
                name,
                f"replay consumed {metadata_consumed} metadata events, "
                f"expected {expected_metadata}",
                level="L2" + label, counter="metadata_events")
        absorbed += l2.writebacks_in + counters.dram_writebacks
        emitted_below += l2.writebacks_out + l2.dirty_bypass_forwards
        captured_wbs += counts["writeback"]
        if counters.demand_accesses != l1.demand_hits + l1.demand_misses:
            raise InvariantViolation(
                name,
                f"merged counters claim {counters.demand_accesses} demand "
                f"accesses, frozen L1 saw "
                f"{l1.demand_hits + l1.demand_misses}",
                level="L1" + label, counter="demand_accesses")
        if counters.l1_hits != l1.demand_hits:
            raise InvariantViolation(
                name,
                f"merged counters claim {counters.l1_hits} L1 hits, "
                f"frozen L1 stats claim {l1.demand_hits}",
                level="L1" + label, counter="l1_hits")
        if l1.demand_misses != counts["demand"]:
            raise InvariantViolation(
                name,
                f"frozen L1 saw {l1.demand_misses} demand misses but the "
                f"capture holds {counts['demand']} demand events",
                level="L1" + label, counter="demand_misses")
        if l1.writebacks_out != counts["writeback"]:
            raise InvariantViolation(
                name,
                f"frozen L1 emitted {l1.writebacks_out} writebacks but "
                f"the capture holds {counts['writeback']} writeback "
                f"events",
                level="L1" + label, counter="writebacks_out")
        merged += [l1, l2]
    for l3 in l3s.values():
        absorbed += l3.writebacks_in
        emitted_below += l3.writebacks_out + l3.dirty_bypass_forwards
    if absorbed - emitted_below != captured_wbs:
        raise InvariantViolation(
            name,
            f"{captured_wbs} captured L1 writebacks but the back end "
            f"absorbed {absorbed} and emitted {emitted_below} of its own",
            counter="writeback_events")
    for stats in merged + list(l3s.values()):
        for fld in dataclass_fields(stats.energy):
            value = getattr(stats.energy, fld.name)
            if not math.isfinite(value) or value < 0.0:
                raise InvariantViolation(
                    name,
                    f"merged energy field {fld.name}={value!r}",
                    level=stats.name, counter=fld.name)


# ----------------------------------------------------------------------
# Vector-replay conservation (always on)
# ----------------------------------------------------------------------
def check_vector_replay(l2_legs: Any, l3_ops: Any, l3_measured: Any,
                        l3_tally: Any, *, dram_demand: int,
                        dram_metadata: int) -> None:
    """``vector-replay-conservation``: audit one batched back-end run.

    Runs inside :func:`repro.sim.vector_replay.replay_capture_vector`
    before the tallies are published, complementing the end-of-replay
    ``capture-replay-conservation`` audit with the internal identities
    of the batched kernel itself:

    * every measured access event of a level's stream was consumed
      exactly once (hits + misses == events, split by demand/metadata);
    * every movement read pairs with a movement write;
    * the derived DRAM read counts equal the L3 miss tallies (every L3
      access miss is exactly one DRAM read);
    * a level never absorbs more writebacks than its stream carries.

    ``l2_legs`` holds one ``(ops, measured, tally)`` triple per core's
    private L2; the L3 stream is the cores' merged one.
    """
    import numpy as np

    name = "vector-replay-conservation"
    legs = [(f"L2[{core}]" if len(l2_legs) > 1 else "L2", *leg)
            for core, leg in enumerate(l2_legs)]
    legs.append(("L3", l3_ops, l3_measured, l3_tally))
    for label, stream_ops, stream_meas, tally in legs:
        demand_events = int(np.count_nonzero(
            (stream_ops == 0) & stream_meas))
        metadata_events = int(np.count_nonzero(
            (stream_ops == 1) & stream_meas))
        wb_events = int(np.count_nonzero(
            (stream_ops == 2) & stream_meas))
        demand_seen = sum(tally.dh_sub) + tally.demand_misses
        if demand_seen != demand_events:
            raise InvariantViolation(
                name,
                f"kernel consumed {demand_seen} measured demand events "
                f"of {demand_events} in the stream",
                level=label, counter="demand_events")
        metadata_seen = sum(tally.mh_sub) + tally.metadata_misses
        if metadata_seen != metadata_events:
            raise InvariantViolation(
                name,
                f"kernel consumed {metadata_seen} measured metadata "
                f"events of {metadata_events} in the stream",
                level=label, counter="metadata_events")
        if sum(tally.mvr_sub) != sum(tally.mvw_sub):
            raise InvariantViolation(
                name,
                f"{sum(tally.mvr_sub)} movement reads vs "
                f"{sum(tally.mvw_sub)} movement writes",
                level=label, counter="move_events")
        if sum(tally.wbin_sub) > wb_events:
            raise InvariantViolation(
                name,
                f"absorbed {sum(tally.wbin_sub)} writebacks but the "
                f"stream carries only {wb_events}",
                level=label, counter="wb_in_events")
    if dram_demand != l3_tally.demand_misses:
        raise InvariantViolation(
            name,
            f"{dram_demand} DRAM demand reads vs "
            f"{l3_tally.demand_misses} L3 demand misses",
            level="DRAM", counter="dram_demand_reads")
    if dram_metadata != l3_tally.metadata_misses:
        raise InvariantViolation(
            name,
            f"{dram_metadata} DRAM metadata reads vs "
            f"{l3_tally.metadata_misses} L3 metadata misses",
            level="DRAM", counter="dram_metadata_reads")


# ----------------------------------------------------------------------
# SLIP vector-replay conservation (always on)
# ----------------------------------------------------------------------
def check_slip_vector_replay(l2_legs: Any, l3_tally: Any, *,
                             dram_writebacks: int) -> None:
    """``slip-vector-replay-conservation``: audit one phase-split run.

    Runs inside :func:`repro.sim.vector_replay_slip.
    replay_capture_vector_slip` before the tallies are published. The
    SLIP kernel records level events in two independent ways — packed
    annotation bytes consumed by a phase-2 bincount (hits, misses,
    absorbed writebacks) and inline tallies for the rare events
    (insertions, bypasses, movements, writebacks out) — so the streams
    can be balanced against each other, against the capture, and
    against the live runtime's metadata-fetch ledger:

    * at each core's L2, every measured captured demand event was
      consumed exactly once, and every metadata line the core's live
      runtime fetched (PTE line plus distribution lines,
      ``tlb_miss_fetches + distribution_fetches``) appears once in both
      the fetch-count stream and the L2 annotation stream;
    * at each level, fills partition into insertions and ABP bypasses
      (``insertions + bypasses == misses``) and the per-class tally
      covers them; movement reads pair with movement writes;
    * the L3 stream carries exactly the sum of every core's L2 misses
      (demand and metadata separately), and the L3 writeback stream
      exactly the sum of every core's forwarded plus evicted-dirty L2
      writebacks;
    * DRAM absorbs exactly the L3-forwarded plus L3-evicted writebacks,
      summed over the cores that caused them.

    ``l2_legs`` holds one ``(demand_events, metadata_events,
    fetch_events, wb_events, tally)`` tuple per core's private L2:
    measured captured demand misses, the runtime's metadata ledger, the
    fetch-count stream total, measured captured L1 writebacks, and the
    L2 tally. The L3 is the cores' shared one.
    """
    name = "slip-vector-replay-conservation"
    tallies = []
    for core, (demand_events, metadata_events, fetch_events, wb_events,
               l2_tally) in enumerate(l2_legs):
        label = f"L2[{core}]" if len(l2_legs) > 1 else "L2"
        tallies.append((label, l2_tally))
        l2_demand = sum(l2_tally.dh_sub) + l2_tally.demand_misses
        if l2_demand != demand_events:
            raise InvariantViolation(
                name,
                f"kernel consumed {l2_demand} measured demand events of "
                f"{demand_events} in the capture",
                level=label, counter="demand_events")
        l2_meta = sum(l2_tally.mh_sub) + l2_tally.metadata_misses
        if l2_meta != fetch_events:
            raise InvariantViolation(
                name,
                f"kernel consumed {l2_meta} measured metadata events but "
                f"the fetch stream carries {fetch_events}",
                level=label, counter="metadata_events")
        if fetch_events != metadata_events:
            raise InvariantViolation(
                name,
                f"fetch stream carries {fetch_events} metadata lines but "
                f"the runtime ledger accounts for {metadata_events}",
                level=label, counter="metadata_fetches")
        l2_wb = sum(l2_tally.wbin_sub) + l2_tally.forwarded_wbs
        if l2_wb != wb_events:
            raise InvariantViolation(
                name,
                f"L2 writeback stream consumed {l2_wb} events but the "
                f"capture holds {wb_events}",
                level=label, counter="wb_in_events")
    tallies.append(("L3", l3_tally))
    for label, tally in tallies:
        fills = tally.demand_misses + tally.metadata_misses
        placed = sum(tally.ins_sub) + tally.bypasses
        if placed != fills:
            raise InvariantViolation(
                name,
                f"{sum(tally.ins_sub)} insertions + {tally.bypasses} "
                f"bypasses != {fills} misses",
                level=label, counter="insertions")
        if sum(tally.class_counts) != placed:
            raise InvariantViolation(
                name,
                f"class tally covers {sum(tally.class_counts)} fills "
                f"of {placed}",
                level=label, counter="insertions_by_class")
        if sum(tally.mvr_sub) != sum(tally.mvw_sub):
            raise InvariantViolation(
                name,
                f"{sum(tally.mvr_sub)} movement reads vs "
                f"{sum(tally.mvw_sub)} movement writes",
                level=label, counter="move_events")
    l2_tallies = [leg[4] for leg in l2_legs]
    l2_demand_misses = sum(t.demand_misses for t in l2_tallies)
    l3_demand = sum(l3_tally.dh_sub) + l3_tally.demand_misses
    if l3_demand != l2_demand_misses:
        raise InvariantViolation(
            name,
            f"L3 saw {l3_demand} demand events but the L2s missed "
            f"{l2_demand_misses}",
            level="L3", counter="demand_events")
    l2_metadata_misses = sum(t.metadata_misses for t in l2_tallies)
    l3_meta = sum(l3_tally.mh_sub) + l3_tally.metadata_misses
    if l3_meta != l2_metadata_misses:
        raise InvariantViolation(
            name,
            f"L3 saw {l3_meta} metadata events but the L2s missed "
            f"{l2_metadata_misses}",
            level="L3", counter="metadata_events")
    l3_wb_in = sum(l3_tally.wbin_sub) + l3_tally.forwarded_wbs
    l3_wb_expect = sum(t.forwarded_wbs + sum(t.wbout_sub)
                       for t in l2_tallies)
    if l3_wb_in != l3_wb_expect:
        raise InvariantViolation(
            name,
            f"L3 writeback stream consumed {l3_wb_in} events but the "
            f"L2s emitted {l3_wb_expect}",
            level="L3", counter="wb_in_events")
    dram_expect = l3_tally.forwarded_wbs + sum(l3_tally.wbout_sub)
    if dram_writebacks != dram_expect:
        raise InvariantViolation(
            name,
            f"{dram_writebacks} DRAM writebacks vs {dram_expect} "
            f"emitted by L3",
            level="DRAM", counter="dram_writebacks")


# ----------------------------------------------------------------------
# Vector-front-end conservation (always on)
# ----------------------------------------------------------------------
def check_vector_frontend(*, n: int, warmup: int, event_boundary: int,
                          total_events: int, total_demand: int,
                          total_metadata: int, total_writeback: int,
                          l1_hits: int, l1_misses: int, l1_writebacks: int,
                          tlb_hits: int, tlb_misses: int,
                          histogram_total: int, measured_evictions: int,
                          residents: int, capacity: int) -> None:
    """``vector-frontend-conservation``: audit one batched capture.

    Runs inside :func:`repro.sim.vector_frontend.
    capture_front_end_vector` before the capture is packaged,
    balancing the emitted event streams against the frozen front-end
    tallies the same capture carries:

    * every measured access resolved to exactly one L1 outcome and one
      TLB outcome (hits + misses == measured accesses for both);
    * the event stream partitions into demand / metadata / writeback
      ops, the warmup boundary splits it consistently with the frozen
      measured-phase counts, and no access emitted a writeback without
      a demand miss;
    * the reuse histogram covers exactly the measured evictions plus
      the lines resident at the end of the trace, and residency never
      exceeds the L1's capacity.
    """
    name = "vector-frontend-conservation"
    if l1_hits + l1_misses != n - warmup:
        raise InvariantViolation(
            name,
            f"L1 resolved {l1_hits} hits + {l1_misses} misses for "
            f"{n - warmup} measured accesses",
            level="L1", counter="demand_events")
    if tlb_hits + tlb_misses != n - warmup:
        raise InvariantViolation(
            name,
            f"TLB resolved {tlb_hits} hits + {tlb_misses} misses for "
            f"{n - warmup} measured accesses",
            level="TLB", counter="tlb_probes")
    if total_demand + total_metadata + total_writeback != total_events:
        raise InvariantViolation(
            name,
            f"{total_demand}+{total_metadata}+{total_writeback} typed "
            f"events vs {total_events} stream slots",
            level="L1", counter="event_stream")
    measured_events = l1_misses + tlb_misses + l1_writebacks
    if event_boundary + measured_events != total_events:
        raise InvariantViolation(
            name,
            f"boundary {event_boundary} + {measured_events} measured "
            f"events != {total_events} stream slots",
            level="L1", counter="event_boundary")
    if total_writeback > total_demand:
        raise InvariantViolation(
            name,
            f"{total_writeback} writebacks exceed {total_demand} "
            f"demand misses",
            level="L1", counter="writebacks_out")
    if histogram_total != measured_evictions + residents:
        raise InvariantViolation(
            name,
            f"reuse histogram holds {histogram_total} departures vs "
            f"{measured_evictions} evictions + {residents} residents",
            level="L1", counter="reuse_histogram")
    if not 0 <= residents <= capacity:
        raise InvariantViolation(
            name,
            f"{residents} resident lines in a {capacity}-line L1",
            level="L1", counter="residents")

