"""Always-on conservation audits of the capture and replay kernels.

Each audit balances one finished kernel run's tallies against the
events it consumed, in O(1) or one pass over its streams, and raises
:class:`InvariantViolation` naming the level and counter on a failure:

* :func:`check_capture_replay` — ``capture-replay-conservation``, at
  the end of every replay, over one hierarchy and capture per core;
* :func:`check_replay_tallies` — ``vector-replay-conservation``, in
  the one publish step of both replay kernels, over their shared
  :class:`~repro.sim.vector_replay.LevelTally`;
* :func:`check_vector_frontend` — ``vector-frontend-conservation``,
  inside the capture kernel.

The per-access walk has no audit of its own: it is the golden
reference the kernels are compared with, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional


class InvariantViolation(Exception):
    """A simulator invariant failed; names the level and counter."""

    def __init__(self, invariant: str, message: str, *,
                 level: Optional[str] = None,
                 counter: Optional[str] = None) -> None:
        self.invariant = invariant
        self.level = level
        self.counter = counter
        where = [f"[{invariant}]"]
        if level is not None:
            where.append(f"level={level}")
        if counter is not None:
            where.append(f"counter={counter}")
        super().__init__(" ".join(where) + ": " + message)


# ----------------------------------------------------------------------
# Filtered-replay conservation (always on)
# ----------------------------------------------------------------------
def check_capture_replay(hierarchies: Any, captures: Any,
                         slip_kind: bool) -> None:
    """``capture-replay-conservation``: audit one finished replay.

    This O(1) audit runs at the end of every replay, over one hierarchy
    and capture per core. It checks that the back end consumed exactly
    the captured boundary events and that the merged front-end
    statistics still satisfy the line/writeback conservation and
    energy-monotonicity properties of a direct run:

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
# Replay-kernel conservation (always on)
# ----------------------------------------------------------------------
def check_replay_tallies(l2_legs: Any, l3_tally: Any, *, dram_demand: int,
                         dram_metadata: int, dram_writebacks: int) -> None:
    """``vector-replay-conservation``: audit one replay kernel's tallies.

    Both replay kernels call it through their one publish step
    (:func:`repro.sim.vector_replay.publish_replay`), before anything
    is published. ``l2_legs`` holds one ``(tally, demand_events,
    metadata_events, wb_events)`` tuple per core's private L2: its
    :class:`~repro.sim.vector_replay.LevelTally` and the measured events
    it had to consume. Demand and writeback events are the capture's;
    metadata events are the capture's too for the baseline kinds, and
    the live runtime's fetch ledger (``tlb_miss_fetches +
    distribution_fetches``) for the SLIP kernel. The L3 is the cores'
    shared one. Per level:

    * consumed demand and metadata events (hits + misses) equal the
      expected ones; the L3 expects exactly the L2s' misses;
    * absorbed plus forwarded writebacks equal the writeback events;
      the L3 expects the L2s' forwarded plus evicted-dirty writebacks;
    * fills partition into insertions and ABP bypasses (``insertions +
      bypasses == misses``), and the class tally covers every fill;
    * movement reads pair with movement writes.

    Below the L3, DRAM reads equal the L3 misses (demand and metadata
    apart), and DRAM writes equal the L3's forwarded plus evicted-dirty
    writebacks, summed over the cores that caused them.
    """
    name = "vector-replay-conservation"
    l2s = [leg[0] for leg in l2_legs]
    levels = [(f"L2[{core}]" if len(l2_legs) > 1 else "L2", *leg)
              for core, leg in enumerate(l2_legs)]
    levels.append((
        "L3", l3_tally, sum(t.demand_misses for t in l2s),
        sum(t.metadata_misses for t in l2s),
        sum(t.forwarded_wbs + sum(t.wbout_sub) for t in l2s)))
    for label, tally, demand, metadata, writebacks in levels:
        consumed = sum(tally.dh_sub) + tally.demand_misses
        if consumed != demand:
            raise InvariantViolation(
                name,
                f"kernel consumed {consumed} measured demand events, "
                f"expected {demand}",
                level=label, counter="demand_events")
        consumed = sum(tally.mh_sub) + tally.metadata_misses
        if consumed != metadata:
            raise InvariantViolation(
                name,
                f"kernel consumed {consumed} measured metadata events, "
                f"expected {metadata}",
                level=label, counter="metadata_events")
        consumed = sum(tally.wbin_sub) + tally.forwarded_wbs
        if consumed != writebacks:
            raise InvariantViolation(
                name,
                f"kernel absorbed {sum(tally.wbin_sub)} and forwarded "
                f"{tally.forwarded_wbs} of {writebacks} writeback events",
                level=label, counter="wb_in_events")
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
    for reads, misses, counter in (
            (dram_demand, l3_tally.demand_misses, "dram_demand_reads"),
            (dram_metadata, l3_tally.metadata_misses,
             "dram_metadata_reads")):
        if reads != misses:
            raise InvariantViolation(
                name, f"{reads} DRAM reads vs {misses} L3 misses",
                level="DRAM", counter=counter)
    emitted = l3_tally.forwarded_wbs + sum(l3_tally.wbout_sub)
    if dram_writebacks != emitted:
        raise InvariantViolation(
            name,
            f"{dram_writebacks} DRAM writebacks vs {emitted} emitted by "
            f"L3",
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

