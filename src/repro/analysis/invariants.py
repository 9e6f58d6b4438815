"""Always-on conservation audits of the capture and replay kernels.

Each audit balances one finished kernel run's tallies against the
events it consumed, in O(1) or one pass over its streams, and raises
:class:`InvariantViolation` naming the level and counter on a failure:

* :func:`check_capture_replay` — ``capture-replay-conservation``, at
  the end of every replay, over one hierarchy and capture per core;
* :func:`check_vector_replay` — ``vector-replay-conservation``, inside
  the baseline-kind replay kernel;
* :func:`check_slip_vector_replay` — ``slip-vector-replay-conservation``,
  inside the SLIP replay kernel;
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

