"""Batched front-end capture kernel: the TLB + L1 leg, whole-trace.

A capture stores the policy-invariant facts of the front end of
``MemoryHierarchy.access``: which accesses miss the TLB, which miss
L1, which evictions were dirty, and the frozen front-end statistics.
All of those are pure stack-distance facts of the reference stream —
the TLB is a fully-associative LRU over page numbers and the L1 is a
set-associative LRU over line tags, neither of which observes anything
the back end does — so this module computes them for the *entire*
trace in three batched phases and packages a
:class:`~repro.workloads.capture_store.TraceCapture` without ever
touching a ``Line`` object; a cell replayed from it serializes
byte-identically to the per-access walk
(:func:`repro.sim.filtered.walk_cores`):

* **Phase 1 (TLB)** derives page numbers for the whole stream
  vectorized, run-compresses consecutive same-page references (repeats
  only re-touch the MRU slot, so only run heads can miss), and walks
  the run heads through an ``OrderedDict`` LRU to recover the global
  TLB-miss positions. Each miss interleaves exactly one metadata (PTE
  line) event, mirroring ``BaselineRuntime.on_reference``.
* **Phase 2 (L1)** groups the access stream per set with the same
  stable-argsort machinery the replay kernels use
  (:func:`repro.sim.vector_replay._set_runs`) and runs a tight
  per-set loop over tag / LRU-order / dirty / hit-count columns. The
  eligible L1 is uniform (no sublevel partition) with stock LRU
  replacement, so the victim of a full set is the unique least-recent
  tag and way choice is statistically invisible — no second
  way-assignment pass is needed.
* **Phase 3** scatters the per-access miss / metadata / writeback
  flags into the flat capture event stream with an exclusive cumulative
  sum (preserving the walk's per-access order: metadata, then demand
  miss, then writeback) and assembles the frozen
  ``LevelStats``/``TlbStats``/``RuntimeStats`` from integer tallies via
  :meth:`~repro.mem.stats.LevelStats.adopt_counts` — the same deferred
  accounting path the replay kernels use, so materialized energy is
  bit-identical to the walk's.

The warmup boundary follows the walk's semantics exactly: array state
(TLB contents, resident lines, per-line hit counts) flows through the
``reset_stats()`` boundary while the frozen tallies count only
measured-phase events, and the reuse histogram records a line's
*full-life* hits both at measured-phase eviction and for every line
still resident at the end (``finalize()`` runs after the reset).

The kernel declines (``return None``) every hierarchy it cannot
model: a non-LRU L1 replacement, metadata-energy tracking on L1, or a
sublevel-partitioned L1 geometry (the kernel's closed-form
latency ``(n - warmup) * latency_cycles`` needs uniform way
latencies). The driver asks :func:`frontend_eligible` first and walks
such cells. Declines are recorded on
``hierarchy.kernel_declines.frontend`` and tallied for
``slip-experiments --kernel-report``, mirroring the replay kernels'
``kernel_declines.replay`` contract. Every kernel capture is audited by
the always-on ``vector-frontend-conservation`` invariant before it is
published.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from ..analysis.invariants import check_vector_frontend
from ..core.runtime import RuntimeStats
from ..mem.replacement import LruReplacement
from ..mem.stats import LevelStats
from ..mem.tlb import PTE_TABLE_BASE, PTES_PER_LINE, TlbStats
from ..workloads.capture_store import (
    OP_DEMAND_MISS,
    OP_METADATA,
    OP_WRITEBACK,
    TraceCapture,
)
from ..workloads.trace import Trace
from .config import SystemConfig, line_to_page_shift
from .kernel_report import record_decline, record_success
from .vector_replay import _set_runs

def frontend_eligible(hierarchy) -> bool:
    """Whether a hierarchy's front end matches the kernel's model.

    Exact-type checks, like the replay kernels: anything but the stock
    uniform-LRU L1 over a baseline-kind TLB path walks, recording its
    reason via :func:`~repro.sim.kernel_report.record_decline`.
    """
    l1 = hierarchy.l1
    if type(l1.replacement) is not LruReplacement:
        record_decline(
            hierarchy, "frontend",
            f"l1-replacement:{type(l1.replacement).__name__}")
        return False
    if l1.track_metadata_energy:
        record_decline(hierarchy, "frontend", "l1-metadata-energy")
        return False
    if l1.cfg.sublevel_ways:
        record_decline(hierarchy, "frontend", "l1-geometry")
        return False
    return True


# ----------------------------------------------------------------------
# Phase 1: TLB over the run-compressed page stream
# ----------------------------------------------------------------------
def _tlb_miss_positions(pages: np.ndarray, entries: int) -> np.ndarray:
    """Global positions whose page-grain probe misses the LRU TLB.

    A repeated page can only re-touch the MRU slot, so the LRU state
    (and every hit/miss outcome) is fully determined by the heads of
    maximal same-page runs — the loop below touches only those. The
    SLIP kernel runs it over rd-block numbers for the SLIP-cache.
    """
    n = int(pages.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(pages[1:], pages[:-1], out=change[1:])
    run_starts = np.flatnonzero(change)
    tlb: "OrderedDict[int, None]" = OrderedDict()
    misses: List[int] = []
    append_miss = misses.append
    move_to_end = tlb.move_to_end
    popitem = tlb.popitem
    for i, page in zip(run_starts.tolist(), pages[run_starts].tolist()):
        if page in tlb:
            move_to_end(page)
        else:
            append_miss(i)
            tlb[page] = None
            if len(tlb) > entries:
                popitem(last=False)
    return np.asarray(misses, dtype=np.int64)


# ----------------------------------------------------------------------
# Phase 2: per-set L1 tag/LRU/dirty trajectory
# ----------------------------------------------------------------------
class _L1Tally:
    """Measured-phase integer tallies of the batched L1 walk."""

    __slots__ = ("hits", "misses", "writebacks", "evictions",
                 "residents", "hist")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0        # dirty victims departing measured
        self.evictions = 0         # victims departing measured
        self.residents = 0         # lines resident at end of trace
        self.hist = [0, 0, 0, 0]   # reuse histogram 0 / 1 / 2 / >2


def _run_l1(addrs: np.ndarray, writes: np.ndarray, warmup: int,
            num_sets: int, ways: int):
    """Resolve every L1 outcome with one tight loop per set.

    Returns ``(miss, victim, tally)``: per-access miss flags, the dirty
    victim's tag per access (``-1`` when the fill evicted nothing
    dirty), and the measured-phase tallies. Mirrors the L1
    hit/miss/fill leg of ``MemoryHierarchy.access`` at tag level —
    for a uniform LRU L1 the victim of a full set is the unique
    least-recent tag, so way identity never matters.
    """
    n = int(addrs.shape[0])
    meas = np.arange(n, dtype=np.int64) >= warmup
    miss: List[bool] = [False] * n
    victim: List[int] = [-1] * n
    tally = _L1Tally()
    hist = tally.hist
    hits_meas = misses_meas = wb_meas = evict_meas = residents = 0
    for evt_s, wr_s, tag_s, meas_s in _set_runs(writes, addrs, meas,
                                                num_sets):
        where: Dict[int, int] = {}
        order_: List[int] = []     # resident slots, front == LRU
        f_tag: List[int] = []      # append-only slot columns
        f_dirty: List[bool] = []
        f_hits: List[int] = []     # full-life hits (line.hits survives
        #                            the warmup reset_stats boundary)
        get = where.get
        remove = order_.remove
        push = order_.append
        for e, wr, tag, m in zip(evt_s, wr_s, tag_s, meas_s):
            j = get(tag)
            if j is not None:
                f_hits[j] += 1
                if wr:
                    f_dirty[j] = True
                if m:
                    hits_meas += 1
                remove(j)
                push(j)
                continue
            miss[e] = True
            if m:
                misses_meas += 1
            if len(order_) == ways:
                v = order_.pop(0)
                del where[f_tag[v]]
                if m:
                    h = f_hits[v]
                    hist[h if h < 3 else 3] += 1
                    evict_meas += 1
                if f_dirty[v]:
                    victim[e] = f_tag[v]
                    if m:
                        wb_meas += 1
            j = len(f_tag)
            f_tag.append(tag)
            f_dirty.append(bool(wr))        # write-allocate: born dirty
            f_hits.append(0)
            where[tag] = j
            push(j)
        residents += len(where)
        for j in where.values():            # finalize(): resident reuse
            h = f_hits[j]
            hist[h if h < 3 else 3] += 1
    tally.hits = hits_meas
    tally.misses = misses_meas
    tally.writebacks = wb_meas
    tally.evictions = evict_meas
    tally.residents = residents
    return miss, victim, tally


# ----------------------------------------------------------------------
# Phase 3: event scatter + frozen statistics
# ----------------------------------------------------------------------
def _frozen_frontend(l1cfg, tally: _L1Tally, tlb_misses: int,
                     measured: int) -> Dict:
    """The frozen front-end statistics for one batched capture.

    Built on the exact path the walk lands on: a real
    :class:`~repro.mem.stats.LevelStats` with the L1's energy tables
    attached, counts published through ``adopt_counts`` and energy
    materialized from integer event counts — so every float is
    bit-identical to the walk's.
    """
    stats = LevelStats(l1cfg.name, num_sublevels=1)
    stats.attach_energy_tables(
        l1cfg.sublevel_read_energies_pj,
        l1cfg.sublevel_read_energies_pj,
        l1cfg.metadata_energy_pj,
    )
    hist = tally.hist
    stats.adopt_counts(
        demand_hits=tally.hits,
        demand_misses=tally.misses,
        metadata_hits=0,
        metadata_misses=0,
        hits_by_sublevel=[tally.hits],
        insert_events=[tally.misses],
        move_read_events=[0],
        move_write_events=[0],
        wb_in_events=[0],
        wb_out_events=[tally.writebacks],
        reuse_histogram={"0": hist[0], "1": hist[1],
                         "2": hist[2], ">2": hist[3]},
        insertions_by_class={"abp": 0, "partial_bypass": 0,
                             "default": tally.misses, "other": 0},
    )
    stats.materialize()
    return {
        "l1": asdict(stats),
        "runtime": asdict(RuntimeStats(tlb_miss_fetches=tlb_misses)),
        "tlb": asdict(TlbStats(hits=measured - tlb_misses,
                               misses=tlb_misses)),
        # Uniform L1: every measured probe costs latency_cycles whether
        # it hits or misses (eligibility declines partitioned L1s).
        "l1_latency_cycles": measured * l1cfg.latency_cycles,
        "l1_hits": tally.hits,
        "demand_accesses": measured,
        "event_counts": {
            "demand": tally.misses,
            "metadata": tlb_misses,
            "writeback": tally.writebacks,
        },
    }


def capture_front_end_vector(
    hierarchy,
    trace: Trace,
    config: SystemConfig,
    warmup_fraction: float = 0.25,
) -> Optional[TraceCapture]:
    """Batched front-end capture, or ``None`` when ineligible.

    ``hierarchy`` is only consulted for eligibility (and carries the
    decline reason); the capture itself is computed from the trace and
    config alone, which is exactly the policy-invariance contract of
    :func:`repro.sim.filtered.front_end_fingerprint`.
    """
    if not frontend_eligible(hierarchy):
        return None
    record_success(hierarchy, "frontend")

    l1cfg = config.l1
    addrs = np.asarray(trace.addresses, dtype=np.int64)
    writes = np.asarray(trace.is_write, dtype=bool)
    n = int(addrs.shape[0])
    warmup = int(n * warmup_fraction)
    pages = addrs >> line_to_page_shift(config.lines_per_page)

    tlb_pos = _tlb_miss_positions(pages, config.tlb_entries)
    miss, victim, tally = _run_l1(addrs, writes, warmup,
                                  l1cfg.sets, l1cfg.ways)

    # Scatter the per-access flags into the flat event stream. The
    # walk's per-access order is metadata (TLB miss) first, then the
    # demand miss, then the victim writeback, so an access's events
    # occupy offsets[i] .. offsets[i + 1] in exactly that order.
    t_flag = np.zeros(n, dtype=np.int64)
    if tlb_pos.shape[0]:
        t_flag[tlb_pos] = 1
    d_flag = np.asarray(miss, dtype=np.int64)
    victim_np = np.asarray(victim, dtype=np.int64)
    w_flag = (victim_np >= 0).astype(np.int64)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(t_flag + d_flag + w_flag, out=offsets[1:])
    total_events = int(offsets[-1])
    ops = np.empty(total_events, dtype=np.uint8)
    out_addrs = np.empty(total_events, dtype=np.int64)
    if tlb_pos.shape[0]:
        slots = offsets[tlb_pos]
        ops[slots] = OP_METADATA
        out_addrs[slots] = PTE_TABLE_BASE + pages[tlb_pos] // PTES_PER_LINE
    miss_pos = np.flatnonzero(d_flag)
    if miss_pos.shape[0]:
        slots = offsets[miss_pos] + t_flag[miss_pos]
        ops[slots] = OP_DEMAND_MISS
        out_addrs[slots] = addrs[miss_pos]
    wb_pos = np.flatnonzero(w_flag)
    if wb_pos.shape[0]:
        slots = offsets[wb_pos] + t_flag[wb_pos] + 1
        ops[slots] = OP_WRITEBACK
        out_addrs[slots] = victim_np[wb_pos]
    event_boundary = int(offsets[warmup])

    measured_tlb_misses = int(np.count_nonzero(tlb_pos >= warmup))
    check_vector_frontend(
        n=n, warmup=warmup, event_boundary=event_boundary,
        total_events=total_events,
        total_demand=int(miss_pos.shape[0]),
        total_metadata=int(tlb_pos.shape[0]),
        total_writeback=int(wb_pos.shape[0]),
        l1_hits=tally.hits, l1_misses=tally.misses,
        l1_writebacks=tally.writebacks,
        tlb_hits=(n - warmup) - measured_tlb_misses,
        tlb_misses=measured_tlb_misses,
        histogram_total=sum(tally.hist),
        measured_evictions=tally.evictions,
        residents=tally.residents,
        capacity=l1cfg.sets * l1cfg.ways,
    )

    return TraceCapture(
        n=n,
        warmup=warmup,
        event_boundary=event_boundary,
        ops=ops,
        addrs=out_addrs,
        l1_miss_pos=miss_pos,
        l1_miss_wb=victim_np[miss_pos],
        tlb_miss_pos=tlb_pos,
        frozen=_frozen_frontend(l1cfg, tally, measured_tlb_misses,
                                n - warmup),
    )
