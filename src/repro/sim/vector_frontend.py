"""Batched front-end capture kernel: the TLB + L1 leg, whole-trace.

A capture stores the policy-invariant facts of the front end of
``MemoryHierarchy.access`` as one event stream: every TLB miss's PTE
line, every L1 miss and every dirty eviction, each tagged with its
access index, plus the frozen front-end statistics.
All of those are pure stack-distance facts of the reference stream —
the TLB is a fully-associative LRU over page numbers and the L1 is a
set-associative LRU over line tags, neither of which observes anything
the back end does — so this module computes them for the *entire*
trace in three phases, the first two in C, and packages a
:class:`~repro.workloads.capture_store.TraceCapture` without ever
touching a ``Line`` object; a cell replayed from it serializes
byte-identically to the per-access walk
(:func:`repro.sim.filtered.walk_cores`):

* **Phase 1 (TLB)** derives page numbers for the whole stream
  vectorized and runs them through a fully associative LRU of the
  TLB's size (``lru_tlb`` in ``_lru.c``), which probes only the heads
  of same-page runs (repeats only re-touch the MRU slot) and returns
  the global TLB-miss positions. Each miss interleaves exactly one
  metadata (PTE line) event, mirroring ``BaselineRuntime.on_reference``.
* **Phase 2 (L1)** runs the access stream once, in order, through
  ``lru_l1`` in ``_lru.c``: flat per-set tag / LRU-stamp / dirty /
  hit-count slots. The eligible L1 is uniform (no sublevel partition)
  with stock LRU replacement, so the victim of a full set is the unique
  least-recent tag and way choice is statistically invisible: a fill
  takes the set's next free slot.
* **Phase 3** scatters the per-access miss / metadata / writeback
  flags into the flat capture event stream with an exclusive cumulative
  sum (preserving the walk's per-access order: metadata, then demand
  miss, then writeback), tags each event with its access index
  (``pos``), writes each metadata event's PTE line, and assembles the
  frozen
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
latencies), and every hierarchy when the compiled loops cannot be
built or loaded (``native-unavailable``, see :mod:`repro.sim.native`).
The driver asks :func:`frontend_eligible` first and walks such cells.
Declines are recorded on ``hierarchy.kernel_declines.frontend`` and
tallied for ``slip-experiments --kernel-report``, mirroring the replay
kernels' ``kernel_declines.replay`` contract. Every kernel capture is
audited by the always-on ``vector-frontend-conservation`` invariant
before it is published.
"""

from __future__ import annotations

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
from . import native
from .config import SystemConfig, line_to_page_shift
from .kernel_report import record_decline, record_success


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
    if native.library() is None:
        record_decline(hierarchy, "frontend", "native-unavailable")
        return False
    return True


# ----------------------------------------------------------------------
# Phase 1: the TLB, in C
# ----------------------------------------------------------------------
def _tlb_miss_positions(pages: np.ndarray, entries: int) -> np.ndarray:
    """Global positions whose page-grain probe misses the LRU TLB,
    from ``_lru.c``'s ``lru_tlb``.

    A repeated page can only re-touch the MRU slot, so the LRU state
    (and every hit/miss outcome) is fully determined by the heads of
    maximal same-page runs: only those are probed. The SLIP kernel
    runs it over rd-block numbers for the SLIP-cache.
    """
    n = int(pages.shape[0])
    misses = np.empty(n, dtype=np.int64)
    count = native.library().lru_tlb(
        n, np.ascontiguousarray(pages, dtype=np.int64), entries, misses)
    if count < 0:
        raise MemoryError("lru_tlb: out of memory")
    return misses[:count].copy()


# ----------------------------------------------------------------------
# Phase 2: the L1, in C
# ----------------------------------------------------------------------
#: Fields of ``lru_l1``'s tally: measured hits, misses, dirty victims
#: and victims; lines resident at the end; the reuse histogram 0 / 1 /
#: 2 / >2 (measured evictions plus residents, full-life hit counts).
_HITS, _MISSES, _WRITEBACKS, _EVICTIONS, _RESIDENTS, _HIST = range(6)


def _run_l1(addrs: np.ndarray, writes: np.ndarray, warmup: int,
            num_sets: int, ways: int):
    """Every L1 outcome, from ``_lru.c``'s ``lru_l1``.

    Returns ``(miss, victim, tally)``: per-access miss flags, the dirty
    victim's tag per access (``-1`` when the fill evicted nothing
    dirty) and the tally fields above. Mirrors the L1
    hit/miss/fill leg of ``MemoryHierarchy.access`` at tag level: for
    a uniform LRU L1 the victim of a full set is the unique
    least-recent tag, so way identity never matters.
    """
    n = int(addrs.shape[0])
    miss = np.zeros(n, dtype=np.uint8)
    victim = np.full(n, -1, dtype=np.int64)
    tally = np.zeros(_HIST + 4, dtype=np.int64)
    if native.library().lru_l1(n, np.ascontiguousarray(addrs),
                  np.ascontiguousarray(writes).view(np.uint8), warmup,
                  num_sets, ways, miss, victim, tally):
        raise MemoryError("lru_l1: out of memory")
    return miss.view(bool), victim, tally.tolist()


# ----------------------------------------------------------------------
# Phase 3: event scatter + frozen statistics
# ----------------------------------------------------------------------
def _frozen_frontend(l1cfg, tally: List[int], tlb_misses: int,
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
    hits, misses = tally[_HITS], tally[_MISSES]
    hist = tally[_HIST:]
    stats.adopt_counts(
        demand_hits=hits,
        demand_misses=misses,
        metadata_hits=0,
        metadata_misses=0,
        hits_by_sublevel=[hits],
        insert_events=[misses],
        move_read_events=[0],
        move_write_events=[0],
        wb_in_events=[0],
        wb_out_events=[tally[_WRITEBACKS]],
        reuse_histogram={"0": hist[0], "1": hist[1],
                         "2": hist[2], ">2": hist[3]},
        insertions_by_class={"abp": 0, "partial_bypass": 0,
                             "default": misses, "other": 0},
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
        "l1_hits": hits,
        "demand_accesses": measured,
        "event_counts": {
            "demand": misses,
            "metadata": tlb_misses,
            "writeback": tally[_WRITEBACKS],
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
    miss, victim_np, tally = _run_l1(addrs, writes, warmup, l1cfg.sets,
                                     l1cfg.ways)

    # Scatter the per-access flags into the flat event stream. The
    # walk's per-access order is metadata (TLB miss) first, then the
    # demand miss, then the victim writeback, so an access's events
    # occupy offsets[i] .. offsets[i + 1] in exactly that order, each
    # tagged with the access index i.
    t_flag = np.zeros(n, dtype=np.int64)
    if tlb_pos.shape[0]:
        t_flag[tlb_pos] = 1
    d_flag = miss.astype(np.int64)
    w_flag = (victim_np >= 0).astype(np.int64)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(t_flag + d_flag + w_flag, out=offsets[1:])
    total_events = int(offsets[-1])
    ops = np.empty(total_events, dtype=np.uint8)
    out_addrs = np.empty(total_events, dtype=np.int64)
    pos = np.empty(total_events, dtype=np.int64)
    if tlb_pos.shape[0]:
        slots = offsets[tlb_pos]
        ops[slots] = OP_METADATA
        out_addrs[slots] = PTE_TABLE_BASE + pages[tlb_pos] // PTES_PER_LINE
        pos[slots] = tlb_pos
    miss_pos = np.flatnonzero(d_flag)
    if miss_pos.shape[0]:
        slots = offsets[miss_pos] + t_flag[miss_pos]
        ops[slots] = OP_DEMAND_MISS
        out_addrs[slots] = addrs[miss_pos]
        pos[slots] = miss_pos
    wb_pos = np.flatnonzero(w_flag)
    if wb_pos.shape[0]:
        slots = offsets[wb_pos] + t_flag[wb_pos] + 1
        ops[slots] = OP_WRITEBACK
        out_addrs[slots] = victim_np[wb_pos]
        pos[slots] = wb_pos

    measured_tlb_misses = int(np.count_nonzero(tlb_pos >= warmup))
    check_vector_frontend(
        n=n, warmup=warmup, warmup_events=int(offsets[warmup]),
        total_events=total_events,
        total_demand=int(miss_pos.shape[0]),
        total_metadata=int(tlb_pos.shape[0]),
        total_writeback=int(wb_pos.shape[0]),
        l1_hits=tally[_HITS], l1_misses=tally[_MISSES],
        l1_writebacks=tally[_WRITEBACKS],
        tlb_hits=(n - warmup) - measured_tlb_misses,
        tlb_misses=measured_tlb_misses,
        histogram_total=sum(tally[_HIST:]),
        measured_evictions=tally[_EVICTIONS],
        residents=tally[_RESIDENTS],
        capacity=l1cfg.sets * l1cfg.ways,
    )

    return TraceCapture(
        n=n,
        warmup=warmup,
        ops=ops,
        addrs=out_addrs,
        pos=pos,
        frozen=_frozen_frontend(l1cfg, tally, measured_tlb_misses,
                                n - warmup),
    )
