"""Phase-split replay kernel for slip-runtime-kind cells.

The scalar slip replay (:func:`repro.sim.filtered._replay_slip`) drives
the live :class:`~repro.core.runtime.SlipRuntime` at the captured TLB-
and L1-miss positions through the full hierarchy machinery — ``Line``
objects, ``FillOutcome`` allocation, placement dispatch and per-event
statistics bumps. Unlike the baseline-kind kernel
(:mod:`repro.sim.vector_replay`), the SLIP back end cannot be replayed
per set: reuse samples taken on L2/L3 hits and misses feed the page
state machine that steers *future* fills at both levels, so the two
levels must be co-simulated in global event order.

The kernel therefore splits the work differently:

* **Phase 1 (page-policy + placement pass)** — one merged-order sweep
  over the captured TLB-miss and L1-miss positions that (a) drives the
  real runtime's page machinery (``_key_metadata_fetches``: sampler RNG
  draws, page-state transitions, memoized EOU argmins and their live
  statistics) exactly where the scalar replay would, and (b) replays
  the L2/L3 back end against a *flat-array* way model — per-way tag /
  LRU-stamp / timestamp / SLIP-metadata columns plus per-set probe
  dicts — instead of ``Line`` objects. Cascade movement uses rotation
  tables precomputed for every ``(SLIP id, chunk)`` pair, extending the
  ``chunk0_orders_by_id`` idea from :class:`~repro.core.policy.
  SlipSpace` to the non-insertion chunks. The sweep emits one packed
  annotation byte per level event (``(kind << 4) | (sublevel + 1)``)
  plus a per-TLB-miss metadata-fetch count; only the rare events
  (insertions, bypasses, movements, departures, writebacks-out, DRAM
  writes) are tallied inline.
* **Phase 2 (accounting pass)** — ``np.bincount`` over the measured
  slice of the annotation streams yields the per-sublevel hit /
  absorbed-writeback counts and the miss totals; the measured-phase
  latency is an exact integer dot product of demand counts and level
  latencies. The ``slip-vector-replay-conservation`` invariant
  (:func:`repro.analysis.invariants.check_slip_vector_replay`)
  cross-balances the annotation streams against the capture, the live
  runtime ledger and the inline tallies before anything is published
  through :meth:`~repro.mem.stats.LevelStats.adopt_counts`.

Byte-identity with the scalar path holds because every stateful step is
reproduced in the scalar order: the level access counters tick per
event, the allocation rotors advance once per non-bypassed fill and
once per cascade victim selection, LRU stamps come from a per-level
monotone clock, timestamps quantize the post-tick access counter, and
the sampler RNG/EOU sequence is the real runtime's own. The scalar walk
remains the golden reference: SimCheck, rd-block mode, non-SLIP placements, foreign runtimes and non-LRU
replacement ablations all decline cleanly (reason recorded via
:func:`repro.sim.vector_replay.record_decline`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.invariants import check_slip_vector_replay
from ..core.controller import SlipPlacement
from ..core.sampling import PageState
from ..mem.replacement import LruReplacement
from ..mem.tlb import PTES_PER_LINE, PTE_TABLE_BASE
from ..workloads.capture_store import TraceCapture
from ..workloads.trace import Trace
from .kernel_report import record_success
from .vector_replay import record_decline

_INF = float("inf")

#: Annotation kinds, packed as ``(kind << 4) | (sublevel + 1)`` into one
#: byte per level event. The sublevel bits stay zero where no way was
#: resolved (misses, forwarded writebacks).
ANN_DEMAND_HIT = 0
ANN_METADATA_HIT = 1
ANN_DEMAND_MISS = 2
ANN_METADATA_MISS = 3
ANN_WB_ABSORBED = 4
ANN_WB_FORWARDED = 5

_MISS_D = ANN_DEMAND_MISS << 4
_MISS_M = ANN_METADATA_MISS << 4
_FWD = ANN_WB_FORWARDED << 4
_ANN_SPAN = 96  # one past the largest code (_FWD + num_sublevels)

#: Insertion classes in tally order (Figure 14).
_CLASSES = ("abp", "partial_bypass", "default", "other")


class SlipLevelTally:
    """Measured-phase event counts for one SLIP-managed level.

    Hit / miss / absorbed-writeback columns come from the phase-2
    annotation bincount; the rest are phase-1 inline tallies. The
    conservation invariant cross-checks the two sources against each
    other and against the capture.
    """

    __slots__ = (
        "nsub", "dh_sub", "mh_sub", "demand_misses", "metadata_misses",
        "ins_sub", "bypasses", "class_counts", "mvr_sub", "mvw_sub",
        "wbin_sub", "wbout_sub", "forwarded_wbs", "hist",
    )

    def __init__(self, nsub: int) -> None:
        self.nsub = nsub
        self.dh_sub: List[int] = [0] * nsub
        self.mh_sub: List[int] = [0] * nsub
        self.demand_misses = 0
        self.metadata_misses = 0
        self.ins_sub: List[int] = [0] * nsub
        self.bypasses = 0
        self.class_counts: List[int] = [0, 0, 0, 0]
        self.mvr_sub: List[int] = [0] * nsub
        self.mvw_sub: List[int] = [0] * nsub
        self.wbin_sub: List[int] = [0] * nsub
        self.wbout_sub: List[int] = [0] * nsub
        self.forwarded_wbs = 0
        self.hist: List[int] = [0, 0, 0, 0]


def slip_eligible(hierarchy) -> bool:
    """Whether the SLIP kernel may replay this hierarchy.

    Exact-type checks, like :func:`~repro.sim.vector_replay.
    eligible_kind`: a subclassed placement or replacement could observe
    events the kernel never generates. Unlike the baseline-kind kernel,
    metadata-energy tracking is supported (SLIP levels always track it;
    the event count is a derived total here). Declines record a reason
    on ``hierarchy.kernel_declines.replay``.
    """
    if hierarchy.simcheck is not None:
        record_decline(hierarchy, "simcheck")
        return False
    runtime = hierarchy.runtime
    if not getattr(runtime, "slip_enabled", False):
        record_decline(hierarchy, "kind:not-slip")
        return False
    if runtime.block_shift is not None:
        record_decline(hierarchy, "rd-block")
        return False
    for level, placement in ((hierarchy.l2, hierarchy.l2_placement),
                             (hierarchy.l3, hierarchy.l3_placement)):
        if type(placement) is not SlipPlacement:
            record_decline(
                hierarchy,
                f"placement:{level.cfg.name}:{type(placement).__name__}")
            return False
        if placement._paged_runtime is not runtime:
            record_decline(hierarchy, f"runtime:{level.cfg.name}:foreign")
            return False
        if type(level.replacement) is not LruReplacement:
            record_decline(
                hierarchy,
                f"replacement:{level.cfg.name}:"
                f"{type(level.replacement).__name__}")
            return False
    return True


_LEVEL_MODEL_CACHE: Dict[Tuple, Tuple] = {}


def _level_model(level, placement) -> Tuple:
    """Structural constants of one SLIP level for the flat-array model.

    ``rots[pid][chunk][r]`` is the way visit order ``choose_victim``
    produces for rotor value ``r`` on that chunk — the chunk-0 slice
    reproduces ``SlipSpace.chunk0_orders_by_id`` and the deeper chunks
    extend the same precomputation to cascade victim selection.
    Memoised on the hashable structural inputs (the SlipSpace way/class
    tables plus the level's sublevel/latency shape), so repeated
    replays of the same hierarchy shape skip the nested rotation-table
    construction per call.
    """
    space = placement.space
    nsub = level.cfg.num_sublevels
    sub = tuple(level.sublevel_by_way)
    lat = tuple(level.latency_by_way)
    key = (space.chunk_ways_by_id, space.class_by_id, nsub, sub, lat)
    cached = _LEVEL_MODEL_CACHE.get(key)
    if cached is None:
        rots = tuple(
            tuple(
                tuple(tuple(ways[r:] + ways[:r])
                      for r in range(len(ways)))
                for ways in per_chunk
            )
            for per_chunk in space.chunk_ways_by_id
        )
        cls_idx = tuple(_CLASSES.index(c) for c in space.class_by_id)
        lat_by_sub = [0] * nsub
        for way, s in enumerate(sub):
            lat_by_sub[s] = lat[way]
        cached = (rots, cls_idx, nsub, sub, tuple(lat_by_sub))
        _LEVEL_MODEL_CACHE[key] = cached
    return cached


_CODE_TABLE_CACHE: Dict[Tuple, Tuple] = {}


def _code_tables(sub: Tuple[int, ...], ways: int, size: int) -> Tuple:
    """Flat-index annotation code tables, memoised per geometry.

    Pure function of the way->sublevel map and the flat array size, so
    repeated replays of the same hierarchy shape (every sweep) skip the
    ~6 ms of tuple construction per call.
    """
    key = (sub, size)
    cached = _CODE_TABLE_CACHE.get(key)
    if cached is None:
        cached = (
            tuple(sub[i % ways] + 1 for i in range(size)),
            tuple(17 + sub[i % ways] for i in range(size)),
            tuple(65 + sub[i % ways] for i in range(size)),
        )
        _CODE_TABLE_CACHE[key] = cached
    return cached


# slip-audit: twin=slip-vector-replay role=fast
def replay_capture_vector_slip(hierarchy, trace: Trace,
                               capture: TraceCapture,
                               plan=None) -> bool:
    """Phase-split replay of a slip-kind capture; False to fall back.

    On success the hierarchy's L2/L3/DRAM statistics, counters and the
    live runtime/TLB ledgers hold exactly what the scalar replay would
    have produced; the cache arrays themselves stay empty (``finalize``
    adds nothing — resident-line reuse is accounted here) and the
    always-on ``capture-replay-conservation`` audit still runs in the
    caller. A verified :class:`~repro.sim.replay_plan.ReplayPlan`
    supplies the captured-position address/page/PTE resolutions (and
    their sentinel-terminated list forms) precomputed; ``plan=None``
    derives them locally with the same arithmetic.
    """
    if not slip_eligible(hierarchy):
        return False
    record_success(hierarchy, "replay")

    runtime = hierarchy.runtime
    l2, l3 = hierarchy.l2, hierarchy.l3
    rot2, cidx2, nsub2, sub2, lat2 = _level_model(l2,
                                                  hierarchy.l2_placement)
    rot3, cidx3, nsub3, sub3, lat3 = _level_model(l3,
                                                  hierarchy.l3_placement)

    # ----- captured positions, resolved to addresses/pages up front ---
    n = capture.n
    warmup = capture.warmup
    num_miss = int(capture.l1_miss_pos.shape[0])
    if plan is not None:
        # Plan lists are shared across cells and already carry the
        # merge sentinels; the kernel must not mutate them.
        (miss_positions, miss_addrs, miss_pages, wb_addrs,
         tlb_positions, tlb_pages, pte_addrs) = plan.slip_lists(capture)
    else:
        shift = hierarchy._page_shift
        addresses = trace.addresses
        miss_positions = capture.l1_miss_pos.tolist()
        miss_np = addresses[np.asarray(capture.l1_miss_pos)]
        miss_addrs = miss_np.tolist()
        miss_pages = (miss_np >> shift).tolist()
        wb_addrs = capture.l1_miss_wb.tolist()
        tlb_positions = capture.tlb_miss_pos.tolist()
        tlb_pages_np = addresses[np.asarray(capture.tlb_miss_pos)] \
            >> shift
        tlb_pages = tlb_pages_np.tolist()
        pte_addrs = (PTE_TABLE_BASE
                     + tlb_pages_np // PTES_PER_LINE).tolist()
        # Sentinel-terminated merge: both position lists end with n,
        # which is >= every stop, so the walk needs no bounds checks.
        tlb_positions.append(n)
        miss_positions.append(n)

    # ----- live runtime surface (the page machinery runs for real) ---
    pages = runtime.pages
    always = runtime.always_sample
    SAMPLING = PageState.SAMPLING
    key_fetches = runtime._key_metadata_fetches
    name2 = hierarchy.l2_placement._level_name
    name3 = hierarchy.l3_placement._level_name

    # ----- flat-array way model, one column set per level -----
    S2, W2 = l2.num_sets, l2.cfg.ways
    wrap2, gran2, mask2 = l2.timestamp_wrap, l2._granule, l2._ts_mask
    maxd2 = l2.cfg.lines - 1
    nch2 = hierarchy.l2_placement._num_chunks_by_id
    def2 = hierarchy.l2_placement._level_default_id
    sdef2 = hierarchy.l2_placement._default_id
    guard2 = W2 * (nsub2 + 1)
    size2 = S2 * W2
    tag2 = [-1] * size2
    lru2 = [0] * size2
    ts2 = [0] * size2
    hits2 = [0] * size2
    pid2 = [0] * size2
    ci2 = [0] * size2
    pg2 = [-1] * size2
    dirty2 = [False] * size2
    meta2 = [False] * size2
    # Global probe dict: line address -> flat index (set * ways + way).
    # Addresses are globally unique across sets, so one dict replaces
    # the per-set index and the hit path needs no set arithmetic.
    d2: dict = {}

    S3, W3 = l3.num_sets, l3.cfg.ways
    wrap3, gran3, mask3 = l3.timestamp_wrap, l3._granule, l3._ts_mask
    maxd3 = l3.cfg.lines - 1
    nch3 = hierarchy.l3_placement._num_chunks_by_id
    def3 = hierarchy.l3_placement._level_default_id
    sdef3 = hierarchy.l3_placement._default_id
    guard3 = W3 * (nsub3 + 1)
    size3 = S3 * W3
    tag3 = [-1] * size3
    lru3 = [0] * size3
    ts3 = [0] * size3
    hits3 = [0] * size3
    pid3 = [0] * size3
    ci3 = [0] * size3
    pg3 = [-1] * size3
    dirty3 = [False] * size3
    meta3 = [False] * size3
    d3: dict = {}

    # Mutable per-level machine state, mirroring the scalar hierarchy:
    # access counter T, allocation rotor, LRU clock.
    a2 = l2.access_counter
    r2 = l2._alloc_rotor
    c2 = l2.replacement._clock
    a3 = l3.access_counter
    r3 = l3._alloc_rotor
    c3 = l3.replacement._clock

    # ----- inline tallies (rare events) + annotation streams -----
    ins2 = [0] * nsub2
    mvr2 = [0] * nsub2
    mvw2 = [0] * nsub2
    wbout2 = [0] * nsub2
    cls2 = [0, 0, 0, 0]
    hist2 = [0, 0, 0, 0]
    byp2 = 0
    ins3 = [0] * nsub3
    mvr3 = [0] * nsub3
    mvw3 = [0] * nsub3
    wbout3 = [0] * nsub3
    cls3 = [0, 0, 0, 0]
    hist3 = [0, 0, 0, 0]
    byp3 = 0
    dram_wb = 0
    ann2 = bytearray()
    ann3 = bytearray()
    fetch_ann = bytearray()

    # Per-flat-index annotation codes, sublevel pre-resolved (indexable
    # straight off a probe-dict hit without recovering the way).
    hd2, hm2, wa2 = _code_tables(sub2, W2, size2)
    hd3, hm3, wa3 = _code_tables(sub3, W3, size3)

    # Hot-path method bindings: every below-L1 event probes a level
    # dict and appends an annotation code, and the attribute lookups
    # are measurable at that rate.
    d2_get = d2.get
    d3_get = d3.get
    pages_get = pages.get
    ann2_app = ann2.append
    ann3_app = ann3.append

    def wb_l3(addr: int) -> None:
        """Mirror of ``_writeback_to_l3`` against the flat model."""
        nonlocal a3, dram_wb
        a3 += 1
        if a3 == wrap3:
            a3 = 0
        f = d3_get(addr)
        if f is not None:
            dirty3[f] = True
            ann3_app(wa3[f])
        else:
            ann3_app(_FWD)
            dram_wb += 1

    def l1_wb(addr: int) -> None:
        """Mirror of ``_writeback_below_l1`` against the flat model."""
        nonlocal a2
        a2 += 1
        if a2 == wrap2:
            a2 = 0
        f = d2_get(addr)
        if f is not None:
            dirty2[f] = True
            ann2_app(wa2[f])
        else:
            ann2_app(_FWD)
            wb_l3(addr)

    def below(addr: int, page: int, is_meta: bool) -> None:
        """Mirror of ``_access_below_l1``: L2 -> L3 -> DRAM + fills.

        The per-level SLIP fills are inlined at their (single) call
        sites rather than factored into helpers: this body runs once
        per below-L1 event and the two extra call frames are
        measurable on the replay path.
        """
        nonlocal a2, a3, c2, c3, r2, r3, byp2, byp3, dram_wb
        a2 += 1
        if a2 == wrap2:
            a2 = 0
        f = d2_get(addr)
        if f is not None:
            hits2[f] += 1
            ann2_app(hm2[f] if is_meta else hd2[f])
            c2 += 1
            lru2[f] = c2
            now = (a2 // gran2) & mask2
            # on_hit: reuse-distance sample for sampling pages + TL.
            pgv = pg2[f]
            if pgv >= 0 and not meta2[f]:
                entry = pages_get(pgv)
                if entry is not None and (always
                                          or entry.state is SAMPLING):
                    distance = ((now - ts2[f]) & mask2) * gran2
                    if distance > maxd2:
                        distance = maxd2
                    # ``ReuseDistanceDistribution.record`` inlined (as
                    # at every sample site in this kernel): one frame
                    # per sampled event is measurable here.
                    dist = entry.distributions[name2]
                    counts = dist.counts
                    bin_idx = bisect_right(dist.boundaries, distance)
                    if counts[bin_idx] >= dist.counter_max:
                        dist.counts = counts = [c >> 1 for c in counts]
                    counts[bin_idx] += 1
                    if entry.period_samples < 63:
                        entry.period_samples += 1
            ts2[f] = now
            return
        ann2_app(_MISS_M if is_meta else _MISS_D)
        # One page-entry probe per event: nothing between here and the
        # fills can change the page table (recomputation only happens
        # inside key_fetches, between events).
        pe = None
        if not is_meta:
            # record_miss_sample("L2", page), gating inlined.
            pe = pages_get(page)
            if pe is not None and (always or pe.state is SAMPLING):
                dist = pe.distributions[name2]
                counts = dist.counts
                if counts[-1] >= dist.counter_max:
                    dist.counts = counts = [c >> 1 for c in counts]
                counts[-1] += 1
                if pe.period_samples < 63:
                    pe.period_samples += 1

        # ----- L3 -----
        a3 += 1
        if a3 == wrap3:
            a3 = 0
        f = d3_get(addr)
        if f is not None:
            hits3[f] += 1
            ann3_app(hm3[f] if is_meta else hd3[f])
            c3 += 1
            lru3[f] = c3
            now = (a3 // gran3) & mask3
            pgv = pg3[f]
            if pgv >= 0 and not meta3[f]:
                entry = pages_get(pgv)
                if entry is not None and (always
                                          or entry.state is SAMPLING):
                    distance = ((now - ts3[f]) & mask3) * gran3
                    if distance > maxd3:
                        distance = maxd3
                    dist = entry.distributions[name3]
                    counts = dist.counts
                    bin_idx = bisect_right(dist.boundaries, distance)
                    if counts[bin_idx] >= dist.counter_max:
                        dist.counts = counts = [c >> 1 for c in counts]
                    counts[bin_idx] += 1
                    if entry.period_samples < 63:
                        entry.period_samples += 1
            ts3[f] = now
        else:
            ann3_app(_MISS_M if is_meta else _MISS_D)
            if pe is not None and (always or pe.state is SAMPLING):
                dist = pe.distributions[name3]
                counts = dist.counts
                if counts[-1] >= dist.counter_max:
                    dist.counts = counts = [c >> 1 for c in counts]
                counts[-1] += 1
                if pe.period_samples < 63:
                    pe.period_samples += 1
            # SLIP fill at L3.  The DRAM read is derived from the miss
            # annotation in phase 2.
            if is_meta or page < 0:
                sid = sdef3
            elif pe is None:
                sid = def3
            elif pe.state is SAMPLING:
                sid = def3
            else:
                sid = pe.policies[name3]
            rchunks = rot3[sid]
            if not rchunks:
                # All-Bypass Policy; fills on this path are never dirty.
                byp3 += 1
                cls3[cidx3[sid]] += 1
            else:
                orders = rchunks[0]
                r3 = (r3 + 1) % 64
                order = orders[r3 % len(orders)]
                base = (addr % S3) * W3
                # Merged invalid-first/min-LRU scan; see the L2 fill.
                vw = -1
                best = _INF
                for w in order:
                    stamp = lru3[base + w]
                    if stamp < best:
                        vw = w
                        if not stamp:
                            break
                        best = stamp
                f = base + vw
                wb = -1
                vt = tag3[f]
                cascade = vt >= 0 and ci3[f] + 1 < nch3[pid3[f]]
                if cascade:
                    cv = (vt, dirty3[f], pid3[f], ci3[f], ts3[f],
                          hits3[f], pg3[f], meta3[f], lru3[f], vw)
                    del d3[vt]
                elif vt >= 0:
                    h = hits3[f]
                    hist3[h if h < 3 else 3] += 1
                    del d3[vt]
                    if dirty3[f]:
                        wbout3[sub3[vw]] += 1
                        wb = vt
                tag3[f] = addr
                d3[addr] = f
                dirty3[f] = False
                pid3[f] = sid
                ci3[f] = 0
                pg3[f] = page
                meta3[f] = is_meta
                ts3[f] = (a3 // gran3) & mask3
                hits3[f] = 0
                c3 += 1
                lru3[f] = c3
                ins3[sub3[vw]] += 1
                cls3[cidx3[sid]] += 1
                if cascade:
                    (vt, vdirty, vpid, vci, vts, vhits, vpg, vmeta,
                     vlru, vfrom) = cv
                    guard = guard3
                    while True:
                        guard -= 1
                        nc = vci + 1
                        if guard <= 0 or nc >= nch3[vpid]:
                            hist3[vhits if vhits < 3 else 3] += 1
                            if vdirty:
                                wbout3[sub3[vfrom]] += 1
                                wb = vt
                            break
                        orders = rot3[vpid][nc]
                        r3 = (r3 + 1) % 64
                        order = orders[r3 % len(orders)]
                        w = -1
                        best = _INF
                        for cand in order:
                            stamp = lru3[base + cand]
                            if stamp < best:
                                w = cand
                                if not stamp:
                                    break
                                best = stamp
                        f = base + w
                        dt = tag3[f]
                        if dt >= 0:
                            disp = (dt, dirty3[f], pid3[f], ci3[f],
                                    ts3[f], hits3[f], pg3[f],
                                    meta3[f], lru3[f], w)
                            del d3[dt]
                        else:
                            disp = None
                        tag3[f] = vt
                        d3[vt] = f
                        dirty3[f] = vdirty
                        pid3[f] = vpid
                        ci3[f] = nc
                        ts3[f] = vts
                        hits3[f] = vhits
                        pg3[f] = vpg
                        meta3[f] = vmeta
                        lru3[f] = vlru
                        mvr3[sub3[vfrom]] += 1
                        mvw3[sub3[w]] += 1
                        if disp is None:
                            break
                        (vt, vdirty, vpid, vci, vts, vhits, vpg,
                         vmeta, vlru, vfrom) = disp
                if wb >= 0:
                    dram_wb += 1

        # Fill L2 on the way back (possibly bypassed).
        if is_meta or page < 0:
            sid = sdef2
        elif pe is None:
            sid = def2
        elif pe.state is SAMPLING:
            sid = def2
        else:
            sid = pe.policies[name2]
        rchunks = rot2[sid]
        if not rchunks:
            # All-Bypass Policy; fills on this path are never dirty.
            byp2 += 1
            cls2[cidx2[sid]] += 1
            return
        orders = rchunks[0]
        r2 = (r2 + 1) % 64
        order = orders[r2 % len(orders)]
        base = (addr % S2) * W2
        # Invalid slots keep lru == 0 forever (clocks start >= 0 and
        # every fill stamps c2+1 >= 1), so one strict-min scan finds
        # the first invalid way in rotation order, else the LRU way —
        # the same choice as the scalar invalid-first/min-LRU walk.
        vw = -1
        best = _INF
        for w in order:
            stamp = lru2[base + w]
            if stamp < best:
                vw = w
                if not stamp:
                    break
                best = stamp
        f = base + vw
        wb = -1
        vt = tag2[f]
        cascade = vt >= 0 and ci2[f] + 1 < nch2[pid2[f]]
        if cascade:
            cv = (vt, dirty2[f], pid2[f], ci2[f], ts2[f], hits2[f],
                  pg2[f], meta2[f], lru2[f], vw)
            del d2[vt]
        elif vt >= 0:
            h = hits2[f]
            hist2[h if h < 3 else 3] += 1
            del d2[vt]
            if dirty2[f]:
                wbout2[sub2[vw]] += 1
                wb = vt
        tag2[f] = addr
        d2[addr] = f
        dirty2[f] = False
        pid2[f] = sid
        ci2[f] = 0
        pg2[f] = page
        meta2[f] = is_meta
        ts2[f] = (a2 // gran2) & mask2
        hits2[f] = 0
        c2 += 1
        lru2[f] = c2
        ins2[sub2[vw]] += 1
        cls2[cidx2[sid]] += 1
        if cascade:
            (vt, vdirty, vpid, vci, vts, vhits, vpg, vmeta, vlru,
             vfrom) = cv
            guard = guard2
            while True:
                guard -= 1
                nc = vci + 1
                if guard <= 0 or nc >= nch2[vpid]:
                    hist2[vhits if vhits < 3 else 3] += 1
                    if vdirty:
                        wbout2[sub2[vfrom]] += 1
                        wb = vt
                    break
                orders = rot2[vpid][nc]
                r2 = (r2 + 1) % 64
                order = orders[r2 % len(orders)]
                w = -1
                best = _INF
                for cand in order:
                    stamp = lru2[base + cand]
                    if stamp < best:
                        w = cand
                        if not stamp:
                            break
                        best = stamp
                f = base + w
                dt = tag2[f]
                if dt >= 0:
                    disp = (dt, dirty2[f], pid2[f], ci2[f], ts2[f],
                            hits2[f], pg2[f], meta2[f], lru2[f], w)
                    del d2[dt]
                else:
                    disp = None
                tag2[f] = vt
                d2[vt] = f
                dirty2[f] = vdirty
                pid2[f] = vpid
                ci2[f] = nc
                ts2[f] = vts
                hits2[f] = vhits
                pg2[f] = vpg
                meta2[f] = vmeta
                lru2[f] = vlru
                mvr2[sub2[vfrom]] += 1
                mvw2[sub2[w]] += 1
                if disp is None:
                    break
                (vt, vdirty, vpid, vci, vts, vhits, vpg, vmeta, vlru,
                 vfrom) = disp
        if wb >= 0:
            wb_l3(wb)

    # ----- phase 1: merged-order sweep (warmup, then measured) -----
    tlb_i = miss_i = 0
    tlb_misses = 0
    b2 = b3 = bf = 0
    measured_miss_start = 0
    for stop, warm_phase in ((warmup, True), (n, False)):
        while True:
            tlb_p = tlb_positions[tlb_i]
            miss_p = miss_positions[miss_i]
            p = tlb_p if tlb_p < miss_p else miss_p
            if p >= stop:
                break
            if tlb_p == p:
                # Mirror on_reference: the fetch list (and the page
                # state machinery) runs before the metadata lines
                # travel below L1.
                fetches = key_fetches(tlb_pages[tlb_i])
                below(pte_addrs[tlb_i], -1, True)
                for fetch in fetches:
                    below(fetch, -1, True)
                fetch_ann.append(1 + len(fetches))
                tlb_misses += 1
                tlb_i += 1
            if miss_p == p:
                below(miss_addrs[miss_i], miss_pages[miss_i], False)
                wba = wb_addrs[miss_i]
                if wba >= 0:
                    l1_wb(wba)
                miss_i += 1
        if warm_phase:
            # Same boundary as the scalar replay: counters reset, cache
            # / TLB / page state stays warm (EOU memo survives).
            hierarchy.reset_stats()
            for t in (ins2, mvr2, mvw2, wbout2):
                t[:] = [0] * nsub2
            for t in (ins3, mvr3, mvw3, wbout3):
                t[:] = [0] * nsub3
            cls2[:] = [0, 0, 0, 0]
            cls3[:] = [0, 0, 0, 0]
            hist2[:] = [0, 0, 0, 0]
            hist3[:] = [0, 0, 0, 0]
            byp2 = byp3 = 0
            dram_wb = 0
            tlb_misses = 0
            b2, b3, bf = len(ann2), len(ann3), len(fetch_ann)
            measured_miss_start = miss_i

    # finalize()'s resident-line reuse sweep (the real arrays are empty).
    for f in d2.values():
        h = hits2[f]
        hist2[h if h < 3 else 3] += 1
    for f in d3.values():
        h = hits3[f]
        hist3[h if h < 3 else 3] += 1

    # ----- phase 2: batched accounting over the annotation streams ---
    def _tally(ann: bytearray, boundary: int, nsub: int,
               ins: List[int], byp: int, cls: List[int], mvr: List[int],
               mvw: List[int], wbout: List[int],
               hist: List[int]) -> SlipLevelTally:
        codes = np.frombuffer(ann, dtype=np.uint8)[boundary:]
        counts = np.bincount(codes, minlength=_ANN_SPAN)
        tally = SlipLevelTally(nsub)
        tally.dh_sub = [int(counts[1 + s]) for s in range(nsub)]
        tally.mh_sub = [int(counts[17 + s]) for s in range(nsub)]
        tally.demand_misses = int(counts[_MISS_D])
        tally.metadata_misses = int(counts[_MISS_M])
        tally.wbin_sub = [int(counts[65 + s]) for s in range(nsub)]
        tally.forwarded_wbs = int(counts[_FWD])
        tally.ins_sub = list(ins)
        tally.bypasses = byp
        tally.class_counts = list(cls)
        tally.mvr_sub = list(mvr)
        tally.mvw_sub = list(mvw)
        tally.wbout_sub = list(wbout)
        tally.hist = list(hist)
        return tally

    tally2 = _tally(ann2, b2, nsub2, ins2, byp2, cls2, mvr2, mvw2,
                    wbout2, hist2)
    tally3 = _tally(ann3, b3, nsub3, ins3, byp3, cls3, mvr3, mvw3,
                    wbout3, hist3)

    # Live runtime/TLB ledgers: one page-grain probe per access, one
    # manual miss bump per captured TLB-miss position (as in the scalar
    # replay); hits are the complement of the measured-phase misses.
    runtime_stats = runtime.stats
    runtime_stats.tlb_miss_fetches = tlb_misses
    tlb_stats = runtime.tlb.stats
    tlb_stats.misses = tlb_misses
    tlb_stats.hits = (n - warmup) - tlb_misses

    fetch_events = int(
        np.frombuffer(fetch_ann, dtype=np.uint8)[bf:].sum())
    check_slip_vector_replay(
        demand_events=num_miss - measured_miss_start,
        metadata_events=(runtime_stats.tlb_miss_fetches
                         + runtime_stats.distribution_fetches),
        fetch_events=fetch_events,
        wb_events=sum(
            1 for x in wb_addrs[measured_miss_start:] if x >= 0),
        l2_tally=tally2, l3_tally=tally3,
        dram_writebacks=dram_wb,
    )

    # Measured-phase latency: only demand events contribute below L1,
    # and every term is an integer count times an integer latency.
    total = (
        sum(c * t for c, t in zip(tally2.dh_sub, lat2))
        + tally2.demand_misses * l2.cfg.latency_cycles
        + sum(c * t for c, t in zip(tally3.dh_sub, lat3))
        + tally3.demand_misses * (l3.cfg.latency_cycles
                                  + hierarchy.dram._latency)
    )

    for level, placement, tally in (
        (l2, hierarchy.l2_placement, tally2),
        (l3, hierarchy.l3_placement, tally3),
    ):
        dh = sum(tally.dh_sub)
        mh = sum(tally.mh_sub)
        insertions = sum(tally.ins_sub)
        metadata_events = (
            dh + mh + tally.demand_misses + tally.metadata_misses
            + insertions
        ) if level.track_metadata_energy else 0
        level.stats.adopt_counts(
            demand_hits=dh,
            demand_misses=tally.demand_misses,
            metadata_hits=mh,
            metadata_misses=tally.metadata_misses,
            hits_by_sublevel=[d + m for d, m in
                              zip(tally.dh_sub, tally.mh_sub)],
            insert_events=list(tally.ins_sub),
            move_read_events=list(tally.mvr_sub),
            move_write_events=list(tally.mvw_sub),
            wb_in_events=list(tally.wbin_sub),
            wb_out_events=list(tally.wbout_sub),
            reuse_histogram={
                "0": tally.hist[0], "1": tally.hist[1],
                "2": tally.hist[2], ">2": tally.hist[3],
            },
            insertions_by_class={
                "abp": tally.class_counts[0],
                "partial_bypass": tally.class_counts[1],
                "default": tally.class_counts[2],
                "other": tally.class_counts[3],
            },
            bypasses=tally.bypasses,
            dirty_bypass_forwards=0,
            metadata_events=metadata_events,
            movement_queue_events=sum(tally.mvr_sub),
            movement_queue_pj=placement.movement_queue_pj,
        )

    counters = hierarchy.counters
    counters.total_latency_cycles += total
    counters.dram_demand_reads = tally3.demand_misses
    counters.dram_metadata_reads = tally3.metadata_misses
    counters.dram_writebacks = dram_wb
    dram_stats = hierarchy.dram.stats
    dram_stats.reads = tally3.demand_misses + tally3.metadata_misses
    dram_stats.writes = dram_wb
    return True
