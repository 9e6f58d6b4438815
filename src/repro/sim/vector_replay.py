"""Batched back-end replay kernel for baseline-runtime-kind cells.

The scalar replay (:func:`repro.sim.filtered._replay_events`) walks the
captured L1->L2 event stream one event at a time through the full
hierarchy machinery — ``Line`` objects, placement dispatch,
``FillOutcome`` allocation — even though for the baseline runtime kind
(baseline / nurapid / lru_pea) the back end is a closed deterministic
function of the event stream. This module replays the same stream as a
batch: set indices for the whole stream are computed vectorized, events
are grouped per L2 set with a stable argsort, and each set's short
event run is simulated with a tight loop over small per-set state,
accumulating integer event counts per (sublevel x event kind) that feed
the existing deferred :meth:`~repro.mem.stats.EnergyBreakdown.
materialize` path. The L3 back end consumes the L2 miss stream the
same way, with the L3 event order derived (vectorized) from the
per-event L2 outcomes.

Byte-identity with the scalar replay rests on a few structural facts
of the three eligible policies, each pinned down by the equivalence
suite in ``tests/test_vector_replay.py``:

* **baseline** — lines never move, so a line's way (and with it every
  sublevel-resolved count) is fixed at fill time. The tag-level
  trajectory of a set (hits, victim identity, writebacks) is
  independent of way choice: the victim of a full set is the unique
  min-LRU line, and invalid-way choice only affects which way a fill
  lands in. Way assignment is reconstructed in a second pass from the
  level's allocation rotor, which advances exactly once per fill — so
  the rotor value of the k-th fill (in global event order) is
  ``(k + 1) % 64``, recovered from a cumulative sum of the miss flags.
* **nurapid** — lines live in known *sublevels* (fills into sublevel 0,
  promotion swaps with sublevel 0, demotion cascades one sublevel
  deeper); within a sublevel every way has the same energy and
  latency, victims are the unique min-LRU (or an invalid way, whose
  existence is a pure occupancy count), and moved lines keep their LRU
  stamp — so per-line sublevel plus a sorted stamp list per (set,
  sublevel) reproduces the scalar run exactly, rotor-free.
* **lru_pea** — like nurapid with demoted-first victim selection (two
  stamp lists per (set, sublevel)), except the insertion sublevel is
  one ``random.Random`` draw per fill in *global fill order*, so the
  L2 pass runs in global event order and consumes the placement's own
  RNG object, keeping the draw stream byte-identical.

LRU stamps are global per level in the scalar hierarchy, but only
their relative order *within a set* is ever compared, so a per-set
counter reproduces victim selection exactly. Latency is integral and
only demand events contribute below L1, so the measured-phase latency
is an exact integer dot product of hit counts and sublevel latencies.
``movement_queue_pj`` is the one live float: the scalar path
accumulates a constant per movement, so the kernel replays the same
number of additions (see :meth:`LevelStats.adopt_counts`).

The same kernel serves the Figure 16 multicore mixes
(:mod:`repro.sim.multi_core`), where several cores' private L2s share
one L3: each core's L2 leg runs over its own capture, and the L3 leg
runs once over the cores' L2 miss streams merged by (access index,
core), the order in which a round-robin walk of the cores reaches the
shared level. A single core is the one-core case of the same code.

Every call derives its own precompute from the captures (the per-set
grouping of :func:`_set_order` and the interleaved L3 stream of
:func:`_derive_l3_stream`); nothing is cached across cells.

Replays fall back to the scalar path (``return False``) whenever the
hierarchy is not eligible: SLIP kinds never reach this module, and
non-LRU-family replacement ablations (random / DRRIP / SHiP), SimCheck
and metadata-energy tracking are rejected here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.invariants import check_vector_replay
from ..mem.replacement import LruReplacement
from ..policies.baseline import BaselinePlacement
from ..policies.lru_pea import LruPeaPlacement, PeaLruReplacement
from ..policies.nurapid import NurapidPlacement
from ..workloads.capture_store import (
    OP_DEMAND_MISS,
    OP_METADATA,
    OP_WRITEBACK,
    TraceCapture,
)
from .kernel_report import record_decline, record_success

#: Sentinel opcode for empty slots of the interleaved L3 stream.
_OP_NONE = 255


def eligible_kind(hierarchy) -> Optional[str]:
    """The kernel flavour for a hierarchy, or ``None`` to bypass.

    Exact-type checks throughout: a subclassed placement or replacement
    could observe events the kernel never generates, so anything but
    the stock trio falls back to the scalar golden path. Each bypass
    records its reason via
    :func:`~repro.sim.kernel_report.record_decline` (SLIP kinds land in
    the generic placement bucket here; their own kernel records the
    precise reason in :func:`repro.sim.vector_replay_slip.
    slip_eligible`).
    """
    if hierarchy.simcheck is not None:
        record_decline(hierarchy, "replay", "simcheck")
        return None
    l2, l3 = hierarchy.l2, hierarchy.l3
    if l2.track_metadata_energy or l3.track_metadata_energy:
        record_decline(hierarchy, "replay", "metadata-energy")
        return None
    t = type(hierarchy.l2_placement)
    if type(hierarchy.l3_placement) is not t:
        record_decline(
            hierarchy, "replay",
            f"placement:mismatched:{t.__name__}/"
            f"{type(hierarchy.l3_placement).__name__}")
        return None
    r2, r3 = type(l2.replacement), type(l3.replacement)
    if t is BaselinePlacement:
        kind = "baseline"
    elif t is NurapidPlacement:
        kind = "nurapid"
    elif t is LruPeaPlacement:
        if r2 is PeaLruReplacement and r3 is PeaLruReplacement:
            return "lru_pea"
        record_decline(hierarchy, "replay",
                       f"replacement:{r2.__name__}/{r3.__name__}")
        return None
    else:
        record_decline(hierarchy, "replay", f"placement:{t.__name__}")
        return None
    if r2 is not LruReplacement or r3 is not LruReplacement:
        record_decline(hierarchy, "replay",
                       f"replacement:{r2.__name__}/{r3.__name__}")
        return None
    return kind


# ----------------------------------------------------------------------
# Per-level tallies
# ----------------------------------------------------------------------
class _LevelTally:
    """Measured-phase integer event counts for one cache level."""

    __slots__ = (
        "nsub", "demand_misses", "metadata_misses", "dh_sub", "mh_sub",
        "ins_sub", "mvr_sub", "mvw_sub", "wbin_sub", "wbout_sub", "hist",
    )

    def __init__(self, nsub: int) -> None:
        self.nsub = nsub
        self.demand_misses = 0
        self.metadata_misses = 0
        self.dh_sub = [0] * nsub       # measured demand hits / sublevel
        self.mh_sub = [0] * nsub       # measured metadata hits / sublevel
        self.ins_sub = [0] * nsub      # measured insertions / sublevel
        self.mvr_sub = [0] * nsub      # movement reads / sublevel
        self.mvw_sub = [0] * nsub      # movement writes / sublevel
        self.wbin_sub = [0] * nsub     # absorbed writebacks / sublevel
        self.wbout_sub = [0] * nsub    # emitted writebacks / sublevel
        self.hist = [0, 0, 0, 0]       # reuse histogram 0 / 1 / 2 / >2


def _level_geometry(level) -> Tuple[int, List[int], List[int], List[int]]:
    """(nsub, ways per sublevel, latency per sublevel, sublevel of way)."""
    sub_by_way = list(level.sublevel_by_way)
    nsub = level.cfg.num_sublevels
    ways_count = [0] * nsub
    lat_by_sub = [0] * nsub
    for way, sub in enumerate(sub_by_way):
        ways_count[sub] += 1
        lat_by_sub[sub] = level.latency_by_way[way]
    return nsub, ways_count, lat_by_sub, sub_by_way


def _set_order(addrs: np.ndarray, num_sets: int):
    """Set-slice offsets (a list) and the stable by-set event order."""
    set_idx = addrs % num_sets
    order = np.argsort(set_idx, kind="stable")
    counts = np.bincount(set_idx, minlength=num_sets)
    return np.concatenate(([0], np.cumsum(counts))).tolist(), order


#: Events turned into lists per step when a runner groups its
#: stream: no leg holds full-stream lists of Python ints.
_GROUP_BLOCK = 8192


def _set_runs(ops, addrs, meas, num_sets):
    """Each non-empty set's (event, opcode, address, measured) lists.

    Events keep their global order inside a set: the stream is grouped
    with a stable argsort (:func:`_set_order`) and converted to lists
    one block of sets at a time.
    """
    offs, order = _set_order(addrs, num_sets)
    columns = (order, ops[order], addrs[order], meas[order])
    lists, base, hi = [], 0, 0
    for s in range(num_sets):
        a, b = offs[s], offs[s + 1]
        if a == b:
            continue
        if b > hi:
            base, hi = a, max(b, a + _GROUP_BLOCK)
            lists = [column[a:hi].tolist() for column in columns]
        yield [column[a - base:b - base] for column in lists]


# ----------------------------------------------------------------------
# Baseline kernel (two passes: tag-level, then way assignment)
# ----------------------------------------------------------------------
def _run_baseline(level, placement, ops, addrs, meas, resident_weight=1):
    n = int(ops.shape[0])
    num_sets = level.num_sets
    ways = level.cfg.ways
    nsub, _, _, sub_by_way = _level_geometry(level)
    tally = _LevelTally(nsub)
    hist = tally.hist
    miss: List[bool] = [False] * n
    victim_tag: List[int] = [-1] * n

    # ----- pass A: per-set tag-level trajectory -----
    # Recency is kept as an explicit order list (front == LRU): the
    # global LRU clock stamps every touch with a unique value, so the
    # within-set order *is* the stamp order and min-LRU is the front.
    sets_out = []
    demand_misses = metadata_misses = 0
    for evt_s, ops_s, addr_s, meas_s in _set_runs(ops, addrs, meas,
                                                  num_sets):
        where: dict = {}
        order_: List[int] = []
        f_evt: List[int] = []
        f_vic: List[int] = []
        f_tag: List[int] = []
        f_dirty: List[bool] = []
        f_hits: List[int] = []
        f_md: List[int] = []
        f_mm: List[int] = []
        f_wbin: List[int] = []
        f_wbout: List[int] = []
        # Per-fill appends and the probe dominate this loop; method
        # bindings amortize the attribute lookups over the set's events.
        where_get = where.get
        ap_evt, ap_vic, ap_tag = f_evt.append, f_vic.append, f_tag.append
        ap_dirty, ap_hits = f_dirty.append, f_hits.append
        ap_md, ap_mm = f_md.append, f_mm.append
        ap_wbin, ap_wbout = f_wbin.append, f_wbout.append
        for e, op, tag, m in zip(evt_s, ops_s, addr_s, meas_s):
            j = where_get(tag)
            if op == OP_WRITEBACK:
                if j is None:
                    miss[e] = True  # forwarded below
                else:
                    f_dirty[j] = True
                    if m:
                        f_wbin[j] += 1
                continue
            if j is not None:  # hit
                f_hits[j] += 1
                if m:
                    if op:
                        f_mm[j] += 1
                    else:
                        f_md[j] += 1
                order_.remove(j)
                order_.append(j)
                continue
            miss[e] = True
            if m:
                if op:
                    metadata_misses += 1
                else:
                    demand_misses += 1
            if len(order_) == ways:  # full set: evict the unique LRU
                v = order_.pop(0)
                del where[f_tag[v]]
                if m:
                    h = f_hits[v]
                    hist[h if h < 3 else 3] += 1
                if f_dirty[v]:
                    victim_tag[e] = f_tag[v]
                    if m:
                        f_wbout[v] = 1
            else:
                v = -1
            j = len(f_evt)
            ap_evt(e)
            ap_vic(v)
            ap_tag(tag)
            ap_dirty(False)
            ap_hits(0)
            ap_md(0)
            ap_mm(0)
            ap_wbin(0)
            ap_wbout(0)
            where[tag] = j
            order_.append(j)
        for j in where.values():  # finalize(): resident-line reuse
            h = f_hits[j]
            hist[h if h < 3 else 3] += resident_weight
        sets_out.append((f_evt, f_vic, f_md, f_mm, f_wbin, f_wbout))
    tally.demand_misses = demand_misses
    tally.metadata_misses = metadata_misses

    # ----- rotor reconstruction: one advance per fill, global order --
    # The k-th fill (k from 0) finds the rotor at (k + 1) % 64, which
    # the inclusive cumulative count of fills gives directly; reduced
    # modulo the ways, every entry is a small (shared) int.
    miss_np = np.asarray(miss, dtype=bool)
    fill_flag = miss_np & (ops != OP_WRITEBACK)
    rotor = (np.cumsum(fill_flag) % 64 % ways).tolist()
    meas_by_evt = meas.tolist()

    # ----- pass B: way assignment + per-fill count folding -----
    orders = tuple(
        tuple(range(r, ways)) + tuple(range(r)) for r in range(ways)
    )
    dh_sub, mh_sub = tally.dh_sub, tally.mh_sub
    ins_sub = tally.ins_sub
    wbin_sub, wbout_sub = tally.wbin_sub, tally.wbout_sub
    for f_evt, f_vic, f_md, f_mm, f_wbin, f_wbout in sets_out:
        occupied = [False] * ways
        f_way: List[int] = []
        for j in range(len(f_evt)):
            v = f_vic[j]
            if v >= 0:
                w = f_way[v]  # eviction installs into the victim's way
            else:
                rotated = orders[rotor[f_evt[j]]]
                for w in rotated:
                    if not occupied[w]:
                        break
                occupied[w] = True
            f_way.append(w)
            sub = sub_by_way[w]
            if meas_by_evt[f_evt[j]]:
                ins_sub[sub] += 1
            dh_sub[sub] += f_md[j]
            mh_sub[sub] += f_mm[j]
            wbin_sub[sub] += f_wbin[j]
            wbout_sub[sub] += f_wbout[j]
    return tally, miss_np, np.asarray(victim_tag, dtype=np.int64)


# ----------------------------------------------------------------------
# NuRAPID kernel (per-set pass with per-sublevel sorted stamp lists)
# ----------------------------------------------------------------------
def _run_nurapid(level, placement, ops, addrs, meas, resident_weight=1):
    from bisect import bisect_left, insort

    n = int(ops.shape[0])
    num_sets = level.num_sets
    nsub, ways_count, _, _ = _level_geometry(level)
    tally = _LevelTally(nsub)
    hist = tally.hist
    dh_sub, mh_sub, ins_sub = tally.dh_sub, tally.mh_sub, tally.ins_sub
    mvr, mvw = tally.mvr_sub, tally.mvw_sub
    wbin_sub, wbout_sub = tally.wbin_sub, tally.wbout_sub
    miss: List[bool] = [False] * n
    victim_tag: List[int] = [-1] * n
    demand_misses = metadata_misses = 0
    last = nsub - 1
    w0 = ways_count[0]

    for evt_s, ops_s, addr_s, meas_s in _set_runs(ops, addrs, meas,
                                                  num_sets):
        # recs: tag -> [sublevel, dirty, hits, stamp]; per-sublevel
        # sorted stamp lists with aligned tag lists (front == LRU).
        recs: dict = {}
        st = [[] for _ in range(nsub)]
        tg = [[] for _ in range(nsub)]
        occ = [0] * nsub
        clock = 0
        for e, op, tag, m in zip(evt_s, ops_s, addr_s, meas_s):
            rec = recs.get(tag)
            if op == OP_WRITEBACK:
                if rec is None:
                    miss[e] = True
                else:
                    rec[1] = True
                    if m:
                        wbin_sub[rec[0]] += 1
                continue
            if rec is not None:  # hit: account at the pre-promotion way
                sub = rec[0]
                rec[2] += 1
                if m:
                    if op:
                        mh_sub[sub] += 1
                    else:
                        dh_sub[sub] += 1
                lst = st[sub]
                i = bisect_left(lst, rec[3])
                lst.pop(i)
                tg[sub].pop(i)
                clock += 1
                rec[3] = clock
                if sub == 0:
                    st[0].append(clock)
                    tg[0].append(tag)
                    continue
                # on_hit: promote to sublevel 0, swapping with its LRU
                if occ[0] < w0:
                    occ[0] += 1
                    occ[sub] -= 1
                    if m:
                        mvr[sub] += 1
                        mvw[0] += 1
                else:
                    dst = st[0].pop(0)
                    dtag = tg[0].pop(0)
                    drec = recs[dtag]
                    drec[0] = sub
                    i = bisect_left(st[sub], dst)
                    st[sub].insert(i, dst)
                    tg[sub].insert(i, dtag)
                    if m:
                        mvr[sub] += 1
                        mvw[0] += 1
                        mvr[0] += 1
                        mvw[sub] += 1
                rec[0] = 0
                st[0].append(clock)
                tg[0].append(tag)
                continue
            # miss + fill into sublevel 0
            miss[e] = True
            if m:
                if op:
                    metadata_misses += 1
                else:
                    demand_misses += 1
            if occ[0] < w0:
                occ[0] += 1
            else:
                # demote the sublevel-0 LRU one sublevel deeper,
                # cascading; the line falling off the last sublevel
                # leaves the level (wb_out charged there).
                cur_st = st[0].pop(0)
                cur_tag = tg[0].pop(0)
                ts = 1
                while True:
                    if ts > last:
                        vrec = recs.pop(cur_tag)
                        if m:
                            h = vrec[2]
                            hist[h if h < 3 else 3] += 1
                        if vrec[1]:
                            victim_tag[e] = cur_tag
                            if m:
                                wbout_sub[last] += 1
                        break
                    if occ[ts] < ways_count[ts]:
                        occ[ts] += 1
                        recs[cur_tag][0] = ts
                        insort(st[ts], cur_st)
                        tg[ts].insert(bisect_left(st[ts], cur_st), cur_tag)
                        if m:
                            mvr[ts - 1] += 1
                            mvw[ts] += 1
                        break
                    dst = st[ts].pop(0)
                    dtag = tg[ts].pop(0)
                    recs[cur_tag][0] = ts
                    i = bisect_left(st[ts], cur_st)
                    st[ts].insert(i, cur_st)
                    tg[ts].insert(i, cur_tag)
                    if m:
                        mvr[ts - 1] += 1
                        mvw[ts] += 1
                    cur_st, cur_tag = dst, dtag
                    ts += 1
            clock += 1
            recs[tag] = [0, False, 0, clock]
            st[0].append(clock)
            tg[0].append(tag)
            if m:
                ins_sub[0] += 1
        for rec in recs.values():
            h = rec[2]
            hist[h if h < 3 else 3] += resident_weight
    tally.demand_misses = demand_misses
    tally.metadata_misses = metadata_misses
    return tally, np.asarray(miss, dtype=bool), \
        np.asarray(victim_tag, dtype=np.int64)


# ----------------------------------------------------------------------
# LRU-PEA kernel (global-order pass: one RNG draw per fill)
# ----------------------------------------------------------------------
def _run_lru_pea(level, placement, ops, addrs, meas, resident_weight=1):
    from bisect import bisect_left

    n = int(ops.shape[0])
    num_sets = level.num_sets
    nsub, ways_count, _, _ = _level_geometry(level)
    tally = _LevelTally(nsub)
    hist = tally.hist
    dh_sub, mh_sub, ins_sub = tally.dh_sub, tally.mh_sub, tally.ins_sub
    mvr, mvw = tally.mvr_sub, tally.mvw_sub
    wbin_sub, wbout_sub = tally.wbin_sub, tally.wbout_sub
    miss: List[bool] = [False] * n
    victim_tag: List[int] = [-1] * n
    set_l = (addrs % num_sets).tolist()
    ops_l = ops.tolist()
    addr_l = addrs.tolist()
    meas_l = meas.tolist()

    # The insertion-sublevel draw replicates random.Random.choices with
    # k=1 over the sublevel-way weights: one self.random() call per
    # fill, mapped through bisect(cum_weights, u * total, 0, len - 1).
    # Consuming the placement's own RNG keeps the stream byte-equal.
    rng_random = placement._rng.random
    weights = list(level.cfg.sublevel_ways) or [level.cfg.ways]
    cum: List[int] = []
    acc = 0
    for w in weights:
        acc += w
        cum.append(acc)
    total = cum[-1] + 0.0
    hi = len(cum) - 1

    demand_misses = metadata_misses = 0
    # Per-set state, lazily created: recs (tag -> [sublevel, dirty,
    # hits, stamp, demoted]) plus per-sublevel sorted stamp/tag lists
    # split by the demoted flag (PEA victimizes demoted lines first).
    states: List[Optional[tuple]] = [None] * num_sets

    for k in range(n):
        op = ops_l[k]
        tag = addr_l[k]
        m = meas_l[k]
        state = states[set_l[k]]
        if state is None:
            state = states[set_l[k]] = (
                {},                             # recs
                [[] for _ in range(nsub)],      # plain stamps
                [[] for _ in range(nsub)],      # plain tags
                [[] for _ in range(nsub)],      # demoted stamps
                [[] for _ in range(nsub)],      # demoted tags
                [0] * nsub,                     # occupancy
                [0],                            # clock box
            )
        recs, stp, tgp, std, tgd, occ, clock = state
        rec = recs.get(tag)
        if op == OP_WRITEBACK:
            if rec is None:
                miss[k] = True
            else:
                rec[1] = True
                if m:
                    wbin_sub[rec[0]] += 1
            continue
        if rec is not None:  # hit at the pre-promotion way
            sub = rec[0]
            rec[2] += 1
            if m:
                if op:
                    mh_sub[sub] += 1
                else:
                    dh_sub[sub] += 1
            lst = std[sub] if rec[4] else stp[sub]
            tgl = tgd[sub] if rec[4] else tgp[sub]
            i = bisect_left(lst, rec[3])
            lst.pop(i)
            tgl.pop(i)
            clock[0] += 1
            rec[3] = clock[0]
            if sub == 0:
                lst.append(rec[3])
                tgl.append(tag)
                continue
            # on_hit: promote one sublevel nearer (demoted-first LRU
            # victim there moves to the vacated way, flagged demoted).
            t = sub - 1
            if occ[t] < ways_count[t]:
                occ[t] += 1
                occ[sub] -= 1
                if m:
                    mvr[sub] += 1
                    mvw[t] += 1
            else:
                if std[t]:
                    dst = std[t].pop(0)
                    dtag = tgd[t].pop(0)
                else:
                    dst = stp[t].pop(0)
                    dtag = tgp[t].pop(0)
                drec = recs[dtag]
                drec[0] = sub
                drec[4] = True
                i = bisect_left(std[sub], dst)
                std[sub].insert(i, dst)
                tgd[sub].insert(i, dtag)
                if m:
                    mvr[sub] += 1
                    mvw[t] += 1
                    mvr[t] += 1
                    mvw[sub] += 1
            rec[0] = t
            rec[4] = False
            stp[t].append(rec[3])
            tgp[t].append(tag)
            continue
        # miss + fill into a weighted-random sublevel
        miss[k] = True
        if m:
            if op:
                metadata_misses += 1
            else:
                demand_misses += 1
        u = rng_random() * total
        t = hi
        for i in range(hi):
            if u < cum[i]:
                t = i
                break
        if occ[t] < ways_count[t]:
            occ[t] += 1
        else:
            if std[t]:
                vtag = tgd[t].pop(0)
                std[t].pop(0)
            else:
                vtag = tgp[t].pop(0)
                stp[t].pop(0)
            vrec = recs.pop(vtag)
            if m:
                h = vrec[2]
                hist[h if h < 3 else 3] += 1
            if vrec[1]:
                victim_tag[k] = vtag
                if m:
                    wbout_sub[t] += 1
        clock[0] += 1
        recs[tag] = [t, False, 0, clock[0], False]
        stp[t].append(clock[0])
        tgp[t].append(tag)
        if m:
            ins_sub[t] += 1
    for state in states:
        if state is None:
            continue
        for rec in state[0].values():
            h = rec[2]
            hist[h if h < 3 else 3] += resident_weight
    tally.demand_misses = demand_misses
    tally.metadata_misses = metadata_misses
    return tally, np.asarray(miss, dtype=bool), \
        np.asarray(victim_tag, dtype=np.int64)


_RUNNERS = {
    "baseline": _run_baseline,
    "nurapid": _run_nurapid,
    "lru_pea": _run_lru_pea,
}


# ----------------------------------------------------------------------
# L3 stream derivation
# ----------------------------------------------------------------------
def _derive_l3_stream(ops, addrs, meas, l2_miss, l2_victim):
    """The event stream L3 sees, in the scalar replay's exact order.

    Per L2 event: the demand/metadata access travels on to L3 when it
    missed L2 (an unabsorbed L1 writeback becomes an L3 writeback), and
    the L2 victim's writeback — emitted *after* the L3 access of the
    same event — follows immediately. Interleaving even slots (the
    forwarded event) with odd slots (the victim writeback) and masking
    the empties reproduces that order without a python loop. Also
    returns the slot mask, whose ``flatnonzero(mask) // 2`` names the
    L2 event behind each L3 event.
    """
    n = int(ops.shape[0])
    ops2 = np.full(2 * n, _OP_NONE, dtype=np.uint8)
    ops2[0::2] = np.where(l2_miss, ops, _OP_NONE)
    ops2[1::2] = np.where(l2_victim >= 0, OP_WRITEBACK, _OP_NONE)
    addr2 = np.empty(2 * n, dtype=np.int64)
    addr2[0::2] = addrs
    addr2[1::2] = l2_victim
    meas2 = np.empty(2 * n, dtype=bool)
    meas2[0::2] = meas
    meas2[1::2] = meas
    mask = ops2 != _OP_NONE
    return ops2[mask], addr2[mask], meas2[mask], mask


def merge_by_access(positions: List[np.ndarray]) -> np.ndarray:
    """The merge order of per-core event streams, by (access, core).

    ``positions[c]`` holds the non-decreasing access index of each of
    core ``c``'s events. The result indexes the concatenation of the
    streams: events sort by access index, then core, and a stable sort
    keeps each core's own order among its events of one access — the
    order in which a round-robin walk of the cores issues them.
    """
    cores = len(positions)
    if cores == 1:
        return np.arange(positions[0].shape[0])
    keys = np.concatenate([pos * cores + core
                           for core, pos in enumerate(positions)])
    return np.argsort(keys, kind="stable")


# ----------------------------------------------------------------------
# Publication into the (otherwise untouched) hierarchy
# ----------------------------------------------------------------------
def _publish_level(level, tally: _LevelTally, mq_pj: float) -> None:
    movements = sum(tally.mvr_sub)
    level.stats.adopt_counts(
        demand_hits=sum(tally.dh_sub),
        demand_misses=tally.demand_misses,
        metadata_hits=sum(tally.mh_sub),
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
        default_insertions=sum(tally.ins_sub),
        movement_queue_events=movements,
        movement_queue_pj=mq_pj,
    )


def replay_capture_vector(hierarchies: Sequence,
                          captures: Sequence[TraceCapture]) -> bool:
    """Batched replay of baseline-kind captures; False to fall back.

    One capture per hierarchy (core). Each core's L2 leg runs over its
    own capture; the L3 leg runs once, over the cores' L2 miss streams
    merged by (access index, core), so a single-core run is the
    one-core case. On success every hierarchy's L2/L3/DRAM statistics
    and counters hold exactly what the scalar replay would have
    produced; the cache arrays themselves stay empty (``finalize`` adds
    nothing — the kernel accounts resident-line reuse itself), and the
    always-on ``capture-replay-conservation`` audit still runs in the
    caller. Each call derives its own per-set grouping and L3 stream
    from the captures.

    With several cores the L3 is shared (:mod:`repro.sim.multi_core`):
    DRAM reads and writes go to the core whose event caused them, each
    line resident in the L3 at the end counts its reuse once per core
    (every core's ``finalize()`` walks the shared level), and no
    latency is published, because a shared-L3 hit cannot be charged to
    one core's tally (multicore results carry no timing).
    """
    kinds = [eligible_kind(hierarchy) for hierarchy in hierarchies]
    kind = kinds[0]
    if kind is None or any(k != kind for k in kinds):
        return False
    for hierarchy in hierarchies:
        record_success(hierarchy, "replay")
    run = _RUNNERS[kind]
    num_cores = len(hierarchies)

    legs2 = []   # (ops, measured, tally) per core, for the audit
    legs3 = []   # (ops, addrs, measured, access index) per core
    l2_latency = 0
    for hierarchy, capture in zip(hierarchies, captures):
        ops = np.asarray(capture.ops, dtype=np.uint8)
        addrs = np.asarray(capture.addrs, dtype=np.int64)
        meas = np.zeros(int(ops.shape[0]), dtype=bool)
        meas[capture.event_boundary:] = True
        l2 = hierarchy.l2
        tally2, miss2, victim2 = run(l2, hierarchy.l2_placement,
                                     ops, addrs, meas)
        ops3, addrs3, meas3, mask = _derive_l3_stream(
            ops, addrs, meas, miss2, victim2)
        positions = None
        if num_cores > 1:
            positions = capture.event_positions()[
                np.flatnonzero(mask) >> 1]
        legs2.append((ops, meas, tally2))
        legs3.append((ops3, addrs3, meas3, positions))
        _publish_level(l2, tally2,
                       getattr(hierarchy.l2_placement,
                               "movement_queue_pj", 0.0))
        # Measured-phase latency: only demand events contribute below
        # L1, and every term is an integer count times an integer
        # latency.
        _, _, lat2, _ = _level_geometry(l2)
        l2_latency = (sum(c * t for c, t in zip(tally2.dh_sub, lat2))
                      + tally2.demand_misses * l2.cfg.latency_cycles)

    if num_cores == 1:
        ops3, addrs3, meas3, _ = legs3[0]
        cores3 = np.zeros(int(ops3.shape[0]), dtype=np.int64)
    else:
        order = merge_by_access([leg[3] for leg in legs3])
        ops3, addrs3, meas3 = (
            np.concatenate([leg[i] for leg in legs3])[order]
            for i in range(3))
        cores3 = np.repeat(np.arange(num_cores),
                           [leg[0].shape[0] for leg in legs3])[order]
    del legs3  # the per-core copies of the merged L3 stream
    first = hierarchies[0]
    l3 = first.l3
    tally3, miss3, victim3 = run(l3, first.l3_placement, ops3, addrs3,
                                 meas3, resident_weight=num_cores)

    # DRAM: every measured L3 access miss is one read; writes are the
    # measured L3 victim writebacks plus unabsorbed writeback events.
    l3_meas_miss = miss3 & meas3

    def per_core(mask: np.ndarray) -> List[int]:
        return np.bincount(cores3[mask], minlength=num_cores).tolist()

    dram_demand = per_core(l3_meas_miss & (ops3 == OP_DEMAND_MISS))
    dram_meta = per_core(l3_meas_miss & (ops3 == OP_METADATA))
    dram_wb = [forwarded + victims for forwarded, victims in zip(
        per_core(l3_meas_miss & (ops3 == OP_WRITEBACK)),
        per_core((victim3 >= 0) & meas3))]

    check_vector_replay(
        legs2, ops3, meas3, tally3,
        dram_demand=sum(dram_demand), dram_metadata=sum(dram_meta),
    )

    _publish_level(l3, tally3,
                   getattr(first.l3_placement, "movement_queue_pj", 0.0))
    if num_cores == 1:
        _, _, lat3, _ = _level_geometry(l3)
        total = (
            l2_latency
            + sum(c * t for c, t in zip(tally3.dh_sub, lat3))
            + tally3.demand_misses * (l3.cfg.latency_cycles
                                      + first.dram._latency)
        )
        first.counters.total_latency_cycles += total
    for core, hierarchy in enumerate(hierarchies):
        counters = hierarchy.counters
        counters.dram_demand_reads = dram_demand[core]
        counters.dram_metadata_reads = dram_meta[core]
        counters.dram_writebacks = dram_wb[core]
        dram_stats = hierarchy.dram.stats
        dram_stats.reads = dram_demand[core] + dram_meta[core]
        dram_stats.writes = dram_wb[core]
    return True
