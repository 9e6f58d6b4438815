"""Phase-split replay kernel for slip-runtime-kind cells.

The kernel replays every slip/slip_abp cell the N-core driver
(:func:`repro.sim.filtered.simulate`) captures: it drives the live
:class:`~repro.core.runtime.SlipRuntime` at the captured TLB- and
L1-miss positions and at the profile-key misses, as the per-access
walk would, but without ``Line`` objects, ``FillOutcome`` allocation,
placement dispatch or per-event statistics bumps. Unlike the
baseline-kind kernel (:mod:`repro.sim.vector_replay`), the SLIP back
end cannot be replayed per set: reuse samples taken on L2/L3 hits and
misses feed the page state machine that steers *future* fills at both
levels, so the two levels must be co-simulated in global event order.

The kernel therefore splits the work differently:

* **Phase 1 (page-policy + placement pass)** — one merged-order sweep
  over the reference-metadata events (TLB or profile-key misses) and
  the captured L1-miss positions that (a) drives the
  real runtime's page machinery (``_key_metadata_fetches``: sampler RNG
  draws, page-state transitions, memoized EOU argmins and their live
  statistics) exactly where the per-access walk would, and (b) replays
  the L2/L3 back end against one *flat-array* level model
  (:func:`_slip_level`) per level instead of ``Line`` objects. The
  paper runs one mechanism at every level below L1, and so does the
  model: each level is built from its ``CacheLevel`` and
  ``SlipPlacement`` and gives ``access``/``writeback``/``fill``
  closures, whose fill inserts into chunk C0 of the chosen SLIP and
  cascades each displaced line to its SLIP's next chunk. Under DRRIP
  or SHiP (paper Section 7) the model's stamp column holds RRPVs and
  the policy's own RNG and SHCT advance. Each level event emits one
  packed annotation byte (``(kind << 4) | (sublevel + 1)``); only the
  rare events (insertions, bypasses, movements, departures,
  writebacks out, DRAM writes) are tallied inline.
* **Phase 2 (accounting pass)** — ``np.bincount`` over the measured
  slice of the annotation streams yields the per-sublevel hit /
  absorbed- and forwarded-writeback counts and the miss totals, which
  join the inline tallies in one
  :class:`~repro.sim.vector_replay.LevelTally` per level. The publish
  step both replay kernels share
  (:func:`~repro.sim.vector_replay.publish_replay`) then runs the
  ``vector-replay-conservation`` audit, which balances the
  tallies against the capture and, as each L2's expected metadata
  count, the live runtime's fetch ledger, and lands them with each
  core's DRAM traffic and measured-phase latency.

The kernel takes one trace window and capture per core. Each core
builds its own L2 model and binds it once, with its live runtime (its
``_key_metadata_fetches`` and page samples) and its own annotation
stream. In the Figure 16 mixes (:mod:`repro.sim.multi_core`) the cores
share one L3 model — one access counter, allocation rotor, LRU clock
and probe dict — built once and bound once per core, and the sweep
visits their events in the walk's order: access index, then core,
then the reference metadata before the L1 miss. A single core is the
one-core case of the same sweep. Every L3 event is annotated in the
stream of the core that caused it, so DRAM reads and writes, and each
core's measured-phase latency, are charged to that core; each line
resident in the shared L3 at the end counts its reuse once per core,
as every core's ``finalize()`` walks the shared level (EXPERIMENTS.md
known deviation 4). Every call resolves the captured positions to
addresses, profile keys and PTE lines itself (:func:`_merged_events`);
only the structural tables of a level shape (:func:`_structure`) are
kept across cells.

Section 7 rd-block cells replay from the same capture as page-mode
cells: the TLB still probes once per access at page grain, and only
the profile key differs. Their key misses are those of the runtime's
SLIP-cache, which :func:`_merged_events` derives from the window's
block stream, so the capture needs no extra column.

Byte-identity with the walk holds because every stateful step is
reproduced in the scalar order: the level access counters tick per
event, the allocation rotors advance once per non-bypassed fill and
once per cascade victim selection, LRU stamps come from a per-level
monotone clock, timestamps quantize the post-tick access counter, the
sampler RNG/EOU sequence is the real runtime's own, and an RRIP level
draws its sublevel and BRRIP choices from the replacement's own RNG in
the order of ``SlipPlacement.fill``. The per-access walk
(:func:`repro.sim.filtered.walk_cores`) remains the golden reference
and serves everything :func:`slip_eligible` declines, before any
capture is taken: non-SLIP placements, foreign runtimes
and Random replacement, cores that do not share one L3, a shared-L3
router whose runtimes are not the cores' own in core order, and a
profile key that routes to another core's runtime (reason
recorded via :func:`repro.sim.kernel_report.record_decline`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.controller import SlipPlacement
from ..core.runtime import RoutedSlipRuntime
from ..core.sampling import PageState
from ..mem.replacement import (
    DrripReplacement,
    LruReplacement,
    ShipReplacement,
)
from ..mem.stats import INSERTION_CLASSES
from ..mem.tlb import PTES_PER_LINE, PTE_TABLE_BASE
from ..workloads.capture_store import TraceCapture
from ..workloads.trace import Trace
from .kernel_report import record_decline, record_success
from .vector_frontend import _tlb_miss_positions
from .vector_replay import LevelTally, merge_by_access, publish_replay

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
_ANN_SPAN = _FWD + 1  # one past the largest code, _FWD, which has no sublevel

#: Replacement policies the flat model replays (exact types).
_REPLACEMENTS = (LruReplacement, DrripReplacement, ShipReplacement)


def _core_eligible(hierarchy) -> bool:
    """The per-core half of :func:`slip_eligible`."""
    runtime = hierarchy.runtime
    if not getattr(runtime, "slip_enabled", False):
        record_decline(hierarchy, "replay", "kind:not-slip")
        return False
    for level, placement in ((hierarchy.l2, hierarchy.l2_placement),
                             (hierarchy.l3, hierarchy.l3_placement)):
        if type(placement) is not SlipPlacement:
            record_decline(
                hierarchy, "replay",
                f"placement:{level.cfg.name}:{type(placement).__name__}")
            return False
        if type(level.replacement) not in _REPLACEMENTS:
            record_decline(
                hierarchy, "replay",
                f"replacement:{level.cfg.name}:"
                f"{type(level.replacement).__name__}")
            return False
    if hierarchy.l2_placement._paged_runtime is not runtime:
        record_decline(hierarchy, "replay",
                       f"runtime:{hierarchy.l2.cfg.name}:foreign")
        return False
    return True


def slip_eligible(hierarchies: Sequence, traces: Sequence[Trace]) -> bool:
    """Whether the SLIP kernel may replay these cores.

    One hierarchy and trace window per core. Exact-type checks, like
    :func:`~repro.sim.vector_replay.eligible_kind`: a subclassed
    placement or replacement could observe events the kernel never
    generates. Unlike the baseline-kind kernel, metadata-energy
    tracking is supported (SLIP levels always track it; the event count
    is a derived total here).

    Every core must pass the per-core checks, and its L2 must take its
    SLIPs from the core's own runtime. A single core may own its L3
    (the L3 placement takes the core's runtime too); otherwise every
    core must share one L3 whose placement routes through a
    :class:`~repro.core.runtime.RoutedSlipRuntime` over exactly these
    cores' runtimes, in core order, and every profile key (page or
    rd-block) of core ``c``'s window must route to core ``c``, so each
    core's sweep may serve the shared-L3 samples from its own runtime.
    Per-core declines record a reason on that core's
    ``kernel_declines.replay``; shared-L3 declines record theirs on
    every core.
    """
    if not all([_core_eligible(hierarchy) for hierarchy in hierarchies]):
        return False

    def decline(reason: str) -> bool:
        for hierarchy in hierarchies:
            record_decline(hierarchy, "replay", reason)
        return False

    first = hierarchies[0]
    l3, placement = first.l3, first.l3_placement
    if any(hierarchy.l3 is not l3 or hierarchy.l3_placement is not placement
           for hierarchy in hierarchies):
        return decline(f"{l3.cfg.name}:not-shared")
    runtimes = [hierarchy.runtime for hierarchy in hierarchies]
    if len(runtimes) == 1 and placement._paged_runtime is runtimes[0]:
        return True
    router = placement.runtime
    if type(router) is not RoutedSlipRuntime:
        return decline(f"runtime:{l3.cfg.name}:foreign")
    if (len(router.runtimes) != len(runtimes)
            or any(a is not b for a, b in zip(router.runtimes, runtimes))):
        return decline("router:runtimes")
    shift = first.runtime.key_shift + router._key_shift
    for core, trace in enumerate(traces):
        owners = trace.addresses >> shift
        if owners.size and not (owners.min() == core == owners.max()):
            return decline("router:page")
    return True


#: Structural tables of a level shape, memoised across calls: every
#: replay of a sweep's shape reuses them. See :func:`_structure`.
_STRUCTURE: Dict[Tuple, Tuple] = {}


def _structure(space, sub: Tuple[int, ...], sets: int) -> Tuple:
    """``(rots, cls_idx, hit_d, hit_m, wb_in)`` of one SLIP level shape.

    ``rots[pid][chunk][r]`` is the way visit order ``choose_victim``
    produces for rotor value ``r`` on that chunk, for insertions and
    cascade victim selection alike; ``cls_idx[pid]`` is the SLIP's
    index in ``INSERTION_CLASSES``. ``hit_d``, ``hit_m`` and ``wb_in``
    give each flat index (``set * ways + way``) its demand-hit,
    metadata-hit and absorbed-writeback annotation code, so a probe-dict
    hit needs no way arithmetic. Keyed on the SlipSpace way and class
    tables, the way->sublevel map ``sub`` and the set count.
    """
    key = (space.chunk_ways_by_id, space.class_by_id, sub, sets)
    cached = _STRUCTURE.get(key)
    if cached is None:
        rots = tuple(
            tuple(tuple(tuple(ways[r:] + ways[:r]) for r in range(len(ways)))
                  for ways in per_chunk)
            for per_chunk in space.chunk_ways_by_id)
        cls_idx = tuple(INSERTION_CLASSES.index(c) for c in space.class_by_id)
        subs = sub * sets
        cached = _STRUCTURE[key] = (
            rots, cls_idx,
            tuple((ANN_DEMAND_HIT << 4) + s + 1 for s in subs),
            tuple((ANN_METADATA_HIT << 4) + s + 1 for s in subs),
            tuple((ANN_WB_ABSORBED << 4) + s + 1 for s in subs))
    return cached


class _SlipLevel(NamedTuple):
    """One SLIP level's flat-array model; see :func:`_slip_level`."""

    #: ``bind(runtime)``: one core's ``(access, writeback, fill)``.
    bind: Callable[..., Tuple[Callable, Callable, Callable]]
    #: The warmup boundary: zero the tallies, start measuring.
    measure: Callable[[], None]
    #: ``(LevelTally, binned codes per binding)`` of the measured phase.
    finish: Callable[[], Tuple[LevelTally, List[np.ndarray]]]


def _slip_level(level, placement) -> _SlipLevel:
    """One SLIP level (``CacheLevel`` plus ``SlipPlacement``) as flat arrays.

    The model mirrors the level's scalar state: per-way tag, LRU stamp,
    timestamp, hit count, SLIP id, chunk, page and dirty columns, a
    probe dict from line address to flat index (addresses are unique
    across sets, so a hit needs no set arithmetic), the access counter,
    the allocation rotor and the LRU clock. Under DRRIP or SHiP (paper
    Section 7) the stamp column holds RRPVs, and the policy's victim,
    fill, hit and departure steps run against the live replacement's
    RNG and SHCT, exactly as the scalar hierarchy advances them. A
    metadata line has page -1: it never samples.

    ``bind(runtime)`` gives one core's closures over that one state,
    with the core's own annotation stream, page table, default SLIP id
    and ``always_sample``; a private L2 is bound once, the shared L3
    once per core, so every core advances the one L3 as the walk does.

    * ``access(addr, is_meta) -> bool``: tick the counter and probe; a
      hit bumps the line's reuse and, for a sampling page, records its
      reuse distance in the page's distribution for this level.
    * ``writeback(addr) -> bool``: tick and probe; a hit absorbs the
      writeback (the line turns dirty), a miss forwards it.
    * ``fill(addr, page, entry) -> int``: after a miss, record the miss
      sample of ``entry`` (the page's runtime entry, or None), choose
      the SLIP and insert into its chunk C0, or bypass. Each displaced
      line cascades to the next chunk of its SLIP until one leaves the
      level; returns that line's address if it leaves dirty, else -1.

    Each binding writes one packed byte per event into its own stream,
    ``(kind << 4) | (sublevel + 1)``; only the rare events (insertions,
    bypasses, movements, departures, writebacks out) are tallied inline.
    """
    name = placement._level_name
    nsub = level.cfg.num_sublevels
    sets, ways = level.num_sets, level.cfg.ways
    sub = tuple(level.sublevel_by_way)
    rots, cls_idx, hit_d, hit_m, wb_in = _structure(placement.space, sub,
                                                    sets)
    wrap, gran, mask = level.timestamp_wrap, level._granule, level._ts_mask
    maxd = level.cfg.lines - 1
    nch = placement._num_chunks_by_id
    meta_sid = placement._default_id
    guard0 = ways * (nsub + 1)
    size = sets * ways
    tag = [-1] * size
    lru = [0] * size
    ts = [0] * size
    hits = [0] * size
    pid = [0] * size
    ci = [0] * size
    pg = [-1] * size
    dirty = [False] * size
    probe: dict = {}
    probe_get = probe.get
    a = level.access_counter
    r = level._alloc_rotor
    ins, mvr, mvw, wbout = ([0] * nsub for _ in range(4))
    cls = [0, 0, 0, 0]
    hist = [0, 0, 0, 0]
    byp = 0
    streams: List[bytearray] = []
    marks: List[int] = []
    SAMPLING = PageState.SAMPLING

    # ----- replacement: LRU stamps, or the RRIP policy's steps -----
    replacement = level.replacement
    victim = on_fill = on_hit = depart = None
    c = 0
    if type(replacement) is LruReplacement:
        c = replacement._clock
    else:
        rmax = replacement.rrpv_max
        choices = replacement._rng.choices
        split_of = replacement.sublevel_split
        chunk_splits = tuple(
            tuple((chunk, split_of(chunk)) for chunk in per_chunk)
            for per_chunk in placement.space.chunk_ways_by_id)

        def victim(base: int, order: Tuple[int, ...], sid: int,
                   chunk: int) -> int:
            """``CacheLevel.choose_victim`` (the first invalid way in
            rotated order), then ``_RripBase.choose_victim``: the
            sublevel draw over the unrotated chunk, from the policy's
            own RNG and ``sublevel_split`` table, then find-or-age."""
            for w in order:
                if tag[base + w] < 0:
                    return w
            group, split = chunk_splits[sid][chunk]
            if split is not None:
                groups, cum_weights = split
                group = choices(groups, cum_weights=cum_weights)[0]
            while True:
                for w in group:
                    if lru[base + w] >= rmax:
                        return w
                for w in group:
                    lru[base + w] += 1

        if type(replacement) is DrripReplacement:
            # Nothing moves PSEL (known deviation 5), so a follower
            # set's insertion policy is fixed for the whole call.
            follower = replacement.psel > replacement.psel_max // 2
            brrip = [role == "brrip" or (role == "follower" and follower)
                     for role in replacement.set_roles]
            draw = replacement._rng.random
            long_prob = replacement.brrip_long_prob

            def on_fill(f: int, addr: int) -> None:
                if brrip[addr % sets]:
                    lru[f] = rmax - 1 if draw() < long_prob else rmax
                else:
                    lru[f] = rmax - 1

            def on_hit(f: int) -> None:
                lru[f] = 0
        else:
            # SHiP: a line's signature is recomputed from its tag, and
            # its reuse outcome is ``hits > 0``.
            shct = replacement.shct
            entries = len(shct)
            shift = replacement.signature_shift
            shct_max = replacement.shct_max

            def on_fill(f: int, addr: int) -> None:
                dead = shct[(addr >> shift) % entries] == 0
                lru[f] = rmax if dead else rmax - 1

            def on_hit(f: int) -> None:
                lru[f] = 0
                if hits[f] == 1:  # the first reuse since the fill
                    sig = (tag[f] >> shift) % entries
                    if shct[sig] < shct_max:
                        shct[sig] += 1

            def depart(t: int, h: int) -> None:
                if not h:
                    sig = (t >> shift) % entries
                    if shct[sig] > 0:
                        shct[sig] -= 1

    def bind(runtime) -> Tuple[Callable, Callable, Callable]:
        ann = bytearray()
        streams.append(ann)
        marks.append(0)
        ann_app = ann.append
        pages_get = runtime.pages.get
        always = runtime.always_sample
        default_sid = runtime._default_ids[name]

        def access(addr: int, is_meta: bool) -> bool:
            nonlocal a, c
            a += 1
            if a == wrap:
                a = 0
            f = probe_get(addr)
            if f is None:
                ann_app(_MISS_M if is_meta else _MISS_D)
                return False
            hits[f] += 1
            ann_app(hit_m[f] if is_meta else hit_d[f])
            if on_hit is None:
                c += 1
                lru[f] = c
            else:
                on_hit(f)
            now = (a // gran) & mask
            page = pg[f]
            if page >= 0:
                entry = pages_get(page)
                if entry is not None and (always or entry.state is SAMPLING):
                    distance = ((now - ts[f]) & mask) * gran
                    if distance > maxd:
                        distance = maxd
                    # ``ReuseDistanceDistribution.record`` and the
                    # sampler's saturating ``period_samples``, inlined
                    # as in the miss sample below.
                    dist = entry.distributions[name]
                    counts = dist.counts
                    bin_idx = bisect_right(dist.boundaries, distance)
                    if counts[bin_idx] >= dist.counter_max:
                        dist.counts = counts = [n >> 1 for n in counts]
                    counts[bin_idx] += 1
                    if entry.period_samples < 63:
                        entry.period_samples += 1
            ts[f] = now
            return True

        def writeback(addr: int) -> bool:
            nonlocal a
            a += 1
            if a == wrap:
                a = 0
            f = probe_get(addr)
            if f is None:
                ann_app(_FWD)
                return False
            dirty[f] = True
            ann_app(wb_in[f])
            return True

        def fill(addr: int, page: int, entry) -> int:
            nonlocal byp, c, r
            if page < 0:
                sid = meta_sid
            elif entry is None:
                sid = default_sid
            else:
                sampling = entry.state is SAMPLING
                if always or sampling:
                    # ``record_miss_sample``, inlined.
                    dist = entry.distributions[name]
                    counts = dist.counts
                    if counts[-1] >= dist.counter_max:
                        dist.counts = counts = [n >> 1 for n in counts]
                    counts[-1] += 1
                    if entry.period_samples < 63:
                        entry.period_samples += 1
                sid = default_sid if sampling else entry.policies[name]
            cls[cls_idx[sid]] += 1
            chunks = rots[sid]
            if not chunks:
                # The All-Bypass Policy; fills on this path are never
                # dirty.
                byp += 1
                return -1
            orders = chunks[0]
            base = (addr % sets) * ways
            # The line moving in: first the filled one into C0, then
            # each displaced line into its SLIP's next chunk.
            t, d, p, k, stamp, h, pgv = (addr, False, sid, 0,
                                         (a // gran) & mask, 0, page)
            src = -1
            guard = guard0
            while True:
                r = (r + 1) % 64
                order = orders[r % len(orders)]
                if victim is None:
                    # Invalid slots keep stamp 0 forever (clocks start
                    # >= 0 and every fill stamps c + 1 >= 1), so one
                    # strict-min scan finds the first invalid way in
                    # rotated order, else the LRU way: the scalar
                    # invalid-first/min-LRU choice.
                    w = -1
                    best = _INF
                    for cand in order:
                        rank = lru[base + cand]
                        if rank < best:
                            w = cand
                            if not rank:
                                break
                            best = rank
                else:
                    w = victim(base, order, p, k)
                f = base + w
                vt = tag[f]
                if vt >= 0:
                    # The victim moves to its SLIP's next chunk, or
                    # leaves the level.
                    del probe[vt]
                    guard -= 1
                    vk = ci[f] + 1
                    vp = pid[f]
                    moves = guard > 0 and vk < nch[vp]
                    if moves:
                        out = (dirty[f], ts[f], hits[f], pg[f], lru[f])
                    else:
                        vh = hits[f]
                        vd = dirty[f]
                tag[f] = t
                probe[t] = f
                dirty[f] = d
                pid[f] = p
                ci[f] = k
                ts[f] = stamp
                hits[f] = h
                pg[f] = pgv
                if src < 0:
                    if on_fill is None:
                        c += 1
                        lru[f] = c
                    else:
                        on_fill(f, addr)
                    ins[sub[w]] += 1
                else:
                    lru[f] = rank_l
                    mvr[sub[src]] += 1
                    mvw[sub[w]] += 1
                if vt < 0:
                    return -1
                if not moves:
                    hist[vh if vh < 3 else 3] += 1
                    if depart is not None:
                        depart(vt, vh)
                    if vd:
                        wbout[sub[w]] += 1
                        return vt
                    return -1
                t, p, k, src = vt, vp, vk, w
                d, stamp, h, pgv, rank_l = out
                orders = rots[p][k]

        return access, writeback, fill

    def measure() -> None:
        nonlocal byp
        for tally in (ins, mvr, mvw, wbout, cls, hist):
            tally[:] = [0] * len(tally)
        byp = 0
        marks[:] = [len(ann) for ann in streams]

    def finish() -> Tuple[LevelTally, List[np.ndarray]]:
        # finalize()'s resident-line reuse sweep (the real arrays are
        # empty): every core bound to the level walks it in its own
        # finalize(), so a shared L3 counts each line once per core.
        weight = len(streams)
        for f in probe.values():
            h = hits[f]
            hist[h if h < 3 else 3] += weight
        binned = [np.bincount(np.frombuffer(ann, dtype=np.uint8)[mark:],
                              minlength=_ANN_SPAN)
                  for ann, mark in zip(streams, marks)]
        counts = sum(binned)
        tally = LevelTally(nsub)
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
        return tally, binned

    return _SlipLevel(bind, measure, finish)


def _merged_events(hierarchy, traces: Sequence[Trace],
                   captures: Sequence[TraceCapture]) -> Tuple:
    """Every core's captured positions, resolved and merged for the sweep.

    ``hierarchy`` is any core's (they share the config). Returns
    ``(miss_at, miss_cores, miss_addrs, miss_keys, wb_addrs, ref_at,
    ref_cores, ref_keys, pte_addrs)`` as lists. ``miss_*`` describe the
    captured L1 misses, ``miss_keys`` being their profile keys.
    ``ref_*`` describe the reference-metadata events: one per access
    whose page misses the TLB (``pte_addrs`` holds its PTE line, else
    -1) or whose profile key misses (``ref_keys`` holds the key, else
    -1). In page mode the key is the page, so the key misses are the
    captured TLB misses; under rd-blocks they are the misses of the
    runtime's SLIP-cache, an LRU over the window's block stream
    (:func:`~repro.sim.vector_frontend._tlb_miss_positions`). An
    ``*_at`` entry is ``access index * cores + core``, so its order is
    the walk's (access index, core) order and a single core's are its
    positions. Both ``*_at`` lists end with the ``n * cores`` sentinel,
    which is >= every stop, so the sweep needs no bounds checks.
    """
    runtime = hierarchy.runtime
    page_shift = hierarchy._page_shift
    key_shift = runtime.key_shift
    num_cores = len(captures)
    miss_columns, ref_columns = [], []
    miss_positions, ref_positions = [], []
    for core, (trace, capture) in enumerate(zip(traces, captures)):
        addresses = trace.addresses
        miss_pos = np.asarray(capture.l1_miss_pos, dtype=np.int64)
        tlb_pos = np.asarray(capture.tlb_miss_pos, dtype=np.int64)
        if runtime.block_shift is None:
            key_pos = tlb_pos
        else:
            key_pos = _tlb_miss_positions(addresses >> key_shift,
                                          runtime.slip_cache.entries)
        # Per access: bit 0 marks a TLB miss, bit 1 a key miss.
        misses = np.zeros(addresses.shape[0], dtype=np.uint8)
        misses[tlb_pos] = 1
        misses[key_pos] |= 2
        ref_pos = np.flatnonzero(misses)
        kinds = misses[ref_pos]
        refs = addresses[ref_pos]
        lines = addresses[miss_pos]
        miss_columns.append((
            miss_pos * num_cores + core,
            np.full(miss_pos.shape[0], core, dtype=np.int64),
            lines, lines >> key_shift,
            np.asarray(capture.l1_miss_wb, dtype=np.int64)))
        ref_columns.append((
            ref_pos * num_cores + core,
            np.full(ref_pos.shape[0], core, dtype=np.int64),
            np.where(kinds & 2, refs >> key_shift, -1),
            np.where(kinds & 1,
                     PTE_TABLE_BASE + (refs >> page_shift) // PTES_PER_LINE,
                     -1)))
        miss_positions.append(miss_pos)
        ref_positions.append(ref_pos)
    end = captures[0].n * num_cores
    merged = []
    for columns, positions in ((miss_columns, miss_positions),
                               (ref_columns, ref_positions)):
        order = merge_by_access(positions)
        lists = [np.concatenate(column)[order].tolist()
                 for column in zip(*columns)]
        lists[0].append(end)
        merged += lists
    return tuple(merged)


def _below_l1(runtime, l2: _SlipLevel, l3: _SlipLevel, dram_writes: List[int],
              core: int) -> Tuple[Callable, Callable]:
    """One core's ``(below, l1_wb)``: its L2 binding over its L3 binding.

    ``below(addr, page)`` mirrors ``_access_below_l1`` for one event
    below L1 (``page`` -1 marks a metadata line): L2 access, then L3
    access, then L3 fill (a dirty victim is a DRAM write), then L2 fill
    (a dirty victim is written back to L3). ``l1_wb(addr)`` mirrors
    ``_writeback_below_l1``. The page entry is looked up only after an
    L2 miss, and each level takes its miss sample inside its own fill:
    a sample touches only that level's distribution and the saturating
    ``period_samples``, so the order against the L3 access moves no
    byte. DRAM writes count into ``dram_writes[core]``.

    The level closures cost call frames that one inlined body would
    not: one more per L2 hit, three or four more per L2 miss. Against
    the earlier body, which wrote the L2 and L3 halves out inline,
    median ``accesses_per_kloop`` over 10 alternating end-to-end pairs
    fell 4.1% on ``sweep``, 4.0% on ``multicore`` and 4.7% on
    ``scalar-ablation`` (shared 2-vCPU x86_64 host, CPython 3.11.7).
    """
    access2, writeback2, fill2 = l2.bind(runtime)
    access3, writeback3, fill3 = l3.bind(runtime)
    pages_get = runtime.pages.get

    def below(addr: int, page: int) -> None:
        is_meta = page < 0
        if access2(addr, is_meta):
            return
        entry = None if is_meta else pages_get(page)
        if not access3(addr, is_meta) and fill3(addr, page, entry) >= 0:
            dram_writes[core] += 1
        victim = fill2(addr, page, entry)
        if victim >= 0 and not writeback3(victim):
            dram_writes[core] += 1

    def l1_wb(addr: int) -> None:
        if not writeback2(addr) and not writeback3(addr):
            dram_writes[core] += 1

    return below, l1_wb


def replay_capture_vector_slip(hierarchies: Sequence,
                               traces: Sequence[Trace],
                               captures: Sequence[TraceCapture]) -> bool:
    """Phase-split replay of slip-kind captures; False if ineligible.

    One trace window and capture per hierarchy (core); see the module
    docstring for what the cores share. On success every hierarchy's
    L2/L3/DRAM statistics, counters and live runtime/TLB ledgers hold
    exactly what the per-access walk would have produced; the cache
    arrays themselves stay empty (``finalize`` adds nothing —
    resident-line reuse is accounted here) and the always-on
    ``capture-replay-conservation`` audit still runs in the caller.
    """
    if not slip_eligible(hierarchies, traces):
        return False
    for hierarchy in hierarchies:
        record_success(hierarchy, "replay")
    num_cores = len(hierarchies)
    first = hierarchies[0]
    n = captures[0].n
    warmup = captures[0].warmup
    (miss_at, miss_cores, miss_addrs, miss_keys, wb_addrs,
     ref_at, ref_cores, ref_keys, pte_addrs) = _merged_events(
        first, traces, captures)

    l3 = _slip_level(first.l3, first.l3_placement)
    l2s = [_slip_level(hierarchy.l2, hierarchy.l2_placement)
           for hierarchy in hierarchies]
    dram_writes = [0] * num_cores
    belows, l1_wbs = zip(*[
        _below_l1(hierarchy.runtime, l2, l3, dram_writes, core)
        for core, (hierarchy, l2) in enumerate(zip(hierarchies, l2s))])
    runtimes = [hierarchy.runtime for hierarchy in hierarchies]

    # ----- phase 1: merged-order sweep (warmup, then measured) -----
    ref_i = miss_i = 0
    for stop, warm_phase in ((warmup * num_cores, True),
                             (n * num_cores, False)):
        while True:
            ref_k = ref_at[ref_i]
            miss_k = miss_at[miss_i]
            k = ref_k if ref_k < miss_k else miss_k
            if k >= stop:
                break
            if ref_k == k:
                # Mirror on_reference: the key's fetch list (and the
                # page state machinery) runs before the PTE line and
                # then the fetched lines travel below L1.
                core = ref_cores[ref_i]
                below = belows[core]
                key = ref_keys[ref_i]
                fetches = (runtimes[core]._key_metadata_fetches(key)
                           if key >= 0 else ())
                pte = pte_addrs[ref_i]
                if pte >= 0:
                    below(pte, -1)
                for fetch in fetches:
                    below(fetch, -1)
                ref_i += 1
            if miss_k == k:
                core = miss_cores[miss_i]
                belows[core](miss_addrs[miss_i], miss_keys[miss_i])
                wba = wb_addrs[miss_i]
                if wba >= 0:
                    l1_wbs[core](wba)
                miss_i += 1
        if warm_phase:
            # Same boundary as the walk: counters reset, cache
            # / TLB / page state stays warm (EOU memo survives).
            for hierarchy in hierarchies:
                hierarchy.reset_stats()
            for level in (l3, *l2s):
                level.measure()
            dram_writes[:] = [0] * num_cores

    # ----- phase 2: batched accounting over the annotation streams ---
    tally3, counts3 = l3.finish()
    nsub3 = first.l3.cfg.num_sublevels
    # Live runtime/TLB ledgers: one page-grain probe per access, one
    # miss per captured TLB-miss position; hits are the complement of
    # the measured-phase misses.
    l2_legs, l3_legs = [], []
    for hierarchy, capture, l2, counts, writes in zip(
            hierarchies, captures, l2s, counts3, dram_writes):
        tlb_misses = int(np.count_nonzero(
            np.asarray(capture.tlb_miss_pos) >= warmup))
        runtime_stats = hierarchy.runtime.stats
        runtime_stats.tlb_miss_fetches = tlb_misses
        tlb_stats = hierarchy.runtime.tlb.stats
        tlb_stats.misses = tlb_misses
        tlb_stats.hits = (n - warmup) - tlb_misses
        measured = np.asarray(capture.l1_miss_pos) >= warmup
        l2_legs.append((
            l2.finish()[0],
            int(np.count_nonzero(measured)),
            runtime_stats.tlb_miss_fetches
            + runtime_stats.distribution_fetches,
            int(np.count_nonzero(
                measured & (np.asarray(capture.l1_miss_wb) >= 0))),
        ))
        # Every L3 event is in the stream of the core that caused it.
        l3_legs.append(([int(counts[1 + s]) for s in range(nsub3)],
                        int(counts[_MISS_D]), int(counts[_MISS_M]), writes))
    publish_replay(hierarchies, l2_legs, tally3, l3_legs)
    return True
