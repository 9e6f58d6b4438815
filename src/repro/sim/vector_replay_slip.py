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
  the L2/L3 back end against a *flat-array* way model — per-way tag /
  LRU-stamp / timestamp / SLIP-metadata columns plus per-set probe
  dicts — instead of ``Line`` objects. Under DRRIP or SHiP (paper
  Section 7) the stamp column holds RRPVs, and small per-level hooks
  (:func:`_rrip_hooks`) choose victims and run the policy's fill, hit
  and departure steps against the live policy's RNG and SHCT. Cascade
  movement uses rotation tables precomputed for every ``(SLIP id,
  chunk, rotor)``. The sweep emits one packed annotation byte per
  level event (``(kind << 4) | (sublevel + 1)``) plus a metadata-fetch
  count per reference-metadata event; only the rare events
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

The kernel takes one trace window and capture per core. Each core has
its own flat L2 model, driven by that core's live runtime (its
``_key_metadata_fetches`` and page samples), and its own annotation
streams. In the Figure 16 mixes (:mod:`repro.sim.multi_core`) the cores
share one flat L3 model — one access counter, allocation rotor, LRU
clock and probe dict — and the sweep visits their events in the walk's
order: access index, then core, then the reference metadata
before the L1 miss. A single core is the one-core case of the same
sweep. Every L3 event is annotated in the stream of the core that
caused it, so DRAM reads and writes, and each core's measured-phase
latency, are charged to that core; each line resident in the shared L3
at the end counts its reuse once per core, as every core's
``finalize()`` walks the shared level (EXPERIMENTS.md known
deviation 4). Every call resolves the captured positions to addresses,
profile keys and PTE lines itself (:func:`_merged_events`); nothing is
cached across cells.

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
capture is taken: SimCheck, non-SLIP placements, foreign runtimes
and Random replacement, cores that do not share one L3, a shared-L3
router whose runtimes are not the cores' own in core order, and a
profile key that routes to another core's runtime (reason
recorded via :func:`repro.sim.kernel_report.record_decline`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..analysis.invariants import check_slip_vector_replay
from ..core.controller import SlipPlacement
from ..core.runtime import RoutedSlipRuntime
from ..core.sampling import PageState
from ..mem.replacement import (
    DrripReplacement,
    LruReplacement,
    ShipReplacement,
)
from ..mem.tlb import PTES_PER_LINE, PTE_TABLE_BASE
from ..workloads.capture_store import TraceCapture
from ..workloads.trace import Trace
from .kernel_report import record_decline, record_success
from .vector_frontend import _tlb_miss_positions
from .vector_replay import merge_by_access

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

#: Replacement policies the flat model replays (exact types).
_REPLACEMENTS = (LruReplacement, DrripReplacement, ShipReplacement)


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


def _core_eligible(hierarchy) -> bool:
    """The per-core half of :func:`slip_eligible`."""
    if hierarchy.simcheck is not None:
        record_decline(hierarchy, "replay", "simcheck")
        return False
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


_LEVEL_MODEL_CACHE: Dict[Tuple, Tuple] = {}


def _level_model(level, placement) -> Tuple:
    """Structural constants of one SLIP level for the flat-array model.

    ``rots[pid][chunk][r]`` is the way visit order ``choose_victim``
    produces for rotor value ``r`` on that chunk, for insertions and
    cascade victim selection alike. Memoised on the hashable structural
    inputs (the SlipSpace way/class tables plus the level's
    sublevel/latency shape), so repeated replays of the same hierarchy
    shape skip the nested rotation-table construction per call.
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


def _rrip_hooks(level, placement, tag: List[int], rrpv: List[int],
                hits: List[int]) -> Tuple:
    """``(victim, fill, hit, depart)`` of an RRIP level's flat model.

    The level's RRPV column takes the place of the LRU stamp column,
    and an invalid way is one whose tag is negative. Under LRU all four
    are ``None``.

    * ``victim(base, order, sid, chunk)``: the way a fill or cascade
      step into chunk ``chunk`` of SLIP ``sid`` vacates in the set at
      flat index ``base``, ``order`` being the rotated chunk. It
      mirrors ``CacheLevel.choose_victim`` (the first invalid way in
      rotated order) and then ``_RripBase.choose_victim``: the sublevel
      draw over the unrotated chunk, from the replacement's own RNG and
      :meth:`~repro.mem.replacement._RripBase.sublevel_split` table,
      then the find-or-age loop.
    * ``fill(f, addr)`` and ``hit(f)``: the policy's ``on_fill`` and
      ``on_hit`` (after the line's hit count was bumped).
    * ``depart(tag, hits)``: ``on_evict`` of a line leaving the level,
      SHiP's SHCT training; ``None`` for DRRIP.

    The live policy state (RNG, SHCT) advances exactly as the scalar
    hierarchy would advance it. A SHiP line's signature is recomputed
    from its tag, and its reuse outcome is ``hits > 0``.
    """
    replacement = level.replacement
    if type(replacement) is LruReplacement:
        return None, None, None, None
    rmax = replacement.rrpv_max
    choices = replacement._rng.choices
    split_of = replacement.sublevel_split
    chunks = tuple(
        tuple((ways, split_of(ways)) for ways in per_chunk)
        for per_chunk in placement.space.chunk_ways_by_id)

    def victim(base: int, order: Tuple[int, ...], sid: int,
               chunk: int) -> int:
        for w in order:
            if tag[base + w] < 0:
                return w
        ways, split = chunks[sid][chunk]
        if split is not None:
            groups, cum_weights = split
            ways = choices(groups, cum_weights=cum_weights)[0]
        while True:
            for w in ways:
                if rrpv[base + w] >= rmax:
                    return w
            for w in ways:
                rrpv[base + w] += 1

    if type(replacement) is DrripReplacement:
        # Nothing moves PSEL (known deviation 5), so a follower set's
        # insertion policy is fixed for the whole call.
        follower = replacement.psel > replacement.psel_max // 2
        brrip = [role == "brrip" or (role == "follower" and follower)
                 for role in replacement.set_roles]
        draw = replacement._rng.random
        long_prob = replacement.brrip_long_prob
        sets = level.num_sets

        def drrip_fill(f: int, addr: int) -> None:
            if brrip[addr % sets]:
                rrpv[f] = rmax - 1 if draw() < long_prob else rmax
            else:
                rrpv[f] = rmax - 1

        def drrip_hit(f: int) -> None:
            rrpv[f] = 0

        return victim, drrip_fill, drrip_hit, None

    shct = replacement.shct
    entries = len(shct)
    shift = replacement.signature_shift
    shct_max = replacement.shct_max

    def ship_fill(f: int, addr: int) -> None:
        dead = shct[(addr >> shift) % entries] == 0
        rrpv[f] = rmax if dead else rmax - 1

    def ship_hit(f: int) -> None:
        rrpv[f] = 0
        if hits[f] == 1:  # the first reuse since the fill
            sig = (tag[f] >> shift) % entries
            if shct[sig] < shct_max:
                shct[sig] += 1

    def depart(t: int, h: int) -> None:
        if not h:
            sig = (t >> shift) % entries
            if shct[sig] > 0:
                shct[sig] -= 1

    return victim, ship_fill, ship_hit, depart


def _code_counts(ann: bytearray, boundary: int) -> np.ndarray:
    """Phase 2: the measured slice of one annotation stream, binned."""
    codes = np.frombuffer(ann, dtype=np.uint8)[boundary:]
    return np.bincount(codes, minlength=_ANN_SPAN)


def _tally(counts: np.ndarray, nsub: int, ins: List[int], byp: int,
           cls: List[int], mvr: List[int], mvw: List[int],
           wbout: List[int], hist: List[int]) -> SlipLevelTally:
    """One level's tally: binned annotation codes plus inline counts."""
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


class _CoreSweep(NamedTuple):
    """One core's closures over its flat L2 model and the shared L3."""

    #: ``below(line, page, is_metadata)``: one event below L1.
    below: Callable[[int, int, bool], None]
    #: ``l1_wb(line)``: one L1 victim writeback.
    l1_wb: Callable[[int], None]
    #: The warmup boundary: zero the tallies, start measuring.
    measure: Callable[[], None]
    #: ``(L2 tally, binned L3 codes, DRAM writebacks, demand latency)``
    #: of the measured phase.
    finish: Callable[[], Tuple]


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

    # ----- captured positions, resolved to addresses/keys up front ----
    n = captures[0].n
    warmup = captures[0].warmup
    (miss_at, miss_cores, miss_addrs, miss_keys, wb_addrs,
     ref_at, ref_cores, ref_keys, pte_addrs) = _merged_events(
        first, traces, captures)

    # ----- the shared L3: one flat-array way model for every core -----
    l3 = first.l3
    placement3 = first.l3_placement
    rot3, cidx3, nsub3, sub3, lat3 = _level_model(l3, placement3)
    name3 = placement3._level_name
    S3, W3 = l3.num_sets, l3.cfg.ways
    wrap3, gran3, mask3 = l3.timestamp_wrap, l3._granule, l3._ts_mask
    maxd3 = l3.cfg.lines - 1
    nch3 = placement3._num_chunks_by_id
    sdef3 = placement3._default_id
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
    # Global probe dict: line address -> flat index (set * ways + way).
    # Addresses are globally unique across sets, so one dict replaces
    # the per-set index and the hit path needs no set arithmetic.
    d3: dict = {}
    d3_get = d3.get
    # Mutable machine state, mirroring the scalar hierarchy: access
    # counter T, allocation rotor, LRU clock (an RRIP level keeps its
    # RRPVs in the ``lru3`` column instead and takes its hooks).
    a3 = l3.access_counter
    r3 = l3._alloc_rotor
    victim3, fill3, hit3, depart3 = _rrip_hooks(l3, placement3, tag3,
                                                lru3, hits3)
    c3 = l3.replacement._clock if victim3 is None else 0
    # Inline tallies of the rare events (shared by every core).
    ins3 = [0] * nsub3
    mvr3 = [0] * nsub3
    mvw3 = [0] * nsub3
    wbout3 = [0] * nsub3
    cls3 = [0, 0, 0, 0]
    hist3 = [0, 0, 0, 0]
    byp3 = 0
    # Per-flat-index annotation codes, sublevel pre-resolved (indexable
    # straight off a probe-dict hit without recovering the way).
    hd3, hm3, wa3 = _code_tables(sub3, W3, size3)

    def core_sweep(hierarchy) -> _CoreSweep:
        """One core's flat L2 model and its closures over the shared L3.

        The core's annotation streams and DRAM writebacks are its own;
        every L3 event it causes lands in its own L3 stream.
        """
        runtime = hierarchy.runtime
        pages_get = runtime.pages.get
        always = runtime.always_sample
        SAMPLING = PageState.SAMPLING
        def3 = runtime._default_ids[name3]

        l2 = hierarchy.l2
        placement2 = hierarchy.l2_placement
        rot2, cidx2, nsub2, sub2, lat2 = _level_model(l2, placement2)
        name2 = placement2._level_name
        S2, W2 = l2.num_sets, l2.cfg.ways
        wrap2, gran2, mask2 = l2.timestamp_wrap, l2._granule, l2._ts_mask
        maxd2 = l2.cfg.lines - 1
        nch2 = placement2._num_chunks_by_id
        def2 = runtime._default_ids[name2]
        sdef2 = placement2._default_id
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
        d2: dict = {}
        a2 = l2.access_counter
        r2 = l2._alloc_rotor
        victim2, fill2, hit2, depart2 = _rrip_hooks(l2, placement2, tag2,
                                                    lru2, hits2)
        c2 = l2.replacement._clock if victim2 is None else 0

        ins2 = [0] * nsub2
        mvr2 = [0] * nsub2
        mvw2 = [0] * nsub2
        wbout2 = [0] * nsub2
        cls2 = [0, 0, 0, 0]
        hist2 = [0, 0, 0, 0]
        byp2 = 0
        dram_wb = 0
        ann2 = bytearray()
        ann3 = bytearray()
        b2 = b3 = 0
        hd2, hm2, wa2 = _code_tables(sub2, W2, size2)

        # Hot-path method bindings: every below-L1 event probes a level
        # dict and appends an annotation code, and the attribute
        # lookups are measurable at that rate.
        d2_get = d2.get
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
                if hit2 is None:
                    c2 += 1
                    lru2[f] = c2
                else:
                    hit2(f)
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
                        # ``ReuseDistanceDistribution.record`` inlined
                        # (as at every sample site in this kernel): one
                        # frame per sampled event is measurable here.
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
            # One page-entry probe per event: nothing between here and
            # the fills can change the page table (recomputation only
            # happens inside key_fetches, between events).
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
            # A hit line's page is this core's own (slip_eligible
            # checks that every page routes to its core), so this
            # core's page table serves the shared-L3 samples.
            a3 += 1
            if a3 == wrap3:
                a3 = 0
            f = d3_get(addr)
            if f is not None:
                hits3[f] += 1
                ann3_app(hm3[f] if is_meta else hd3[f])
                if hit3 is None:
                    c3 += 1
                    lru3[f] = c3
                else:
                    hit3(f)
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
                # SLIP fill at L3.  The DRAM read is derived from the
                # miss annotation in phase 2.
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
                    # All-Bypass Policy; fills on this path are never
                    # dirty.
                    byp3 += 1
                    cls3[cidx3[sid]] += 1
                else:
                    orders = rchunks[0]
                    r3 = (r3 + 1) % 64
                    order = orders[r3 % len(orders)]
                    base = (addr % S3) * W3
                    if victim3 is not None:
                        vw = victim3(base, order, sid, 0)
                    else:
                        # Merged invalid-first/min-LRU scan; see the L2
                        # fill.
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
                    if fill3 is None:
                        c3 += 1
                        lru3[f] = c3
                    else:
                        fill3(f, addr)
                    ins3[sub3[vw]] += 1
                    cls3[cidx3[sid]] += 1
                    if depart3 is not None and vt >= 0 and not cascade:
                        depart3(vt, h)
                    if cascade:
                        (vt, vdirty, vpid, vci, vts, vhits, vpg, vmeta,
                         vlru, vfrom) = cv
                        guard = guard3
                        while True:
                            guard -= 1
                            nc = vci + 1
                            if guard <= 0 or nc >= nch3[vpid]:
                                hist3[vhits if vhits < 3 else 3] += 1
                                if depart3 is not None:
                                    depart3(vt, vhits)
                                if vdirty:
                                    wbout3[sub3[vfrom]] += 1
                                    wb = vt
                                break
                            orders = rot3[vpid][nc]
                            r3 = (r3 + 1) % 64
                            order = orders[r3 % len(orders)]
                            if victim3 is not None:
                                w = victim3(base, order, vpid, nc)
                            else:
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
            if victim2 is not None:
                vw = victim2(base, order, sid, 0)
            else:
                # Invalid slots keep lru == 0 forever (clocks start >= 0
                # and every fill stamps c2+1 >= 1), so one strict-min
                # scan finds the first invalid way in rotation order,
                # else the LRU way — the same choice as the scalar
                # invalid-first/min-LRU walk.
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
            if fill2 is None:
                c2 += 1
                lru2[f] = c2
            else:
                fill2(f, addr)
            ins2[sub2[vw]] += 1
            cls2[cidx2[sid]] += 1
            if depart2 is not None and vt >= 0 and not cascade:
                depart2(vt, h)
            if cascade:
                (vt, vdirty, vpid, vci, vts, vhits, vpg, vmeta, vlru,
                 vfrom) = cv
                guard = guard2
                while True:
                    guard -= 1
                    nc = vci + 1
                    if guard <= 0 or nc >= nch2[vpid]:
                        hist2[vhits if vhits < 3 else 3] += 1
                        if depart2 is not None:
                            depart2(vt, vhits)
                        if vdirty:
                            wbout2[sub2[vfrom]] += 1
                            wb = vt
                        break
                    orders = rot2[vpid][nc]
                    r2 = (r2 + 1) % 64
                    order = orders[r2 % len(orders)]
                    if victim2 is not None:
                        w = victim2(base, order, vpid, nc)
                    else:
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

        def measure() -> None:
            nonlocal byp2, dram_wb, b2, b3
            for t in (ins2, mvr2, mvw2, wbout2):
                t[:] = [0] * nsub2
            cls2[:] = [0, 0, 0, 0]
            hist2[:] = [0, 0, 0, 0]
            byp2 = dram_wb = 0
            b2, b3 = len(ann2), len(ann3)

        def finish() -> Tuple:
            # finalize()'s resident-line reuse sweep (the real arrays
            # are empty).
            for f in d2.values():
                h = hits2[f]
                hist2[h if h < 3 else 3] += 1
            tally2 = _tally(_code_counts(ann2, b2), nsub2, ins2, byp2,
                            cls2, mvr2, mvw2, wbout2, hist2)
            counts3 = _code_counts(ann3, b3)
            # Measured-phase latency: only demand events contribute
            # below L1, and every term is an integer count times an
            # integer latency.
            latency = (
                sum(c * t for c, t in zip(tally2.dh_sub, lat2))
                + tally2.demand_misses * l2.cfg.latency_cycles
                + sum(int(counts3[1 + s]) * t for s, t in enumerate(lat3))
                + int(counts3[_MISS_D]) * (l3.cfg.latency_cycles
                                           + hierarchy.dram._latency)
            )
            return tally2, counts3, dram_wb, latency

        return _CoreSweep(below, l1_wb, measure, finish)

    sweeps = [core_sweep(hierarchy) for hierarchy in hierarchies]
    belows = [sweep.below for sweep in sweeps]
    l1_wbs = [sweep.l1_wb for sweep in sweeps]
    runtimes = [hierarchy.runtime for hierarchy in hierarchies]
    # Per core: one metadata-line count per reference-metadata event.
    fetch_anns = [bytearray() for _ in hierarchies]

    # ----- phase 1: merged-order sweep (warmup, then measured) -----
    ref_i = miss_i = 0
    bf: List[int] = []
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
                    below(pte, -1, True)
                for fetch in fetches:
                    below(fetch, -1, True)
                fetch_anns[core].append((pte >= 0) + len(fetches))
                ref_i += 1
            if miss_k == k:
                core = miss_cores[miss_i]
                belows[core](miss_addrs[miss_i], miss_keys[miss_i], False)
                wba = wb_addrs[miss_i]
                if wba >= 0:
                    l1_wbs[core](wba)
                miss_i += 1
        if warm_phase:
            # Same boundary as the walk: counters reset, cache
            # / TLB / page state stays warm (EOU memo survives).
            for hierarchy, sweep in zip(hierarchies, sweeps):
                hierarchy.reset_stats()
                sweep.measure()
            bf = [len(fetch_ann) for fetch_ann in fetch_anns]
            for t in (ins3, mvr3, mvw3, wbout3):
                t[:] = [0] * nsub3
            cls3[:] = [0, 0, 0, 0]
            hist3[:] = [0, 0, 0, 0]
            byp3 = 0

    # finalize()'s resident-line reuse sweep: every core's finalize()
    # walks the shared L3, so each resident line counts once per core.
    for f in d3.values():
        h = hits3[f]
        hist3[h if h < 3 else 3] += num_cores

    # ----- phase 2: batched accounting over the annotation streams ---
    results = [sweep.finish() for sweep in sweeps]
    tally3 = _tally(sum(result[1] for result in results), nsub3, ins3,
                    byp3, cls3, mvr3, mvw3, wbout3, hist3)

    # Live runtime/TLB ledgers: one page-grain probe per access, one
    # miss per captured TLB-miss position; hits are the complement of
    # the measured-phase misses.
    legs = []
    for hierarchy, capture, (tally2, _, _, _), fetch_ann, boundary in zip(
            hierarchies, captures, results, fetch_anns, bf):
        tlb_misses = int(np.count_nonzero(
            np.asarray(capture.tlb_miss_pos) >= warmup))
        runtime_stats = hierarchy.runtime.stats
        runtime_stats.tlb_miss_fetches = tlb_misses
        tlb_stats = hierarchy.runtime.tlb.stats
        tlb_stats.misses = tlb_misses
        tlb_stats.hits = (n - warmup) - tlb_misses
        measured = np.asarray(capture.l1_miss_pos) >= warmup
        legs.append((
            int(np.count_nonzero(measured)),
            runtime_stats.tlb_miss_fetches
            + runtime_stats.distribution_fetches,
            int(np.frombuffer(fetch_ann, dtype=np.uint8)[boundary:].sum()),
            int(np.count_nonzero(
                measured & (np.asarray(capture.l1_miss_wb) >= 0))),
            tally2,
        ))
    check_slip_vector_replay(
        legs, tally3,
        dram_writebacks=sum(result[2] for result in results))

    levels = [(hierarchy.l2, hierarchy.l2_placement, result[0])
              for hierarchy, result in zip(hierarchies, results)]
    levels.append((l3, placement3, tally3))
    for level, placement, tally in levels:
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

    # DRAM reads and writes go to the core whose event caused them.
    for hierarchy, (_, counts3, dram_wb, latency) in zip(
            hierarchies, results):
        demand_reads = int(counts3[_MISS_D])
        metadata_reads = int(counts3[_MISS_M])
        counters = hierarchy.counters
        counters.total_latency_cycles += latency
        counters.dram_demand_reads = demand_reads
        counters.dram_metadata_reads = metadata_reads
        counters.dram_writebacks = dram_wb
        dram_stats = hierarchy.dram.stats
        dram_stats.reads = demand_reads + metadata_reads
        dram_stats.writes = dram_wb
    return True
