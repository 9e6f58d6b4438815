"""Batched back-end replay kernel for baseline-runtime-kind cells.

The per-access walk drives every L1->L2 boundary event through the
full hierarchy machinery (``Line`` objects, placement dispatch,
``FillOutcome`` allocation), even though for the baseline runtime kind
(baseline / nurapid / lru_pea) under LRU the back end is a closed
deterministic function of the captured event stream. This module
replays that stream one level at a time: each level's leg is one pass
in global event order through ``lru_level`` in ``_lru.c`` (loaded by
:mod:`repro.sim.native`), over flat per-set slots, and returns integer
event counts per (sublevel x event kind) that feed the deferred
:meth:`~repro.mem.stats.EnergyBreakdown.materialize` path, and per
core what it forwarded below. The L3 leg consumes the stream the L2
leg forwards, which ``lru_level`` emits in the walk's order.

Byte-identity with the walk rests on a few structural facts of the
three eligible policies, each checked against the per-access walk by
the differential harness in ``tests/test_mix_replay.py``:

* **baseline**: lines never move, so a line's way (and with it every
  sublevel-resolved count) is fixed at fill time. The victim of a full
  set is the unique min-LRU line; otherwise the fill takes the first
  invalid way from the level's allocation rotor, which advances once
  per fill, so the pass assigns ways as it goes.
* **nurapid**: lines live in known *sublevels* (fills into sublevel 0,
  promotion swaps with sublevel 0's LRU line, demotion cascades one
  sublevel deeper); within a sublevel every way has the same energy
  and latency, victims are the unique min-LRU (or an invalid way,
  whose existence is a pure occupancy count), and moved lines keep
  their LRU stamp, so a line's sublevel and stamp reproduce the walk,
  rotor-free. Sublevel 0 fills first and loses a line only by a swap,
  so a promotion always finds it full; the C body reports the
  opposite as an error, raised here as :class:`~repro.analysis.
  invariants.InvariantViolation`.
* **lru_pea**: like nurapid with demoted-first victim selection and
  one-sublevel promotions, except the insertion sublevel is one
  ``random.Random.choices`` draw per fill in global fill order. The C
  body runs CPython's MT19937 from the placement's own generator state
  (``getstate``) and writes the advanced state back (``setstate``), so
  the generator ends where the walk leaves it.

LRU stamps come from one clock per level, as in the walk; only their
relative order *within a set* is ever compared.

This module also holds the accounting both replay kernels share (the
SLIP kernel, :mod:`repro.sim.vector_replay_slip`, imports it): one
:class:`LevelTally` of measured-phase counts per level, and one publish
step, :func:`publish_replay`, which runs the always-on
``vector-replay-conservation`` audit
(:func:`repro.analysis.invariants.check_replay_tallies`) and then lands
every tally (:func:`publish_level`), each core's DRAM traffic and its
measured-phase latency. Latency is integral and only demand events
contribute below L1, so the latency is an exact integer dot product of
hit counts and sublevel latencies (:func:`demand_latency`).
``movement_queue_pj`` is the one live float: the walk accumulates a
constant per movement, so the kernel replays the same number of
additions (see :meth:`LevelStats.adopt_counts`).

The same kernel serves the Figure 16 multicore mixes
(:mod:`repro.sim.multi_core`), where several cores' private L2s share
one L3: each core's L2 leg runs over its own capture, and the L3 leg
runs once over the cores' L2 miss streams merged by (access index,
core), the order in which a round-robin walk of the cores reaches the
shared level. The L3 leg carries each event's core and counts demand
hits per (core, sublevel), so each core is charged the latency of the
L3 hits it caused. A single core is the one-core case of the same
code. Nothing is cached across cells.

Replays fall back to the scalar path (``return False``) whenever the
hierarchy is not eligible: SLIP kinds never reach this module, and
non-LRU-family replacement ablations (random / DRRIP / SHiP),
metadata-energy tracking and a missing compiled library
(``native-unavailable``) are rejected here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis.invariants import InvariantViolation, check_replay_tallies
from ..mem.replacement import LruReplacement
from ..mem.stats import INSERTION_CLASSES
from ..policies.baseline import BaselinePlacement
from ..policies.lru_pea import LruPeaPlacement, PeaLruReplacement
from ..policies.nurapid import NurapidPlacement
from ..workloads.capture_store import TraceCapture
from . import native
from .kernel_report import record_decline, record_success


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
    replacement = LruReplacement
    if t is BaselinePlacement:
        kind = "baseline"
    elif t is NurapidPlacement:
        kind = "nurapid"
    elif t is LruPeaPlacement:
        kind, replacement = "lru_pea", PeaLruReplacement
    else:
        record_decline(hierarchy, "replay", f"placement:{t.__name__}")
        return None
    if r2 is not replacement or r3 is not replacement:
        record_decline(hierarchy, "replay",
                       f"replacement:{r2.__name__}/{r3.__name__}")
        return None
    if native.library() is None:
        record_decline(hierarchy, "replay", "native-unavailable")
        return None
    return kind


# ----------------------------------------------------------------------
# Per-level tallies (shared with the SLIP kernel)
# ----------------------------------------------------------------------
class LevelTally:
    """Measured-phase integer event counts for one cache level.

    Both replay kernels fill it, the one audit
    (:func:`~repro.analysis.invariants.check_replay_tallies`) balances
    it and :func:`publish_level` lands it on the level's statistics.
    The baseline-kind runners leave ``bypasses`` at 0 and count every
    fill in the ``default`` class.
    """

    __slots__ = (
        "dh_sub", "mh_sub", "demand_misses", "metadata_misses", "ins_sub",
        "bypasses", "class_counts", "mvr_sub", "mvw_sub", "wbin_sub",
        "wbout_sub", "forwarded_wbs", "hist",
    )

    def __init__(self, nsub: int) -> None:
        self.dh_sub = [0] * nsub       # measured demand hits / sublevel
        self.mh_sub = [0] * nsub       # measured metadata hits / sublevel
        self.demand_misses = 0
        self.metadata_misses = 0
        self.ins_sub = [0] * nsub      # measured insertions / sublevel
        self.bypasses = 0              # ABP fills that skip the level
        self.class_counts = [0, 0, 0, 0]  # fills by INSERTION_CLASSES
        self.mvr_sub = [0] * nsub      # movement reads / sublevel
        self.mvw_sub = [0] * nsub      # movement writes / sublevel
        self.wbin_sub = [0] * nsub     # absorbed writebacks / sublevel
        self.wbout_sub = [0] * nsub    # emitted writebacks / sublevel
        self.forwarded_wbs = 0         # writebacks passed on unabsorbed
        self.hist = [0, 0, 0, 0]       # reuse histogram 0 / 1 / 2 / >2


_DEFAULT_CLASS = INSERTION_CLASSES.index("default")


# ----------------------------------------------------------------------
# One level's leg, in C
# ----------------------------------------------------------------------
def _run_level(kind: str, level, placement, ops, addrs, meas, cores,
               num_cores: int, resident_weight: int, emit: bool):
    """Replay one level's event stream through ``_lru.c``'s
    ``lru_level``.

    ``meas`` marks the measured events and ``cores`` the core that
    caused each event (all 0 but in a mix's shared L3); each line
    resident at the end adds ``resident_weight`` to the reuse
    histogram. Returns the level's tally; per core its demand hits by
    sublevel and its measured demand, metadata and writeback events
    forwarded below; and, with ``emit``, the forwarded stream in the
    walk's order, ``(ops, addrs, src)``, ``src`` being the index of the
    event behind each one (else ``None``). An LRU-PEA leg draws its
    insertion sublevels from ``placement._rng`` and leaves the
    generator where the walk leaves it.
    """
    n = int(ops.shape[0])
    nsub = level.cfg.num_sublevels
    sub_of_way = np.asarray(level.sublevel_by_way, dtype=np.int32)
    ways_per_sub = np.bincount(sub_of_way, minlength=nsub).astype(np.int32)
    # random.Random.choices(range(nsub), weights=...) over the
    # sublevel sizes: its cumulative weights, and the generator state.
    cum = np.cumsum(list(level.cfg.sublevel_ways) or [level.cfg.ways],
                    dtype=np.float64)
    rng_state = np.zeros(625, dtype=np.uint32)  # MT19937 words, index
    if kind == "lru_pea":
        version, words, gauss = placement._rng.getstate()
        rng_state[:] = words
    size = 2 * n if emit else 1
    out_ops = np.empty(size, dtype=np.uint8)
    out_addrs = np.empty(size, dtype=np.int64)
    out_src = np.empty(size, dtype=np.int32)
    counts = np.zeros(7 + 6 * nsub + num_cores * (nsub + 3), dtype=np.int64)
    emitted = native.library().lru_level(
        native.KINDS[kind], n, np.ascontiguousarray(ops),
        np.ascontiguousarray(addrs), meas.view(np.uint8), cores,
        level.num_sets, level.cfg.ways, nsub, sub_of_way, ways_per_sub,
        resident_weight, cum, rng_state, emit, out_ops, out_addrs, out_src,
        counts)
    if emitted == -native.STATUS_NURAPID_PROMOTION:
        raise InvariantViolation(
            "nurapid-promotion",
            "a hit below sublevel 0 found sublevel 0 not full; sublevel 0 "
            "fills first and loses a line only by a swap",
            level=level.cfg.name)
    if emitted < 0:
        raise MemoryError(f"lru_level: out of memory at {level.cfg.name}")
    if kind == "lru_pea":
        placement._rng.setstate((version, tuple(rng_state.tolist()), gauss))
    counts = counts.tolist()
    tally = LevelTally(nsub)
    (tally.demand_misses, tally.metadata_misses,
     tally.forwarded_wbs) = counts[:3]
    tally.hist = counts[3:7]
    (tally.mh_sub, tally.ins_sub, tally.mvr_sub, tally.mvw_sub,
     tally.wbin_sub, tally.wbout_sub) = (
        counts[7 + i * nsub:7 + (i + 1) * nsub] for i in range(6))
    per_core = [counts[start:start + nsub + 3] for start in
                range(7 + 6 * nsub, len(counts), nsub + 3)]
    tally.dh_sub = [sum(row[sub] for row in per_core) for sub in range(nsub)]
    tally.class_counts[_DEFAULT_CLASS] = sum(tally.ins_sub)
    stream = None
    if emit:
        stream = (out_ops[:emitted], out_addrs[:emitted], out_src[:emitted])
    return tally, per_core, stream


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
# The one publish step of both replay kernels
# ----------------------------------------------------------------------
def publish_level(level, placement, tally: LevelTally) -> None:
    """Land one level's tally on its statistics.

    Besides the capture kernel's L1 freeze, the one caller of
    :meth:`~repro.mem.stats.LevelStats.adopt_counts`. A level that
    tracks metadata energy (only SLIP levels do) charges one metadata
    access per hit, miss and insertion.
    """
    dh, mh = sum(tally.dh_sub), sum(tally.mh_sub)
    metadata_events = 0
    if level.track_metadata_energy:
        metadata_events = (dh + mh + tally.demand_misses
                           + tally.metadata_misses + sum(tally.ins_sub))
    level.stats.adopt_counts(
        demand_hits=dh,
        demand_misses=tally.demand_misses,
        metadata_hits=mh,
        metadata_misses=tally.metadata_misses,
        hits_by_sublevel=[d + m for d, m in zip(tally.dh_sub, tally.mh_sub)],
        insert_events=tally.ins_sub,
        move_read_events=tally.mvr_sub,
        move_write_events=tally.mvw_sub,
        wb_in_events=tally.wbin_sub,
        wb_out_events=tally.wbout_sub,
        reuse_histogram=dict(zip(("0", "1", "2", ">2"), tally.hist)),
        insertions_by_class=dict(zip(INSERTION_CLASSES,
                                     tally.class_counts)),
        bypasses=tally.bypasses,
        metadata_events=metadata_events,
        movement_queue_events=sum(tally.mvr_sub),
        movement_queue_pj=getattr(placement, "movement_queue_pj", 0.0),
    )


def demand_latency(level, demand_hits: Sequence[int], misses: int,
                   miss_latency: int) -> int:
    """Measured-phase demand latency at one level, in cycles.

    Only demand events contribute below L1, and every term is an
    integer count times an integer latency, so the sum is exact.
    """
    latency = [0] * level.cfg.num_sublevels
    for way, sub in enumerate(level.sublevel_by_way):
        latency[sub] = level.latency_by_way[way]
    return (
        sum(count * cycles for count, cycles in zip(demand_hits, latency))
        + misses * miss_latency)


def publish_replay(hierarchies: Sequence, l2_legs: Sequence,
                   l3_tally: LevelTally, l3_legs: Sequence) -> None:
    """Audit one replay kernel's tallies, then land them.

    ``l2_legs`` holds each core's ``(L2 tally, demand, metadata,
    writeback events)``, as :func:`~repro.analysis.invariants.
    check_replay_tallies` balances them. ``l3_legs`` holds what each
    core caused below its L2: ``(L3 demand hits by sublevel, DRAM
    demand reads, DRAM metadata reads, DRAM writes)``. DRAM traffic
    and the measured-phase latency go to the core whose event caused
    them.
    """
    check_replay_tallies(
        l2_legs, l3_tally,
        dram_demand=sum(leg[1] for leg in l3_legs),
        dram_metadata=sum(leg[2] for leg in l3_legs),
        dram_writebacks=sum(leg[3] for leg in l3_legs))
    first = hierarchies[0]
    l3 = first.l3
    publish_level(l3, first.l3_placement, l3_tally)
    for hierarchy, (tally2, *_), (dh3, demand_reads, metadata_reads,
                                  writes) in zip(hierarchies, l2_legs,
                                                 l3_legs):
        l2 = hierarchy.l2
        publish_level(l2, hierarchy.l2_placement, tally2)
        counters = hierarchy.counters
        counters.total_latency_cycles += (
            demand_latency(l2, tally2.dh_sub, tally2.demand_misses,
                           l2.cfg.latency_cycles)
            + demand_latency(l3, dh3, demand_reads,
                             l3.cfg.latency_cycles + hierarchy.dram._latency))
        counters.dram_demand_reads = demand_reads
        counters.dram_metadata_reads = metadata_reads
        counters.dram_writebacks = writes
        hierarchy.dram.stats.reads = demand_reads + metadata_reads
        hierarchy.dram.stats.writes = writes


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
    caller. Each call runs its own L3 leg over the L2 legs' output.

    With several cores the L3 is shared (:mod:`repro.sim.multi_core`):
    DRAM reads and writes, L3 demand hits and with them the
    measured-phase latency go to the core whose event caused them, and
    each line resident in the L3 at the end counts its reuse once per
    core (every core's ``finalize()`` walks the shared level).
    """
    kinds = [eligible_kind(hierarchy) for hierarchy in hierarchies]
    kind = kinds[0]
    if kind is None or any(k != kind for k in kinds):
        return False
    for hierarchy in hierarchies:
        record_success(hierarchy, "replay")
    num_cores = len(hierarchies)

    l2_legs = []  # (tally, demand, metadata, writeback events) per core
    legs3 = []    # (ops, addrs, measured, access index) per core
    for hierarchy, capture in zip(hierarchies, captures):
        ops = np.asarray(capture.ops, dtype=np.uint8)
        addrs = np.asarray(capture.addrs, dtype=np.int64)
        meas = np.zeros(int(ops.shape[0]), dtype=bool)
        meas[capture.event_boundary:] = True
        tally2, _, (ops3, addrs3, src) = _run_level(
            kind, hierarchy.l2, hierarchy.l2_placement, ops, addrs,
            meas, np.zeros(int(ops.shape[0]), dtype=np.int32), 1, 1, True)
        positions = None
        if num_cores > 1:
            positions = capture.event_positions()[src]
        # Measured demand, metadata and writeback events: opcodes 0-2.
        l2_legs.append((tally2, *np.bincount(ops[meas], minlength=3)
                        .tolist()))
        legs3.append((ops3, addrs3, meas[src], positions))

    if num_cores == 1:
        ops3, addrs3, meas3, _ = legs3[0]
        cores3 = np.zeros(int(ops3.shape[0]), dtype=np.int32)
    else:
        order = merge_by_access([leg[3] for leg in legs3])
        ops3, addrs3, meas3 = (
            np.concatenate([leg[i] for leg in legs3])[order]
            for i in range(3))
        cores3 = np.repeat(np.arange(num_cores, dtype=np.int32),
                           [leg[0].shape[0] for leg in legs3])[order]
    del legs3  # the per-core copies of the merged L3 stream
    first = hierarchies[0]
    tally3, per_core3, _ = _run_level(
        kind, first.l3, first.l3_placement, ops3, addrs3, meas3,
        cores3, num_cores, num_cores, False)
    # What each core caused below L3: its L3 demand hits, DRAM demand
    # and metadata reads, and DRAM writes (forwarded writebacks plus
    # dirty L3 victims).
    nsub3 = first.l3.cfg.num_sublevels
    publish_replay(hierarchies, l2_legs, tally3,
                   [(row[:nsub3], *row[nsub3:]) for row in per_core3])
    return True
