"""Phase-split replay kernel for slip-runtime-kind cells.

The kernel replays every slip/slip_abp cell the N-core driver
(:func:`repro.sim.filtered.simulate`) captures: it drives the live
:class:`~repro.core.runtime.SlipRuntime` at the access indices of the
captured metadata (TLB-miss) and demand events and at the profile-key
misses, as the per-access walk would, but without ``Line`` objects,
``FillOutcome`` allocation, placement dispatch or per-event statistics
bumps. Unlike the
baseline-kind kernel (:mod:`repro.sim.vector_replay`), the SLIP back
end cannot be replayed per set: reuse samples taken on L2/L3 hits and
misses feed the page state machine that steers *future* fills at both
levels, so the two levels must be co-simulated in global event order.

The kernel therefore splits the work differently:

* **Phase 1 (the sweep, in C)** — ``slip_sweep`` in ``_lru.c`` (loaded
  by :mod:`repro.sim.native`) runs one merged-order sweep over the
  reference-metadata events (TLB or profile-key misses) and the
  captured demand events. The paper runs one mechanism at every
  level below L1, and so does the sweep: one C routine, over flat line
  columns, serves each core's L2 and the L3. A fill inserts into chunk
  C0 of the page's SLIP and cascades each displaced line to its SLIP's
  next chunk; hits and misses of sampling pages take reuse samples
  into the page's distribution. Under DRRIP or SHiP (paper Section 7)
  the stamp column holds RRPVs, the policy's MT19937 runs from its
  ``getstate()`` and is written back with ``setstate()``, and the SHCT
  is copied in and back out. The page state machine stays the
  runtime's own: the sweep owns each profile key's row (state,
  policies, bins, ``period_samples``) between key fetches, and at each
  key miss calls back into :func:`replay_capture_vector_slip`'s fetch,
  which hands the row to the key's ``SlipPageEntry``, runs the real
  ``_key_metadata_fetches`` (sampler RNG draws, the warmth test,
  memoized EOU argmins and their live statistics) and takes the
  entry's state back. An exception raised there stops the sweep and is
  raised again here. The sweep is called twice, up to the warmup
  boundary and then to the end, and counts straight into per-level,
  per-core tallies.
* **Phase 2 (accounting)** — the tallies become one
  :class:`~repro.sim.vector_replay.LevelTally` per level, and the
  publish step both replay kernels share
  (:func:`~repro.sim.vector_replay.publish_replay`) runs the
  ``vector-replay-conservation`` audit, which balances the tallies
  against the capture and, as each L2's expected metadata count, the
  live runtime's fetch ledger, and lands them with each core's DRAM
  traffic and measured-phase latency.

The kernel takes one trace window and capture per core. In the Figure
16 mixes (:mod:`repro.sim.multi_core`) the cores share one L3 level —
one access counter, allocation rotor, LRU clock and line array — and
the sweep visits their events in the walk's order: access index, then
core, then the reference metadata before the L1 miss. A single core is
the one-core case of the same sweep. Every L3 event is tallied under
the core that caused it, so DRAM reads and writes, and each core's
measured-phase latency, are charged to that core; each line resident
in the shared L3 at the end counts its reuse once per core, as every
core's ``finalize()`` walks the shared level (EXPERIMENTS.md known
deviation 4). Every call reads its misses, their victims' writebacks
and the TLB misses' PTE lines off each capture's one boundary stream
and resolves dense profile-key ids itself (:func:`_merged_events`);
nothing is kept across cells.

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
draws its sublevel and BRRIP choices from the replacement's own
generator in the order of ``SlipPlacement.fill``. The per-access walk
(:func:`repro.sim.filtered.walk_cores`) remains the golden reference
and serves everything :func:`slip_eligible` declines, before any
capture is taken: non-SLIP placements, foreign runtimes
and Random replacement, cores that do not share one L3, a shared-L3
router whose runtimes are not the cores' own in core order, a profile
key that routes to another core's runtime, and a missing compiled
library (reason recorded via
:func:`repro.sim.kernel_report.record_decline`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
from ..workloads.capture_store import (
    OP_DEMAND_MISS,
    OP_METADATA,
    OP_WRITEBACK,
    TraceCapture,
)
from ..workloads.trace import Trace
from . import native
from .kernel_report import record_decline, record_success
from .vector_frontend import _tlb_miss_positions
from .vector_replay import LevelTally, merge_by_access, publish_replay

#: Replacement policies the sweep replays (exact types), by the
#: ``replacement`` code of a level descriptor.
_REPLACEMENTS = {LruReplacement: 0, DrripReplacement: 1,
                 ShipReplacement: 2}


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
    The compiled library must load (else ``native-unavailable``).
    Per-core declines record a reason on that core's
    ``kernel_declines.replay``; shared declines record theirs on every
    core.
    """
    if not all([_core_eligible(hierarchy) for hierarchy in hierarchies]):
        return False

    def decline(reason: str) -> bool:
        for hierarchy in hierarchies:
            record_decline(hierarchy, "replay", reason)
        return False

    if native.library() is None:
        return decline("native-unavailable")
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


#: One level descriptor row of ``slip_sweep`` in ``_lru.c``, in the
#: order of its ``LV_*`` fields.
LEVEL_FIELDS = (
    "sets", "ways", "nsub", "wrap", "granule", "ts_mask", "max_hit",
    "counter", "rotor", "clock", "replacement", "rrpv_max", "meta_slip",
    "select", "bin_column", "lines", "shct", "shct_size", "shct_max",
    "sig_shift", "long_prob", "sublevels", "slips", "bounds", "brrip",
    "rng", "tally")
_FIELD = {name: index for index, name in enumerate(LEVEL_FIELDS)}
#: A level's line columns in the ``lines`` pool (tag, stamp, timestamp,
#: hits, SLIP id, chunk, key id, dirty), by index.
_COLUMNS = 8
_TAG, _HITS, _KEY = 0, 3, 6
#: A page-table row (``P_*``): the bins of each level follow.
_EXISTS, _SAMPLING, _SAMPLES, _TOUCHED, _POLICY = range(5)
_BINS = _POLICY + 2
#: A per-(level, core) tally block (``T_*``): four counts, the class
#: counts and the reuse histogram, then seven per-sublevel blocks
#: (``S_*``): demand hits, metadata hits, insertions, movement reads,
#: movement writes, absorbed and emitted writebacks.
_SUB = 12
_SUB_BLOCKS = 7
_WBOUT = 6
#: MT19937 words plus index, as ``random.Random.getstate()[1]``.
_MT_WORDS = 625
#: What the fetch callback returns when the fetch raised.
_FETCH_ABORT = -2


class _Levels:
    """The levels one sweep runs, ``legs`` (each core's L2, then the
    L3, as ``(level, placement, select)``), packed into
    ``slip_sweep``'s descriptor rows and the pools they point into.
    ``select`` is 0 for an L2 and 1 for the L3: the column of the
    level's SLIP id in a page-table row and in a core's defaults.

    The line columns start empty; the access counter, allocation rotor
    and LRU clock are the live level's. Under DRRIP or SHiP the chunk
    records carry the policy's own ``sublevel_split`` groups, the
    generator state is the policy's (:meth:`hand_back` writes it back)
    and a SHiP level's SHCT is copied in and back out.
    """

    def __init__(self, legs, bin_columns: Sequence[int],
                 bounds: Sequence[Sequence[int]], num_cores: int) -> None:
        self.legs = legs
        self.num_cores = num_cores
        self._tables: List[int] = []
        # The lines pool is allocated once, at its final size; these
        # ``(start, stop, value)`` fills are its non-zero contents.
        self._fills: List[Tuple[int, int, object]] = []
        self._lines_size = 0
        self._rng: List[Sequence[int]] = []
        self._tally_size = 0
        self.descriptors = np.array([
            self._describe(level, placement, select, bin_columns[select],
                           bounds[select])
            for level, placement, select in legs], dtype=np.int64)
        self.lines = np.zeros(self._lines_size, dtype=np.int64)
        for start, stop, value in self._fills:
            self.lines[start:stop] = value
        self.tables = np.array(self._tables, dtype=np.int64)
        self.rng = np.array(self._rng, dtype=np.uint32).reshape(-1)
        self.tally = np.zeros(self._tally_size, dtype=np.int64)

    def _table(self, values) -> int:
        offset = len(self._tables)
        self._tables.extend(values)
        return offset

    def _line_block(self, size: int) -> int:
        offset = self._lines_size
        self._lines_size += size
        return offset

    def _describe(self, level, placement, select: int, bin_column: int,
                  bounds: Sequence[int]) -> List[int]:
        """One level's descriptor row; its columns and tables go into
        the pools."""
        cfg = level.cfg
        nsub = cfg.num_sublevels
        replacement = level.replacement
        kind = _REPLACEMENTS[type(replacement)]
        size = level.num_sets * cfg.ways
        lines = self._line_block(_COLUMNS * size)
        for column in (_TAG, _KEY):  # no line, no key
            start = lines + column * size
            self._fills.append((start, start + size, -1))
        row = dict(
            sets=level.num_sets, ways=cfg.ways, nsub=nsub,
            wrap=level.timestamp_wrap, granule=level._granule,
            ts_mask=level._ts_mask, max_hit=cfg.lines - 1,
            counter=level.access_counter, rotor=level._alloc_rotor,
            clock=0, replacement=kind, rrpv_max=0,
            meta_slip=placement._default_id, select=select,
            bin_column=bin_column, lines=lines, shct=0,
            shct_size=0, shct_max=0, sig_shift=0, long_prob=0, brrip=0,
            sublevels=self._table(level.sublevel_by_way),
            bounds=self._table(bounds), rng=len(self._rng) * _MT_WORDS,
            tally=self._tally_size)
        self._tally_size += self.num_cores * (_SUB + _SUB_BLOCKS * nsub)
        words: Sequence[int] = (0,) * _MT_WORDS
        if kind:
            row["rrpv_max"] = replacement.rrpv_max
            words = replacement._rng.getstate()[1]
        else:
            row["clock"] = replacement._clock
        self._rng.append(words)
        if type(replacement) is DrripReplacement:
            # Nothing moves PSEL (known deviation 5), so a follower
            # set's insertion policy is fixed for the whole call.
            follower = replacement.psel > replacement.psel_max // 2
            row["brrip"] = self._table(
                role == "brrip" or (role == "follower" and follower)
                for role in replacement.set_roles)
            row["long_prob"] = int(
                np.float64(replacement.brrip_long_prob).view(np.int64))
        elif type(replacement) is ShipReplacement:
            shct = self._line_block(len(replacement.shct))
            self._fills.append(
                (shct, shct + len(replacement.shct), replacement.shct))
            row.update(shct=shct, shct_size=len(replacement.shct),
                shct_max=replacement.shct_max,
                sig_shift=replacement.signature_shift)
        # Each SLIP's record: chunk count, insertion class, then each
        # chunk's record offset: its ways and, when an RRIP level
        # splits them by sublevel, the cumulative group sizes and the
        # groups.
        slips = []
        for per_chunk, slip_class in zip(placement.space.chunk_ways_by_id,
                                         placement.space.class_by_id):
            offsets = []
            for ways in per_chunk:
                split = replacement.sublevel_split(ways) if kind else None
                record = [len(ways), 0, *ways]
                if split is not None:
                    groups, cum_weights = split
                    record[1] = len(groups)
                    record += [*cum_weights,
                               *(w for group in groups for w in group)]
                offsets.append(self._table(record))
            slips += [len(offsets), INSERTION_CLASSES.index(slip_class),
                      *offsets, *[0] * (nsub - len(offsets))]
        row["slips"] = self._table(slips)
        return [int(row[name]) for name in LEVEL_FIELDS]

    def hand_back(self) -> None:
        """Each RRIP policy's generator, and a SHiP level's SHCT, where
        the sweep left them."""
        for index, (level, _, _) in enumerate(self.legs):
            replacement = level.replacement
            if type(replacement) is LruReplacement:
                continue
            version, _, gauss = replacement._rng.getstate()
            words = self.rng[index * _MT_WORDS:(index + 1) * _MT_WORDS]
            replacement._rng.setstate(
                (version, tuple(words.tolist()), gauss))
            if type(replacement) is ShipReplacement:
                start = int(self.descriptors[index, _FIELD["shct"]])
                replacement.shct[:] = \
                    self.lines[start:start + len(replacement.shct)].tolist()

    def tallies(self, index: int) -> Tuple[LevelTally, List[List[int]]]:
        """One level's :class:`LevelTally` and its per-core blocks.

        The blocks sum into the tally, plus ``finalize()``'s
        resident-line reuse sweep (the real arrays are empty): every
        core bound to the level walks it in its own ``finalize()``, so
        the shared L3 counts each line once per core.
        """
        level, _, select = self.legs[index]
        descriptor = self.descriptors[index]
        nsub = level.cfg.num_sublevels
        width = _SUB + _SUB_BLOCKS * nsub
        start = int(descriptor[_FIELD["tally"]])
        blocks = self.tally[start:start + self.num_cores * width].reshape(
            self.num_cores, width)
        size = level.num_sets * level.cfg.ways
        base = int(descriptor[_FIELD["lines"]])
        tags = self.lines[base + _TAG * size:base + (_TAG + 1) * size]
        hits = self.lines[base + _HITS * size:base + (_HITS + 1) * size]
        residents = np.bincount(np.minimum(hits[tags >= 0], 3), minlength=4)
        counts = blocks.sum(axis=0).tolist()
        tally = LevelTally(nsub)
        (tally.demand_misses, tally.metadata_misses, tally.forwarded_wbs,
         tally.bypasses) = counts[:4]
        tally.class_counts = counts[4:8]
        tally.hist = (np.asarray(counts[8:12])
                      + residents * (self.num_cores if select else 1)
                      ).tolist()
        (tally.dh_sub, tally.mh_sub, tally.ins_sub, tally.mvr_sub,
         tally.mvw_sub, tally.wbin_sub, tally.wbout_sub) = (
            counts[_SUB + i * nsub:_SUB + (i + 1) * nsub]
            for i in range(_SUB_BLOCKS))
        return tally, blocks.tolist()


class _PageTable:
    """The sweep's page table: one row per profile key (``P_*``).

    The sweep changes a row only by samples (bins and
    ``period_samples``, marking it touched); the runtime's
    ``SlipPageEntry`` owns everything else. At each key fetch
    :meth:`callback` hands a touched row to its entry, runs the live
    runtime's ``_key_metadata_fetches`` and takes the entry's state
    back into the row; :meth:`finish` hands over the rows still
    touched at the end.
    """

    def __init__(self, runtimes, keys: np.ndarray, owners: np.ndarray,
                 names: Sequence[str], bins: Sequence[int]) -> None:
        self.runtimes = runtimes
        self.keys = keys.tolist()
        self.owners = owners.tolist()
        self.names = names
        self.columns = []
        column = _BINS
        for count in bins:
            self.columns.append((column, column + count))
            column += count
        self.array = np.zeros((len(self.keys), column), dtype=np.int64)
        self.width = column
        self.rows = memoryview(self.array.reshape(-1))
        self.error = None
        for runtime in runtimes:
            for key, entry in runtime.pages.items():
                kid = int(np.searchsorted(keys, key))
                if kid < len(self.keys) and self.keys[kid] == key:
                    self.load(kid, entry)
                    for name, (lo, hi) in zip(names, self.columns):
                        self.array[kid, lo:hi] = \
                            entry.distributions[name].counts

    def load(self, kid: int, entry) -> None:
        """The entry's state machine and policies into its row."""
        rows, base = self.rows, kid * self.width
        rows[base + _EXISTS] = 1
        rows[base + _SAMPLING] = int(entry.state is PageState.SAMPLING)
        rows[base + _SAMPLES] = entry.period_samples
        for select, name in enumerate(self.names):
            rows[base + _POLICY + select] = entry.policies[name]

    def store(self, kid: int, entry) -> None:
        """The sweep's samples into the entry."""
        rows, base = self.rows, kid * self.width
        for name, (lo, hi) in zip(self.names, self.columns):
            entry.distributions[name].counts = \
                rows[base + lo:base + hi].tolist()
        entry.period_samples = rows[base + _SAMPLES]
        rows[base + _TOUCHED] = 0

    def callback(self, core: int, kid: int) -> int:
        """``slip_sweep``'s fetch: the distribution line to fetch, -1
        for none; an exception is kept for the caller to raise."""
        try:
            runtime = self.runtimes[core]
            key = self.keys[kid]
            if self.rows[kid * self.width + _TOUCHED]:
                self.store(kid, runtime.pages[key])
            fetches = runtime._key_metadata_fetches(key)
            self.load(kid, runtime.pages[key])
            return fetches[0] if fetches else -1
        except BaseException as error:
            self.error = error
            return _FETCH_ABORT

    def finish(self) -> None:
        """Hand every row the sweep touched since its last fetch to its
        entry."""
        touched = np.flatnonzero(self.array[:, _TOUCHED]).tolist()
        for kid in touched:
            runtime = self.runtimes[self.owners[kid]]
            self.store(kid, runtime.pages[self.keys[kid]])


def _merged_events(hierarchy, traces: Sequence[Trace],
                   captures: Sequence[TraceCapture]
                   ) -> Tuple[np.ndarray, ...]:
    """Every core's boundary stream, resolved and merged for the sweep.

    ``hierarchy`` is any core's (they share the config). Returns
    ``(misses, refs, keys, owners)``. ``misses`` has five rows, one
    column per demand event: position, core, line, key id and the L1
    victim's writeback, the address of the ``OP_WRITEBACK`` event right
    after the miss (else -1). ``refs`` has four, one column per
    reference-metadata event, an access whose page misses the TLB or
    whose profile key misses: position, core, key id (-1 if the key
    hit) and PTE line (-1 if the page hit), the address of the access's
    ``OP_METADATA`` event. In page mode the key is the page, so the key
    misses are the TLB misses; under rd-blocks they are the misses of
    the runtime's SLIP-cache, an LRU over the window's block stream
    (:func:`~repro.sim.vector_frontend._tlb_miss_positions`). A
    position is ``access index * cores + core``, so its order is the
    walk's (access index, core) order and a single core's are its
    positions. Both position rows end with the ``n * cores`` sentinel,
    which is >= every stop, so the sweep needs no bounds checks. Key
    ids index ``keys``, the sorted profile keys, and ``owners`` names
    the core each key belongs to.
    """
    runtime = hierarchy.runtime
    key_shift = runtime.key_shift
    num_cores = len(captures)
    miss_columns, ref_columns = [], []
    miss_positions, ref_positions = [], []
    for core, (trace, capture) in enumerate(zip(traces, captures)):
        addresses = trace.addresses
        ops, addrs, pos = capture.ops, capture.addrs, capture.pos
        demand = np.flatnonzero(ops == OP_DEMAND_MISS)
        metadata = np.flatnonzero(ops == OP_METADATA)
        # A miss's victim writeback is the event right after it (a miss
        # that ends the stream follows itself).
        following = np.minimum(demand + 1, ops.shape[0] - 1)
        victims = np.where(ops[following] == OP_WRITEBACK,
                           addrs[following], -1)
        miss_pos = pos[demand]
        tlb_pos = pos[metadata]
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
        ptes = np.full(ref_pos.shape[0], -1, dtype=np.int64)
        ptes[np.searchsorted(ref_pos, tlb_pos)] = addrs[metadata]
        lines = addrs[demand]
        miss_columns.append((
            miss_pos * num_cores + core,
            np.full(miss_pos.shape[0], core, dtype=np.int64),
            lines, lines >> key_shift, victims))
        ref_columns.append((
            ref_pos * num_cores + core,
            np.full(ref_pos.shape[0], core, dtype=np.int64),
            np.where(kinds & 2, addresses[ref_pos] >> key_shift, -1),
            ptes))
        miss_positions.append(miss_pos)
        ref_positions.append(ref_pos)
    end = captures[0].n * num_cores
    merged = []
    for columns, positions in ((miss_columns, miss_positions),
                               (ref_columns, ref_positions)):
        order = merge_by_access(positions)
        table = np.zeros((len(columns[0]), order.shape[0] + 1),
                         dtype=np.int64)
        for row, column in zip(table, zip(*columns)):
            row[:-1] = np.concatenate(column)[order]
        table[0, -1] = end
        merged.append(table)
    misses, refs = merged
    # Dense key ids: the sweep's page table has one row per key.
    miss_keys, ref_keys = misses[3, :-1], refs[2, :-1]
    keyed = ref_keys >= 0
    keys, ids = np.unique(np.concatenate((miss_keys, ref_keys[keyed])),
                          return_inverse=True)
    owners = np.empty(keys.shape[0], dtype=np.int64)
    miss_keys[:] = ids[:miss_keys.shape[0]]
    ref_keys[keyed] = ids[miss_keys.shape[0]:]
    owners[miss_keys] = misses[1, :-1]
    owners[ref_keys[keyed]] = refs[1, :-1][keyed]
    return misses, refs, keys, owners


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
    runtimes = [hierarchy.runtime for hierarchy in hierarchies]
    misses, refs, keys, owners = _merged_events(first, traces, captures)

    # ----- the levels: each core's L2, then the L3 -----
    names = (first.l2_placement._level_name, first.l3_placement._level_name)
    bounds = [first.runtime._boundaries(name) for name in names]
    pages = _PageTable(runtimes, keys, owners, names,
                       [len(b) + 1 for b in bounds])
    levels = _Levels(
        [(h.l2, h.l2_placement, 0) for h in hierarchies]
        + [(first.l3, first.l3_placement, 1)],
        [lo for lo, _ in pages.columns], bounds, num_cores)
    cores = np.array([
        (runtime.always_sample, runtime._counter_max,
         *(runtime._default_ids[name] for name in names))
        for runtime in runtimes], dtype=np.int64)

    # ----- phase 1: the sweep, to the warmup boundary, then measured --
    cursor = np.zeros(2, dtype=np.int64)
    fetch = native.FETCH(pages.callback)
    for stop in (warmup, n):
        if stop == n:
            # Same boundary as the walk: counters reset, cache / TLB /
            # page state stays warm (EOU memo survives).
            for hierarchy in hierarchies:
                hierarchy.reset_stats()
            levels.tally[:] = 0
        status = native.library().slip_sweep(
            num_cores, stop * num_cores, cursor, misses,
            misses.shape[1] - 1, refs, refs.shape[1] - 1, cores,
            pages.array, pages.width, levels.descriptors, levels.lines,
            levels.tables, levels.rng, levels.tally, fetch)
        if pages.error is not None:
            raise pages.error
        if status:
            raise MemoryError("slip_sweep: out of memory")
    pages.finish()
    levels.hand_back()

    # ----- phase 2: the tallies into the shared publish step -----
    tally3, blocks3 = levels.tallies(num_cores)
    nsub3 = first.l3.cfg.num_sublevels
    wbout3 = _SUB + _WBOUT * nsub3
    # Live runtime/TLB ledgers: one page-grain probe per access, one
    # miss per measured metadata event; hits are the complement.
    l2_legs, l3_legs = [], []
    for core, (hierarchy, capture, block) in enumerate(
            zip(hierarchies, captures, blocks3)):
        demand, tlb_misses, writebacks = np.bincount(
            capture.ops[capture.pos >= warmup], minlength=3).tolist()
        runtime_stats = hierarchy.runtime.stats
        runtime_stats.tlb_miss_fetches = tlb_misses
        tlb_stats = hierarchy.runtime.tlb.stats
        tlb_stats.misses = tlb_misses
        tlb_stats.hits = (n - warmup) - tlb_misses
        l2_legs.append((
            levels.tallies(core)[0], demand,
            runtime_stats.tlb_miss_fetches
            + runtime_stats.distribution_fetches,
            writebacks,
        ))
        # What this core caused below its L2: L3 demand hits, DRAM
        # reads, and DRAM writes (writebacks the L3 forwarded, dirty
        # lines its fills evicted).
        l3_legs.append((block[_SUB:_SUB + nsub3], block[0], block[1],
                        block[2] + sum(block[wbout3:wbout3 + nsub3])))
    publish_replay(hierarchies, l2_legs, tally3, l3_legs)
    return True
