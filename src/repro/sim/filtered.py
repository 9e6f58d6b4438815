"""The N-core driver: capture/replay of the policy-invariant front end.

Every sweep cell re-simulates the full trace, yet the front end of
:meth:`~repro.mem.hierarchy.MemoryHierarchy.access` — the
``runtime.on_reference`` TLB handling, the profile-key derivation and
the whole L1 leg — is identical for every policy; only the L2/L3 back
end (and, for SLIP, the live metadata stream) differs. This module
captures that front end once per (trace window, front-end fingerprint)
and then *replays* only the L1->L2 boundary events per policy cell,
byte-identical to the per-access :func:`walk_cores`, the golden reference.

:func:`simulate` drives N >= 1 cores (one hierarchy and trace each;
single-core cells are the one-core case, the Figure 16 mixes of
:mod:`repro.sim.multi_core` share an L3):

1. every core runs the window in which all of them still run;
2. one predicate sends to :func:`walk_cores` every L1 the capture
   kernel cannot model (a random-replacement, metadata-energy or
   sublevel-partitioned L1; the reason lands on
   ``hierarchy.kernel_declines.frontend``) and every slip-kind cell the
   SLIP kernel cannot replay;
3. otherwise each core's window is captured through the capture store
   when the caller passes one: a store hit, else the batched capture
   kernel (:mod:`~repro.sim.vector_frontend`);
4. :func:`replay_capture` replays every core in one step.

The captured stream is **runtime-kind invariant** — TLB hit/miss
positions are one page-grain probe per access regardless of runtime,
and the back end never feeds back into L1 or TLB state — so one
capture per (trace digest, L1 geometry, TLB size, warmup split, seed)
serves every policy; the fingerprint deliberately excludes the runtime
kind, sampler parameters, the Section 7 rd-block knobs (the L1 leg
only stores the profile key on its lines) and all back-end knobs
(per-level energy overrides included: they reach only the live SLIP
runtime):

* For the **baseline runtime kind** the metadata stream is a pure
  function of the TLB, so the flat captured event stream is replayed
  verbatim against a fresh back end and the frozen runtime/TLB stats
  are restored as-is.
* For the **slip runtime kind** (slip / slip_abp) the metadata stream
  depends on back-end feedback (reuse samples drive the page state
  machine), so the :class:`~repro.core.runtime.SlipRuntime` runs live:
  the replay merge-walks the captured TLB-miss and L1-miss positions,
  re-issuing the runtime's TLB-miss path at exactly the captured
  positions; the sampler RNG draws once per profile-key miss in both
  direct and replayed runs, so the RNG stream is preserved. Under
  rd-blocks the key misses are the SLIP-cache's, which the kernel
  derives from the trace window.

The two back-end kernels take one capture per hierarchy
(:func:`~repro.sim.vector_replay.replay_capture_vector` for the
baseline kinds, :func:`~repro.sim.vector_replay_slip.
replay_capture_vector_slip` for the slip kinds, LRU, DRRIP and SHiP
alike), and so does the baseline kinds' scalar replay
(:func:`_replay_events`), which serves what their kernel declines
(random, DRRIP and SHiP replacement): the cores' events merge by
(access index, core). Each replay derives its own precompute (per-set
grouping, L3 stream, captured-position resolutions) from the captures,
so the store holds only captures.

Frozen front-end statistics (L1 LevelStats, TLB and runtime stats,
latency/hit counters) are merged back per core before ``finalize()``;
the restored L1 stats carry no energy tables, so materialization leaves
the frozen energy figures untouched. Every replay ends with the
always-on ``capture-replay-conservation`` invariant
(:func:`repro.analysis.invariants.check_capture_replay`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

import numpy as np

from ..analysis.invariants import check_capture_replay
from ..core.runtime import RuntimeStats
from ..mem.stats import EnergyBreakdown, LevelStats
from ..mem.tlb import TlbStats
from ..workloads.capture_store import (
    OP_DEMAND_MISS,
    OP_METADATA,
    fingerprint_key,
    trace_content_digest,
)
from ..workloads.trace import Trace
from .build import maybe_boost_sampler
from .config import SystemConfig
from .vector_frontend import capture_front_end_vector, frontend_eligible
from .vector_replay import merge_by_access, replay_capture_vector
from .vector_replay_slip import replay_capture_vector_slip, slip_eligible


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def front_end_fingerprint(
    trace: Trace,
    config: SystemConfig,
    seed: int,
    warmup_fraction: float,
) -> Dict:
    """Everything that can influence the captured front end.

    Deliberately *not* the full config hash: back-end knobs (L2/L3
    geometry and energies, DRAM, replacement ablations), the runtime
    kind and the sampler parameters never reach the L1 leg or the TLB
    probe sequence, so sweeps over them all share one capture. SLIP
    replays rebuild their runtime live from ``seed`` and the config.
    """
    return {
        "trace": {
            "digest": trace_content_digest(trace),
            "length": len(trace),
        },
        "l1": asdict(config.l1),
        "l1_replacement": "lru",  # the hierarchy hard-wires L1 to LRU
        "tlb_entries": config.tlb_entries,
        "lines_per_page": config.lines_per_page,
        "timestamp_bits": config.slip.timestamp_bits,
        "warmup_fraction": warmup_fraction,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Frozen-statistics restore
# ----------------------------------------------------------------------
def _restore_level_stats(payload: Dict) -> LevelStats:
    """A LevelStats carrying frozen figures and *no* energy tables.

    Without attached tables ``materialize()`` is a no-op, so the
    frozen energy breakdown survives ``finalize``/``collect_result``
    untouched. Containers are copied so a shared (store-resident)
    frozen dict can never be mutated by a replay.
    """
    data = dict(payload)
    energy = EnergyBreakdown(**data.pop("energy"))
    data["hits_by_sublevel"] = list(data["hits_by_sublevel"])
    data["insertions_by_class"] = dict(data["insertions_by_class"])
    data["reuse_histogram"] = dict(data["reuse_histogram"])
    stats = LevelStats(**data)
    stats.energy = energy
    return stats


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
#: Events per step of the merged replay walks: each step turns one
#: slice of the event columns into Python lists, so no walk holds
#: full-stream lists while the per-slice numpy cost stays invisible.
_REPLAY_CHUNK = 4096


def _walk_chunks(columns, start: int, stop: int):
    """Row tuples of ``columns[start:stop]``, one chunk at a time."""
    for lo in range(start, stop, _REPLAY_CHUNK):
        hi = min(lo + _REPLAY_CHUNK, stop)
        yield from zip(*(column[lo:hi].tolist() for column in columns))


def _replay_events(hierarchies, captures) -> None:
    """Baseline-kind replay: feed the flat event streams verbatim.

    One capture per hierarchy (core). The streams merge by access
    index, then core, each access keeping its capture order (metadata,
    demand miss, writeback): the order in which a round-robin walk of
    the cores issues them. Single-core replay is the one-core case.
    """
    positions = [capture.event_positions() for capture in captures]
    order = merge_by_access(positions)
    boundary = int(np.searchsorted(np.concatenate(positions)[order],
                                   captures[0].warmup))
    del positions
    cores = np.repeat(np.arange(len(captures), dtype=np.uint8),
                      [capture.ops.shape[0] for capture in captures])
    columns = (
        np.concatenate([capture.ops for capture in captures])[order],
        np.concatenate([capture.addrs for capture in captures])[order],
        cores[order],
    )
    del cores, order
    shift = hierarchies[0]._page_shift
    demand, metadata = OP_DEMAND_MISS, OP_METADATA
    totals = [0] * len(hierarchies)
    for start, stop, measured in ((0, boundary, False),
                                  (boundary, int(columns[0].shape[0]),
                                   True)):
        if measured:
            for hierarchy in hierarchies:
                hierarchy.reset_stats()
            totals = [0] * len(hierarchies)
        for op, addr, core in _walk_chunks(columns, start, stop):
            hierarchy = hierarchies[core]
            if op == demand:
                # Metadata latency is discarded in access(); only
                # demand accesses contribute below-L1 latency.
                totals[core] += hierarchy._access_below_l1(
                    addr, False, addr >> shift)
            elif op == metadata:
                hierarchy._access_below_l1(addr, True, -1)
            else:
                hierarchy._writeback_below_l1(addr)
    for hierarchy, total in zip(hierarchies, totals):
        hierarchy.counters.total_latency_cycles += total


def replay_capture(hierarchies, traces, captures) -> None:
    """Feed every core's captured boundary to its back end; finalize.

    One trace window and capture per hierarchy (core). Slip-kind cores
    replay through the SLIP kernel, which :func:`simulate` has already
    checked can serve them (``_needs_walk``). Baseline-kind cores try
    their kernel first, and the scalar replay serves its declines. Each
    core then gets its frozen front end merged back (the replay's own
    L1 is empty, never filled, so ``finalize()`` touches only live
    L2/L3 state) and the ``capture-replay-conservation`` audit runs
    over the finished cores.
    """
    slip_kind = getattr(hierarchies[0].runtime, "slip_enabled", False)
    if slip_kind:
        if not replay_capture_vector_slip(hierarchies, traces, captures):
            raise ValueError(
                "the SLIP kernel declined these cores "
                f"({hierarchies[0].kernel_declines.replay}); walk them")
    elif not replay_capture_vector(hierarchies, captures):
        _replay_events(hierarchies, captures)

    for hierarchy, capture in zip(hierarchies, captures):
        frozen = capture.frozen
        hierarchy.l1.stats = _restore_level_stats(frozen["l1"])
        counters = hierarchy.counters
        counters.demand_accesses = int(frozen["demand_accesses"])
        counters.l1_hits = int(frozen["l1_hits"])
        counters.total_latency_cycles += int(frozen["l1_latency_cycles"])
        if not slip_kind:
            runtime = hierarchy.runtime
            runtime.stats = RuntimeStats(**frozen["runtime"])
            runtime.tlb.stats = TlbStats(**frozen["tlb"])
        hierarchy.finalize()
    check_capture_replay(hierarchies, captures, slip_kind=slip_kind)


def walk_cores(hierarchies, traces, warmup_fraction: float) -> None:
    """The golden reference: drive every core's ``access()`` in turn.

    One equal-length trace window per hierarchy (core). The cores
    advance round-robin (access ``idx`` of core 0, then of core 1, ...)
    through a warmup prefix whose statistics are discarded, the
    SimPoint-style warmup, and then the measured rest; every core is
    finalized at the end. Single-core is the one-core case.
    """
    cores = [(hierarchy, trace.addresses.tolist(), trace.is_write.tolist())
             for hierarchy, trace in zip(hierarchies, traces)]
    n = len(traces[0])
    warmup = int(n * warmup_fraction)
    for idx in range(warmup):
        for hierarchy, addrs, writes in cores:
            hierarchy.access(addrs[idx], writes[idx])
    for hierarchy in hierarchies:
        hierarchy.reset_stats()
    for idx in range(warmup, n):
        for hierarchy, addrs, writes in cores:
            hierarchy.access(addrs[idx], writes[idx])
    for hierarchy in hierarchies:
        hierarchy.finalize()


# ----------------------------------------------------------------------
# The N-core driver
# ----------------------------------------------------------------------
def _needs_walk(hierarchies, traces) -> bool:
    """Whether no capture can serve these cores: an L1 the capture
    kernel cannot model (``frontend_eligible``), or a slip-kind cell the
    SLIP kernel cannot replay (``slip_eligible``); the kernels record
    why on the cores."""
    if not all([frontend_eligible(hierarchy) for hierarchy in hierarchies]):
        return True
    return (getattr(hierarchies[0].runtime, "slip_enabled", False)
            and not slip_eligible(hierarchies, traces))


def simulate(hierarchies, traces, config: SystemConfig, seed: int,
             warmup_fraction: float, store=None) -> None:
    """Run N >= 1 cores over their traces to finalized statistics.

    Every core runs the window in which all of them still run (the
    shortest trace). Cells no capture can serve walk (``_needs_walk``);
    every other cell captures each core's window through ``store`` (a
    store hit, else the capture kernel), keyed by the window's
    front-end fingerprint with the core's seed ``seed + core``, and
    replays the captures in one step. With ``store=None`` every core
    captures and nothing is kept.
    """
    shortest = min(len(trace) for trace in traces)
    windows = [trace if len(trace) == shortest else trace.sliced(0, shortest)
               for trace in traces]
    # Scale compensation for every core (see maybe_boost_sampler).
    for hierarchy in hierarchies:
        maybe_boost_sampler(hierarchy.runtime)
    if _needs_walk(hierarchies, windows):
        walk_cores(hierarchies, windows, warmup_fraction)
        return
    captures = []
    for core, (hierarchy, window) in enumerate(zip(hierarchies, windows)):
        key = capture = None
        if store is not None:
            key = fingerprint_key(front_end_fingerprint(
                window, config, seed + core, warmup_fraction))
            capture = store.get(key)
        if capture is None:
            capture = capture_front_end_vector(hierarchy, window, config,
                                               warmup_fraction)
            if capture is None:
                raise ValueError(
                    "the capture kernel declined an eligible core "
                    f"({hierarchy.kernel_declines.frontend})")
            if store is not None:
                store.put(key, capture)
        captures.append(capture)
    replay_capture(hierarchies, windows, captures)

