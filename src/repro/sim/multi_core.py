"""Multiprogrammed simulation with a shared L3 (Figure 16).

Each core has a private L1 and a private 256 KB L2; the 2 MB L3 is
shared. Address spaces are disjoint (multiprogrammed SPEC, no sharing),
so the only interaction is capacity/interleaving pressure in the L3 —
which roughly doubles observed reuse distances, pushes more pages into
bypassing SLIPs, and yields the larger L3 savings the paper reports.

A mix runs on the same N-core driver as a single-core cell
(:func:`repro.sim.filtered.simulate`): the cores advance round-robin
over the window in which all of them still run (the shortest trace),
access ``idx`` of core 0, then access ``idx`` of core 1, and so on. A
core's TLB and L1 never see the shared L3, so each core's front end is
exactly a single-core capture of its own trace window, shared through
the capture store with every other cell over that window (a mix's
baseline and SLIP cells, and pool workers over the disk store). The
replay merges the cores' boundary events by (access index, core) into
the private L2s and the shared L3:

* baseline / nurapid / lru_pea run the batched back end
  (:func:`~repro.sim.vector_replay.replay_capture_vector`): one L2 leg
  per core, one L3 leg over the merged L2 miss streams;
* slip / slip_abp run the phase-split kernel
  (:func:`~repro.sim.vector_replay_slip.replay_capture_vector_slip`):
  one flat L2 model per core driven by that core's live runtime, one
  flat shared-L3 model, swept in the merged event order;
* whatever the baseline-kind kernel declines runs the merged scalar
  replay of :mod:`repro.sim.filtered`.

The per-access walk (:func:`repro.sim.filtered.walk_cores`) stays the
golden reference and serves SimCheck, any core whose L1 the capture
kernel declines and any slip-kind mix the phase-split kernel cannot
replay; all of them walk before any capture is taken. This module
builds the mix (:func:`_build_mix`) and collects its
:class:`MulticoreResult` (:func:`_collect_mix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.controller import SlipPlacement
from ..core.runtime import BaselineRuntime, RoutedSlipRuntime, SlipRuntime
from ..mem.cache import CacheLevel
from ..mem.hierarchy import MemoryHierarchy
from ..mem.replacement import LruReplacement
from ..mem.stats import DramStats, LevelStats
from ..policies.base import PlacementPolicy
from ..policies.baseline import BaselinePlacement
from ..policies.lru_pea import LruPeaPlacement, PeaLruReplacement
from ..policies.nurapid import NurapidPlacement
from ..workloads.mixes import CORE_ADDRESS_STRIDE, make_mix_traces
from ..workloads.trace import Trace
from .build import runtime_kind
from .config import SystemConfig, default_system
from .filtered import simulate


def core_key_shift(runtime: SlipRuntime) -> int:
    """Right shift that recovers the core id from a SLIP profile key.

    Keys are page numbers, or rd-block numbers under the Section 7
    extension; either way the core's address region sets the top bits.
    """
    return (CORE_ADDRESS_STRIDE.bit_length() - 1) - runtime.key_shift


@dataclass
class MulticoreResult:
    """Measurements from one multicore mix under one policy."""

    policy: str
    mix: Tuple[str, str]
    l2_stats: List[LevelStats]
    l3_stats: LevelStats
    dram: DramStats
    eou_energy_pj: float = 0.0
    dram_accesses: int = 0

    def l2_energy_pj(self) -> float:
        return math.fsum(s.energy.total_pj for s in self.l2_stats)

    def l3_energy_pj(self) -> float:
        return self.l3_stats.energy.total_pj + self.eou_energy_pj

    def combined_energy_pj(self) -> float:
        return self.l2_energy_pj() + self.l3_energy_pj()

    def savings_over(self, baseline: "MulticoreResult",
                     what: str) -> float:
        mine, base = {
            "L3": (self.l3_energy_pj(), baseline.l3_energy_pj()),
            "L2+L3": (self.combined_energy_pj(),
                      baseline.combined_energy_pj()),
            "DRAM": (float(self.dram_accesses),
                     float(baseline.dram_accesses)),
        }[what]
        if base == 0:
            return 0.0
        return 1.0 - mine / base


def _build_shared_l3(config: SystemConfig, policy: str,
                     runtimes: List, seed: int
                     ) -> Tuple[CacheLevel, PlacementPolicy]:
    if policy == "lru_pea":
        replacement = PeaLruReplacement()
    else:
        replacement = LruReplacement()
    level = CacheLevel(
        config.l3, replacement,
        track_metadata_energy=policy in ("slip", "slip_abp"),
        timestamp_bits=config.slip.timestamp_bits,
    )
    mq_pj = config.slip.movement_queue_lookup_pj
    placement: PlacementPolicy
    if policy == "baseline":
        placement = BaselinePlacement()
    elif policy == "nurapid":
        placement = NurapidPlacement(mq_pj)
    elif policy == "lru_pea":
        placement = LruPeaPlacement(mq_pj, seed=seed)
    elif policy in ("slip", "slip_abp"):
        router = RoutedSlipRuntime(runtimes, core_key_shift(runtimes[0]))
        placement = SlipPlacement(runtimes[0].spaces["L3"], router, mq_pj)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    placement.attach(level)
    return level, placement


def _build_mix(policy: str, config: SystemConfig, num_cores: int,
               seed: int) -> Tuple[List, CacheLevel, List[MemoryHierarchy]]:
    """Per-core runtimes and hierarchies around one shared L3."""
    mq_pj = config.slip.movement_queue_lookup_pj
    slip = runtime_kind(policy) == "slip"
    runtimes: List = []
    for core in range(num_cores):
        if slip:
            runtimes.append(SlipRuntime(
                config, allow_abp=policy == "slip_abp", seed=seed + core))
        else:
            runtimes.append(BaselineRuntime(config))

    shared_l3, l3_placement = _build_shared_l3(
        config, policy, runtimes, seed
    )

    hierarchies: List[MemoryHierarchy] = []
    for core in range(num_cores):
        if policy == "baseline":
            l2_placement: PlacementPolicy = BaselinePlacement()
            l2_repl = LruReplacement()
        elif policy == "nurapid":
            l2_placement = NurapidPlacement(mq_pj)
            l2_repl = LruReplacement()
        elif policy == "lru_pea":
            l2_placement = LruPeaPlacement(mq_pj, seed=seed + core)
            l2_repl = PeaLruReplacement()
        else:
            l2_placement = SlipPlacement(
                runtimes[core].spaces["L2"], runtimes[core], mq_pj
            )
            l2_repl = LruReplacement()
        hierarchies.append(
            MemoryHierarchy(
                config,
                l2_placement=l2_placement,
                l3_placement=l3_placement,
                runtime=runtimes[core],
                l2_replacement=l2_repl,
                track_slip_metadata_energy=slip,
                shared_l3=(shared_l3, l3_placement),
            )
        )
    return runtimes, shared_l3, hierarchies


def _collect_mix(mix: Tuple[str, ...], policy: str, runtimes: List,
                 shared_l3: CacheLevel,
                 hierarchies: List[MemoryHierarchy]) -> MulticoreResult:
    """Fold the finalized per-core ledgers into a result."""
    # The driver's finalize() materialized every private level and the
    # shared L3 (idempotently, once per owning hierarchy); materialize
    # again explicitly so the collection below cannot depend on that
    # detail.
    shared_l3.stats.materialize()
    for hierarchy in hierarchies:
        hierarchy.l2.stats.materialize()

    # Aggregate per-channel DRAM ledgers. Counts are integers; the
    # energy total is assigned once via fsum over the materialized
    # per-channel products rather than accumulated with += (SLIP007).
    dram = DramStats()
    dram.reads = sum(h.dram.stats.reads for h in hierarchies)
    dram.writes = sum(h.dram.stats.writes for h in hierarchies)
    dram.energy_pj = math.fsum(
        h.dram.stats.energy_pj for h in hierarchies
    )
    dram_accesses = sum(h.dram.stats.accesses for h in hierarchies)

    eou_pj = 0.0
    if runtime_kind(policy) == "slip":
        eou_pj = math.fsum(rt.eou_energy_pj("L3") for rt in runtimes)

    return MulticoreResult(
        policy=policy,
        mix=tuple(mix),
        l2_stats=[h.l2.stats for h in hierarchies],
        l3_stats=shared_l3.stats,
        dram=dram,
        eou_energy_pj=eou_pj,
        dram_accesses=dram_accesses,
    )


def run_mix(
    mix: Tuple[str, str],
    policy: str,
    length_per_core: int = 100_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    warmup_fraction: float = 0.3,
    store=None,
) -> MulticoreResult:
    """Simulate one two-core mix under one policy."""
    config = config or default_system()
    traces = make_mix_traces(mix, length_per_core, seed)
    return run_mix_traces(traces, mix, policy, config, seed,
                          warmup_fraction=warmup_fraction, store=store)


def run_mix_traces(
    traces: List[Trace],
    mix: Tuple[str, str],
    policy: str,
    config: SystemConfig,
    seed: int = 0,
    warmup_fraction: float = 0.3,
    store=None,
) -> MulticoreResult:
    """Simulate per-core traces over a shared L3 (see the module
    docstring); ``store`` has :func:`~repro.sim.single_core.run_trace`'s
    meaning."""
    runtimes, shared_l3, hierarchies = _build_mix(
        policy, config, len(traces), seed)
    simulate(hierarchies, traces, config, seed, warmup_fraction, store)
    return _collect_mix(mix, policy, runtimes, shared_l3, hierarchies)
