"""The cell space of the differential harness.

A cell is the keyword arguments of
:func:`~repro.sim.single_core.run_trace` (:func:`single_cell`) or of
:func:`~repro.sim.multi_core.run_mix_traces` (:func:`mix_cell`), plus,
for the slip kinds, ``argmin``: ``None``, or :func:`most_chunks_argmin`,
which the ``served_like_walk`` fixture (conftest) patches in for both
sides so that SLIP lines move between chunks. Each generator takes
``choose``, a function from a sequence of options to one of them. The
hypothesis tests of ``test_mix_replay`` pass a strategy draw, and a
seeded case passes ``random.Random(seed).choice``, so both draw from
the one space defined here. ``served_like_walk`` checks a cell against
the per-access walk.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import asdict

import numpy as np

from repro.core.distribution import DEFAULT_WARM_SAMPLES
from repro.core.energy_model import LevelEnergyParams
from repro.sim.build import POLICY_NAMES, runtime_kind
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.mixes import CORE_ADDRESS_STRIDE
from repro.workloads.trace import Trace

BENCHES = ("soplex", "mcf", "lbm", "gcc", "bzip2", "milc")
#: A synthetic high-churn trace: evictions, dirty victims, TLB misses.
CHURN = "churn"
WARMUP_FRACTIONS = (0.0, 0.1, 0.3, 0.5, 0.6, 1.0)
REPLACEMENTS = ("lru", "random", "drrip", "ship")


def most_chunks_argmin(eou, counts, allow_abp, confident):
    """``EnergyOptimizerUnit._argmin`` that, once the distribution is
    warm, picks the eligible SLIP with the most chunks: its fills and
    hits cascade lines down chunk by chunk, so the levels move lines."""
    if sum(counts) < DEFAULT_WARM_SAMPLES:
        return eou.space.default_id
    return max(eou._eligible[(allow_abp, confident)],
               key=lambda eeu: (eou.space.num_chunks(eeu.slip_id),
                                -eeu.slip_id)).slip_id


def argmin(choose, policy: str):
    """The ``argmin`` dimension: a slip-kind cell draws the EOU's own
    argmin or :func:`most_chunks_argmin`; a baseline kind has no EOU."""
    if runtime_kind(policy) == "baseline":
        return None
    return choose((None, most_chunks_argmin))


def canonical(result) -> str:
    """A ``RunResult`` or ``MulticoreResult`` as canonical JSON."""
    return json.dumps(asdict(result), sort_keys=True)


def skewed_energy(config):
    """Per-level overrides that move SLIP's placement decisions: L2
    sublevels 20x dearer over a 1 pJ next level, L3 sublevels 20x
    cheaper over a 5000 pJ next level."""
    return {
        name: LevelEnergyParams(
            sublevel_capacity_lines=tuple(
                level.sublevel_capacity_lines(i)
                for i in range(level.num_sublevels)
            ),
            sublevel_energy_pj=tuple(e * scale
                                     for e in level.sublevel_energy_pj),
            next_level_energy_pj=next_pj,
        )
        for name, level, scale, next_pj in (
            ("L2", config.l2, 20.0, 1.0),
            ("L3", config.l3, 0.05, 5000.0),
        )
    }


def partitioned_l1(config: SystemConfig) -> SystemConfig:
    """``config`` with a sublevel-partitioned L1, which the capture
    kernel declines: such cells walk."""
    return dataclasses.replace(config, l1=CacheLevelConfig(
        name="L1", size_bytes=1024, ways=2, latency_cycles=1,
        access_energy_pj=1.0, sublevel_ways=(1, 1),
        sublevel_energy_pj=(0.8, 1.4), sublevel_latency=(1, 2)))


def level(choose, name: str, set_counts, base_lat: int, base_pj: float,
          uniform_ok: bool) -> CacheLevelConfig:
    """An L2 or L3 of 2-8 ways cut into 1-3 sublevels, or uniform."""
    ways = choose((2, 4, 8))
    sets = choose(set_counts)
    nsub = choose(range(1, min(3, ways) + 1))
    cuts = choose(list(itertools.combinations(range(1, ways), nsub - 1)))
    bounds = (0, *cuts, ways)
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if nsub == 1 and uniform_ok and choose((False, True)):
        parts = ()  # a uniform level (SLIP needs a partitioned one)
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        metadata_energy_pj=choose((0.0, base_pj / 20)),
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(base_lat + i for i in range(len(parts))),
    )


def system(choose, uniform_ok: bool, wide: bool = False,
           rd_blocks: bool = False) -> SystemConfig:
    """A tiny system. ``wide`` draws L2/L3 set counts up to 128, so
    DRRIP (32 leader sets) gets BRRIP leaders and followers;
    ``rd_blocks`` draws the Section 7 rd-block size (0 keys by page,
    else one line up to a page) and a SLIP-cache of a few entries."""
    page_size = choose((2048, 4096, 8192))
    rd_block_lines, slip_cache_entries = 0, SlipParams.slip_cache_entries
    if rd_blocks:
        rd_block_lines = choose(
            (0, *(1 << bits for bits in range((page_size // 64)
                                              .bit_length()))))
        slip_cache_entries = choose((2, 4, 8))
    l1_ways = choose((1, 2, 4, 8))
    l1_sets = choose((2, 4, 8, 16))
    # A uniform L1: the capture kernel declines a partitioned one, and
    # the driver walks it.
    return SystemConfig(
        l1=CacheLevelConfig(
            name="L1", size_bytes=l1_sets * l1_ways * 64, ways=l1_ways,
            latency_cycles=choose((1, 2, 4)),
            access_energy_pj=choose((1.0, 2.5))),
        l2=level(choose, "L2", (8, 64, 128) if wide else (8, 16), 3, 10.0,
                 uniform_ok),
        l3=level(choose, "L3", (32, 64, 128) if wide else (32, 64), 8,
                 40.0, uniform_ok),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(
            rd_block_lines=rd_block_lines,
            slip_cache_entries=slip_cache_entries,
            l3_abp_min_samples=choose(
                (SlipParams.l3_abp_min_samples, 0, 10_000))),
        core=CoreConfig(),
        tlb_entries=choose((2, 4, 8, 16, 64)),
        page_size=page_size,
    )


def trace(choose, name: str, length: int, seed: int) -> Trace:
    """A benchmark analog, or for ``CHURN`` a uniform random trace over
    a 64-2048-line span with 40% writes."""
    if name != CHURN:
        return make_trace(name, length, seed=seed)
    span = choose((64, 256, 2_048))
    rng = np.random.default_rng(seed)
    return Trace(name=f"{CHURN}-{span}",
                 addresses=rng.integers(0, span, size=length),
                 is_write=rng.random(length) < 0.4)


def mix_cell(choose, policies=POLICY_NAMES) -> dict:
    """A 1-3 core mix over LRU: one core is the driver's single-core
    case, and per-core trace lengths differ."""
    policy = choose(policies)
    mix = tuple(choose(BENCHES + (CHURN,)) for _ in range(choose((1, 2, 3))))
    seed = choose(range(21))
    baseline_kind = runtime_kind(policy) == "baseline"
    return dict(
        traces=[
            trace(choose, name, choose(range(200, 1_501)), seed + core)
            .with_offset(core * CORE_ADDRESS_STRIDE)
            for core, name in enumerate(mix)
        ],
        mix=mix,
        policy=policy,
        config=system(choose, uniform_ok=baseline_kind,
                      rd_blocks=not baseline_kind),
        seed=seed,
        warmup_fraction=choose(WARMUP_FRACTIONS),
        argmin=argmin(choose, policy),
    )


def single_cell(choose, policies=POLICY_NAMES,
                replacements=REPLACEMENTS) -> dict:
    """A single-core cell under any replacement, on L2/L3 geometries
    wide enough for DRRIP; a slip-kind cell also draws the per-level
    energy overrides and ``always_sample`` (the sampling ablation's
    third column), which only the SLIP runtime reads."""
    policy = choose(policies)
    seed = choose(range(21))
    baseline_kind = runtime_kind(policy) == "baseline"
    config = system(choose, uniform_ok=baseline_kind, wide=True,
                    rd_blocks=not baseline_kind)
    return dict(
        trace=trace(choose, choose(BENCHES + (CHURN,)),
                    choose(range(300, 2_501)), seed),
        policy=policy,
        config=config,
        seed=seed,
        replacement=choose(replacements),
        warmup_fraction=choose(WARMUP_FRACTIONS),
        level_energy_overrides=(
            None if baseline_kind or not choose((False, True))
            else skewed_energy(config)),
        always_sample=not baseline_kind and choose((False, True)),
        argmin=argmin(choose, policy),
    )
