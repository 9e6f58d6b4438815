"""N-core capture/replay equals the per-access walk.

:func:`repro.sim.multi_core.run_mix_traces` runs the N-core driver
(:func:`repro.sim.filtered.simulate`): it captures each core's front
end through the capture store and replays the merged boundary events;
the driver's per-access walk (the ``walked`` fixture forces it) drives
every core's ``access()`` in turn and is the golden reference. The
hypothesis harness below draws policy, core count (one core is the
driver's single-core case), tiny cache geometries, page size, Section 7
rd-blocks for the slip kinds, warmup fraction, unequal per-core trace
lengths and the capture store tier, and asserts the two produce the
same bytes on a cold and a warm store (or twice without one),
through the back-end kernels (baseline kinds and slip kinds alike) and
through the baseline kinds' merged scalar replay. Mixes hard-wire LRU,
so a second harness draws single-core ``run_trace`` cells under DRRIP
and SHiP replacement, on L2/L3 geometries wide enough (>= 64 sets) to
hold DRRIP's BRRIP leader sets.

This module must stay out of conftest's ``SIMCHECK_MODULES``: under
SimCheck every mix declines to the walk, and the harness would compare
the walk with itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distribution import DEFAULT_WARM_SAMPLES
from repro.core.eou import EnergyOptimizerUnit
from repro.sim import filtered, multi_core
from repro.sim.build import POLICY_NAMES, runtime_kind
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore
from repro.workloads.mixes import CORE_ADDRESS_STRIDE, make_mix_traces

BENCHES = ("soplex", "mcf", "lbm", "gcc", "bzip2", "milc")


def canonical(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


@st.composite
def levels(draw, name: str, set_counts, base_lat: int,
           base_pj: float, uniform_ok: bool) -> CacheLevelConfig:
    ways = draw(st.sampled_from((2, 4, 8)))
    sets = draw(st.sampled_from(set_counts))
    nsub = draw(st.integers(1, min(3, ways)))
    cuts = sorted(draw(st.lists(st.integers(1, ways - 1), min_size=nsub - 1,
                                max_size=nsub - 1, unique=True)))
    bounds = [0] + cuts + [ways]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if nsub == 1 and uniform_ok and draw(st.booleans()):
        parts = ()  # a uniform level (SLIP needs a partitioned one)
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        metadata_energy_pj=base_pj / 20,
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(base_lat + i for i in range(len(parts))),
    )


@st.composite
def systems(draw, uniform_ok: bool, wide: bool = False,
            rd_blocks: bool = False) -> SystemConfig:
    """A tiny system; ``wide`` draws L2/L3 set counts up to 128, so
    DRRIP (32 leader sets) gets BRRIP leaders and followers, and
    ``rd_blocks`` draws the Section 7 rd-block size (0 keys by page,
    else one line up to a page) and a SLIP-cache of a few entries."""
    page_size = draw(st.sampled_from((2048, 4096, 8192)))
    slip = SlipParams()
    if rd_blocks:
        slip = SlipParams(
            rd_block_lines=draw(st.just(0) | st.sampled_from(
                [1 << bits for bits in
                 range((page_size // 64).bit_length())])),
            slip_cache_entries=draw(st.sampled_from((2, 4, 8))))
    l1_ways = draw(st.sampled_from((1, 2, 4)))
    l1_sets = draw(st.sampled_from((4, 8, 16)))
    # A uniform L1: the capture kernel declines a partitioned one, and
    # the driver walks it.
    return SystemConfig(
        l1=CacheLevelConfig(
            name="L1", size_bytes=l1_sets * l1_ways * 64, ways=l1_ways,
            latency_cycles=1, access_energy_pj=1.0),
        l2=draw(levels("L2", (8, 64, 128) if wide else (8, 16), 3, 10.0,
                       uniform_ok)),
        l3=draw(levels("L3", (32, 64, 128) if wide else (32, 64), 8, 40.0,
                       uniform_ok)),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=slip,
        core=CoreConfig(),
        tlb_entries=draw(st.sampled_from((4, 8, 16))),
        page_size=page_size,
    )


@st.composite
def mix_cells(draw):
    policy = draw(st.sampled_from(POLICY_NAMES))
    cores = draw(st.integers(1, 3))
    mix = tuple(draw(st.sampled_from(BENCHES)) for _ in range(cores))
    seed = draw(st.integers(0, 20))
    traces = [
        make_trace(name, draw(st.integers(200, 1_500)),
                   seed=seed + core).with_offset(core * CORE_ADDRESS_STRIDE)
        for core, name in enumerate(mix)
    ]
    baseline_kind = runtime_kind(policy) == "baseline"
    return dict(
        traces=traces,
        mix=mix,
        policy=policy,
        config=draw(systems(uniform_ok=baseline_kind,
                            rd_blocks=not baseline_kind)),
        seed=seed,
        warmup_fraction=draw(st.sampled_from((0.0, 0.1, 0.3, 0.5))),
    )


#: Capture store tiers: no store, a fresh memory store.
STORE_TIERS = ("none", "memory")


def replay_twice(run, cell, tier: str):
    """``run(**cell)``'s bytes twice: without a store, or on a cold and
    then a warm fresh store; ``run`` is ``run_mix_traces`` or
    ``run_trace``."""
    store = None if tier == "none" else MemoryCaptureStore()
    return [canonical(run(**cell, store=store)) for _ in range(2)]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=mix_cells(), tier=st.sampled_from(STORE_TIERS))
def test_replay_matches_walk(cell, tier, walked):
    with walked():
        reference = canonical(multi_core.run_mix_traces(**cell))
    assert (replay_twice(multi_core.run_mix_traces, cell, tier)
            == [reference, reference])


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=mix_cells(), tier=st.sampled_from(STORE_TIERS))
def test_scalar_replay_matches_walk(cell, tier, scalar_kernels, walked):
    """With the baseline-kind kernel declining, the merged scalar
    replay serves the baseline kinds."""
    with walked():
        reference = canonical(multi_core.run_mix_traces(**cell))
    with scalar_kernels("replay_capture_vector"):
        assert (replay_twice(multi_core.run_mix_traces, cell, tier)
                == [reference, reference])


@st.composite
def rrip_cells(draw):
    """One single-core cell under DRRIP or SHiP replacement."""
    policy = draw(st.sampled_from(POLICY_NAMES))
    seed = draw(st.integers(0, 20))
    baseline_kind = runtime_kind(policy) == "baseline"
    return dict(
        trace=make_trace(draw(st.sampled_from(BENCHES)),
                         draw(st.integers(300, 2_500)), seed=seed),
        policy=policy,
        config=draw(systems(uniform_ok=baseline_kind, wide=True,
                            rd_blocks=not baseline_kind)),
        seed=seed,
        replacement=draw(st.sampled_from(("drrip", "ship"))),
        warmup_fraction=draw(st.sampled_from((0.0, 0.1, 0.3, 0.5))),
    )


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=rrip_cells(), tier=st.sampled_from(STORE_TIERS))
def test_rrip_replay_matches_walk(cell, tier, walked):
    """DRRIP and SHiP cells: the SLIP kernel serves the slip kinds, the
    scalar replay the baseline kinds, on a cold and a warm store."""
    with walked():
        reference = canonical(run_trace(**cell))
    assert replay_twice(run_trace, cell, tier) == [reference, reference]


def test_mix_cells_share_captures(tiny_system, walked):
    """A mix's slip_abp cell replays the captures its baseline cell
    stored: every per-core lookup hits, and the bytes equal the walk's."""
    lookups = []

    class RecordingStore(MemoryCaptureStore):
        def get(self, key):
            capture = super().get(key)
            lookups.append(capture is not None)
            return capture

    mix = ("soplex", "mcf")
    traces = make_mix_traces(mix, 1_500, seed=2)
    store = RecordingStore()
    multi_core.run_mix_traces(traces, mix, "baseline", tiny_system, 2,
                              store=store)
    assert lookups == [False, False]
    del lookups[:]
    shared = multi_core.run_mix_traces(traces, mix, "slip_abp",
                                       tiny_system, 2, store=store)
    assert lookups == [True, True]
    with walked():
        walk = multi_core.run_mix_traces(traces, mix, "slip_abp",
                                         tiny_system, 2)
    assert canonical(shared) == canonical(walk)


@pytest.mark.parametrize("cores", [1, 2])
def test_simcheck_cells_walk(cores, tiny_system, monkeypatch, walked):
    """SimCheck cells walk: they take no capture at all."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    mix = ("soplex", "mcf")[:cores]
    traces = make_mix_traces(mix, 1_500, seed=3)
    with walked():
        walk = multi_core.run_mix_traces(traces, mix, "slip_abp",
                                         tiny_system, 3)
    store = MemoryCaptureStore()
    with monkeypatch.context() as mp:
        # A capture call would raise.
        mp.setattr(filtered, "capture_front_end_vector", None)
        replayed = multi_core.run_mix_traces(traces, mix, "slip_abp",
                                             tiny_system, 3, store=store)
    assert canonical(replayed) == canonical(walk)
    assert not store._entries


@pytest.mark.parametrize("cores", [1, 2])
def test_rd_block_cells_share_page_mode_captures(cores, tiny_system,
                                                 walked):
    """An rd-block cell replays the captures its page-mode cell stored:
    one put per core, then every lookup hits, and the bytes equal the
    walk's."""
    puts, lookups = [], []

    class RecordingStore(MemoryCaptureStore):
        def get(self, key):
            capture = super().get(key)
            lookups.append(capture is not None)
            return capture

        def put(self, key, capture):
            puts.append(key)
            super().put(key, capture)

    mix = ("soplex", "mcf")[:cores]
    traces = make_mix_traces(mix, 1_500, seed=3)
    store = RecordingStore()
    multi_core.run_mix_traces(traces, mix, "slip_abp", tiny_system, 3,
                              store=store)
    assert (len(puts), lookups) == (cores, [False] * cores)
    del lookups[:]
    rd_config = tiny_system.with_slip(rd_block_lines=4)
    shared = multi_core.run_mix_traces(traces, mix, "slip_abp", rd_config,
                                       3, store=store)
    assert (len(puts), lookups) == (cores, [True] * cores)
    with walked():
        walk = multi_core.run_mix_traces(traces, mix, "slip_abp",
                                         rd_config, 3)
    assert canonical(shared) == canonical(walk)


def most_chunks_argmin(eou, counts, allow_abp, confident):
    """``EnergyOptimizerUnit._argmin`` that, once the distribution is
    warm, picks the eligible SLIP with the most chunks: its fills and
    hits cascade lines down chunk by chunk, so the levels move lines."""
    if sum(counts) < DEFAULT_WARM_SAMPLES:
        return eou.space.default_id
    return max(eou._eligible[(allow_abp, confident)],
               key=lambda eeu: (eou.space.num_chunks(eeu.slip_id),
                                -eeu.slip_id)).slip_id


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("policy", ["slip", "slip_abp"])
def test_cascade_movements_match_walk(cores, policy, tiny_system,
                                      monkeypatch, walked):
    """Multi-chunk SLIPs move lines at L2 and L3: the SLIP kernel's
    movement tallies and movement-queue charge equal the walk's."""
    monkeypatch.setattr(EnergyOptimizerUnit, "_argmin", most_chunks_argmin)
    for mix in (("soplex", "mcf"), ("gcc", "soplex")):
        mix = mix[:cores]
        traces = make_mix_traces(mix, 5_000, seed=1)
        replayed = multi_core.run_mix_traces(traces, mix, policy,
                                             tiny_system, 1)
        levels = replayed.l2_stats + [replayed.l3_stats]
        assert all(level.movements > 0 for level in levels), mix
        assert all(level.energy.movement_queue_pj > 0
                   for level in levels), mix
        with walked():
            walk = multi_core.run_mix_traces(traces, mix, policy,
                                             tiny_system, 1)
        assert canonical(replayed) == canonical(walk), mix
