"""N-core capture/replay equals the per-access walk.

:func:`repro.sim.multi_core.run_mix_traces` runs the N-core driver
(:func:`repro.sim.filtered.simulate`): it captures each core's front
end through the capture store and replays the merged boundary events;
the driver's per-access walk (the ``walked`` fixture forces it) drives
every core's ``access()`` in turn and is the golden reference. The
hypothesis tests below draw cells from the one cell
space of ``harness``: policy, core count (one core is the driver's
single-core case), tiny cache geometries (L1 shape and TLB size
included), page size, Section 7 rd-blocks for the slip kinds, the
``l3_abp_min_samples`` floor, warmup fraction, unequal per-core trace
lengths, benchmark analogs or a synthetic high-churn trace, and the
capture store tier. Each asserts the served bytes equal the walk's on
a cold and a warm store (or twice without one), through the back-end
kernels (baseline kinds and slip kinds alike) and through the baseline
kinds' merged scalar replay. Mixes hard-wire LRU, so single-core
``run_trace`` cells draw the replacement (LRU, random, DRRIP, SHiP) on
L2/L3 geometries wide enough (>= 64 sets) to hold DRRIP's BRRIP leader
sets, and for the slip kinds the per-level energy overrides and
``always_sample``. Slip-kind cells, mixes and single-core alike, also
draw the EOU's coefficients: their own, or ones under which it picks
multi-chunk SLIPs, so that lines cascade between chunks.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from harness import (
    CHURN,
    canonical,
    mix_cell,
    most_chunks_alphas,
    single_cell,
    tiny_config,
    trace,
)
from repro.core.energy_model import SlipEnergyModel
from repro.sim import multi_core
from repro.sim.single_core import run_trace
from repro.workloads.capture_store import MemoryCaptureStore
from repro.workloads.mixes import make_mix_traces


@st.composite
def drawn(draw, cell):
    """``cell(choose)`` with every choice a hypothesis draw."""
    return cell(lambda options: draw(st.sampled_from(options)))


#: Capture store tiers: no store, or a fresh memory store.
STORES = st.none() | st.builds(MemoryCaptureStore)
HARNESS = settings(deadline=None, derandomize=True,
                   suppress_health_check=[
                       HealthCheck.function_scoped_fixture])


@settings(HARNESS, max_examples=60)
@given(cell=drawn(mix_cell), store=STORES)
def test_replay_matches_walk(cell, store, served_like_walk):
    served_like_walk(multi_core.run_mix_traces, cell, store)


@settings(HARNESS, max_examples=15)
@given(cell=drawn(mix_cell), store=STORES)
def test_scalar_replay_matches_walk(cell, store, scalar_kernels,
                                    served_like_walk):
    """With the baseline-kind kernel declining, the merged scalar
    replay serves the baseline kinds."""
    with scalar_kernels():
        served_like_walk(multi_core.run_mix_traces, cell, store)


def slip_defect_cells():
    """``(label, cell, store)`` of the SLIP kernel's seeded-defect cells.

    Seeded draws from the cell space under a replacement the kernel
    serves: seed 81 fails if a cascade step does not advance the
    allocation rotor, and the SHiP-only seed 75 if a line leaving at
    the end of a cascade skips SHiP's departure step. Last, the odd
    line-count geometry of :func:`odd_geometry_cell`.
    """
    return [
        ("draw-81", single_cell(
            random.Random(81).choice, ("slip", "slip_abp"),
            ("lru", "drrip", "ship")), MemoryCaptureStore()),
        ("ship-draw-75", single_cell(
            random.Random(75).choice, ("slip", "slip_abp"), ("ship",)),
            MemoryCaptureStore()),
        ("odd-geometry", odd_geometry_cell(), MemoryCaptureStore()),
    ]


def odd_geometry_cell() -> dict:
    """A slip cell whose L2 (8 sets x 3 ways) and L3 (8 x 5) hold line
    counts that are not multiples of 16: their access counters wrap at
    4 x lines before the 6-bit timestamps do, so a counter that misses
    its wrap moves the reuse samples. Two-line rd-blocks sample often
    enough for that to move the EOU's choices."""
    tiny = tiny_config()
    config = dataclasses.replace(
        tiny,
        l2=dataclasses.replace(
            tiny.l2, size_bytes=8 * 3 * 64, ways=3, sublevel_ways=(1, 2),
            sublevel_energy_pj=(6.0, 13.0), sublevel_latency=(2, 4)),
        l3=dataclasses.replace(
            tiny.l3, size_bytes=8 * 5 * 64, ways=5, sublevel_ways=(2, 3),
            sublevel_energy_pj=(20.0, 55.0), sublevel_latency=(6, 10)),
        tlb_entries=4)
    return dict(trace=trace(lambda options: 64, CHURN, 2_000, 1),
                policy="slip", seed=1,
                config=config.with_slip(rd_block_lines=2,
                                        slip_cache_entries=8,
                                        l3_abp_min_samples=0))


def with_defect_cells(test):
    """``test`` with every :func:`slip_defect_cells` cell as an explicit
    example, labelled."""
    for label, cell, store in slip_defect_cells():
        test = example(cell=cell, store=store).via(label)(test)
    return test


@settings(HARNESS, max_examples=60)
@given(cell=drawn(single_cell), store=STORES)
@with_defect_cells
def test_rrip_replay_matches_walk(cell, store, served_like_walk):
    """Single-core cells under LRU, random, DRRIP and SHiP replacement:
    the SLIP kernel serves the slip kinds, the baseline-kind kernel
    LRU and the scalar replay the other baseline-kind cells. The SLIP
    kernel's seeded-defect cells run first, as explicit examples."""
    served_like_walk(run_trace, cell, store)


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


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("policy", ["slip", "slip_abp"])
def test_cascade_movements_match_walk(cores, policy, tiny_system,
                                      monkeypatch, walked):
    """Multi-chunk SLIPs move lines at L2 and L3: the SLIP kernel's
    movement tallies and movement-queue charge equal the walk's. Unlike
    a harness draw, these cells are pinned to move lines at every
    level."""
    monkeypatch.setattr(SlipEnergyModel, "quantized_alphas",
                        most_chunks_alphas)
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
