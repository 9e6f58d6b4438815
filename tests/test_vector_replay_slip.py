"""SLIP phase-split replay kernel: byte-identity and declines.

Mirror of :mod:`test_vector_replay` for the slip-runtime kinds: every
slip/slip_abp cell the kernel (:mod:`repro.sim.vector_replay_slip`)
accepts must serialize byte-for-byte like the driver's per-access walk
(the ``walked`` fixture), across both capture stores, both worker
modes, randomized trace/geometry space, LRU, DRRIP and SHiP
replacement, and the ``l3_abp_min_samples`` ablation. Everything it
cannot represent must decline with a recorded reason and walk, before
any capture is taken, with identical bytes. The multicore mixes run the
same kernel over a shared L3; the hypothesis harness of
``test_mix_replay`` pins those bytes, and the sections below pin that
the kernel really serves them.
"""

import json
import random
from dataclasses import asdict

import pytest

from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim import filtered, multi_core, single_core
from repro.sim.build import build_hierarchy
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
    default_system,
)
from repro.sim.filtered import front_end_fingerprint
from repro.sim.single_core import run_trace
from repro.sim.vector_replay_slip import (
    replay_capture_vector_slip,
    slip_eligible,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    DiskCaptureStore,
    MemoryCaptureStore,
    fingerprint_key,
)
from repro.workloads.mixes import make_mix_traces

SLIP_KIND = ("slip", "slip_abp")
RRIP = ("drrip", "ship")
LENGTH = 2_500
MIX = ("soplex", "mcf")


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def canonical_mix(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


def eligible(hierarchy) -> bool:
    """``slip_eligible`` for one core with a private L3."""
    return slip_eligible([hierarchy], [make_trace("soplex", 200)])


def spy_mix_kernel(monkeypatch) -> list:
    """Record ``(served, hierarchies)`` of each multicore kernel call."""
    calls = []
    kernel = filtered.replay_capture_vector_slip

    def spy(hierarchies, *args, **kwargs):
        served = kernel(hierarchies, *args, **kwargs)
        calls.append((served, list(hierarchies)))
        return served

    monkeypatch.setattr(filtered, "replay_capture_vector_slip", spy)
    return calls


def replay_pair(trace, policy, config, store, walked, **kwargs):
    """(the walk, the kernel's replay of a warmed capture)."""
    # The first run stores the capture; the second replays it.
    run_trace(trace, policy, config=config, store=store, **kwargs)
    with walked():
        walk = run_trace(trace, policy, config=config, **kwargs)
    vector = run_trace(trace, policy, config=config, store=store,
                       **kwargs)
    return walk, vector


def slip_capture(trace, config, store):
    """The policy-invariant capture the slip kernel replays."""
    key = fingerprint_key(
        front_end_fingerprint(trace, config, 0, 0.25))
    capture = store.get(key)
    assert capture is not None
    return capture


# ----------------------------------------------------------------------
# Byte-identical equivalence: ABP on/off x stores
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("policy", SLIP_KIND)
    @pytest.mark.parametrize("store_kind", ("memory", "disk"))
    def test_vector_matches_scalar(self, policy, store_kind, tiny_system,
                                   tmp_path, walked):
        trace = make_trace("soplex", LENGTH)
        store = (MemoryCaptureStore() if store_kind == "memory"
                 else DiskCaptureStore(str(tmp_path)))
        walk, vector = replay_pair(trace, policy, tiny_system, store,
                                   walked)
        assert canonical(vector) == canonical(walk)

    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_vector_matches_direct(self, policy, tiny_system,
                                   scalar_run):
        """Transitivity check straight to the unfiltered simulator."""
        trace = make_trace("lbm", LENGTH)
        store = MemoryCaptureStore()
        run_trace(trace, policy, config=tiny_system, store=store)
        vector = run_trace(trace, policy, config=tiny_system, store=store)
        assert canonical(vector) == canonical(
            scalar_run(trace, policy, tiny_system))

    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_vector_matches_scalar_nonzero_seed(self, policy,
                                                tiny_system,
                                                walked):
        """Sampler RNG and seeded traces line up event for event."""
        trace = make_trace("soplex", LENGTH, seed=3)
        walk, vector = replay_pair(trace, policy, tiny_system,
                                   MemoryCaptureStore(), walked,
                                   seed=5)
        assert canonical(vector) == canonical(walk)

    @pytest.mark.parametrize("min_samples", (0, 10_000))
    def test_abp_min_samples_gate(self, min_samples, tiny_system,
                                  walked):
        """The EOU's ABP evidence floor steers fills identically.

        0 lets the all-bypass policy win from the first sample; a huge
        floor suppresses it entirely — both sides of the gate must
        replay byte-identically through the kernel.
        """
        config = SystemConfig(
            l1=tiny_system.l1, l2=tiny_system.l2, l3=tiny_system.l3,
            dram=tiny_system.dram,
            slip=SlipParams(l3_abp_min_samples=min_samples),
            core=tiny_system.core,
            tlb_entries=tiny_system.tlb_entries,
        )
        trace = make_trace("soplex", LENGTH)
        walk, vector = replay_pair(trace, "slip_abp", config,
                                   MemoryCaptureStore(), walked)
        assert canonical(vector) == canonical(walk)


# ----------------------------------------------------------------------
# Worker parity: jobs=1 vs jobs=2 over the shared disk store
# ----------------------------------------------------------------------
@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(tmp_path, monkeypatch,
                                      walked):
    monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
    grid = [RunRequest("soplex", policy, length=2_000)
            for policy in SLIP_KIND]
    run_jobs(grid, jobs=1)  # populate the store
    with walked():
        walk = run_jobs(grid, jobs=1)
    serial = run_jobs(grid, jobs=1)
    parallel = run_jobs(grid, jobs=2)
    for base, ours, theirs in zip(walk.results, serial.results,
                                  parallel.results):
        assert ours.result == base.result, base.request.label()
        assert theirs.result == base.result, base.request.label()


# ----------------------------------------------------------------------
# Randomized trace/geometry property test (hypothesis-style)
# ----------------------------------------------------------------------
def _random_level(rng, name, base_sets, base_lat, base_pj):
    ways = rng.choice((2, 4, 8))
    sets = rng.choice((base_sets, base_sets * 2))
    nsub = rng.randint(1, min(3, ways))
    # Random composition of `ways` into `nsub` positive parts.
    cuts = sorted(rng.sample(range(1, ways), nsub - 1)) if nsub > 1 else []
    bounds = [0] + cuts + [ways]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if nsub == 1 and rng.random() < 0.5:
        parts = ()  # exercise the uniform-level path too
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(
            base_lat + i for i in range(len(parts))),
    )


def _random_system(rng) -> SystemConfig:
    l1 = CacheLevelConfig(name="L1", size_bytes=1024, ways=2,
                          latency_cycles=1, access_energy_pj=1.0)
    return SystemConfig(
        l1=l1,
        l2=_random_level(rng, "L2", base_sets=8, base_lat=3,
                         base_pj=10.0),
        l3=_random_level(rng, "L3", base_sets=32, base_lat=8,
                         base_pj=40.0),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(),
        core=CoreConfig(),
        tlb_entries=8,
    )


@pytest.mark.parametrize("case_seed", range(6))
def test_random_geometry_property(case_seed, walked):
    rng = random.Random(7_000 + case_seed)
    config = _random_system(rng)
    trace = make_trace(rng.choice(("soplex", "lbm", "mcf")),
                       rng.randint(900, 2_200),
                       seed=rng.randint(0, 99))
    policy = SLIP_KIND[case_seed % len(SLIP_KIND)]
    walk, vector = replay_pair(trace, policy, config,
                               MemoryCaptureStore(), walked,
                               seed=rng.randint(0, 9))
    assert canonical(vector) == canonical(walk)


# ----------------------------------------------------------------------
# Decline matrix: every ineligible shape records why it fell back
# ----------------------------------------------------------------------
class TestDecline:
    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_default_hierarchy_is_eligible(self, policy, tiny_system,
                                           paper_system):
        assert eligible(build_hierarchy(tiny_system, policy))
        assert eligible(build_hierarchy(paper_system, policy))

    @pytest.mark.parametrize("replacement", RRIP)
    def test_rrip_hierarchy_is_eligible(self, replacement, paper_system):
        assert eligible(build_hierarchy(paper_system, "slip_abp",
                                        replacement=replacement))

    def test_non_slip_kind_declines(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline")
        assert not eligible(hierarchy)
        assert hierarchy.kernel_declines.replay == "kind:not-slip"

    def test_simcheck_declines(self, tiny_system, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        hierarchy = build_hierarchy(tiny_system, "slip")
        assert not eligible(hierarchy)
        assert hierarchy.kernel_declines.replay == "simcheck"

    def test_non_lru_replacement_declines(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "slip",
                                    replacement="random")
        assert not eligible(hierarchy)
        assert (hierarchy.kernel_declines.replay
                == "replacement:L2:RandomReplacement")

    def test_successful_replay_clears_decline(self, tiny_system):
        trace = make_trace("soplex", 1_200)
        store = MemoryCaptureStore()
        run_trace(trace, "slip", config=tiny_system, store=store)
        capture = slip_capture(trace, tiny_system, store)
        hierarchy = build_hierarchy(tiny_system, "slip")
        hierarchy.kernel_declines.replay = "stale"
        assert replay_capture_vector_slip([hierarchy], [trace],
                                          [capture]) is True
        assert hierarchy.kernel_declines.replay is None

    def test_replay_capture_refuses_a_declined_cell(self, tiny_system):
        """``replay_capture`` has no scalar slip replay to fall back to:
        the driver walks such cells, and a direct call raises."""
        trace = make_trace("soplex", 1_200)
        store = MemoryCaptureStore()
        run_trace(trace, "slip", config=tiny_system, store=store)
        capture = slip_capture(trace, tiny_system, store)
        hierarchy = build_hierarchy(tiny_system, "slip",
                                    replacement="random")
        with pytest.raises(ValueError, match="RandomReplacement"):
            filtered.replay_capture([hierarchy], [trace], [capture])

    @pytest.mark.parametrize("reason", ["router:runtimes", "router:page"])
    def test_shared_l3_declines(self, reason, tiny_system, monkeypatch,
                                walked):
        """A mix the shared-L3 sweep cannot represent records why and
        walks: the kernel is never called.

        ``router:runtimes``: the L3 router's runtimes are the cores'
        own, swapped. ``router:page``: core 1 runs in core 0's address
        region, so its pages route to core 0's runtime.
        """
        traces = make_mix_traces(MIX, 1_500, seed=3)
        if reason == "router:runtimes":
            build = multi_core._build_mix

            def swapped(*args, **kwargs):
                runtimes, shared_l3, hierarchies = build(*args, **kwargs)
                router = hierarchies[0].l3_placement.runtime
                router.runtimes = router.runtimes[::-1]
                return runtimes, shared_l3, hierarchies

            monkeypatch.setattr(multi_core, "_build_mix", swapped)
        else:
            traces[1] = make_trace(MIX[1], 1_500, seed=4)
        built = []
        build_mix = multi_core._build_mix

        def spy_build(*args, **kwargs):
            built.append(build_mix(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(multi_core, "_build_mix", spy_build)
        calls = spy_mix_kernel(monkeypatch)
        replayed = multi_core.run_mix_traces(traces, MIX, "slip_abp",
                                             tiny_system, 3)
        [(_, _, hierarchies)] = built
        with walked():
            walk = multi_core.run_mix_traces(traces, MIX, "slip_abp",
                                             tiny_system, 3)
        assert canonical_mix(replayed) == canonical_mix(walk)
        assert calls == []
        assert [h.kernel_declines.replay for h in hierarchies] \
            == [reason, reason]

    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_declined_cells_still_replay_correctly(self, policy,
                                                   tiny_system,
                                                   monkeypatch, walked):
        """A declined cell walks before any capture, same bytes: the
        kernel never runs, and the hierarchy records why."""
        built = []

        def build(*args, **kwargs):
            built.append(build_hierarchy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(single_core, "build_hierarchy", build)
        calls = spy_mix_kernel(monkeypatch)
        trace = make_trace("soplex", 1_500)
        store = MemoryCaptureStore()
        declined = run_trace(trace, policy, config=tiny_system,
                             store=store, replacement="random")
        assert not store._entries and calls == []
        [hierarchy] = built
        assert (hierarchy.kernel_declines.replay
                == "replacement:L2:RandomReplacement")
        with walked():
            walk = run_trace(trace, policy, config=tiny_system,
                             replacement="random")
        assert canonical(declined) == canonical(walk)


# ----------------------------------------------------------------------
# DRRIP and SHiP: the kernel serves them (paper Section 7)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("replacement", RRIP)
def test_rrip_cell_is_served_by_the_kernel(replacement, monkeypatch,
                                           walked):
    """A default-config slip_abp cell under DRRIP or SHiP replays
    through the kernel, records no decline and matches the walk.

    The default L2 and L3 have 256 and 2048 sets, so DRRIP has SRRIP
    and BRRIP leader sets and followers, and every sublevel draw spans
    three sublevels.
    """
    calls = spy_mix_kernel(monkeypatch)
    trace = make_trace("mcf", 6_000)
    served = run_trace(trace, "slip_abp", replacement=replacement,
                       store=MemoryCaptureStore())
    [(ok, [hierarchy])] = calls
    assert ok is True
    assert hierarchy.kernel_declines.replay is None
    with walked():
        walk = run_trace(trace, "slip_abp", replacement=replacement)
    assert canonical(served) == canonical(walk)


# ----------------------------------------------------------------------
# Section 7 rd-blocks: the kernel serves them from the page-mode capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", SLIP_KIND)
def test_rd_block_cell_is_served_by_the_kernel(policy, monkeypatch,
                                               walked):
    """A default-config rd-block cell replays through the kernel,
    records no decline and matches the walk. 4-line blocks split each
    64-line page into 16 profile keys, and a 4-entry SLIP-cache misses
    far more often than the TLB."""
    calls = spy_mix_kernel(monkeypatch)
    config = default_system().with_slip(rd_block_lines=4,
                                        slip_cache_entries=4)
    trace = make_trace("mcf", 6_000)
    served = run_trace(trace, policy, config=config,
                       store=MemoryCaptureStore())
    [(ok, [hierarchy])] = calls
    assert ok is True
    assert hierarchy.kernel_declines.replay is None
    assert hierarchy.kernel_declines.frontend is None
    with walked():
        walk = run_trace(trace, policy, config=config)
    assert canonical(served) == canonical(walk)


# ----------------------------------------------------------------------
# Multicore: one N-core sweep over the shared L3 serves the mixes
# ----------------------------------------------------------------------
def test_mix_is_served_by_the_kernel(monkeypatch):
    """A default-config slip_abp mix runs the kernel once, for every core.

    Byte identity alone cannot tell a serving kernel from one that
    always declines to the walk.
    """
    calls = spy_mix_kernel(monkeypatch)
    multi_core.run_mix(MIX, "slip_abp", length_per_core=3_000,
                       config=default_system())
    [(served, hierarchies)] = calls
    assert served is True
    assert len(hierarchies) == len(MIX)
    assert all(h.kernel_declines.replay is None for h in hierarchies)


@pytest.mark.parametrize("policy", SLIP_KIND)
def test_mix_core_ledgers_match_scalar(policy, tiny_system, monkeypatch,
                                       walked):
    """Per-core ledgers a MulticoreResult does not carry — counters
    (latency included), runtime and TLB statistics — match the walk
    too."""
    ledgers = []
    collect = multi_core._collect_mix

    def spy(mix, policy, runtimes, shared_l3, hierarchies):
        ledgers.append([
            (asdict(h.counters), asdict(h.runtime.stats),
             asdict(h.runtime.tlb.stats)) for h in hierarchies])
        return collect(mix, policy, runtimes, shared_l3, hierarchies)

    monkeypatch.setattr(multi_core, "_collect_mix", spy)
    traces = make_mix_traces(MIX, 2_000, seed=1)
    multi_core.run_mix_traces(traces, MIX, policy, tiny_system, 1)
    with walked():
        multi_core.run_mix_traces(traces, MIX, policy, tiny_system, 1)
    vector, walk = ledgers
    assert vector == walk
    assert all(counters["total_latency_cycles"] > 0
               for counters, _, _ in vector)


# ----------------------------------------------------------------------
# adopt_counts contract: exactly one insertion source
# ----------------------------------------------------------------------
def test_adopt_counts_requires_one_insertion_source(tiny_system):
    hierarchy = build_hierarchy(tiny_system, "slip")
    stats = hierarchy.l2.stats
    nsub = hierarchy.l2.cfg.num_sublevels
    kwargs = dict(
        demand_hits=0, demand_misses=0, metadata_hits=0,
        metadata_misses=0, hits_by_sublevel=[0] * nsub,
        insert_events=[0] * nsub, move_read_events=[0] * nsub,
        move_write_events=[0] * nsub, wb_in_events=[0] * nsub,
        wb_out_events=[0] * nsub, reuse_histogram={},
    )
    with pytest.raises(ValueError, match="exactly one"):
        stats.adopt_counts(default_insertions=1,
                           insertions_by_class={"default": 1}, **kwargs)
    with pytest.raises(ValueError, match="exactly one"):
        stats.adopt_counts(**kwargs)
