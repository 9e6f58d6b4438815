"""SLIP phase-split replay kernel: byte-identity and declines.

Every slip/slip_abp cell the kernel (:mod:`repro.sim.vector_replay_slip`)
accepts must serialize byte-for-byte like the driver's per-access walk
(the ``walked`` fixture). The hypothesis harness of ``test_mix_replay``
checks that over the whole cell space (LRU, DRRIP and SHiP, rd-blocks,
the ``l3_abp_min_samples`` floor, energy overrides, ``always_sample``,
1-3 cores over a shared L3); the named cells below pin the two slip
kinds on the tiny system, both sides of the ABP evidence floor and
seeded draws from the harness's cell space, each through the one
differential check (``served_like_walk``). Everything the kernel cannot
represent must decline with a recorded reason and walk, before any
capture is taken, with identical bytes. The spy tests pin that the
kernel really serves DRRIP/SHiP, rd-block and multicore cells. The
live state the C sweep hands back (every page row, each core's sampler
generator and runtime and EOU counters, the DRRIP and SHiP generators
and SHCTs) must end where the walk leaves it, and the sweep's EOU must
pick the walk's SLIPs at the edges of its cold floor, its ABP evidence
floor and its tie-break.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest

from harness import canonical, single_cell
from repro.core.distribution import DEFAULT_WARM_SAMPLES
from repro.core.eou import EnergyOptimizerUnit
from repro.core.sampling import PageState
from repro.sim import filtered, multi_core, single_core
from repro.sim.build import build_hierarchy
from repro.sim.config import default_system
from repro.sim.filtered import front_end_fingerprint
from repro.sim.single_core import run_trace
from repro.sim.vector_replay_slip import (
    replay_capture_vector_slip,
    slip_eligible,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore, fingerprint_key
from repro.workloads.mixes import make_mix_traces

SLIP_KIND = ("slip", "slip_abp")
RRIP = ("drrip", "ship")
LENGTH = 2_500
MIX = ("soplex", "mcf")


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
    @pytest.mark.parametrize("store_kind", ("memory", "none"))
    def test_vector_matches_scalar(self, policy, store_kind, tiny_system,
                                   served_like_walk):
        store = MemoryCaptureStore() if store_kind == "memory" else None
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy=policy,
            config=tiny_system), store)

    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_vector_matches_direct(self, policy, tiny_system,
                                   served_like_walk):
        served_like_walk(run_trace, dict(
            trace=make_trace("lbm", LENGTH), policy=policy,
            config=tiny_system), MemoryCaptureStore())

    @pytest.mark.parametrize("policy", SLIP_KIND)
    def test_vector_matches_scalar_nonzero_seed(self, policy,
                                                tiny_system,
                                                served_like_walk):
        """Sampler RNG and seeded traces line up event for event."""
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH, seed=3), policy=policy,
            config=tiny_system, seed=5), MemoryCaptureStore())

    @pytest.mark.parametrize("min_samples", (0, 10_000))
    def test_abp_min_samples_gate(self, min_samples, tiny_system,
                                  served_like_walk):
        """The EOU's ABP evidence floor steers fills identically.

        0 lets the all-bypass policy win from the first sample; a huge
        floor suppresses it entirely — both sides of the gate must
        replay byte-identically through the kernel.
        """
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy="slip_abp",
            config=tiny_system.with_slip(l3_abp_min_samples=min_samples)),
            MemoryCaptureStore())


@pytest.mark.parametrize("case_seed", range(6))
def test_random_geometry_property(case_seed, served_like_walk):
    """A seeded draw from the harness's cell space, on the slip kinds
    under a replacement the kernel serves."""
    choose = random.Random(7_000 + case_seed).choice
    served_like_walk(run_trace, single_cell(choose, SLIP_KIND,
                                            ("lru",) + RRIP),
                     MemoryCaptureStore())


@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(pooled_like_walk):
    """Worker processes serve the slip kinds like the walk."""
    pooled_like_walk(SLIP_KIND)


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
        assert canonical(replayed) == canonical(walk)
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


@pytest.mark.parametrize("policy",
                         ("baseline", "nurapid", "lru_pea") + SLIP_KIND)
def test_mix_core_ledgers_match_scalar(policy, tiny_system, monkeypatch,
                                       walked):
    """Per-core ledgers a MulticoreResult does not carry — counters
    (latency included), runtime and TLB statistics — match the walk
    too, under both replay kernels."""
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
# The live runtime state the sweep hands back
# ----------------------------------------------------------------------
def simulated(run) -> list:
    """The hierarchies the driver simulates during ``run()``."""
    built = []

    def simulate(hierarchies, *args):
        built.extend(hierarchies)
        return filtered.simulate(hierarchies, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(single_core, "simulate", simulate)
        mp.setattr(multi_core, "simulate", simulate)
        run()
    return built


def served_and_walked(run) -> tuple:
    """``run()``'s hierarchies, served by the kernel and walked."""
    served = simulated(run)
    # The kernel served them: it leaves the cache arrays empty.
    assert served and all(h.l2.valid_count == 0 for h in served)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtered, "_needs_walk", lambda *args: True)
        walked = simulated(run)
    assert all(h.l2.valid_count > 0 for h in walked)
    return served, walked


def page_rows(hierarchies) -> list:
    """Every core's page table: per profile key its state, policies,
    distribution bins per level, ``period_samples`` and
    ``sampling_visits``."""
    return [{key: (entry.state, entry.policies,
                   {name: dist.counts
                    for name, dist in entry.distributions.items()},
                   entry.period_samples, entry.sampling_visits)
             for key, entry in hierarchy.runtime.pages.items()}
            for hierarchy in hierarchies]


def runtime_ledgers(hierarchies) -> list:
    """Per core: the sampler's generator state, every ``RuntimeStats``
    field and each level's ``EouStats``."""
    return [(hierarchy.runtime.sampler._rng.getstate(),
             asdict(hierarchy.runtime.stats),
             {name: asdict(eou.stats)
              for name, eou in hierarchy.runtime.eous.items()})
            for hierarchy in hierarchies]


SHAPES = ("page", "rd-block", "always-sample", "mix")


def shape_run(shape, config):
    """A ``slip_abp`` run of one of :data:`SHAPES`: soplex by pages, by
    four-line rd-blocks or sampling always, or a two-core mix."""
    if shape == "rd-block":
        config = config.with_slip(rd_block_lines=4, slip_cache_entries=4)
    if shape == "mix":
        traces = make_mix_traces(MIX, 3_000, seed=2)

        def run():
            multi_core.run_mix_traces(traces, MIX, "slip_abp", config, 2,
                                      store=MemoryCaptureStore())
    else:
        trace = make_trace("soplex", 4_000, seed=2)

        def run():
            run_trace(trace, "slip_abp", config=config, seed=2,
                      always_sample=shape == "always-sample",
                      store=MemoryCaptureStore())
    return run


@pytest.mark.parametrize("shape", SHAPES)
def test_page_rows_end_where_the_walk_leaves_them(shape, tiny_system):
    """The sweep owns the page rows; every row it writes back into the
    runtime's ``SlipPageEntry`` is the walk's."""
    served, walked = served_and_walked(shape_run(shape, tiny_system))
    rows = page_rows(served)
    assert rows == page_rows(walked)
    # Bins saturate and halve, and outside rd-blocks (four-line keys)
    # some rows reach the 63-sample cap.
    assert max(max(counts) for table in rows for entry in table.values()
               for counts in entry[2].values()) >= 14
    assert shape == "rd-block" or max(
        entry[3] for table in rows for entry in table.values()) == 63


@pytest.mark.parametrize("shape", SHAPES)
def test_runtime_ledgers_end_where_the_walk_leaves_them(shape,
                                                        tiny_system):
    """The sweep draws from each core's sampler and counts the
    runtime's fetches, recomputations, transitions and EOU operations:
    the generator ends in the walk's state and every ledger holds the
    walk's counts."""
    served, walked = served_and_walked(shape_run(shape, tiny_system))
    ledgers = runtime_ledgers(served)
    assert ledgers == runtime_ledgers(walked)
    for _, stats, eous in ledgers:
        assert stats["distribution_fetches"] > 0
        assert stats["policy_recomputations"] > 0
        assert all(eou["optimizations"] == stats["policy_recomputations"]
                   for eou in eous.values())
        assert (stats["state_transitions_to_stable"] > 0) == (
            shape != "always-sample")


@pytest.mark.parametrize("replacement", RRIP)
def test_rrip_state_ends_where_the_walk_leaves_it(replacement):
    """DRRIP's and SHiP's generators, and SHiP's SHCT, at both levels
    end where the walk leaves them."""
    trace = make_trace("mcf", 6_000)

    def run():
        run_trace(trace, "slip_abp", replacement=replacement,
                  store=MemoryCaptureStore())

    def state(hierarchies):
        return [(level.replacement._rng.getstate(),
                 getattr(level.replacement, "shct", None))
                for h in hierarchies for level in (h.l2, h.l3)]

    served, walked = served_and_walked(run)
    assert state(served) == state(walked)
    if replacement == "ship":
        # The SHCT left its initial all-ones state at both levels.
        assert all(set(shct) != {1} for _, shct in state(served))


def test_entries_held_before_the_replay_steer_it(tiny_system, monkeypatch,
                                                 walked):
    """Entries the runtime holds before the replay (state, SLIPs, bins,
    period samples) steer the sweep as they steer the walk, and end
    where the walk leaves them."""
    trace = make_trace("soplex", 3_000, seed=1)
    built = []

    def warm(*args, **kwargs):
        hierarchy = build_hierarchy(*args, **kwargs)
        runtime = hierarchy.runtime
        keys = np.unique(trace.addresses >> runtime.key_shift)
        for index, key in enumerate(keys[::2].tolist()):
            entry = runtime.entry_for(key)
            if index % 3:
                entry.state = PageState.STABLE
                entry.policies = {"L2": index % 8, "L3": index // 8 % 8}
            entry.distributions["L2"].counts = [index % 16, 3, 0, 15]
            entry.period_samples = index % 64
        built.append(hierarchy)
        return hierarchy

    monkeypatch.setattr(single_core, "build_hierarchy", warm)
    served = run_trace(trace, "slip_abp", config=tiny_system,
                       store=MemoryCaptureStore())
    with walked():
        walk = run_trace(trace, "slip_abp", config=tiny_system)
    assert built[0].l2.valid_count == 0 < built[1].l2.valid_count
    assert canonical(served) == canonical(walk)
    assert page_rows(built[:1]) == page_rows(built[1:])


@pytest.mark.parametrize("policy", SLIP_KIND)
def test_eou_edges_steer_the_sweep_as_the_walk(policy, tiny_system,
                                               monkeypatch, walked):
    """Pages held sampling before the replay, one visit in, may
    stabilize at their first key miss on the bins they hold, so the
    sweep's EOU meets its edges exactly: L2 bin sums at the cold floor
    (``DEFAULT_WARM_SAMPLES``) and one below, ``period_samples`` at the
    L3 ABP evidence floor and one below, and L2 bins on which two EEUs
    tie. The SLIPs it picks are the walk's."""
    trace = make_trace("soplex", 3_000, seed=1)
    floor = tiny_system.slip.l3_abp_min_samples
    warm = [DEFAULT_WARM_SAMPLES, 0, 0, 0]
    cold = [DEFAULT_WARM_SAMPLES - 1, 0, 0, 0]
    misses = [0, 0, 0, 8]  # warm enough to stabilize
    cases = [(l2, samples) for l2 in (warm, cold)
             for samples in (floor, floor - 1)]
    built, optimized = [], []

    def hold(*args, **kwargs):
        hierarchy = build_hierarchy(*args, **kwargs)
        runtime = hierarchy.runtime
        keys = np.unique(trace.addresses >> runtime.key_shift)
        for index, key in enumerate(keys.tolist()):
            entry = runtime.entry_for(key)
            l2, entry.period_samples = cases[index % len(cases)]
            entry.distributions["L2"].counts = list(l2)
            entry.distributions["L3"].counts = list(misses)
            entry.sampling_visits = 1
        built.append(hierarchy)
        return hierarchy

    optimize_eou = EnergyOptimizerUnit.optimize

    def optimize(eou, distribution, allow_abp=True, evidence_samples=None):
        optimized.append((eou.min_abp_samples, tuple(distribution.counts),
                          evidence_samples))
        return optimize_eou(eou, distribution, allow_abp, evidence_samples)

    monkeypatch.setattr(single_core, "build_hierarchy", hold)
    served = run_trace(trace, policy, config=tiny_system,
                       store=MemoryCaptureStore())
    monkeypatch.setattr(EnergyOptimizerUnit, "optimize", optimize)
    with walked():
        walk = run_trace(trace, policy, config=tiny_system)
    assert built[0].l2.valid_count == 0 < built[1].l2.valid_count
    assert canonical(served) == canonical(walk)
    assert page_rows(built[:1]) == page_rows(built[1:])
    assert runtime_ledgers(built[:1]) == runtime_ledgers(built[1:])
    # The walk's EOUs met every edge.
    l2_eou = built[1].runtime.eous["L2"]
    assert {(0, tuple(l2)) for l2 in (warm, cold)} <= {
        (min_abp, counts) for min_abp, counts, _ in optimized}
    assert {(floor, tuple(misses), samples)
            for samples in (floor, floor - 1)} <= set(optimized)
    energies = sorted(
        eeu.evaluate(warm)
        for eeu in l2_eou._eligible[(policy == "slip_abp", True)])
    assert energies[0] == energies[1]
