"""Vectorized back-end replay: byte-identity, bypasses, store fixes.

The batched kernel (:mod:`repro.sim.vector_replay`) must be
*observationally absent*: every baseline-runtime-kind cell it replays
serializes byte-for-byte like the per-access walk, and everything it
cannot represent falls back to the scalar replay. The hypothesis
harness of ``test_mix_replay`` checks that over the whole cell space;
the named cells below pin the three eligible policies on the tiny
system and seeded draws from the harness's cell space, each through
the one differential check (``served_like_walk``), and the bypass
matrix pins what the kernel declines. The last test breaks each
identity of the audit both replay kernels share.
"""

import random

import pytest

from harness import single_cell
from repro.analysis.invariants import InvariantViolation, check_replay_tallies
from repro.sim.build import build_hierarchy
from repro.sim.filtered import front_end_fingerprint
from repro.sim.single_core import run_trace
from repro.sim.vector_replay import (
    LevelTally,
    eligible_kind,
    replay_capture_vector,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore, fingerprint_key

BASELINE_KIND = ("baseline", "nurapid", "lru_pea")
LENGTH = 2_500


# ----------------------------------------------------------------------
# Byte-identical equivalence: policies x stores
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("policy", BASELINE_KIND)
    @pytest.mark.parametrize("store_kind", ("memory", "none"))
    def test_vector_matches_scalar(self, policy, store_kind, tiny_system,
                                   served_like_walk):
        store = MemoryCaptureStore() if store_kind == "memory" else None
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy=policy,
            config=tiny_system), store)

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_direct(self, policy, tiny_system,
                                   served_like_walk):
        served_like_walk(run_trace, dict(
            trace=make_trace("lbm", LENGTH), policy=policy,
            config=tiny_system), MemoryCaptureStore())

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_scalar_nonzero_seed(self, policy,
                                                tiny_system,
                                                served_like_walk):
        """Seeded RNG coupling (lru_pea) and seeded traces line up."""
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH, seed=3), policy=policy,
            config=tiny_system, seed=5), MemoryCaptureStore())


@pytest.mark.parametrize("case_seed", range(6))
def test_random_geometry_property(case_seed, served_like_walk):
    """A seeded draw from the harness's cell space, on the kernel's
    policies under LRU."""
    choose = random.Random(1_000 + case_seed).choice
    served_like_walk(run_trace, single_cell(choose, BASELINE_KIND,
                                            ("lru",)),
                     MemoryCaptureStore())


@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(pooled_like_walk):
    """Worker processes serve the baseline kinds like the walk."""
    pooled_like_walk(BASELINE_KIND)


# ----------------------------------------------------------------------
# Bypass matrix
# ----------------------------------------------------------------------
class TestBypass:
    @pytest.mark.parametrize("policy,kind", (
        ("baseline", "baseline"),
        ("nurapid", "nurapid"),
        ("lru_pea", "lru_pea"),
    ))
    def test_eligible_kinds(self, policy, kind, tiny_system):
        assert eligible_kind(
            build_hierarchy(tiny_system, policy)) == kind

    @pytest.mark.parametrize("policy", ("slip", "slip_abp"))
    def test_slip_kinds_bypass(self, policy, tiny_system):
        assert eligible_kind(
            build_hierarchy(tiny_system, policy)) is None

    @pytest.mark.parametrize("replacement", ("random", "drrip", "ship"))
    def test_non_lru_replacements_bypass(self, replacement, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline",
                                    replacement=replacement)
        assert eligible_kind(hierarchy) is None

    def test_replay_declines_ineligible_hierarchy(self, tiny_system):
        store = MemoryCaptureStore()
        trace = make_trace("soplex", 1_200)
        run_trace(trace, "baseline", config=tiny_system, store=store)
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        capture = store.get(key)
        assert capture is not None
        hierarchy = build_hierarchy(tiny_system, "slip")
        assert replay_capture_vector([hierarchy], [capture]) is False

    def test_non_lru_cells_still_replay_correctly(self, tiny_system,
                                                  served_like_walk):
        """A bypassed cell silently takes the scalar replay, same
        bytes."""
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", 1_500), policy="baseline",
            config=tiny_system, replacement="random"),
            MemoryCaptureStore())


# ----------------------------------------------------------------------
# The replay kernels' shared conservation audit
# ----------------------------------------------------------------------
def _ledger():
    """A consistent two-core ledger: (L2 legs, L3 tally, DRAM counts)."""
    def tally(**fields):
        result = LevelTally(2)
        for name, value in fields.items():
            setattr(result, name, value)
        return result

    def l2():
        # 9 demand, 3 metadata and 5 writeback events; 6 fills.
        return (tally(dh_sub=[3, 2], demand_misses=4, mh_sub=[1, 0],
                      metadata_misses=2, ins_sub=[4, 1], bypasses=1,
                      class_counts=[1, 0, 4, 1], mvr_sub=[1, 0],
                      mvw_sub=[0, 1], wbin_sub=[2, 1], forwarded_wbs=2,
                      wbout_sub=[1, 0]), 9, 3, 5)

    # The L3 sees the L2s' 8 demand and 4 metadata misses and their
    # 4 forwarded plus 2 evicted-dirty writebacks.
    l3 = tally(dh_sub=[2, 1], demand_misses=5, mh_sub=[1, 1],
               metadata_misses=2, ins_sub=[5, 1], bypasses=1,
               class_counts=[1, 0, 5, 1], mvr_sub=[1, 1], mvw_sub=[2, 0],
               wbin_sub=[2, 1], forwarded_wbs=3, wbout_sub=[1, 1])
    dram = dict(dram_demand=5, dram_metadata=2, dram_writebacks=5)
    return [l2(), l2()], l3, dram


def _bump(which, field, index=None, by=1):
    """Break one field: of an L2 tally (core), the L3 tally or DRAM."""
    def apply(l2_legs, l3, dram):
        if which == "DRAM":
            dram[field] += by
            return
        target = l3 if which == "L3" else l2_legs[which][0]
        if index is None:
            setattr(target, field, getattr(target, field) + by)
        else:
            getattr(target, field)[index] += by
    return apply


@pytest.mark.parametrize("defect, level, counter", [
    (_bump(1, "dh_sub", 0), "L2[1]", "demand_events"),
    (_bump(0, "mh_sub", 1), "L2[0]", "metadata_events"),
    (_bump(0, "forwarded_wbs", by=-1), "L2[0]", "wb_in_events"),
    (_bump(1, "bypasses"), "L2[1]", "insertions"),
    (_bump(0, "class_counts", 3), "L2[0]", "insertions_by_class"),
    (_bump("L3", "mvw_sub", 0, by=-1), "L3", "move_events"),
    (_bump("L3", "dh_sub", 1), "L3", "demand_events"),
    (_bump("L3", "mh_sub", 0, by=-1), "L3", "metadata_events"),
    (_bump(1, "wbout_sub", 0), "L3", "wb_in_events"),
    (_bump("DRAM", "dram_demand"), "DRAM", "dram_demand_reads"),
    (_bump("DRAM", "dram_metadata"), "DRAM", "dram_metadata_reads"),
    (_bump("L3", "wbout_sub", 1), "DRAM", "dram_writebacks"),
], ids=["l2-demand", "l2-metadata", "l2-writebacks", "insertions",
        "classes", "movements", "l3-demand", "l3-metadata",
        "l3-writebacks", "dram-demand", "dram-metadata", "dram-writes"])
def test_replay_audit_names_the_broken_identity(defect, level, counter):
    l2_legs, l3, dram = _ledger()
    check_replay_tallies(l2_legs, l3, **dram)  # consistent: no raise
    defect(l2_legs, l3, dram)
    with pytest.raises(InvariantViolation) as raised:
        check_replay_tallies(l2_legs, l3, **dram)
    assert raised.value.invariant == "vector-replay-conservation"
    assert (raised.value.level, raised.value.counter) == (level, counter)
