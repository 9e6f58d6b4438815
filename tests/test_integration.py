"""Cross-module integration invariants on full simulations.

The module fixture's cells take the served path (capture kernel, then
the replay kernels) that every experiment cell takes; the walk is
checked against those kernels by the differential harness
(``test_mix_replay``) and the goldens.
"""

import pytest

from repro.sim.build import POLICY_NAMES, build_hierarchy
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace

# Long enough for SLIP page policies to reach steady state; the module
# fixture is computed once and shared by every test below.
LENGTH = 60_000


@pytest.fixture(scope="module")
def results(request):
    trace = make_trace("soplex", LENGTH)
    from repro.sim.config import default_system

    config = default_system()
    return {
        policy: run_trace(trace, policy, config=config,
                          warmup_fraction=0.3)
        for policy in POLICY_NAMES
    }


class TestAccountingInvariants:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_hits_misses_consistent(self, results, policy):
        r = results[policy]
        for stats in (r.l1, r.l2, r.l3):
            # Each hit is also tallied by the sublevel that served it.
            assert sum(stats.hits_by_sublevel) == stats.hits
            assert stats.demand_hits <= stats.hits
        # L1 probes every demand access; each lower level probes the
        # demand misses of the level above (the hierarchy is
        # non-inclusive: an L2 miss always goes on to L3).
        assert r.l1.demand_accesses == r.counters.demand_accesses
        assert r.l1.demand_hits == r.counters.l1_hits
        assert r.l2.demand_accesses == r.l1.demand_misses
        assert r.l3.demand_accesses == r.l2.demand_misses

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_energy_components_nonnegative(self, results, policy):
        r = results[policy]
        for stats in (r.l1, r.l2, r.l3):
            e = stats.energy
            for field in ("read_pj", "insertion_pj", "movement_pj",
                          "writeback_pj", "metadata_pj"):
                assert getattr(e, field) >= 0.0

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_total_is_sum_of_parts(self, results, policy):
        r = results[policy]
        e = r.l2.energy
        assert e.total_pj == pytest.approx(
            e.read_pj + e.insertion_pj + e.movement_pj + e.writeback_pj
            + e.metadata_pj + e.movement_queue_pj + e.eou_pj
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_sublevel_hits_sum_to_hits(self, results, policy):
        r = results[policy]
        for stats in (r.l2, r.l3):
            assert sum(stats.hits_by_sublevel) == stats.hits

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_dram_demand_reads_bounded_by_l3_misses(self, results, policy):
        r = results[policy]
        assert r.counters.dram_demand_reads <= r.l3.demand_misses

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_insertions_match_class_counts(self, results, policy):
        r = results[policy]
        for stats in (r.l2, r.l3):
            classified = sum(stats.insertions_by_class.values())
            assert classified == stats.insertions + stats.bypasses

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_reuse_histogram_covers_departures(self, results, policy):
        r = results[policy]
        histogram_total = sum(r.l3.reuse_histogram.values())
        assert histogram_total >= r.l3.insertions * 0.5

    def test_movement_only_for_nuca_and_slip(self, results):
        assert results["baseline"].l2.movements == 0
        assert results["nurapid"].l2.movements > 0

    def test_same_demand_access_count_across_policies(self, results):
        counts = {
            p: results[p].counters.demand_accesses for p in POLICY_NAMES
        }
        assert len(set(counts.values())) == 1


class TestEnergyShapeAcrossPolicies:
    def test_paper_ordering_l2(self, results):
        """NuRAPID and LRU-PEA > baseline > SLIP variants (L2 energy)."""
        energy = {
            p: results[p].level_energy_pj("L2") for p in POLICY_NAMES
        }
        assert energy["nurapid"] > energy["baseline"]
        assert energy["lru_pea"] > energy["baseline"]
        assert energy["slip_abp"] < energy["baseline"]

    def test_abp_saves_at_least_as_much_as_slip_l2(self, results):
        base = results["baseline"]
        slip = results["slip"].energy_savings_over(base, "L2")
        abp = results["slip_abp"].energy_savings_over(base, "L2")
        assert abp >= slip - 0.03

    def test_movement_dominates_nuca_energy(self, results):
        """Figure 11's claim: NUCA movement energy exceeds access."""
        stats = results["nurapid"].l2
        movement = stats.energy.move_total_pj
        assert movement > stats.energy.read_pj


class TestHierarchyStateConsistency:
    def test_no_duplicate_tags_within_set(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "slip_abp")
        trace = make_trace("mcf", 8_000)
        for addr, wr in zip(trace.addresses.tolist()[:8000],
                            trace.is_write.tolist()[:8000]):
            hierarchy.access(addr, wr)
        for level in hierarchy.levels:
            for line_set in level.sets:
                tags = [l.tag for l in line_set if l.valid]
                assert len(tags) == len(set(tags))

    def test_lines_map_to_correct_set(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "nurapid")
        trace = make_trace("gcc", 6_000)
        for addr in trace.addresses.tolist():
            hierarchy.access(addr)
        for level in hierarchy.levels:
            for set_idx, line_set in enumerate(level.sets):
                for line in line_set:
                    if line.valid:
                        assert level.set_index(line.tag) == set_idx
