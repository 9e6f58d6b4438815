"""Tests for the Energy Optimizer Unit (Section 4.4)."""

import pytest

from repro.core.distribution import ReuseDistanceDistribution
from repro.core.energy_model import LevelEnergyParams, SlipEnergyModel
from repro.core.eou import EnergyEvaluationUnit, EnergyOptimizerUnit
from repro.core.policy import SlipSpace

CAPS = (1024, 1024, 2048)


def make_eou(include_insertion=True):
    space = SlipSpace((4, 4, 8), CAPS)
    model = SlipEnergyModel(space, LevelEnergyParams(
        CAPS, (21.0, 33.0, 50.0), 133.0,
        include_insertion_energy=include_insertion,
    ))
    return EnergyOptimizerUnit(model)


def dist_with(counts):
    dist = ReuseDistanceDistribution(CAPS[0:1] + (2048, 4096))
    dist.counts = list(counts)
    return dist


class TestEEU:
    def test_dot_product(self):
        eeu = EnergyEvaluationUnit(0, (1, 2, 3, 4))
        assert eeu.evaluate((1, 1, 1, 1)) == 10
        assert eeu.evaluate((4, 0, 0, 1)) == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnergyEvaluationUnit(0, (1, 2)).evaluate((1, 2, 3))


class TestEOU:
    def test_one_eeu_per_slip(self):
        eou = make_eou()
        assert len(eou.eeus) == 8

    def test_cold_distribution_returns_default(self):
        eou = make_eou()
        cold = dist_with([0, 0, 0, 0])
        assert eou.optimize(cold) == eou.space.default_id

    def test_nearly_cold_returns_default(self):
        eou = make_eou()
        assert eou.optimize(dist_with([1, 0, 1, 0])) == eou.space.default_id

    def test_miss_heavy_distribution_returns_abp(self):
        eou = make_eou()
        best = eou.optimize(dist_with([0, 0, 0, 15]))
        assert best == eou.space.abp_id

    def test_allow_abp_false_never_bypasses_fully(self):
        eou = make_eou()
        best = eou.optimize(dist_with([0, 0, 0, 15]), allow_abp=False)
        assert best != eou.space.abp_id

    def test_hot_distribution_prefers_small_chunk(self):
        eou = make_eou()
        best = eou.optimize(dist_with([15, 0, 0, 0]))
        slip = eou.space.slip_of(best)
        assert not slip.is_abp
        assert slip.chunks[0] == (0,)

    def test_stats_accumulate(self):
        eou = make_eou()
        for _ in range(5):
            eou.optimize(dist_with([15, 0, 0, 0]))
        assert eou.stats.optimizations == 5
        assert eou.stats.energy_pj == pytest.approx(5 * 1.27)
        assert eou.stats.tlb_block_cycles == 5

    def test_fixed_point_matches_float_reference(self):
        eou = make_eou()
        patterns = [
            [15, 0, 0, 0], [0, 15, 0, 0], [0, 0, 15, 0], [0, 0, 0, 15],
            [10, 2, 1, 2], [5, 5, 5, 5], [8, 0, 0, 7], [1, 1, 1, 12],
        ]
        for counts in patterns:
            dist = dist_with(counts)
            assert eou.optimize(dist) == eou.optimize_float(dist), counts

    def test_tie_breaks_to_lower_id(self):
        space = SlipSpace((2, 2), (16, 16))
        model = SlipEnergyModel(space, LevelEnergyParams(
            (16, 16), (5.0, 5.0), 5.0, include_insertion_energy=False,
        ))
        eou = EnergyOptimizerUnit(model)
        dist = ReuseDistanceDistribution((16, 32))
        dist.counts = [8, 8, 0]
        winners = [eou.optimize(dist) for _ in range(3)]
        assert len(set(winners)) == 1  # deterministic


# ----------------------------------------------------------------------
# Memoization equivalence: for every input, the memoized optimize()
# (both the miss that populates the cache and the hit that reads it)
# must return exactly what the un-memoized argmin computes.
# ----------------------------------------------------------------------
#: (chunk ways per sublevel, capacities, distribution boundaries,
#:  min_abp_samples) — one entry per distinct SlipSpace shape.
EQUIV_CONFIGS = [
    ((4, 4, 8), (1024, 1024, 2048), (1024, 2048, 4096), 0),
    ((2, 2), (16, 16), (16, 32), 0),
    ((8,), (2048,), (2048,), 0),
    ((4, 4, 8), (1024, 1024, 2048), (1024, 2048, 4096), 8),
]

VECTORS_PER_CONFIG = 1000


def equiv_eou(chunks, caps, min_abp_samples):
    space = SlipSpace(chunks, caps)
    model = SlipEnergyModel(space, LevelEnergyParams(
        caps, tuple(21.0 + 12.0 * i for i in range(len(caps))), 133.0,
    ))
    return EnergyOptimizerUnit(model, min_abp_samples=min_abp_samples)


class TestMemoEquivalence:
    @pytest.mark.parametrize(
        "chunks,caps,bounds,min_abp", EQUIV_CONFIGS,
        ids=lambda v: str(v).replace(" ", ""))
    def test_randomized_vectors_match_direct(self, chunks, caps, bounds,
                                             min_abp):
        import random

        rng = random.Random(20260805)
        eou = equiv_eou(chunks, caps, min_abp)
        num_bins = len(bounds) + 1
        invocations = 0
        for trial in range(VECTORS_PER_CONFIG):
            # Bias one vector in eight toward tiny totals so the cold
            # (< DEFAULT_WARM_SAMPLES) path and the evidence gate see
            # real coverage instead of only saturated counters.
            if trial % 8 == 0:
                counts = [rng.randint(0, 1) for _ in range(num_bins)]
            else:
                counts = [rng.randint(0, 15) for _ in range(num_bins)]
            dist = ReuseDistanceDistribution(bounds)
            dist.counts = counts
            allow_abp = trial % 3 != 2
            evidence = (None, 0, 3, 7, 8, 63)[trial % 6]
            expected = eou.optimize_direct(
                dist, allow_abp=allow_abp, evidence_samples=evidence)
            # Miss (populates the memo), then hit (reads it): both must
            # agree with the fresh argmin, and both must be charged.
            for _ in range(2):
                got = eou.optimize(dist, allow_abp=allow_abp,
                                   evidence_samples=evidence)
                invocations += 1
                assert got == expected, (
                    counts, allow_abp, evidence, chunks, min_abp)
        assert eou.stats.optimizations == invocations
        assert eou.stats.energy_pj == invocations * 1.27
        # The memo never outgrows its key space and actually hit.
        assert 0 < len(eou._memo) <= invocations

    def test_min_abp_samples_gate_blocks_thin_evidence(self):
        eou = equiv_eou((4, 4, 8), (1024, 1024, 2048), 8)
        miss_heavy = ReuseDistanceDistribution((1024, 2048, 4096))
        miss_heavy.counts = [0, 0, 0, 15]
        abp = eou.space.abp_id
        assert eou.optimize(miss_heavy, evidence_samples=7) != abp
        assert eou.optimize(miss_heavy, evidence_samples=8) == abp
        assert eou.optimize(miss_heavy, evidence_samples=None) == abp
        # The gate is part of the memo key: the gated and ungated
        # answers coexist without evicting one another.
        assert eou.optimize(miss_heavy, evidence_samples=7) != abp
        assert eou.optimize_direct(miss_heavy, evidence_samples=7) != abp
        assert eou.optimize_direct(miss_heavy, evidence_samples=8) == abp

    def test_direct_bypasses_stats_and_memo(self):
        eou = equiv_eou((2, 2), (16, 16), 0)
        dist = ReuseDistanceDistribution((16, 32))
        dist.counts = [8, 8, 0]
        eou.optimize_direct(dist)
        assert eou.stats.optimizations == 0
        assert eou._memo == {}


def test_eou_energy_property_refuses_accumulation(tiny_system):
    # The ledger is a materialized product now; the old corruption
    # vector (drifting the accumulated float) no longer type-checks.
    from repro.sim.build import build_hierarchy

    hierarchy = build_hierarchy(tiny_system, "slip_abp")
    for step in range(2000):
        hierarchy.access((step * 17) % 1200, step % 5 == 0)
    eou = hierarchy.runtime.eous["L2"]
    with pytest.raises(AttributeError):
        eou.stats.energy_pj += 5.0
