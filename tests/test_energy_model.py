"""Tests for the analytical energy model (Section 3.2, Eq. 1-5)."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.distribution import ReuseDistanceDistribution
from repro.core.energy_model import (
    LevelEnergyParams,
    SlipEnergyModel,
    exact_dot,
    slip_coefficients,
)
from repro.core.policy import Slip, SlipSpace, abp_slip, default_slip
from repro.mem.stats import EnergyBreakdown, LevelStats
from repro.sim import multi_core
from repro.sim.config import CacheLevelConfig, DramConfig

CAPS = (1024, 1024, 2048)
ENERGIES = (21.0, 33.0, 50.0)
E_NL = 133.0


def params(include_insertion=False):
    return LevelEnergyParams(
        sublevel_capacity_lines=CAPS,
        sublevel_energy_pj=ENERGIES,
        next_level_energy_pj=E_NL,
        include_insertion_energy=include_insertion,
    )


def space():
    return SlipSpace((4, 4, 8), CAPS)


class TestChunkEnergy:
    def test_single_sublevel(self):
        assert params().chunk_energy_pj((0,)) == 21.0

    def test_capacity_weighted_mean(self):
        # Sublevels 1 and 2: (1024*33 + 2048*50) / 3072
        expected = (1024 * 33 + 2048 * 50) / 3072
        assert params().chunk_energy_pj((1, 2)) == pytest.approx(expected)

    def test_whole_level(self):
        expected = (1024 * 21 + 1024 * 33 + 2048 * 50) / 4096
        assert params().chunk_energy_pj((0, 1, 2)) == pytest.approx(expected)


class TestCoefficients:
    def test_abp_all_miss(self):
        alpha = slip_coefficients(abp_slip(), params())
        assert alpha == (E_NL,) * 4

    def test_default_slip(self):
        alpha = slip_coefficients(default_slip(3), params())
        mean = params().chunk_energy_pj((0, 1, 2))
        # Bins 0-2 are hits from the single chunk; bin 3 misses.
        assert alpha[0] == pytest.approx(mean)
        assert alpha[1] == pytest.approx(mean)
        assert alpha[2] == pytest.approx(mean)
        assert alpha[3] == pytest.approx(E_NL)

    def test_single_sublevel_slip(self):
        # {[0]}: bin 0 hits at 21 pJ; everything else misses.
        alpha = slip_coefficients(Slip(((0,),)), params())
        assert alpha[0] == pytest.approx(21.0)
        for i in (1, 2, 3):
            assert alpha[i] == pytest.approx(E_NL)

    def test_two_chunk_movement_term(self):
        # {[0], [1,2]}: accesses beyond 1024 lines move chunk0 -> chunk1
        # (Eq. 2): cost E0 + E1 added to bins 1..3.
        slip = Slip(((0,), (1, 2)))
        alpha = slip_coefficients(slip, params())
        e0 = 21.0
        e1 = params().chunk_energy_pj((1, 2))
        assert alpha[0] == pytest.approx(e0)
        assert alpha[1] == pytest.approx(e1 + (e0 + e1))
        assert alpha[2] == pytest.approx(e1 + (e0 + e1))
        assert alpha[3] == pytest.approx((e0 + e1) + E_NL)

    def test_three_chunk_cascaded_movement(self):
        slip = Slip(((0,), (1,), (2,)))
        alpha = slip_coefficients(slip, params())
        # Bin 3 sees both movements plus the miss.
        expected_bin3 = (21 + 33) + (33 + 50) + E_NL
        assert alpha[3] == pytest.approx(expected_bin3)

    def test_insertion_term_added_to_miss_bins(self):
        with_ins = slip_coefficients(Slip(((0,),)), params(True))
        without = slip_coefficients(Slip(((0,),)), params(False))
        assert with_ins[0] == without[0]
        for i in (1, 2, 3):
            assert with_ins[i] == pytest.approx(without[i] + 21.0)

    def test_abp_has_no_insertion_term(self):
        assert slip_coefficients(abp_slip(), params(True)) == (E_NL,) * 4

    def test_partial_bypass_misses_beyond_own_capacity(self):
        # {[0,1]}: capacity 2048; bins 2 and 3 are misses.
        alpha = slip_coefficients(Slip(((0, 1),)), params())
        e01 = params().chunk_energy_pj((0, 1))
        assert alpha[0] == pytest.approx(e01)
        assert alpha[1] == pytest.approx(e01)
        assert alpha[2] == pytest.approx(E_NL)
        assert alpha[3] == pytest.approx(E_NL)


class TestOptimizerChoices:
    """The argmin should reproduce the paper's Section 2 policies."""

    @pytest.fixture
    def model(self):
        return SlipEnergyModel(space(), params(include_insertion=True))

    def test_pure_miss_line_prefers_abp(self, model):
        best = model.best_slip((0.0, 0.0, 0.0, 1.0))
        assert model.space.slip_of(best).is_abp

    def test_pure_miss_without_abp_prefers_smallest_chunk(self, model):
        best = model.best_slip((0.0, 0.0, 0.0, 1.0), allow_abp=False)
        assert model.space.slip_of(best) == Slip(((0,),))

    def test_small_hot_line_prefers_sublevel0(self, model):
        best = model.best_slip((1.0, 0.0, 0.0, 0.0))
        slip = model.space.slip_of(best)
        assert slip.chunks[0] == (0,)

    def test_soplex_cperm_pattern_gets_two_chunks(self, model):
        # 66% within 64 KB, 10% needing full capacity, 24% missing:
        # Section 2's policy is {[0], [1,2]}-style insertion.
        best = model.best_slip((0.66, 0.05, 0.05, 0.24))
        slip = model.space.slip_of(best)
        # An energy-aware policy, not the Default and not full bypass:
        # the hot 64 KB mass keeps the first chunk small (1-2 sublevels).
        assert not slip.is_abp
        assert not slip.is_default(3)
        assert len(slip.chunks[0]) <= 2

    def test_uniform_distribution_not_abp(self, model):
        best = model.best_slip((0.25, 0.25, 0.25, 0.25))
        assert not model.space.slip_of(best).is_abp

    def test_energy_of_matches_dot_product(self, model):
        probs = (0.3, 0.3, 0.2, 0.2)
        for slip_id in range(len(model.space)):
            alpha = model.alphas[slip_id]
            expected = sum(a * p for a, p in zip(alpha, probs))
            assert model.energy_of(slip_id, probs) == pytest.approx(expected)


class TestQuantization:
    def test_quantized_preserves_argmin_on_corners(self):
        model = SlipEnergyModel(space(), params(True))
        quantized = model.quantized_alphas()
        for corner in range(4):
            probs = [0.0] * 4
            probs[corner] = 1.0
            float_best = model.best_slip(probs)
            counts = [0] * 4
            counts[corner] = 15
            int_best = min(
                range(len(quantized)),
                key=lambda j: sum(
                    a * c for a, c in zip(quantized[j], counts)
                ),
            )
            assert int_best == float_best

    def test_quantized_nonnegative_and_bounded(self):
        model = SlipEnergyModel(space(), params(True))
        for row in model.quantized_alphas():
            for value in row:
                assert 0 <= value < (1 << 16)


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LevelEnergyParams((1,), (1.0, 2.0), 3.0)

    def test_space_params_mismatch_rejected(self):
        bad = LevelEnergyParams((10, 10), (1.0, 2.0), 3.0)
        with pytest.raises(ValueError):
            SlipEnergyModel(space(), bad)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
    ).filter(lambda p: sum(p) > 0)
)
def test_property_energy_nonnegative(raw):
    total = sum(raw)
    probs = [p / total for p in raw]
    model = SlipEnergyModel(space(), params(True))
    for slip_id in range(len(model.space)):
        assert model.energy_of(slip_id, probs) >= 0.0


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4)
    .filter(lambda c: sum(c) >= 4)
)
def test_property_quantized_argmin_close_to_float(counts):
    """Fixed-point argmin must pick a SLIP within 2% of the float optimum."""
    model = SlipEnergyModel(space(), params(True))
    total = sum(counts)
    probs = [c / total for c in counts]
    float_best = model.best_slip(probs)
    quantized = model.quantized_alphas()
    int_best = min(
        range(len(quantized)),
        key=lambda j: sum(a * c for a, c in zip(quantized[j], counts)),
    )
    best_energy = model.energy_of(float_best, probs)
    chosen_energy = model.energy_of(int_best, probs)
    assert chosen_energy <= best_energy * 1.02 + 1e-9


class TestExactAccumulation:
    """Energies are exactly rounded sums of count x table products:
    left-to-right float addition of 0.1 + 0.2 + 0.3 gives
    0.6000000000000001, ``math.fsum`` gives 0.6."""

    TABLE = (0.1, 0.2, 0.3)

    def test_exact_dot(self):
        assert exact_dot([1, 1, 1], self.TABLE) == 0.6

    @pytest.mark.parametrize("events", ["read_events", "insert_events",
                                        "move_read_events",
                                        "move_write_events",
                                        "wb_in_events", "wb_out_events"])
    def test_materialize(self, events):
        stats = LevelStats("L2", num_sublevels=3)
        setattr(stats, events, [1, 1, 1])
        energy = EnergyBreakdown()
        energy.materialize(stats, self.TABLE, self.TABLE, 0.0)
        assert energy.total_pj == 0.6

    def test_average_access_energy(self):
        cfg = CacheLevelConfig(
            name="L2", size_bytes=3 * 64, ways=3, latency_cycles=1,
            access_energy_pj=0.0, sublevel_ways=(1, 1, 1),
            sublevel_energy_pj=self.TABLE, sublevel_latency=(1, 1, 1))
        assert sum(self.TABLE) / 3 != 0.6 / 3
        assert cfg.average_access_energy_pj() == 0.6 / 3

    def test_multicore_dram_total(self, tiny_system):
        """The shared DRAM total of a mix is the exactly rounded sum of
        the per-core channel energies. Two floats always add exactly
        rounded, so it takes three cores, and a per-line energy that is
        not a whole number of picojoules (the paper's 10,240 pJ is)."""
        config = replace(tiny_system, dram=DramConfig(
            latency_cycles=50, energy_pj_per_bit=0.3))
        runtimes, shared_l3, hierarchies = multi_core._build_mix(
            "baseline", config, 3, 0)
        for reads, hierarchy in zip((1, 2, 4), hierarchies):
            hierarchy.dram.stats.reads = reads
            hierarchy.dram.materialize_energy()
        per_core = [h.dram.stats.energy_pj for h in hierarchies]
        assert sum(per_core) != math.fsum(per_core)
        result = multi_core._collect_mix(
            ("a", "b", "c"), "baseline", runtimes, shared_l3, hierarchies)
        assert result.dram.energy_pj == math.fsum(per_core)
