"""Tests for trace generators and benchmark analogs."""

import numpy as np
import pytest

from repro.workloads.benchmarks import (
    BENCHMARKS,
    FIG1_BENCHMARKS,
    SPEC_ORDER,
    make_trace,
)
from repro.workloads.generators import (
    BimodalLoopRegion,
    HotColdRegion,
    LoopRegion,
    RandomRegion,
    RegionMix,
    StreamRegion,
)
from repro.workloads.mixes import (
    CORE_ADDRESS_STRIDE,
    MULTICORE_MIXES,
    make_mix_traces,
    mix_name,
)
from repro.workloads.capture_store import trace_content_digest
from repro.workloads.trace import Trace, concatenate


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLoopRegion:
    def test_cyclic_footprint(self):
        region = LoopRegion("l", 10, 1.0)
        out = region.generate(25, rng())
        assert out.max() < 10
        assert list(out[:10]) == list(out[10:20])

    def test_position_persists_across_calls(self):
        region = LoopRegion("l", 10, 1.0)
        first = region.generate(7, rng())
        second = region.generate(3, rng())
        assert second[0] == (first[-1] + 1) % 10

    def test_stride(self):
        region = LoopRegion("l", 100, 1.0, stride=3)
        out = region.generate(5, rng())
        assert list(out) == [0, 3, 6, 9, 12]

    def test_burst_covers_passes(self):
        region = LoopRegion("l", 1000, 1.0)
        assert region.preferred_burst() >= 2 * 1000

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LoopRegion("l", 0, 1.0)
        with pytest.raises(ValueError):
            LoopRegion("l", 10, -1.0)


class TestStreamRegion:
    def test_monotone_until_wrap(self):
        region = StreamRegion("s", 1.0, span=100)
        out = region.generate(150, rng())
        assert list(out[:100]) == list(range(100))
        assert list(out[100:110]) == list(range(10))

    def test_span_exceeds_llc(self):
        assert StreamRegion("s", 1.0).span_lines() > 32768


class TestRandomRegion:
    def test_bounds(self):
        region = RandomRegion("r", 500, 1.0)
        out = region.generate(1000, rng())
        assert out.min() >= 0
        assert out.max() < 500

    def test_clustering(self):
        region = RandomRegion("r", 10_000, 1.0, cluster_lines=4)
        out = region.generate(400, rng())
        deltas = np.diff(out)
        # Three of every four steps are +1 within a cluster.
        assert (deltas == 1).mean() > 0.5

    def test_cluster_must_be_positive(self):
        with pytest.raises(ValueError):
            RandomRegion("r", 100, 1.0, cluster_lines=0)


class TestHotColdRegion:
    def test_hot_lines_absorb_majority(self):
        region = HotColdRegion("h", 10_000, 1.0, hot_fraction=0.05,
                               hot_probability=0.8)
        out = region.generate(20_000, rng())
        values, counts = np.unique(out, return_counts=True)
        top = counts[np.argsort(counts)][-region.hot_lines:].sum()
        assert top / counts.sum() > 0.5

    def test_hot_lines_striped_across_footprint(self):
        """Hot anchors must be spread, not packed in a prefix."""
        region = HotColdRegion("h", 10_000, 1.0, hot_fraction=0.05,
                               hot_probability=0.99)
        out = region.generate(5_000, rng())
        assert out.max() > 5_000  # hot touches reach the far half

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HotColdRegion("h", 100, 1.0, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdRegion("h", 100, 1.0, hot_probability=1.5)


class TestBimodalLoopRegion:
    def test_offsets_within_span(self):
        region = BimodalLoopRegion("b", 50, 1000, 0.3, 1.0)
        out = region.generate(5000, rng())
        assert out.max() < 1000

    def test_short_windows_rescanned(self):
        region = BimodalLoopRegion("b", 50, 100_000, 0.9, 1.0)
        out = region.generate(2000, rng())
        # Second scans duplicate the window: many repeated values.
        assert np.unique(out).size < out.size

    def test_short_must_be_below_long(self):
        with pytest.raises(ValueError):
            BimodalLoopRegion("b", 100, 100, 0.5, 1.0)

    def test_share_must_be_probability(self):
        with pytest.raises(ValueError):
            BimodalLoopRegion("b", 10, 100, 1.5, 1.0)

    def test_pending_preserved_across_calls(self):
        region = BimodalLoopRegion("b", 50, 1000, 0.9, 1.0)
        a = region.generate(30, rng(1))
        b = region.generate(200, rng(1))
        assert a.size == 30 and b.size == 200


class TestRegionMix:
    def test_regions_in_disjoint_address_ranges(self):
        mix = RegionMix([
            LoopRegion("a", 100, 1.0),
            LoopRegion("b", 100, 1.0),
        ])
        addrs, _ = mix.generate(2000, rng())
        base_b = mix.placements[1].base_line
        in_a = addrs < base_b
        assert in_a.any() and (~in_a).any()
        assert addrs[in_a].max() < 100
        assert addrs[~in_a].min() >= base_b

    def test_access_shares_follow_weights(self):
        mix = RegionMix([
            StreamRegion("a", 3.0),
            StreamRegion("b", 1.0),
        ])
        addrs, _ = mix.generate(40_000, rng())
        base_b = mix.placements[1].base_line
        share_a = (addrs < base_b).mean()
        assert share_a == pytest.approx(0.75, abs=0.1)

    def test_write_fractions_respected(self):
        mix = RegionMix([StreamRegion("a", 1.0, write_fraction=0.5)])
        _, writes = mix.generate(10_000, rng())
        assert writes.mean() == pytest.approx(0.5, abs=0.05)

    def test_bursty_schedule(self):
        mix = RegionMix([
            StreamRegion("a", 1.0),
            StreamRegion("b", 1.0),
        ])
        schedule = mix._burst_schedule(10_000, rng())
        switches = (np.diff(schedule) != 0).sum()
        # Far fewer switches than a per-access coin flip (~5000).
        assert switches < 500

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            RegionMix([])


class TestTrace:
    def test_length_and_iteration(self):
        trace = make_trace("lbm", 500)
        assert len(trace) == 500
        pairs = list(trace)
        assert len(pairs) == 500
        assert isinstance(pairs[0][0], int)

    def test_deterministic_per_seed(self):
        a = make_trace("soplex", 1000, seed=3)
        b = make_trace("soplex", 1000, seed=3)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.is_write, b.is_write)

    def test_different_seeds_differ(self):
        a = make_trace("soplex", 1000, seed=1)
        b = make_trace("soplex", 1000, seed=2)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_footprint_helpers(self):
        trace = make_trace("lbm", 2000)
        assert 0 < trace.footprint_pages() <= trace.footprint_lines()

    def test_with_offset(self):
        trace = make_trace("lbm", 100)
        shifted = trace.with_offset(1000)
        assert np.array_equal(shifted.addresses, trace.addresses + 1000)

    def test_sliced(self):
        trace = make_trace("lbm", 100)
        part = trace.sliced(10, 20)
        assert len(part) == 10
        assert np.array_equal(part.addresses, trace.addresses[10:20])

    def test_derived_traces_get_their_own_digest(self):
        """Slices and offset copies must not inherit the memoized digest
        of the trace they came from: their contents differ."""
        trace = make_trace("mcf", 2000, seed=1)
        digest = trace_content_digest(trace)
        for derived in (trace.with_offset(CORE_ADDRESS_STRIDE),
                        trace.sliced(0, 1000)):
            fresh = Trace(derived.name, derived.addresses.copy(),
                          derived.is_write.copy())
            assert trace_content_digest(derived) \
                == trace_content_digest(fresh) != digest

    def test_concatenate(self):
        a = make_trace("lbm", 50)
        b = make_trace("lbm", 50, seed=1)
        joined = concatenate("x", (a, b), 3.0)
        assert len(joined) == 100

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace("x", np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))

    def test_instruction_count(self):
        trace = make_trace("lbm", 100)
        assert trace.instruction_count == pytest.approx(
            100 * trace.instructions_per_access
        )


class TestBenchmarkCatalog:
    def test_fourteen_benchmarks(self):
        assert len(BENCHMARKS) == 14
        assert set(SPEC_ORDER) == set(BENCHMARKS)

    def test_fig1_subset(self):
        assert set(FIG1_BENCHMARKS) <= set(BENCHMARKS)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_benchmark_generates(self, name):
        trace = make_trace(name, 2000)
        assert len(trace) >= 2000
        assert trace.addresses.min() >= 0

    def test_mcf_has_two_phases(self):
        assert len(BENCHMARKS["mcf"].phases) == 2

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            make_trace("nonexistent", 100)

    def test_instructions_per_access_positive(self):
        for spec in BENCHMARKS.values():
            assert spec.instructions_per_access > 1.0


class TestMixes:
    def test_eight_mixes(self):
        assert len(MULTICORE_MIXES) == 8

    def test_mix_names(self):
        assert mix_name(("a", "b")) == "a+b"

    def test_mix_traces_disjoint_address_spaces(self):
        traces = make_mix_traces(("soplex", "mcf"), 1000)
        assert traces[0].addresses.max() < CORE_ADDRESS_STRIDE
        assert traces[1].addresses.min() >= CORE_ADDRESS_STRIDE

    def test_all_mix_members_exist(self):
        for a, b in MULTICORE_MIXES:
            assert a in BENCHMARKS and b in BENCHMARKS
