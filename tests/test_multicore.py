"""Tests for the two-core shared-L3 simulation (Figure 16 machinery).

``TestRunMix``'s mixes take the served path (per-core capture, merged
replay over the shared L3) that every Fig. 16 cell takes.
"""

from dataclasses import asdict, replace

import pytest

from repro.sim import filtered
from repro.sim.multi_core import (
    RoutedSlipRuntime,
    _build_shared_l3,
    core_key_shift,
    run_mix,
    run_mix_traces,
)
from repro.core.runtime import SlipRuntime
from repro.sim.config import line_to_page_shift
from repro.workloads.mixes import CORE_ADDRESS_STRIDE, make_mix_traces

MIX = ("soplex", "mcf")
LENGTH = 60_000
#: (page size, rd-block lines): page keys at three page sizes, and
#: 16-line rd-blocks inside 64-line pages.
KEY_GRAINS = [(1024, 0), (4096, 0), (8192, 0), (4096, 16)]


class TestRunMix:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            policy: run_mix(MIX, policy, length_per_core=LENGTH, seed=0)
            for policy in ("baseline", "slip_abp")
        }

    def test_two_private_l2s(self, results):
        base = results["baseline"]
        assert len(base.l2_stats) == 2
        for stats in base.l2_stats:
            assert stats.accesses > 0

    def test_shared_l3_sees_both_cores(self, results):
        base = results["baseline"]
        per_core_l2_misses = [s.demand_misses for s in base.l2_stats]
        assert all(m > 0 for m in per_core_l2_misses)
        assert base.l3_stats.demand_accesses > max(per_core_l2_misses)

    def test_energy_rollups_positive(self, results):
        base = results["baseline"]
        assert base.l2_energy_pj() > 0
        assert base.l3_energy_pj() > 0
        assert base.combined_energy_pj() == pytest.approx(
            base.l2_energy_pj() + base.l3_energy_pj()
        )

    def test_slip_saves_shared_l3_energy(self, results):
        saving = results["slip_abp"].savings_over(
            results["baseline"], "L3"
        )
        assert saving > 0.0

    def test_savings_over_self_is_zero(self, results):
        base = results["baseline"]
        assert base.savings_over(base, "L3") == 0.0
        assert base.savings_over(base, "DRAM") == 0.0

    def test_dram_accesses_aggregated(self, results):
        base = results["baseline"]
        assert base.dram_accesses == base.dram.accesses

    def test_mix_recorded(self, results):
        assert results["baseline"].mix == MIX


class TestRoutedRuntime:
    def test_routes_by_core_address_region(self, tiny_system):
        runtimes = [SlipRuntime(tiny_system, seed=i) for i in range(2)]
        router = RoutedSlipRuntime(runtimes, core_key_shift(runtimes[0]))
        page_core0 = 5
        page_core1 = (CORE_ADDRESS_STRIDE >> 6) + 5
        runtimes[0].on_demand_access(page_core0)
        runtimes[1].on_demand_access(page_core1)
        assert router.is_sampling(page_core0)
        assert router.is_sampling(page_core1)
        # Distribution updates land in the owning runtime only.
        router.record_miss_sample("L2", page_core1)
        assert runtimes[1].pages[page_core1].distributions["L2"].total() == 1
        assert page_core1 not in runtimes[0].pages

    def test_policy_for_routed(self, tiny_system):
        runtimes = [SlipRuntime(tiny_system, seed=i) for i in range(2)]
        router = RoutedSlipRuntime(runtimes, core_key_shift(runtimes[0]))
        page = (CORE_ADDRESS_STRIDE >> 6) + 1
        assert router.policy_for("L2", page) == (
            runtimes[1].spaces["L2"].default_id
        )

    @pytest.mark.parametrize("page_size,rd_block_lines", KEY_GRAINS)
    def test_shared_l3_routes_every_core_at_any_key_grain(
            self, tiny_system, page_size, rd_block_lines):
        """Each core's profile keys (pages or rd-blocks) reach that
        core's runtime, for 3 cores."""
        config = replace(tiny_system, page_size=page_size).with_slip(
            rd_block_lines=rd_block_lines)
        runtimes = [SlipRuntime(config, seed=i) for i in range(3)]
        _, placement = _build_shared_l3(config, "slip_abp", runtimes, 0)
        router = placement.runtime
        key_shift = (rd_block_lines.bit_length() - 1 if rd_block_lines
                     else line_to_page_shift(config.lines_per_page))
        for core, runtime in enumerate(runtimes):
            key = ((core * CORE_ADDRESS_STRIDE) >> key_shift) + 5
            runtime.on_demand_access(key)
            router.record_miss_sample("L2", key)
            assert runtime.pages[key].distributions["L2"].total() == 1
            assert all(key not in other.pages
                       for other in runtimes if other is not runtime)

    @pytest.mark.parametrize("page_size,rd_block_lines", KEY_GRAINS)
    def test_slip_kernel_serves_every_key_grain(
            self, tiny_system, page_size, rd_block_lines, monkeypatch,
            walked):
        """The SLIP kernel replays a mix at any key grain (its router
        check shifts by the profile key, not the page) and matches the
        walk."""
        config = replace(tiny_system, page_size=page_size).with_slip(
            rd_block_lines=rd_block_lines)
        calls = []
        kernel = filtered.replay_capture_vector_slip

        def spy(hierarchies, *args):
            calls.append(kernel(hierarchies, *args))
            return calls[-1]

        traces = make_mix_traces(MIX, 1_500, seed=1)
        with monkeypatch.context() as mp:
            mp.setattr(filtered, "replay_capture_vector_slip", spy)
            served = run_mix_traces(traces, MIX, "slip_abp", config, 1)
        assert calls == [True]
        with walked():
            walk = run_mix_traces(traces, MIX, "slip_abp", config, 1)
        assert asdict(served) == asdict(walk)


class TestNucaMulticore:
    def test_nurapid_mix_increases_l3_energy(self):
        base = run_mix(MIX, "baseline", length_per_core=20_000)
        nurapid = run_mix(MIX, "nurapid", length_per_core=20_000)
        assert nurapid.savings_over(base, "L3") < 0.0

    def test_lru_pea_mix_builds_and_runs(self):
        result = run_mix(MIX, "lru_pea", length_per_core=4000)
        assert result.l3_stats.movements >= 0
