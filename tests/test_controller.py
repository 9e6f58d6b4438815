"""Tests for the SLIP placement controller (Sections 3.1, 4.3)."""

import pytest

from repro.core.controller import SlipPlacement
from repro.core.policy import Slip, SlipSpace
from repro.core.runtime import SlipRuntime
from repro.core.sampling import PageState
from repro.mem.cache import CacheLevel
from repro.mem.replacement import LruReplacement


@pytest.fixture
def space(tiny_system):
    cfg = tiny_system.l2
    return SlipSpace(
        cfg.sublevel_ways,
        tuple(cfg.sublevel_capacity_lines(i) for i in range(3)),
    )


@pytest.fixture
def runtime(tiny_system):
    return SlipRuntime(tiny_system, seed=0)


def make_controller(tiny_system, space, runtime):
    level = CacheLevel(tiny_system.l2, LruReplacement(),
                       track_metadata_energy=True)
    controller = SlipPlacement(space, runtime)
    controller.attach(level)
    return level, controller


def force_policy(runtime, space, page, slip, level_name="L2"):
    """Pin a stable page to a specific SLIP."""
    runtime.on_demand_access(page)
    entry = runtime.pages[page]
    entry.state = PageState.STABLE
    entry.policies[level_name] = space.id_of(slip)


class TestInsertion:
    def test_sampling_page_uses_default_chunk(self, tiny_system, space,
                                               runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        runtime.on_demand_access(0)
        controller.fill(0, page=0)
        assert level.stats.insertions_by_class["default"] == 1

    def test_stable_page_inserts_into_chunk0(self, tiny_system, space,
                                             runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(((0,), (1, 2))))
        controller.fill(0, page=0)
        _, way = level.probe(0)
        assert level.cfg.sublevel_of_way(way) == 0
        assert level.sets[level.set_index(0)][way].chunk_idx == 0
        assert level.stats.insertions_by_class["other"] == 1

    def test_abp_bypasses_level(self, tiny_system, space, runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(()))
        outcome = controller.fill(0, page=0)
        assert not outcome.inserted
        _, way = level.probe(0)
        assert way is None
        assert level.stats.bypasses == 1
        assert level.stats.insertions_by_class["abp"] == 1

    def test_abp_dirty_line_forwarded(self, tiny_system, space, runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(()))
        outcome = controller.fill(0, page=0, dirty=True)
        assert outcome.writebacks == [0]

    def test_metadata_lines_use_default(self, tiny_system, space, runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        controller.fill(12345, is_metadata=True)
        _, way = level.probe(12345)
        assert way is not None
        line = level.sets[level.set_index(12345)][way]
        assert line.policy_id == space.default_id

    def test_line_carries_policy_id(self, tiny_system, space, runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        slip = Slip(((0,), (1,)))
        force_policy(runtime, space, 0, slip)
        controller.fill(0, page=0)
        _, way = level.probe(0)
        line = level.sets[level.set_index(0)][way]
        assert line.policy_id == space.id_of(slip)


class TestCascade:
    def test_victim_moves_to_its_next_chunk(self, tiny_system, space,
                                            runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        slip = Slip(((0,), (1, 2)))
        force_policy(runtime, space, 0, slip)
        sets = level.cfg.sets
        controller.fill(0, page=0)          # into sublevel 0 (way 0)
        controller.fill(sets, page=0)       # same set: victim moves
        _, way0 = level.probe(0)
        assert way0 is not None
        assert level.cfg.sublevel_of_way(way0) in (1, 2)
        line = level.sets[0][way0]
        assert line.chunk_idx == 1
        assert level.stats.movements == 1

    def test_last_chunk_eviction_leaves_level(self, tiny_system, space,
                                              runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        slip = Slip(((0,),))  # single chunk: eviction leaves the level
        force_policy(runtime, space, 0, slip)
        sets = level.cfg.sets
        controller.fill(0, page=0)
        outcome = controller.fill(sets, page=0)
        _, way = level.probe(0)
        assert way is None
        assert outcome.inserted
        # The departure is fully accounted (Figure 1 histogram).
        assert sum(level.stats.reuse_histogram.values()) == 1

    def test_general_path_enumerates_clean_evictions(self, tiny_system,
                                                     space, runtime):
        """The primitive-built fill reports clean evictions upward, for
        any future inclusion upkeep."""
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(((0,),)))
        sets = level.cfg.sets
        controller.fill(0, page=0)
        outcome = controller.fill(sets, page=0)
        _, way = level.probe(0)
        assert way is None
        assert outcome.clean_evictions == [0]

    def test_dirty_eviction_produces_writeback(self, tiny_system, space,
                                               runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(((0,),)))
        sets = level.cfg.sets
        controller.fill(0, page=0, dirty=True)
        outcome = controller.fill(sets, page=0)
        assert outcome.writebacks == [0]

    def test_cascade_chain_through_three_chunks(self, tiny_system, space,
                                                runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        slip = Slip(((0,), (1,), (2,)))
        force_policy(runtime, space, 0, slip)
        sets = level.cfg.sets
        for i in range(3):
            controller.fill(i * sets, page=0)
        # addr 0 was displaced twice: chunk 0 -> 1 -> 2.
        _, way = level.probe(0)
        assert level.cfg.sublevel_of_way(way) == 2
        assert level.sets[0][way].chunk_idx == 2

    def test_cascade_terminates_under_pressure(self, tiny_system, space,
                                               runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        slip = Slip(((0,), (1,), (2,)))
        force_policy(runtime, space, 0, slip)
        # Hammer one set far beyond capacity; must not loop forever.
        sets = level.cfg.sets
        for i in range(100):
            controller.fill(i * sets, page=0)
        assert level.occupancy() <= 1.0


class TestOnHit:
    def test_hit_refreshes_timestamp(self, tiny_system, space, runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        runtime.on_demand_access(0)
        controller.fill(0, page=0)
        set_idx, way = level.probe(0)
        for _ in range(200):
            level.tick()
        controller.on_hit(set_idx, way)
        assert level.sets[set_idx][way].ts == level.timestamp_now()

    def test_hit_records_reuse_for_sampling_page(self, tiny_system, space,
                                                 runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        runtime.on_demand_access(0)
        assert runtime.is_sampling(0)
        controller.fill(0, page=0)
        set_idx, way = level.probe(0)
        controller.on_hit(set_idx, way)
        assert runtime.pages[0].distributions["L2"].total() >= 1

    def test_hit_on_stable_page_records_nothing(self, tiny_system, space,
                                                runtime):
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(((0, 1, 2),)))
        controller.fill(0, page=0)
        set_idx, way = level.probe(0)
        before = runtime.pages[0].distributions["L2"].total()
        controller.on_hit(set_idx, way)
        assert runtime.pages[0].distributions["L2"].total() == before

    def test_no_movement_on_hit(self, tiny_system, space, runtime):
        """SLIP never promotes on hit — that is the energy thesis."""
        level, controller = make_controller(tiny_system, space, runtime)
        force_policy(runtime, space, 0, Slip(((0,), (1, 2))))
        controller.fill(0, page=0)
        set_idx, way = level.probe(0)
        for _ in range(10):
            controller.on_hit(set_idx, way)
        assert level.stats.movements == 0
        _, same_way = level.probe(0)
        assert same_way == way


class TestAttachValidation:
    def test_sublevel_mismatch_rejected(self, tiny_system, runtime):
        wrong_space = SlipSpace((2, 2), (32, 32))
        controller = SlipPlacement(wrong_space, runtime)
        with pytest.raises(ValueError):
            controller.attach(
                CacheLevel(tiny_system.l2, LruReplacement())
            )
