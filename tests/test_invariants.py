"""SimCheck runtime invariants: a clean simulation passes every check,
and each invariant fires on deliberately corrupted cache state with a
violation that names the level/set/way/counter involved."""

import pytest

from repro.analysis import HierarchyInvariantChecker, InvariantViolation
from repro.mem.cache import NO_CHUNK
from repro.sim.build import build_hierarchy


@pytest.fixture
def simcheck(tiny_system):
    """SimCheck on a slip_abp hierarchy (checking every 64 accesses),
    lightly warmed; the hierarchy is ``simcheck.hierarchy``."""
    hierarchy = build_hierarchy(tiny_system, "slip_abp")
    checker = HierarchyInvariantChecker(hierarchy, period=64)
    for step in range(2000):
        hierarchy.access((step * 17) % 1200, step % 5 == 0)
    return checker


@pytest.fixture
def checked_hierarchy(simcheck):
    return simcheck.hierarchy


def first_valid(level, want_chunk=False):
    for set_idx, line_set in enumerate(level.sets):
        for way, line in enumerate(line_set):
            if line.valid and (not want_chunk
                               or line.chunk_idx != NO_CHUNK):
                return set_idx, way, line
    raise AssertionError("no valid line found")


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def test_disabled_by_default(tiny_system):
    """Nothing in the simulator installs SimCheck: a built hierarchy
    runs its own methods, unwrapped."""
    hierarchy = build_hierarchy(tiny_system, "baseline")
    assert "access" not in vars(hierarchy)
    assert "record_hit" not in vars(hierarchy.l2)


def test_clean_run_passes_and_checks_fire(simcheck):
    assert simcheck.checks_run >= 2000 // 64
    simcheck.check()  # explicit full check on top of the periodic ones


def test_clean_run_survives_warmup_reset(simcheck, checked_hierarchy):
    checked_hierarchy.reset_stats()
    for step in range(500):
        checked_hierarchy.access((step * 13) % 900, step % 7 == 0)
    simcheck.check()


def test_finalize_runs_final_check_and_tolerates_histogram_fold(
        simcheck, checked_hierarchy):
    checked_hierarchy.finalize()
    # Post-finalize the reuse histogram legitimately includes resident
    # lines; the checker must not flag that as drift.
    simcheck.check()


# ----------------------------------------------------------------------
# Structural corruption
# ----------------------------------------------------------------------
def test_duplicate_tag_raises(simcheck, checked_hierarchy):
    level = checked_hierarchy.l2
    for set_idx, line_set in enumerate(level.sets):
        ways = [w for w, ln in enumerate(line_set) if ln.valid]
        if len(ways) >= 2:
            line_set[ways[1]].tag = line_set[ways[0]].tag
            break
    else:
        raise AssertionError("no set with two valid lines")
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "tag-uniqueness"
    assert exc.value.level == "L2"
    assert exc.value.set_idx == set_idx


def test_stale_probe_index_raises(simcheck, checked_hierarchy):
    level = checked_hierarchy.l3
    set_idx, way, line = first_valid(level)
    level._index[set_idx][line.tag] = (way + 1) % level.cfg.ways
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant in ("index-consistency", "tag-uniqueness")
    assert exc.value.level == "L3"


def test_chunk_index_out_of_range_raises(simcheck, checked_hierarchy):
    level = checked_hierarchy.l2
    set_idx, way, line = first_valid(level, want_chunk=True)
    line.chunk_idx = 99
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "chunk-occupancy"
    assert (exc.value.set_idx, exc.value.way) == (set_idx, way)


def test_line_outside_its_chunk_ways_raises(simcheck, checked_hierarchy):
    level = checked_hierarchy.l2
    space = checked_hierarchy.l2_placement.space
    # Find a line whose claimed chunk does not span every way, then
    # claim a policy/chunk pair whose ways exclude its actual way.
    for set_idx, line_set in enumerate(level.sets):
        for way, line in enumerate(line_set):
            if not line.valid or line.chunk_idx == NO_CHUNK:
                continue
            for slip_id in range(len(space)):
                if space.num_chunks(slip_id) == 0:
                    continue
                if way not in space.chunk_ways(slip_id, 0):
                    line.policy_id, line.chunk_idx = slip_id, 0
                    with pytest.raises(InvariantViolation) as exc:
                        simcheck.check()
                    assert exc.value.invariant == "chunk-occupancy"
                    return
    raise AssertionError("no suitable line/SLIP pair found")


# ----------------------------------------------------------------------
# Ledger corruption
# ----------------------------------------------------------------------
def test_tampered_hit_counter_raises(simcheck, checked_hierarchy):
    checked_hierarchy.l2.stats.demand_hits += 1
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "counter-truth"
    assert exc.value.counter == "demand_hits"


def test_vanished_line_breaks_conservation(simcheck, checked_hierarchy):
    level = checked_hierarchy.l1
    set_idx, way, line = first_valid(level)
    # Drop the line *and* its index entry: the index stays consistent,
    # so what fails is insertions == departures + resident.
    del level._index[set_idx][line.tag]
    line.reset()
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "line-conservation"
    assert exc.value.counter == "insertions==evictions+resident"


def test_unpaired_movement_read_raises(simcheck, checked_hierarchy):
    checked_hierarchy.l3.stats.move_read_events[0] += 1
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "line-conservation"
    assert exc.value.level == "L3"
    assert exc.value.counter == "move_read_events==move_write_events"


def test_tampered_dram_writeback_counter_raises(simcheck, checked_hierarchy):
    checked_hierarchy.counters.dram_writebacks += 1
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "writeback-conservation"


def test_negative_energy_raises(simcheck, checked_hierarchy):
    # Energy is deferred to event counters: corrupt the ledger at its
    # source and the materialized read_pj goes negative.
    checked_hierarchy.l2.stats.read_events[0] = -10 ** 6
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "energy-monotonicity"
    assert exc.value.counter == "read_pj"


def test_decreasing_energy_raises(simcheck, checked_hierarchy):
    simcheck.check()  # records the current floor
    stats = checked_hierarchy.l3.stats
    stats.insert_events = [c // 2 for c in stats.insert_events]
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "energy-monotonicity"
    assert exc.value.counter == "insertion_pj"


# ----------------------------------------------------------------------
# EOU ledger
# ----------------------------------------------------------------------
def test_eou_energy_property_refuses_accumulation(checked_hierarchy):
    # The ledger is a materialized product now; the old corruption
    # vector (drifting the accumulated float) no longer type-checks.
    eou = checked_hierarchy.runtime.eous["L2"]
    with pytest.raises(AttributeError):
        eou.stats.energy_pj += 5.0


def test_eou_cycle_ledger_mismatch_raises(simcheck, checked_hierarchy):
    eou = checked_hierarchy.runtime.eous["L2"]
    eou.stats.tlb_block_cycles += 1
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "eou-energy"
    assert exc.value.counter == "tlb_block_cycles"


def test_eou_lost_per_op_cost_raises(simcheck, checked_hierarchy):
    # The failure mode deferred EOU accounting introduces: a stats
    # reset that drops the configured per-op energy (e.g. rebuilding
    # the dataclass with defaults) silently rescales the whole ledger.
    eou = checked_hierarchy.runtime.eous["L2"]
    eou.stats.energy_pj_per_op = eou.energy_pj_per_op * 2
    with pytest.raises(InvariantViolation) as exc:
        simcheck.check()
    assert exc.value.invariant == "eou-energy"
    assert exc.value.counter == "energy_pj_per_op"


# ----------------------------------------------------------------------
# Multicore (shared L3 wraps once, per-core checks still run)
# ----------------------------------------------------------------------
def test_multicore_runs_clean_under_simcheck(walked):
    from repro.sim.multi_core import run_mix

    with walked():
        result = run_mix(("soplex", "milc"), "slip_abp",
                         length_per_core=4000)
    assert result.l3_energy_pj() > 0
