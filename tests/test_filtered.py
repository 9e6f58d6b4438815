"""Filtered-trace replay: equivalence, store keying, recovery.

The contract under test is absolute: for every policy and every legal
configuration, ``run_trace`` must produce a ``RunResult`` whose
``to_json()`` is byte-identical to the scalar per-access walk — whether
the result came from a cold capture or a replay against a stored
capture. The bypass and geometry rows of that contract
are one table (``ROWS``) below.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core.energy_model import LevelEnergyParams
from repro.sim import filtered, single_core
from repro.sim.build import build_hierarchy, runtime_kind
from repro.sim.config import (
    LINES_PER_PAGE,
    CacheLevelConfig,
    line_to_page_shift,
)
from repro.sim.filtered import front_end_fingerprint, replay_capture
from repro.sim.vector_frontend import capture_front_end_vector
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    MemoryCaptureStore,
    TraceCapture,
    default_store,
    fingerprint_key,
    reset_default_store,
)
from repro.workloads.trace import _ITER_CHUNK, Trace

ALL_POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


# ----------------------------------------------------------------------
# Byte-identical equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_filtered_matches_direct(self, policy, tiny_system,
                                     scalar_run):
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore()
        replayed = run_trace(trace, policy, config=tiny_system, seed=2,
                             store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, policy, tiny_system, seed=2))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_replay_from_shared_capture_matches(self, policy,
                                                tiny_system, scalar_run):
        """All five policies replay one store entry byte-identically."""
        trace = make_trace("lbm", LENGTH)
        store = MemoryCaptureStore()
        # Warm the store through the baseline cell.
        run_trace(trace, "baseline", config=tiny_system, store=store)
        assert len(store._entries) == 1
        replayed = run_trace(trace, policy, config=tiny_system,
                             store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, policy, tiny_system))
        assert len(store._entries) == 1  # no second capture taken

    def test_default_system_smoke(self, scalar_run):
        """Paper-scale config, the sweep bench's own geometry."""
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore()
        run_trace(trace, "baseline", store=store)
        replayed = run_trace(trace, "slip_abp", store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, "slip_abp"))


# ----------------------------------------------------------------------
# Direct runs: run_trace against the scalar walk
# ----------------------------------------------------------------------
def skewed_energy(config):
    """Per-level overrides that move SLIP's placement decisions: L2
    sublevels 20x dearer over a 1 pJ next level, L3 sublevels 20x
    cheaper over a 5000 pJ next level."""
    return {
        name: LevelEnergyParams(
            sublevel_capacity_lines=tuple(
                level.sublevel_capacity_lines(i)
                for i in range(level.num_sublevels)
            ),
            sublevel_energy_pj=tuple(e * scale
                                     for e in level.sublevel_energy_pj),
            next_level_energy_pj=next_pj,
        )
        for name, level, scale, next_pj in (
            ("L2", config.l2, 20.0, 1.0),
            ("L3", config.l3, 0.05, 5000.0),
        )
    }


def partitioned_l1(config):
    """A sublevel-partitioned L1, which the capture kernel declines:
    such cells walk."""
    l1 = CacheLevelConfig(
        name="L1", size_bytes=1024, ways=2, latency_cycles=1,
        access_energy_pj=1.0, sublevel_ways=(1, 1),
        sublevel_energy_pj=(0.8, 1.4), sublevel_latency=(1, 2),
    )
    return dataclasses.replace(config, l1=l1)


@dataclasses.dataclass(frozen=True)
class Row:
    """One input shape of ``run_trace``; the store column is ``none``
    (no store), ``memory`` or ``warm-memory`` (warmed by a baseline
    cell)."""

    store: str = "none"
    simcheck: bool = False
    overrides: bool = False
    rd_block_lines: int = 0
    replacement: str = "lru"
    l1_sublevels: bool = False


ROWS = {
    "none": Row(),
    "simcheck": Row(store="memory", simcheck=True),
    "energy-overrides": Row(store="memory", overrides=True),
    "rd-block": Row(store="memory", rd_block_lines=4),
    "drrip": Row(replacement="drrip"),
    "ship": Row(replacement="ship"),
    "sublevel-l1": Row(store="memory", l1_sublevels=True),
    "cold-memory": Row(store="memory"),
    "warm-memory": Row(store="warm-memory"),
}
#: Store-less default-shape cells keep their historical bare-policy ids.
CASES = [(name, policy) for name in ROWS for policy in ALL_POLICIES]
CASE_IDS = [policy if name == "none" else f"{name}-{policy}"
            for name, policy in CASES]


class TestDirectPipeline:
    @pytest.mark.parametrize("name,policy", CASES, ids=CASE_IDS)
    def test_direct_matches_scalar(self, name, policy, tiny_system,
                                   monkeypatch, scalar_run):
        row = ROWS[name]
        if row.simcheck:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        config = tiny_system.with_slip(rd_block_lines=row.rd_block_lines)
        if row.l1_sublevels:
            config = partitioned_l1(config)
        kwargs = dict(config=config, seed=3, replacement=row.replacement,
                      level_energy_overrides=(skewed_energy(config)
                                              if row.overrides else None))
        store = None if row.store == "none" else MemoryCaptureStore()
        trace = make_trace("soplex", 1_500)
        if row.store == "warm-memory":
            run_trace(trace, "baseline", config=config, seed=3,
                      store=store)
        result = run_trace(trace, policy, store=store, **kwargs)
        assert canonical(result) == canonical(
            scalar_run(trace, policy, **kwargs))
        if store is not None:
            # Only SimCheck and partitioned-L1 cells walk, taking no
            # capture.
            walks = row.simcheck or row.l1_sublevels
            assert bool(store._entries) != walks
        if row.overrides and runtime_kind(policy) == "slip":
            # The overrides reach the live SLIP runtime's EOU models.
            kwargs["level_energy_overrides"] = None
            assert canonical(result) != canonical(
                run_trace(trace, policy, store=store, **kwargs))

    def test_direct_runs_leave_the_store_alone(self, monkeypatch):
        """A store-less run captures, replays and keeps nothing: the
        shared store stays empty, and a repeat captures again."""
        reset_default_store()
        trace = make_trace("soplex", LENGTH)
        captures = []
        capture_front_end = filtered.capture_front_end_vector

        def capture(*args):
            captures.append(capture_front_end(*args))
            return captures[-1]

        monkeypatch.setattr(filtered, "capture_front_end_vector", capture)
        first = run_trace(trace, "slip_abp")
        second = run_trace(trace, "slip_abp")
        assert canonical(first) == canonical(second)
        assert len(captures) == 2
        assert not default_store()._entries

    def test_scalar_replacement_still_identical(self, tiny_system,
                                                scalar_run):
        # Replay-ineligible shape: the replay kernel declines and the
        # scalar replay must serve it, identically to the scalar walk.
        trace = make_trace("soplex", LENGTH)
        replayed = run_trace(trace, "baseline", config=tiny_system,
                             replacement="random")
        assert canonical(replayed) == canonical(
            scalar_run(trace, "baseline", tiny_system,
                       replacement="random"))


class TestDirectDeclines:
    """The cell's own hierarchy is offered to both kernels and carries
    their decline record."""

    def _run(self, tiny_system, monkeypatch, policy, **kwargs):
        built = []

        def build(*args, **kw):
            built.append(build_hierarchy(*args, **kw))
            return built[-1]

        monkeypatch.setattr(single_core, "build_hierarchy", build)
        run_trace(make_trace("soplex", 1_200), policy,
                  config=tiny_system, store=MemoryCaptureStore(),
                  **kwargs)
        (hierarchy,) = built
        return hierarchy.kernel_declines

    def test_replay_ineligible_records_reason(self, tiny_system,
                                              monkeypatch):
        # L1 is always stock LRU, so a replacement ablation passes the
        # front-end kernel; the *replay* kernel declines.
        declines = self._run(tiny_system, monkeypatch, "baseline",
                             replacement="random")
        assert declines.frontend is None
        assert declines.replay == \
            "replacement:RandomReplacement/RandomReplacement"

    def test_accepted_run_clears_the_record(self, tiny_system,
                                            monkeypatch):
        declines = self._run(tiny_system, monkeypatch, "slip")
        assert declines.frontend is None
        assert declines.replay is None


# ----------------------------------------------------------------------
# Capture modes
# ----------------------------------------------------------------------
class TestCaptureModes:
    def test_cold_cell_publishes_scalar_capture(self, tiny_system,
                                                scalar_run):
        """A cold slip cell publishes a capture that serves the baseline
        cell from the store with the scalar walk's bytes."""
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore()
        run_trace(trace, "slip_abp", config=tiny_system, store=store)
        (published,) = store._entries.values()
        replayed = run_trace(trace, "baseline", config=tiny_system,
                             store=store)
        (entry,) = store._entries.values()
        assert entry is published       # a store hit, no second capture
        assert canonical(replayed) == canonical(
            scalar_run(trace, "baseline", tiny_system))

    def test_conservation_invariant_trips_on_corruption(self,
                                                        tiny_system):
        trace = make_trace("soplex", 1_500)
        capture = capture_front_end_vector(
            build_hierarchy(tiny_system, "baseline"), trace, tiny_system)
        frozen = copy.deepcopy(capture.frozen)
        frozen["event_counts"]["demand"] += 1
        bad = TraceCapture(
            n=capture.n, warmup=capture.warmup,
            event_boundary=capture.event_boundary, ops=capture.ops,
            addrs=capture.addrs, l1_miss_pos=capture.l1_miss_pos,
            l1_miss_wb=capture.l1_miss_wb,
            tlb_miss_pos=capture.tlb_miss_pos, frozen=frozen,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            replay_capture([build_hierarchy(tiny_system, "baseline")],
                           [trace], [bad])
        assert excinfo.value.invariant == "capture-replay-conservation"

    def test_stored_capture_is_read_only(self, tiny_system):
        """Every cell replays the stored capture itself, so no replay
        may write into its arrays."""
        store = MemoryCaptureStore()
        run_trace(make_trace("soplex", 1_500), "baseline",
                  config=tiny_system, store=store)
        (capture,) = store._entries.values()
        with pytest.raises(ValueError, match="read-only"):
            capture.ops[0] = 1


# ----------------------------------------------------------------------
# Fingerprint keying
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_front_end_knobs_change_the_key(self, tiny_system):
        trace = make_trace("soplex", 1_500)
        base = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        variants = [
            front_end_fingerprint(trace, tiny_system, 1, 0.25),
            front_end_fingerprint(trace, tiny_system, 0, 0.5),
            front_end_fingerprint(
                trace,
                dataclasses.replace(tiny_system, tlb_entries=16),
                0, 0.25),
            front_end_fingerprint(
                trace,
                dataclasses.replace(
                    tiny_system,
                    l1=dataclasses.replace(tiny_system.l1,
                                           size_bytes=512)),
                0, 0.25),
            front_end_fingerprint(
                make_trace("soplex", 1_500, seed=1), tiny_system,
                0, 0.25),
        ]
        for variant in variants:
            assert fingerprint_key(variant) != base

    def test_back_end_knobs_share_the_key(self, tiny_system):
        """L2/L3 geometry and SLIP params never reach the front end."""
        trace = make_trace("soplex", 1_500)
        base = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        bigger_l2 = dataclasses.replace(
            tiny_system,
            l2=dataclasses.replace(tiny_system.l2, size_bytes=8192))
        assert fingerprint_key(
            front_end_fingerprint(trace, bigger_l2, 0, 0.25)) == base
        tweaked = tiny_system.with_slip(nsamp=3)
        assert fingerprint_key(
            front_end_fingerprint(trace, tweaked, 0, 0.25)) == base


# ----------------------------------------------------------------------
# Page-grain unification (satellite: shared shift hook)
# ----------------------------------------------------------------------
class TestPageShift:
    def test_shift_derivation(self):
        assert line_to_page_shift(1) == 0
        assert line_to_page_shift(16) == 4
        assert line_to_page_shift(64) == 6
        assert line_to_page_shift(LINES_PER_PAGE) == 6

    def test_hierarchy_and_trace_agree(self, tiny_system):
        config = dataclasses.replace(tiny_system, page_size=1024)
        assert config.lines_per_page == 16
        hierarchy = build_hierarchy(config, "baseline")
        assert hierarchy._page_shift == line_to_page_shift(
            config.lines_per_page)
        trace = make_trace("soplex", 1_000)
        expected = int(np.unique(
            trace.addresses >> hierarchy._page_shift).size)
        assert trace.footprint_pages(config.lines_per_page) == expected

    def test_default_grain_matches(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline")
        assert hierarchy._page_shift == line_to_page_shift(
            LINES_PER_PAGE)
        trace = make_trace("lbm", 1_000)
        assert trace.footprint_pages() == int(np.unique(
            trace.addresses >> hierarchy._page_shift).size)


# ----------------------------------------------------------------------
# Chunked Trace.__iter__
# ----------------------------------------------------------------------
def test_trace_iter_chunked_equivalence():
    rng = np.random.default_rng(0)
    n = _ITER_CHUNK + 1_234  # spans a chunk boundary
    addresses = rng.integers(0, 1 << 30, size=n, dtype=np.int64)
    is_write = rng.random(n) < 0.3
    trace = Trace("iter-test", addresses, is_write)
    assert list(trace) == list(zip(addresses.tolist(),
                                   is_write.tolist()))
