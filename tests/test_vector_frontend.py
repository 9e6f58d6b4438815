"""Batched front-end capture kernel: byte-identity, declines, store.

Every cell the capture kernel (:mod:`repro.sim.vector_frontend`) feeds
must serialize byte-for-byte like the per-access walk. The hypothesis
harness of ``test_mix_replay`` checks that over the whole cell space
(L1 shapes, TLB sizes, page sizes, warmup splits, a synthetic
high-churn trace); the named cells below pin the five policies on the
tiny and paper systems, the warmup edges and seeded draws from the
harness's cell space, each through the one differential check
(``served_like_walk``). Everything the kernel cannot represent must
decline with a recorded reason, and the driver walks it. Also covers
the stream contract every replay reads off a capture and the
in-process store's LRU capacity.
"""

import json
import random

import numpy as np
import pytest

from harness import canonical, partitioned_l1, single_cell
from repro.mem.cache import CacheLevel
from repro.mem.replacement import LruReplacement, RandomReplacement
from repro.mem.tlb import pte_line_address
from repro.sim.build import build_hierarchy
from repro.sim import filtered, single_core
from repro.sim.config import line_to_page_shift
from repro.sim.kernel_report import kernel_report_lines, reset_kernel_counts
from repro.sim.single_core import run_trace
from repro.sim.vector_frontend import (
    capture_front_end_vector,
    frontend_eligible,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    _ARRAY_NAMES,
    MAX_ENTRIES,
    OP_DEMAND_MISS,
    OP_METADATA,
    OP_WRITEBACK,
    MemoryCaptureStore,
)

POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def served_from_one_capture(served_like_walk, trace, config, **kwargs):
    """A baseline and a slip_abp cell over one store: the kernel takes
    one capture, both replay it, and each serializes like the walk."""
    store = MemoryCaptureStore()
    for policy in ("baseline", "slip_abp"):
        served_like_walk(run_trace, dict(trace=trace, policy=policy,
                                         config=config, **kwargs), store)
        assert len(store._entries) == 1


def assert_captures_equal(vector, stored):
    assert (vector.n, vector.warmup) == (stored.n, stored.warmup)
    for name in _ARRAY_NAMES:
        v, s = getattr(vector, name), getattr(stored, name)
        assert v.dtype == s.dtype, name
        assert np.array_equal(v, s), name
    assert json.dumps(vector.frozen, sort_keys=True) == \
        json.dumps(stored.frozen, sort_keys=True)


# ----------------------------------------------------------------------
# Byte-identical captures and cold cells
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("bench", ("soplex", "lbm"))
    def test_capture_matches_scalar(self, bench, tiny_system,
                                    served_like_walk):
        served_from_one_capture(served_like_walk,
                                make_trace(bench, LENGTH), tiny_system)

    def test_capture_matches_scalar_paper_geometry(self, paper_system,
                                                   served_like_walk):
        assert frontend_eligible(
            build_hierarchy(paper_system, "baseline"))
        served_from_one_capture(served_like_walk,
                                make_trace("soplex", LENGTH), paper_system)

    @pytest.mark.parametrize("warmup_fraction", (0.0, 0.25, 0.6, 1.0))
    def test_warmup_boundary_edges(self, warmup_fraction, tiny_system,
                                   served_like_walk):
        """Array state crosses the reset; tallies split exactly."""
        served_from_one_capture(served_like_walk, make_trace("lbm", 1_100),
                                tiny_system,
                                warmup_fraction=warmup_fraction)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("store_kind", ("memory", "none"))
    def test_cold_cell_matches_scalar(self, policy, store_kind,
                                      tiny_system, served_like_walk):
        """A cold cell fed by the kernel serializes like the walk."""
        store = MemoryCaptureStore() if store_kind == "memory" else None
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy=policy,
            config=tiny_system), store)

    @pytest.mark.parametrize("policy", ("baseline", "slip_abp"))
    def test_cold_cell_matches_direct(self, policy, tiny_system,
                                      served_like_walk):
        served_like_walk(run_trace, dict(
            trace=make_trace("lbm", LENGTH), policy=policy,
            config=tiny_system), MemoryCaptureStore())

    def test_capture_through_store_is_kernel_capture(self, tiny_system):
        """The cold baseline path stores the kernel's capture bytes."""
        trace = make_trace("soplex", 1_400)
        store = MemoryCaptureStore()
        run_trace(trace, "baseline", config=tiny_system, store=store)
        (stored,) = store._entries.values()
        kernel = capture_front_end_vector(
            build_hierarchy(tiny_system, "baseline"), trace, tiny_system)
        assert_captures_equal(kernel, stored)


@pytest.mark.parametrize("system", ("tiny_system", "paper_system"))
@pytest.mark.parametrize("bench", ("soplex", "lbm"))
def test_stream_contract(bench, system, request):
    """What every replay reads off ``(ops, addrs, pos)``: access order,
    a writeback at its demand miss's access, a metadata event's PTE
    line, and the measured counts the capture froze."""
    config = request.getfixturevalue(system)
    trace = make_trace(bench, LENGTH)
    capture = capture_front_end_vector(build_hierarchy(config, "baseline"),
                                       trace, config)
    ops, addrs, pos = capture.ops, capture.addrs, capture.pos
    assert pos.dtype == np.int64
    assert np.all(np.diff(pos) >= 0)
    writeback = np.flatnonzero(ops == OP_WRITEBACK)
    assert np.all(ops[writeback - 1] == OP_DEMAND_MISS)
    assert np.array_equal(pos[writeback - 1], pos[writeback])
    metadata = np.flatnonzero(ops == OP_METADATA)
    pages = trace.addresses[pos[metadata]] >> line_to_page_shift(
        config.lines_per_page)
    assert addrs[metadata].tolist() == \
        [pte_line_address(page) for page in pages.tolist()]
    counts = capture.frozen["event_counts"]
    assert np.bincount(ops[pos >= capture.warmup], minlength=3).tolist() \
        == [counts["demand"], counts["metadata"], counts["writeback"]]


@pytest.mark.parametrize("case_seed", range(8))
def test_random_geometry_property(case_seed, served_like_walk):
    """A seeded draw from the harness's cell space (L1 shape, TLB size,
    synthetic high-churn traces) under any policy."""
    choose = random.Random(9_000 + case_seed).choice
    served_like_walk(run_trace, single_cell(choose), MemoryCaptureStore())


@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(pooled_like_walk):
    """Worker processes serve a baseline and a slip cell like the walk."""
    pooled_like_walk(("baseline", "slip_abp"))


# ----------------------------------------------------------------------
# Decline matrix: every ineligible shape records why it fell back
# ----------------------------------------------------------------------
class TestDecline:
    def test_default_hierarchy_is_eligible(self, tiny_system):
        assert frontend_eligible(build_hierarchy(tiny_system,
                                                 "baseline"))

    def test_rd_block_mode_is_eligible(self, tiny_system):
        """The front end of an rd-block cell is the page-mode one: the
        TLB probes each page, and L1 only stores the profile key."""
        config = tiny_system.with_slip(rd_block_lines=8)
        hierarchy = build_hierarchy(config, "slip")
        assert frontend_eligible(hierarchy)
        assert hierarchy.kernel_declines.frontend is None

    def test_non_lru_l1_replacement_declines(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline")
        hierarchy.l1.replacement = RandomReplacement()
        assert not frontend_eligible(hierarchy)
        assert (hierarchy.kernel_declines.frontend
                == "l1-replacement:RandomReplacement")

    def test_partitioned_l1_declines_and_falls_back(self, tiny_system,
                                                    scalar_run):
        """Non-uniform L1: a cold cell declines once, and the walk
        serves it."""
        config = partitioned_l1(tiny_system)
        hierarchy = build_hierarchy(config, "baseline")
        assert not frontend_eligible(hierarchy)
        assert hierarchy.kernel_declines.frontend == "l1-geometry"
        trace = make_trace("soplex", 1_200)
        reset_kernel_counts()
        cold = run_trace(trace, "baseline", config=config)
        assert kernel_report_lines()[0] == (
            "[kernel-report] vector-frontend: 0 kernel run(s), "
            "1 decline(s) [l1-geometry=1]")
        assert canonical(cold) == canonical(
            scalar_run(trace, "baseline", config))

    @pytest.mark.parametrize("shape", ("l1-geometry",
                                       "l1-replacement:RandomReplacement",
                                       "l1-metadata-energy"))
    def test_ineligible_l1_cell_walks(self, shape, tiny_system,
                                      monkeypatch):
        """A cell whose L1 the kernel cannot model walks, takes no
        capture, and keeps the decline reason."""
        config = (partitioned_l1(tiny_system) if shape == "l1-geometry"
                  else tiny_system)
        built, walks = [], []

        def build(*args, **kwargs):
            hierarchy = build_hierarchy(*args, **kwargs)
            if shape != "l1-geometry":
                hierarchy.l1 = CacheLevel(
                    config.l1,
                    (RandomReplacement() if shape.startswith("l1-repl")
                     else LruReplacement()),
                    track_metadata_energy=shape == "l1-metadata-energy")
                hierarchy.l1_placement.attach(hierarchy.l1)
            built.append(hierarchy)
            return hierarchy

        walk_cores = filtered.walk_cores

        def walk(*args):
            walks.append(args)
            return walk_cores(*args)

        monkeypatch.setattr(single_core, "build_hierarchy", build)
        monkeypatch.setattr(filtered, "walk_cores", walk)
        store = MemoryCaptureStore()
        run_trace(make_trace("soplex", 800), "slip", config=config,
                  store=store)
        (hierarchy,) = built
        assert len(walks) == 1
        assert not store._entries
        assert hierarchy.kernel_declines.frontend == shape

    def test_successful_capture_clears_decline(self, tiny_system):
        trace = make_trace("soplex", 1_200)
        hierarchy = build_hierarchy(tiny_system, "baseline")
        hierarchy.kernel_declines.frontend = "stale"
        assert capture_front_end_vector(hierarchy, trace,
                                        tiny_system) is not None
        assert hierarchy.kernel_declines.frontend is None


# ----------------------------------------------------------------------
# The in-process store's capacity (REPRO_CAPTURE_MEM_ENTRIES is retired)
# ----------------------------------------------------------------------
class TestMemEntriesKnob:
    def test_default_capacity(self):
        store = MemoryCaptureStore()
        keys = [f"k{i}" for i in range(MAX_ENTRIES + 1)]
        for key in keys[:MAX_ENTRIES]:
            store.put(key, object())
        assert MAX_ENTRIES == 16
        assert list(store._entries) == keys[:MAX_ENTRIES]
        store.put(keys[MAX_ENTRIES], object())
        assert list(store._entries) == keys[1:]

    def test_env_sets_capacity_and_evicts_lru(self, monkeypatch):
        """The retired env var no longer sets the capacity: the store
        still holds MAX_ENTRIES and evicts the least recently used."""
        monkeypatch.setenv("REPRO_CAPTURE_MEM_ENTRIES", "3")
        store = MemoryCaptureStore()
        keys = [f"k{i}" for i in range(MAX_ENTRIES + 1)]
        for key in keys[:MAX_ENTRIES]:
            store.put(key, object())
        assert store.get(keys[0]) is not None   # now most recent
        for key in keys[MAX_ENTRIES:]:
            store.put(key, object())
        assert list(store._entries) == (
            keys[2:MAX_ENTRIES] + [keys[0]] + keys[MAX_ENTRIES:])
        assert store.get(keys[1]) is None
