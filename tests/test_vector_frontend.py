"""Batched front-end capture kernel: byte-identity, declines, store knob.

Every cell the capture kernel (:mod:`repro.sim.vector_frontend`) feeds
must serialize byte-for-byte like the per-access walk (the ``walked``
fixture, via ``scalar_run``): across all five policies, both capture
stores, both worker modes, warmup splits and randomized trace/geometry
space. Everything the kernel cannot represent must decline with a
recorded reason, and the driver walks it. Also covers the
``REPRO_CAPTURE_MEM_ENTRIES`` capacity knob of the in-process store.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.experiments.parallel import RunRequest, run_jobs
from repro.mem.cache import CacheLevel
from repro.mem.replacement import LruReplacement, RandomReplacement
from repro.sim.build import build_hierarchy
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)
from repro.sim import filtered, single_core
from repro.sim.kernel_report import kernel_report_lines, reset_kernel_counts
from repro.sim.single_core import run_trace
from repro.sim.vector_frontend import (
    capture_front_end_vector,
    frontend_eligible,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    _ARRAY_NAMES,
    CAPTURE_MEM_ENTRIES_ENV,
    DiskCaptureStore,
    MemoryCaptureStore,
    default_store,
)
from repro.workloads.trace import Trace

POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def assert_served_like_walk(trace, policies, config, scalar_run,
                            **kwargs):
    """Cold cells over one store: the kernel takes one capture, every
    policy replays from it, and each serializes like the walk."""
    store = MemoryCaptureStore()
    for policy in policies:
        served = run_trace(trace, policy, config=config, store=store,
                           **kwargs)
        assert len(store._entries) == 1
        assert canonical(served) == canonical(
            scalar_run(trace, policy, config, **kwargs)), policy


def assert_captures_equal(vector, stored):
    assert (vector.n, vector.warmup, vector.event_boundary) == \
        (stored.n, stored.warmup, stored.event_boundary)
    for name in _ARRAY_NAMES:
        v, s = getattr(vector, name), getattr(stored, name)
        assert v.dtype == s.dtype, name
        assert np.array_equal(v, s), name
    assert json.dumps(vector.frozen, sort_keys=True) == \
        json.dumps(stored.frozen, sort_keys=True)


def partitioned_l1(config) -> SystemConfig:
    """A sublevel-partitioned L1, which the capture kernel declines."""
    l1 = CacheLevelConfig(
        name="L1", size_bytes=1024, ways=2, latency_cycles=1,
        access_energy_pj=1.0, sublevel_ways=(1, 1),
        sublevel_energy_pj=(0.8, 1.4), sublevel_latency=(1, 2),
    )
    return dataclasses.replace(config, l1=l1)


def synthetic_trace(rng, length) -> Trace:
    """A high-churn random trace: evictions, dirty victims, TLB misses."""
    span = rng.choice((64, 256, 2_048))
    addresses = np.asarray([rng.randrange(span) for _ in range(length)],
                           dtype=np.int64)
    is_write = np.asarray([rng.random() < 0.4 for _ in range(length)],
                          dtype=bool)
    return Trace(name=f"synthetic-{span}", addresses=addresses,
                 is_write=is_write)


# ----------------------------------------------------------------------
# Byte-identical captures and cold cells
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("bench", ("soplex", "lbm"))
    def test_capture_matches_scalar(self, bench, tiny_system, scalar_run):
        trace = make_trace(bench, LENGTH)
        assert_served_like_walk(trace, ("baseline", "slip_abp"),
                                tiny_system, scalar_run)

    def test_capture_matches_scalar_paper_geometry(self, paper_system,
                                                   scalar_run):
        assert frontend_eligible(
            build_hierarchy(paper_system, "baseline"))
        trace = make_trace("soplex", LENGTH)
        assert_served_like_walk(trace, ("baseline", "slip_abp"),
                                paper_system, scalar_run)

    @pytest.mark.parametrize("warmup_fraction", (0.0, 0.25, 0.6, 1.0))
    def test_warmup_boundary_edges(self, warmup_fraction, tiny_system,
                                   scalar_run):
        """Array state crosses the reset; tallies split exactly."""
        trace = make_trace("lbm", 1_100)
        assert_served_like_walk(trace, ("baseline", "slip_abp"),
                                tiny_system, scalar_run,
                                warmup_fraction=warmup_fraction)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("store_kind", ("memory", "disk"))
    def test_cold_cell_matches_scalar(self, policy, store_kind,
                                      tiny_system, tmp_path, scalar_run):
        """A cold cell fed by the kernel serializes like the walk."""
        trace = make_trace("soplex", LENGTH)
        store = (MemoryCaptureStore() if store_kind == "memory"
                 else DiskCaptureStore(str(tmp_path)))
        cold = run_trace(trace, policy, config=tiny_system, store=store)
        assert canonical(cold) == canonical(
            scalar_run(trace, policy, tiny_system))

    @pytest.mark.parametrize("policy", ("baseline", "slip_abp"))
    def test_cold_cell_matches_direct(self, policy, tiny_system,
                                      scalar_run):
        """Transitivity check straight to the unfiltered simulator."""
        trace = make_trace("lbm", LENGTH)
        cold = run_trace(trace, policy, config=tiny_system,
                         store=MemoryCaptureStore())
        assert canonical(cold) == canonical(
            scalar_run(trace, policy, tiny_system))

    def test_capture_through_store_is_kernel_capture(self, tiny_system):
        """The cold baseline path stores the kernel's capture bytes."""
        trace = make_trace("soplex", 1_400)
        store = MemoryCaptureStore()
        run_trace(trace, "baseline", config=tiny_system, store=store)
        (stored,) = store._entries.values()
        kernel = capture_front_end_vector(
            build_hierarchy(tiny_system, "baseline"), trace, tiny_system)
        assert_captures_equal(kernel, stored)


# ----------------------------------------------------------------------
# Worker parity: jobs=1 vs jobs=2, each over a fresh disk store
# ----------------------------------------------------------------------
@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(tmp_path, monkeypatch, walked):
    grid = [RunRequest("soplex", policy, length=2_000)
            for policy in ("baseline", "slip_abp")]
    reports = {}
    for label, jobs in (("scalar", 1), ("serial", 1), ("parallel", 2)):
        # A fresh store per mode keeps every run cold, so the capture
        # itself (not just the replay) comes from the mode under test.
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path / label))
        if label == "scalar":
            with walked():
                reports[label] = run_jobs(grid, jobs=jobs)
        else:
            reports[label] = run_jobs(grid, jobs=jobs)
    for base, ours, theirs in zip(reports["scalar"].results,
                                  reports["serial"].results,
                                  reports["parallel"].results):
        assert ours.result == base.result, base.request.label()
        assert theirs.result == base.result, base.request.label()


# ----------------------------------------------------------------------
# Randomized trace/geometry property test (hypothesis-style)
# ----------------------------------------------------------------------
def _random_frontend_system(rng) -> SystemConfig:
    """Vary exactly what the front end observes: L1 shape, TLB size."""
    ways = rng.choice((1, 2, 4, 8))
    sets = rng.choice((2, 4, 8, 16))
    l1 = CacheLevelConfig(
        name="L1",
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=rng.randint(1, 4),
        access_energy_pj=rng.choice((1.0, 2.5)),
    )
    # Partitioned L2/L3 (the slip runtime requires sublevels); only
    # the L1/TLB shape above matters to the front-end kernel.
    l2 = CacheLevelConfig(name="L2", size_bytes=4096, ways=4,
                          latency_cycles=3, access_energy_pj=10.0,
                          sublevel_ways=(1, 1, 2),
                          sublevel_energy_pj=(6.0, 9.0, 13.0),
                          sublevel_latency=(2, 3, 4))
    l3 = CacheLevelConfig(name="L3", size_bytes=16384, ways=8,
                          latency_cycles=8, access_energy_pj=40.0,
                          sublevel_ways=(2, 2, 4),
                          sublevel_energy_pj=(20.0, 35.0, 55.0),
                          sublevel_latency=(6, 8, 10))
    return SystemConfig(
        l1=l1, l2=l2, l3=l3,
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(), core=CoreConfig(),
        tlb_entries=rng.choice((2, 4, 8, 64)),
    )


@pytest.mark.parametrize("case_seed", range(8))
def test_random_geometry_property(case_seed, scalar_run):
    rng = random.Random(9_000 + case_seed)
    config = _random_frontend_system(rng)
    length = rng.randint(900, 2_200)
    if rng.random() < 0.5:
        trace = synthetic_trace(rng, length)
    else:
        trace = make_trace(rng.choice(("soplex", "lbm", "mcf")),
                           length, seed=rng.randint(0, 99))
    policy = POLICIES[case_seed % len(POLICIES)]
    assert_served_like_walk(trace, (policy,), config, scalar_run)


# ----------------------------------------------------------------------
# Decline matrix: every ineligible shape records why it fell back
# ----------------------------------------------------------------------
class TestDecline:
    def test_default_hierarchy_is_eligible(self, tiny_system):
        assert frontend_eligible(build_hierarchy(tiny_system,
                                                 "baseline"))

    def test_simcheck_declines(self, tiny_system, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        hierarchy = build_hierarchy(tiny_system, "baseline")
        assert not frontend_eligible(hierarchy)
        assert hierarchy.kernel_declines.frontend == "simcheck"

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
# REPRO_CAPTURE_MEM_ENTRIES: in-process store capacity knob
# ----------------------------------------------------------------------
class TestMemEntriesKnob:
    def test_default_capacity(self, monkeypatch):
        monkeypatch.delenv(CAPTURE_MEM_ENTRIES_ENV, raising=False)
        assert MemoryCaptureStore().max_entries == 16

    def test_env_sets_capacity_and_evicts_lru(self, monkeypatch):
        monkeypatch.setenv(CAPTURE_MEM_ENTRIES_ENV, "3")
        store = MemoryCaptureStore()
        assert store.max_entries == 3
        for key in ("a", "b", "c", "d"):
            store.put(key, object())
        assert list(store._entries) == ["b", "c", "d"]

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(CAPTURE_MEM_ENTRIES_ENV, "3")
        assert MemoryCaptureStore(max_entries=5).max_entries == 5

    @pytest.mark.parametrize("raw", ("frontend-bogus", "-2"))
    def test_bad_value_clamps_with_one_warning(self, raw, monkeypatch,
                                               capsys):
        monkeypatch.setenv(CAPTURE_MEM_ENTRIES_ENV, raw)
        assert MemoryCaptureStore().max_entries == 16
        assert MemoryCaptureStore().max_entries == 16
        err = capsys.readouterr().err
        message = (f"repro: ignoring {CAPTURE_MEM_ENTRIES_ENV}="
                   f"{raw!r} (need an integer >= 1); using the "
                   f"16-entry default")
        assert err.count(message) == 1  # warned once per value

    def test_default_store_retracks_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAPTURE_DIR", raising=False)
        monkeypatch.setenv(CAPTURE_MEM_ENTRIES_ENV, "2")
        store = default_store()
        store.clear()
        try:
            assert store.max_entries == 2
            store.put("x", object())
            store.put("y", object())
            monkeypatch.setenv(CAPTURE_MEM_ENTRIES_ENV, "1")
            again = default_store()
            assert again is store       # same process-wide singleton
            assert again.max_entries == 1
            assert list(store._entries) == ["y"]  # shrink trims now
        finally:
            store.clear()
