"""Vectorized back-end replay: byte-identity, bypasses, store fixes.

The batched kernel (:mod:`repro.sim.vector_replay`) must be
*observationally absent*: every baseline-runtime-kind cell it replays
serializes byte-for-byte like the scalar replay (which PR 5 pinned to
the direct simulator), and everything it cannot represent falls back
to the scalar path. The equivalence suite here runs all three eligible
policies with and without a capture store and in both worker modes,
plus a hypothesis-style randomized sweep over trace/geometry space.
"""

import json
import random

import pytest

from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim.build import build_hierarchy
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)
from repro.sim.filtered import front_end_fingerprint
from repro.sim.single_core import run_trace
from repro.sim.vector_replay import eligible_kind, replay_capture_vector
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    MemoryCaptureStore,
    fingerprint_key,
    reset_default_store,
)

BASELINE_KIND = ("baseline", "nurapid", "lru_pea")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def replay_pair(trace, policy, config, store, scalar_kernels, **kwargs):
    """(scalar replay, vector replay) of the same warmed capture."""
    # The first run stores the capture and the next two replay it; with
    # no store each run takes its own.
    run_trace(trace, policy, config=config, store=store, **kwargs)
    with scalar_kernels():
        scalar = run_trace(trace, policy, config=config, store=store,
                           **kwargs)
    vector = run_trace(trace, policy, config=config, store=store,
                       **kwargs)
    return scalar, vector


# ----------------------------------------------------------------------
# Byte-identical equivalence: policies x stores
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("policy", BASELINE_KIND)
    @pytest.mark.parametrize("store_kind", ("memory", "none"))
    def test_vector_matches_scalar(self, policy, store_kind, tiny_system,
                                   scalar_kernels):
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore() if store_kind == "memory" else None
        scalar, vector = replay_pair(trace, policy, tiny_system, store,
                                     scalar_kernels)
        assert canonical(vector) == canonical(scalar)

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_direct(self, policy, tiny_system,
                                   scalar_run):
        """Transitivity check straight to the unfiltered simulator."""
        trace = make_trace("lbm", LENGTH)
        store = MemoryCaptureStore()
        run_trace(trace, policy, config=tiny_system, store=store)
        vector = run_trace(trace, policy, config=tiny_system, store=store)
        assert canonical(vector) == canonical(
            scalar_run(trace, policy, tiny_system))

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_scalar_nonzero_seed(self, policy,
                                                tiny_system,
                                                scalar_kernels):
        """Seeded RNG coupling (lru_pea) and seeded traces line up."""
        trace = make_trace("soplex", LENGTH, seed=3)
        scalar, vector = replay_pair(trace, policy, tiny_system,
                                     MemoryCaptureStore(), scalar_kernels,
                                     seed=5)
        assert canonical(vector) == canonical(scalar)


# ----------------------------------------------------------------------
# Worker parity: jobs=1 vs jobs=2 from one warmed store
# ----------------------------------------------------------------------
@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(scalar_kernels):
    reset_default_store()
    grid = [RunRequest("soplex", policy, length=2_000)
            for policy in BASELINE_KIND]
    run_jobs(grid, jobs=1)  # populate the store
    with scalar_kernels():
        scalar = run_jobs(grid, jobs=1)
    serial = run_jobs(grid, jobs=1)
    parallel = run_jobs(grid, jobs=2)
    for base, ours, theirs in zip(scalar.results, serial.results,
                                  parallel.results):
        assert ours.result == base.result, base.request.label()
        assert theirs.result == base.result, base.request.label()


# ----------------------------------------------------------------------
# Randomized trace/geometry property test (hypothesis-style)
# ----------------------------------------------------------------------
def _random_level(rng, name, base_sets, base_lat, base_pj):
    ways = rng.choice((2, 4, 8))
    sets = rng.choice((base_sets, base_sets * 2))
    nsub = rng.randint(1, min(3, ways))
    # Random composition of `ways` into `nsub` positive parts.
    cuts = sorted(rng.sample(range(1, ways), nsub - 1)) if nsub > 1 else []
    bounds = [0] + cuts + [ways]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if nsub == 1 and rng.random() < 0.5:
        parts = ()  # exercise the uniform-level path too
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(
            base_lat + i for i in range(len(parts))),
    )


def _random_system(rng) -> SystemConfig:
    l1 = CacheLevelConfig(name="L1", size_bytes=1024, ways=2,
                          latency_cycles=1, access_energy_pj=1.0)
    return SystemConfig(
        l1=l1,
        l2=_random_level(rng, "L2", base_sets=8, base_lat=3,
                         base_pj=10.0),
        l3=_random_level(rng, "L3", base_sets=32, base_lat=8,
                         base_pj=40.0),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(),
        core=CoreConfig(),
        tlb_entries=8,
    )


@pytest.mark.parametrize("case_seed", range(6))
def test_random_geometry_property(case_seed, scalar_kernels):
    rng = random.Random(1_000 + case_seed)
    config = _random_system(rng)
    trace = make_trace(rng.choice(("soplex", "lbm", "mcf")),
                       rng.randint(900, 2_200),
                       seed=rng.randint(0, 99))
    policy = BASELINE_KIND[case_seed % len(BASELINE_KIND)]
    scalar, vector = replay_pair(trace, policy, config,
                                 MemoryCaptureStore(), scalar_kernels,
                                 seed=rng.randint(0, 9))
    assert canonical(vector) == canonical(scalar)


# ----------------------------------------------------------------------
# Bypass matrix
# ----------------------------------------------------------------------
class TestBypass:
    @pytest.mark.parametrize("policy,kind", (
        ("baseline", "baseline"),
        ("nurapid", "nurapid"),
        ("lru_pea", "lru_pea"),
    ))
    def test_eligible_kinds(self, policy, kind, tiny_system):
        assert eligible_kind(
            build_hierarchy(tiny_system, policy)) == kind

    @pytest.mark.parametrize("policy", ("slip", "slip_abp"))
    def test_slip_kinds_bypass(self, policy, tiny_system):
        assert eligible_kind(
            build_hierarchy(tiny_system, policy)) is None

    @pytest.mark.parametrize("replacement", ("random", "drrip", "ship"))
    def test_non_lru_replacements_bypass(self, replacement, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline",
                                    replacement=replacement)
        assert eligible_kind(hierarchy) is None

    def test_replay_declines_ineligible_hierarchy(self, tiny_system):
        store = MemoryCaptureStore()
        trace = make_trace("soplex", 1_200)
        run_trace(trace, "baseline", config=tiny_system, store=store)
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        capture = store.get(key)
        assert capture is not None
        hierarchy = build_hierarchy(tiny_system, "slip")
        assert replay_capture_vector([hierarchy], [capture]) is False

    def test_non_lru_cells_still_replay_correctly(self, tiny_system,
                                                  scalar_kernels):
        """A bypassed cell silently takes the scalar path, same bytes."""
        trace = make_trace("soplex", 1_500)
        scalar, vector = replay_pair(
            trace, "baseline", tiny_system, MemoryCaptureStore(),
            scalar_kernels, replacement="random")
        assert canonical(vector) == canonical(scalar)
