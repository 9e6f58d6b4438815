"""Vectorized back-end replay: byte-identity, bypasses, store fixes.

The batched kernel (:mod:`repro.sim.vector_replay`) must be
*observationally absent*: every baseline-runtime-kind cell it replays
serializes byte-for-byte like the per-access walk, and everything it
cannot represent falls back to the scalar replay. The hypothesis
harness of ``test_mix_replay`` checks that over the whole cell space;
the named cells below pin the three eligible policies on the tiny
system and seeded draws from the harness's cell space, each through
the one differential check (``served_like_walk``), and the bypass
matrix pins what the kernel declines.
"""

import random

import pytest

from harness import single_cell
from repro.sim.build import build_hierarchy
from repro.sim.filtered import front_end_fingerprint
from repro.sim.single_core import run_trace
from repro.sim.vector_replay import eligible_kind, replay_capture_vector
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore, fingerprint_key

BASELINE_KIND = ("baseline", "nurapid", "lru_pea")
LENGTH = 2_500


# ----------------------------------------------------------------------
# Byte-identical equivalence: policies x stores
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("policy", BASELINE_KIND)
    @pytest.mark.parametrize("store_kind", ("memory", "none"))
    def test_vector_matches_scalar(self, policy, store_kind, tiny_system,
                                   served_like_walk):
        store = MemoryCaptureStore() if store_kind == "memory" else None
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy=policy,
            config=tiny_system), store)

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_direct(self, policy, tiny_system,
                                   served_like_walk):
        served_like_walk(run_trace, dict(
            trace=make_trace("lbm", LENGTH), policy=policy,
            config=tiny_system), MemoryCaptureStore())

    @pytest.mark.parametrize("policy", BASELINE_KIND)
    def test_vector_matches_scalar_nonzero_seed(self, policy,
                                                tiny_system,
                                                served_like_walk):
        """Seeded RNG coupling (lru_pea) and seeded traces line up."""
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH, seed=3), policy=policy,
            config=tiny_system, seed=5), MemoryCaptureStore())


@pytest.mark.parametrize("case_seed", range(6))
def test_random_geometry_property(case_seed, served_like_walk):
    """A seeded draw from the harness's cell space, on the kernel's
    policies under LRU."""
    choose = random.Random(1_000 + case_seed).choice
    served_like_walk(run_trace, single_cell(choose, BASELINE_KIND,
                                            ("lru",)),
                     MemoryCaptureStore())


@pytest.mark.multiproc
def test_jobs_parity_vector_vs_scalar(pooled_like_walk):
    """Worker processes serve the baseline kinds like the walk."""
    pooled_like_walk(BASELINE_KIND)


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
                                                  served_like_walk):
        """A bypassed cell silently takes the scalar replay, same
        bytes."""
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", 1_500), policy="baseline",
            config=tiny_system, replacement="random"),
            MemoryCaptureStore())
