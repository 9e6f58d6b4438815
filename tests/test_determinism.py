"""Determinism smoke tests: identical runs must serialize identically.

These are the cheapest possible guards against the bug class PR 1 fixed
by hand (silent accounting drift): any nondeterminism — an unseeded
RNG, unordered iteration feeding a decision, cross-process divergence —
shows up as a byte diff in the canonical result serialization.
"""

import pytest

from repro.experiments.parallel import run_policy_grid
from repro.sim.single_core import run_benchmark, run_policy_sweep

LENGTH = 6000


@pytest.mark.parametrize("policy", ["baseline", "slip_abp"])
def test_same_run_twice_is_byte_identical(policy):
    first = run_benchmark("soplex", policy, length=LENGTH, seed=3)
    second = run_benchmark("soplex", policy, length=LENGTH, seed=3)
    assert first.to_json() == second.to_json()


def test_different_seeds_actually_differ():
    # Guards the guard: if to_json() ignored the measurements, the
    # identity test above would pass vacuously.
    a = run_benchmark("soplex", "baseline", length=LENGTH, seed=3)
    b = run_benchmark("soplex", "baseline", length=LENGTH, seed=4)
    assert a.to_json() != b.to_json()


@pytest.mark.multiproc
def test_parallel_sweep_matches_serial_byte_for_byte():
    serial, _ = run_policy_grid(
        ["soplex"], ["baseline", "slip_abp"], LENGTH, jobs=1
    )
    parallel = run_policy_sweep(
        "soplex", ["baseline", "slip_abp"], length=LENGTH, jobs=2
    )
    for policy in ("baseline", "slip_abp"):
        assert (serial[("soplex", policy)].to_json()
                == parallel[policy].to_json())
