"""Determinism smoke tests: identical runs must serialize identically.

These are the cheapest possible guards against the bug class PR 1 fixed
by hand (silent accounting drift): any nondeterminism — an unseeded
RNG, unordered iteration feeding a decision, cross-process divergence —
shows up as a byte diff in the canonical result serialization.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.parallel import run_policy_grid
from repro.sim.single_core import run_benchmark, run_policy_sweep

LENGTH = 6000
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: One slip_abp DRRIP single-core cell and one two-core slip_abp mix on
#: the system pickled to stdin, each served and then walked (the walk
#: forced as the ``walked`` fixture forces it), one canonical JSON line
#: per result.
HASH_ORDER_CELLS = textwrap.dedent("""
    import dataclasses, json, pickle, sys
    from repro.sim import filtered
    from repro.sim.multi_core import run_mix
    from repro.sim.single_core import run_trace
    from repro.workloads.benchmarks import make_trace

    config = pickle.load(sys.stdin.buffer)
    for walk in (False, True):
        if walk:
            filtered._needs_walk = lambda *args: True
        for result in (
                run_trace(make_trace("soplex", 6000), "slip_abp",
                          config=config, replacement="drrip", seed=1),
                run_mix(("soplex", "mcf"), "slip_abp",
                        length_per_core=3000, config=config, seed=1)):
            print(json.dumps(dataclasses.asdict(result), sort_keys=True))
""")


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


def test_results_do_not_depend_on_the_hash_seed(tiny_system):
    """String hashing is salted per process by ``PYTHONHASHSEED``, so a
    decision that iterates a ``set`` or hash-ordered view of strings
    changes between two otherwise identical processes; one run per
    process never shows it."""
    runs = [subprocess.Popen(
        [sys.executable, "-c", HASH_ORDER_CELLS], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED=seed))
        for seed in ("0", "1")]
    outputs = [run.communicate(pickle.dumps(tiny_system))[0]
               for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
