"""Every random generator the builders make follows the run's seed.

An unseeded sampler changes a short run's result bytes only sometimes,
so a byte comparison catches it only sometimes. This test reads the
generators themselves: two builds with one seed must leave every
``random.Random`` they own in the same state, and a build with another
seed must leave each in a different one. A ``Random()`` or clock-seeded
constructor fails it on every run.
"""

import random

import pytest

from repro.sim.build import POLICY_NAMES, build_hierarchy
from repro.sim.multi_core import _build_mix

REPLACEMENTS = ("lru", "random", "drrip", "ship")


def rng_states(root):
    """``getstate()`` of every ``random.Random`` reachable from ``root``
    through ``repro`` objects, lists, tuples and dicts, keyed by the
    path it was first reached by."""
    states, seen, stack = {}, set(), [("", root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, random.Random):
            states[path] = obj.getstate()
        elif isinstance(obj, dict):
            stack += [(f"{path}[{key!r}]", value)
                      for key, value in obj.items()]
        elif isinstance(obj, (list, tuple)):
            stack += [(f"{path}[{i}]", item) for i, item in enumerate(obj)]
        elif type(obj).__module__.startswith("repro."):
            names = list(getattr(obj, "__dict__", ()))
            for cls in type(obj).__mro__:
                names += getattr(cls, "__slots__", ())
            stack += [(f"{path}.{name}", getattr(obj, name))
                      for name in names if hasattr(obj, name)]
    return states


def owned_rngs(policy, replacement, cores):
    """How many generators a build owns: a sampler per SLIP runtime,
    one per LRU-PEA placement (each L2, and the L3: shared in a mix),
    and one per L2/L3 replacement other than LRU."""
    if policy == "lru_pea":
        return cores + 1
    samplers = cores if policy in ("slip", "slip_abp") else 0
    return samplers + (0 if replacement == "lru" else 2)


def check_seeding(build, expected):
    first, again, other = build(3), build(3), build(4)
    assert len(first) == expected
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[path] != other[path] for path in first)


@pytest.mark.parametrize("replacement", REPLACEMENTS)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_hierarchy_generators_follow_the_seed(policy, replacement,
                                              tiny_system):
    check_seeding(
        lambda seed: rng_states(build_hierarchy(
            tiny_system, policy, seed=seed, replacement=replacement)),
        owned_rngs(policy, replacement, 1))


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_mix_generators_follow_the_seed(policy, tiny_system):
    check_seeding(
        lambda seed: rng_states(_build_mix(policy, tiny_system, 2, seed)),
        owned_rngs(policy, "lru", 2))
