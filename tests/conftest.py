"""Shared fixtures: scaled-down systems so tests run in milliseconds."""

import contextlib

import pytest

from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)

# Integration-style modules run with the SimCheck runtime invariant
# checkers enabled, so every full-length simulation in the suite doubles
# as a conservation/consistency audit of the hierarchy it builds.
SIMCHECK_MODULES = ("test_integration.py", "test_multicore.py")


@pytest.fixture(autouse=True, scope="module")
def _simcheck_for_integration(request):
    """Enable REPRO_CHECK_INVARIANTS for the integration test modules.

    Module-scoped on purpose: test_integration builds its hierarchies in
    a module-scoped fixture, and a function-scoped env patch would be
    applied too late to be seen by that setup.
    """
    if request.node.name not in SIMCHECK_MODULES:
        yield
        return
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CHECK_INVARIANTS", "1")
    try:
        yield
    finally:
        mp.undo()


#: The batched kernel with a scalar twin, and the value it returns to
#: decline a cell. The capture kernel and the SLIP kernel have none:
#: the driver walks every cell they cannot serve, so the ``walked``
#: fixture is their reference.
_KERNEL_DECLINES = {
    "replay_capture_vector": False,
}


@pytest.fixture
def scalar_kernels():
    """A context manager under which the named kernels (default: all
    of ``_KERNEL_DECLINES``) decline.

    It patches the kernel bindings the driver calls, so baseline-kind
    replays come from ``_replay_events``: the golden reference the
    replay kernel must match. A test fake, not a production option.
    """
    from repro.sim import filtered

    @contextlib.contextmanager
    def declined(*names):
        with pytest.MonkeyPatch.context() as mp:
            for name in names or _KERNEL_DECLINES:
                result = _KERNEL_DECLINES[name]
                mp.setattr(filtered, name,
                           lambda *args, _result=result, **kwargs: _result)
            yield

    return declined


@pytest.fixture
def walked():
    """A context manager under which every cell, single-core or mix,
    takes the driver's per-access walk: the golden reference."""
    from repro.sim import filtered

    @contextlib.contextmanager
    def walking():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtered, "_needs_walk", lambda *args: True)
            yield

    return walking


@pytest.fixture
def scalar_run(walked):
    """``run_trace``'s golden reference: one ``access()`` per reference."""
    from repro.sim.single_core import run_trace

    def run(trace, policy, config=None, **kwargs):
        with walked():
            return run_trace(trace, policy, config=config, **kwargs)

    return run


def tiny_l1() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L1",
        size_bytes=1024,          # 16 lines: 8 sets x 2 ways
        ways=2,
        latency_cycles=1,
        access_energy_pj=1.0,
    )


def tiny_l2() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L2",
        size_bytes=4096,          # 64 lines: 16 sets x 4 ways
        ways=4,
        latency_cycles=3,
        access_energy_pj=10.0,
        metadata_energy_pj=0.5,
        sublevel_ways=(1, 1, 2),
        sublevel_energy_pj=(6.0, 9.0, 13.0),
        sublevel_latency=(2, 3, 4),
    )


def tiny_l3() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L3",
        size_bytes=16384,         # 256 lines: 32 sets x 8 ways
        ways=8,
        latency_cycles=8,
        access_energy_pj=40.0,
        metadata_energy_pj=1.0,
        sublevel_ways=(2, 2, 4),
        sublevel_energy_pj=(20.0, 35.0, 55.0),
        sublevel_latency=(6, 8, 10),
    )


@pytest.fixture
def tiny_system() -> SystemConfig:
    return SystemConfig(
        l1=tiny_l1(),
        l2=tiny_l2(),
        l3=tiny_l3(),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(),
        core=CoreConfig(),
        tlb_entries=8,
    )


@pytest.fixture
def paper_system():
    from repro.sim.config import default_system

    return default_system()
