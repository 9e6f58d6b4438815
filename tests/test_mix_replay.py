"""Multicore capture/replay equals the per-access shared-L3 walk.

:func:`repro.sim.multi_core.run_mix_traces` captures each core's front
end and replays the merged boundary events; :func:`~repro.sim.
multi_core._walk_mix` drives every core's ``access()`` in turn and is the
golden reference. The hypothesis harness below draws policy, core count,
tiny cache geometries, page size, warmup fraction and unequal per-core
trace lengths, and asserts the two produce the same bytes, through the
back-end kernels (baseline kinds and slip kinds alike) and through the
merged scalar replays.

This module must stay out of conftest's ``SIMCHECK_MODULES``: under
SimCheck every mix declines to the walk, and the harness would compare
the walk with itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import multi_core
from repro.sim.build import POLICY_NAMES, runtime_kind
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
)
from repro.workloads.benchmarks import make_trace
from repro.workloads.mixes import CORE_ADDRESS_STRIDE, make_mix_traces

BENCHES = ("soplex", "mcf", "lbm", "gcc", "bzip2", "milc")


def canonical(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


@st.composite
def levels(draw, name: str, base_sets: int, base_lat: int,
           base_pj: float, uniform_ok: bool) -> CacheLevelConfig:
    ways = draw(st.sampled_from((2, 4, 8)))
    sets = draw(st.sampled_from((base_sets, base_sets * 2)))
    nsub = draw(st.integers(1, min(3, ways)))
    cuts = sorted(draw(st.lists(st.integers(1, ways - 1), min_size=nsub - 1,
                                max_size=nsub - 1, unique=True)))
    bounds = [0] + cuts + [ways]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if nsub == 1 and uniform_ok and draw(st.booleans()):
        parts = ()  # a uniform level (SLIP needs a partitioned one)
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        metadata_energy_pj=base_pj / 20,
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(base_lat + i for i in range(len(parts))),
    )


@st.composite
def systems(draw, uniform_ok: bool) -> SystemConfig:
    l1_ways = draw(st.sampled_from((1, 2, 4)))
    l1_sets = draw(st.sampled_from((4, 8, 16)))
    return SystemConfig(
        l1=CacheLevelConfig(name="L1", size_bytes=l1_sets * l1_ways * 64,
                            ways=l1_ways, latency_cycles=1,
                            access_energy_pj=1.0),
        l2=draw(levels("L2", 8, 3, 10.0, uniform_ok)),
        l3=draw(levels("L3", 32, 8, 40.0, uniform_ok)),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(),
        core=CoreConfig(),
        tlb_entries=draw(st.sampled_from((4, 8, 16))),
        page_size=draw(st.sampled_from((2048, 4096, 8192))),
    )


@st.composite
def mix_cells(draw):
    policy = draw(st.sampled_from(POLICY_NAMES))
    cores = draw(st.integers(1, 3))
    mix = tuple(draw(st.sampled_from(BENCHES)) for _ in range(cores))
    seed = draw(st.integers(0, 20))
    traces = [
        make_trace(name, draw(st.integers(200, 1_500)),
                   seed=seed + core).with_offset(core * CORE_ADDRESS_STRIDE)
        for core, name in enumerate(mix)
    ]
    return dict(
        traces=traces,
        mix=mix,
        policy=policy,
        config=draw(systems(uniform_ok=runtime_kind(policy) == "baseline")),
        seed=seed,
        warmup_fraction=draw(st.sampled_from((0.0, 0.1, 0.3, 0.5))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cell=mix_cells())
def test_replay_matches_walk(cell):
    assert canonical(multi_core.run_mix_traces(**cell)) \
        == canonical(multi_core._walk_mix(**cell))


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=mix_cells())
def test_scalar_replay_matches_walk(cell, scalar_kernels):
    """With both back-end kernels declining, the merged scalar replays
    serve."""
    with scalar_kernels("replay_capture_vector",
                        "replay_capture_vector_slip"):
        replayed = canonical(multi_core.run_mix_traces(**cell))
    assert replayed == canonical(multi_core._walk_mix(**cell))


@pytest.mark.parametrize("reason", ["simcheck", "rd-block"])
def test_front_end_declines_serve_the_walk(reason, tiny_system,
                                           monkeypatch):
    """SimCheck and rd-block mixes run the walk and record why."""
    config = tiny_system
    if reason == "simcheck":
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    else:
        config = config.with_slip(rd_block_lines=16)
    probed = []
    capture = multi_core.capture_front_end_vector

    def spy(hierarchy, *args, **kwargs):
        probed.append(hierarchy)
        return capture(hierarchy, *args, **kwargs)

    monkeypatch.setattr(multi_core, "capture_front_end_vector", spy)
    mix = ("soplex", "mcf")
    traces = make_mix_traces(mix, 1_500, seed=3)
    replayed = multi_core.run_mix_traces(traces, mix, "slip_abp", config, 3)
    walked = multi_core._walk_mix(traces, mix, "slip_abp", config, 3)
    assert canonical(replayed) == canonical(walked)
    assert probed
    assert all(h.kernel_declines.frontend == reason for h in probed)

