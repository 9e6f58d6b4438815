"""The N-core driver on one core: named cells, store keying, recovery.

The contract under test is absolute: for every policy and every legal
configuration, ``run_trace`` must produce a ``RunResult`` whose
``to_json()`` is byte-identical to the per-access walk, whether the
result came from a cold capture or a replay against a stored capture.
The hypothesis harness of ``test_mix_replay`` checks that over the
whole cell space; the named cells below pin the default tiny system,
the paper geometry, cross-policy capture sharing and the shape that
walks (a partitioned L1), each through the one differential check
(``served_like_walk``).
"""

import copy
import dataclasses

import numpy as np
import pytest

from harness import canonical, partitioned_l1, skewed_energy
from repro.analysis.invariants import InvariantViolation
from repro.sim import filtered, single_core
from repro.sim.build import build_hierarchy, runtime_kind
from repro.sim.config import (
    LINES_PER_PAGE,
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


def shared_store(trace, config, **kwargs):
    """A store holding the capture a baseline cell took."""
    store = MemoryCaptureStore()
    run_trace(trace, "baseline", config=config, store=store, **kwargs)
    assert len(store._entries) == 1
    return store


# ----------------------------------------------------------------------
# Byte-identical equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_filtered_matches_direct(self, policy, tiny_system,
                                     served_like_walk):
        served_like_walk(run_trace, dict(
            trace=make_trace("soplex", LENGTH), policy=policy,
            config=tiny_system, seed=2), MemoryCaptureStore())

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_replay_from_shared_capture_matches(self, policy,
                                                tiny_system,
                                                served_like_walk):
        """All five policies replay one store entry byte-identically."""
        trace = make_trace("lbm", LENGTH)
        store = shared_store(trace, tiny_system)
        served_like_walk(run_trace, dict(trace=trace, policy=policy,
                                         config=tiny_system), store)
        assert len(store._entries) == 1  # no second capture taken

    def test_default_system_smoke(self, served_like_walk):
        """Paper-scale config, the sweep bench's own geometry."""
        trace = make_trace("soplex", LENGTH)
        served_like_walk(run_trace, dict(trace=trace, policy="slip_abp"),
                         shared_store(trace, None))


# ----------------------------------------------------------------------
# Direct runs: run_trace against the walk
# ----------------------------------------------------------------------
#: Named cell shapes: no store, then shapes on a fresh store, a store a
#: baseline cell warmed, and the shape that walks.
SHAPES = ("none", "energy-overrides", "rd-block", "drrip", "ship",
          "sublevel-l1", "cold-memory", "warm-memory")
#: Store-less default-shape cells keep their historical bare-policy ids.
CASES = [(shape, policy) for shape in SHAPES for policy in ALL_POLICIES]
CASE_IDS = [policy if shape == "none" else f"{shape}-{policy}"
            for shape, policy in CASES]


class TestDirectPipeline:
    @pytest.mark.parametrize("shape,policy", CASES, ids=CASE_IDS)
    def test_direct_matches_scalar(self, shape, policy, tiny_system,
                                   served_like_walk):
        config = {"rd-block": tiny_system.with_slip(rd_block_lines=4),
                  "sublevel-l1": partitioned_l1(tiny_system)}.get(
                      shape, tiny_system)
        cell = dict(trace=make_trace("soplex", 1_500), policy=policy,
                    config=config, seed=3)
        if shape in ("drrip", "ship"):
            cell["replacement"] = shape
        if shape == "energy-overrides":
            cell["level_energy_overrides"] = skewed_energy(config)
        store = MemoryCaptureStore()
        if shape in ("none", "drrip", "ship"):
            store = None
        elif shape == "warm-memory":
            store = shared_store(cell["trace"], config, seed=3)
        served_like_walk(run_trace, cell, store)
        if store is not None:
            # Only partitioned-L1 cells walk, taking no capture.
            assert bool(store._entries) != (shape == "sublevel-l1")
        if shape == "energy-overrides" and runtime_kind(policy) == "slip":
            # The overrides reach the live SLIP runtime's EOU models.
            assert canonical(run_trace(**cell)) != canonical(
                run_trace(**dict(cell, level_energy_overrides=None)))

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
        miscounted = copy.deepcopy(capture.frozen)
        miscounted["event_counts"]["demand"] += 1
        # A miscounted event, and a stream whose events all carry
        # access 0, so none of them is measured.
        for pos, frozen in ((capture.pos, miscounted),
                            (np.zeros_like(capture.pos), capture.frozen)):
            bad = TraceCapture(
                n=capture.n, warmup=capture.warmup, ops=capture.ops,
                addrs=capture.addrs, pos=pos, frozen=frozen,
            )
            for policy in ("baseline", "slip"):
                with pytest.raises(InvariantViolation) as excinfo:
                    replay_capture([build_hierarchy(tiny_system, policy)],
                                   [trace], [bad])
                assert excinfo.value.invariant == \
                    "capture-replay-conservation"

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
