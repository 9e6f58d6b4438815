"""Filtered-trace replay: equivalence, store keying, recovery.

The contract under test is absolute: for every policy and every legal
configuration, ``run_trace`` must produce a ``RunResult`` whose
``to_json()`` is byte-identical to the scalar per-access walk — whether
the result came from a cold capture or a replay against a memory- or
disk-resident capture. The bypass and geometry rows of that contract
are one table (``ROWS``) below.
"""

import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core.energy_model import LevelEnergyParams
from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim import filtered, single_core
from repro.sim.build import build_hierarchy, runtime_kind
from repro.sim.config import (
    LINES_PER_PAGE,
    CacheLevelConfig,
    line_to_page_shift,
)
from repro.sim.filtered import front_end_fingerprint, replay_capture
from repro.sim.vector_frontend import capture_front_end_vector
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    DiskCaptureStore,
    MemoryCaptureStore,
    TraceCapture,
    default_store,
    fingerprint_key,
    reset_default_store,
)
from repro.workloads.trace import _ITER_CHUNK, Trace

ALL_POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def entry_dirs(root) -> list:
    return [name for name in os.listdir(root) if ".tmp-" not in name]


# ----------------------------------------------------------------------
# Byte-identical equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_filtered_matches_direct(self, policy, tiny_system,
                                     scalar_run):
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore()
        replayed = run_trace(trace, policy, config=tiny_system, seed=2,
                             store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, policy, tiny_system, seed=2))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_replay_from_shared_capture_matches(self, policy,
                                                tiny_system, scalar_run):
        """All five policies replay one store entry byte-identically."""
        trace = make_trace("lbm", LENGTH)
        store = MemoryCaptureStore()
        # Warm the store through the baseline cell.
        run_trace(trace, "baseline", config=tiny_system, store=store)
        assert len(store._entries) == 1
        replayed = run_trace(trace, policy, config=tiny_system,
                             store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, policy, tiny_system))
        assert len(store._entries) == 1  # no second capture taken

    def test_default_system_smoke(self, scalar_run):
        """Paper-scale config, the sweep bench's own geometry."""
        trace = make_trace("soplex", LENGTH)
        store = MemoryCaptureStore()
        run_trace(trace, "baseline", store=store)
        replayed = run_trace(trace, "slip_abp", store=store)
        assert canonical(replayed) == canonical(
            scalar_run(trace, "slip_abp"))


# ----------------------------------------------------------------------
# Direct runs: run_trace against the scalar walk
# ----------------------------------------------------------------------
def skewed_energy(config):
    """Per-level overrides that move SLIP's placement decisions: L2
    sublevels 20x dearer over a 1 pJ next level, L3 sublevels 20x
    cheaper over a 5000 pJ next level."""
    return {
        name: LevelEnergyParams(
            sublevel_capacity_lines=tuple(
                level.sublevel_capacity_lines(i)
                for i in range(level.num_sublevels)
            ),
            sublevel_energy_pj=tuple(e * scale
                                     for e in level.sublevel_energy_pj),
            next_level_energy_pj=next_pj,
        )
        for name, level, scale, next_pj in (
            ("L2", config.l2, 20.0, 1.0),
            ("L3", config.l3, 0.05, 5000.0),
        )
    }


def partitioned_l1(config):
    """A sublevel-partitioned L1, which the capture kernel declines:
    such cells walk."""
    l1 = CacheLevelConfig(
        name="L1", size_bytes=1024, ways=2, latency_cycles=1,
        access_energy_pj=1.0, sublevel_ways=(1, 1),
        sublevel_energy_pj=(0.8, 1.4), sublevel_latency=(1, 2),
    )
    return dataclasses.replace(config, l1=l1)


@dataclasses.dataclass(frozen=True)
class Row:
    """One input shape of ``run_trace``; the store column is ``none``
    (the process-local store), ``memory``, ``warm-memory`` (warmed by
    a baseline cell) or ``disk``."""

    store: str = "none"
    simcheck: bool = False
    overrides: bool = False
    rd_block_lines: int = 0
    replacement: str = "lru"
    l1_sublevels: bool = False


ROWS = {
    "none": Row(),
    "simcheck": Row(store="memory", simcheck=True),
    "energy-overrides": Row(store="memory", overrides=True),
    "rd-block": Row(store="memory", rd_block_lines=4),
    "drrip": Row(replacement="drrip"),
    "ship": Row(replacement="ship"),
    "sublevel-l1": Row(store="memory", l1_sublevels=True),
    "cold-memory": Row(store="memory"),
    "warm-memory": Row(store="warm-memory"),
    "disk": Row(store="disk"),
}
#: Store-less default-shape cells keep their historical bare-policy ids.
CASES = [(name, policy) for name in ROWS for policy in ALL_POLICIES]
CASE_IDS = [policy if name == "none" else f"{name}-{policy}"
            for name, policy in CASES]


class TestDirectPipeline:
    @pytest.mark.parametrize("name,policy", CASES, ids=CASE_IDS)
    def test_direct_matches_scalar(self, name, policy, tiny_system,
                                   tmp_path, monkeypatch, scalar_run):
        row = ROWS[name]
        if row.simcheck:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        config = tiny_system.with_slip(rd_block_lines=row.rd_block_lines)
        if row.l1_sublevels:
            config = partitioned_l1(config)
        kwargs = dict(config=config, seed=3, replacement=row.replacement,
                      level_energy_overrides=(skewed_energy(config)
                                              if row.overrides else None))
        if row.store == "none":
            store = None
        elif row.store == "disk":
            store = DiskCaptureStore(str(tmp_path))
        else:
            store = MemoryCaptureStore()
        trace = make_trace("soplex", 1_500)
        if row.store == "warm-memory":
            run_trace(trace, "baseline", config=config, seed=3,
                      store=store)
        result = run_trace(trace, policy, store=store, **kwargs)
        assert canonical(result) == canonical(
            scalar_run(trace, policy, **kwargs))
        if isinstance(store, MemoryCaptureStore):
            # Only SimCheck and partitioned-L1 cells walk, taking no
            # capture.
            walks = row.simcheck or row.l1_sublevels
            assert bool(store._entries) != walks
        if row.overrides and runtime_kind(policy) == "slip":
            # The overrides reach the live SLIP runtime's EOU models.
            kwargs["level_energy_overrides"] = None
            assert canonical(result) != canonical(
                run_trace(trace, policy, store=store, **kwargs))

    def test_direct_runs_leave_the_store_alone(self, tmp_path,
                                               monkeypatch):
        run_store = filtered._RUN_STORE
        run_store.clear()
        for capture_dir in (str(tmp_path), None):
            if capture_dir is None:
                monkeypatch.delenv("REPRO_CAPTURE_DIR", raising=False)
            else:
                monkeypatch.setenv("REPRO_CAPTURE_DIR", capture_dir)
            reset_default_store()
            run_trace(make_trace("soplex", LENGTH), "slip_abp")
        assert os.listdir(tmp_path) == []
        assert not default_store()._entries
        # The process-local store keeps the 4 most recent cells.
        for bench in ("lbm", "mcf", "milc", "bzip2", "gcc"):
            run_trace(make_trace(bench, 1_000), "baseline")
        assert run_store.max_entries == 4
        assert len(run_store._entries) == 4

    def test_direct_warm_capture_reuse_identical(self, tiny_system,
                                                 monkeypatch):
        trace = make_trace("lbm", LENGTH)
        first = run_trace(trace, "slip", config=tiny_system)
        # The repeat hits the process-local store: no capture is taken.
        monkeypatch.setattr(filtered, "capture_front_end_vector", None)
        second = run_trace(trace, "slip", config=tiny_system)
        assert canonical(first) == canonical(second)

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
        frozen = copy.deepcopy(capture.frozen)
        frozen["event_counts"]["demand"] += 1
        bad = TraceCapture(
            n=capture.n, warmup=capture.warmup,
            event_boundary=capture.event_boundary, ops=capture.ops,
            addrs=capture.addrs, l1_miss_pos=capture.l1_miss_pos,
            l1_miss_wb=capture.l1_miss_wb,
            tlb_miss_pos=capture.tlb_miss_pos, frozen=frozen,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            replay_capture([build_hierarchy(tiny_system, "baseline")],
                           [trace], [bad])
        assert excinfo.value.invariant == "capture-replay-conservation"


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
# Disk store
# ----------------------------------------------------------------------
class TestDiskStore:
    def test_same_key_hits_from_fresh_store(self, tmp_path, tiny_system):
        trace = make_trace("soplex", LENGTH)
        run_trace(trace, "baseline", config=tiny_system,
                  store=DiskCaptureStore(str(tmp_path)))
        assert len(entry_dirs(tmp_path)) == 1
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        # A fresh store (cold memo) must load the entry from disk.
        loaded = DiskCaptureStore(str(tmp_path)).get(key)
        assert loaded is not None
        assert loaded.n == LENGTH

    def test_capture_shared_across_runtime_kinds(self, tmp_path,
                                                 tiny_system, scalar_run):
        """The fingerprint excludes the runtime kind: a slip cell

        replays the capture the baseline cell recorded rather than
        taking its own.
        """
        trace = make_trace("lbm", LENGTH)
        run_trace(trace, "baseline", config=tiny_system,
                  store=DiskCaptureStore(str(tmp_path)))
        replayed = run_trace(trace, "slip_abp", config=tiny_system,
                             store=DiskCaptureStore(str(tmp_path)))
        assert len(entry_dirs(tmp_path)) == 1
        assert replayed == scalar_run(trace, "slip_abp", tiny_system)

    def test_corrupt_array_quarantined_and_recovered(self, tmp_path,
                                                     tiny_system,
                                                     scalar_run):
        trace = make_trace("soplex", LENGTH)
        run_trace(trace, "slip", config=tiny_system,
                  store=DiskCaptureStore(str(tmp_path)))
        (entry,) = [tmp_path / d for d in entry_dirs(tmp_path)]
        (entry / "ops.npy").write_bytes(b"garbage, not an npy")
        fresh = DiskCaptureStore(str(tmp_path))
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        assert fresh.get(key) is None
        assert not entry.exists()  # quarantined
        # The driver re-captures and still matches the scalar walk.
        replayed = run_trace(trace, "slip", config=tiny_system,
                             store=fresh)
        assert canonical(replayed) == canonical(
            scalar_run(trace, "slip", tiny_system))
        assert len(entry_dirs(tmp_path)) == 1

    def test_truncated_meta_quarantined(self, tmp_path, tiny_system):
        trace = make_trace("soplex", LENGTH)
        run_trace(trace, "baseline", config=tiny_system,
                  store=DiskCaptureStore(str(tmp_path)))
        (entry,) = [tmp_path / d for d in entry_dirs(tmp_path)]
        (entry / "meta.json").write_text("{not json", encoding="utf-8")
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        assert DiskCaptureStore(str(tmp_path)).get(key) is None
        assert not entry.exists()

    def test_entry_with_leftover_subdirectory(self, tmp_path, tiny_system,
                                              scalar_run):
        """Stores written by older versions hold ``plan-<digest>/``
        sidecar directories inside their capture entries: the capture
        still serves, and eviction sizes and drops the entry with its
        leftover subdirectory as one unit."""
        trace = make_trace("soplex", LENGTH)
        run_trace(trace, "slip", config=tiny_system,
                  store=DiskCaptureStore(str(tmp_path)))
        (old,) = [tmp_path / d for d in entry_dirs(tmp_path)]
        leftover = old / "plan-0123456789abcdef"
        leftover.mkdir()
        np.save(leftover / "l2_order.npy", np.arange(8192, dtype=np.int64))

        fresh = DiskCaptureStore(str(tmp_path))
        key = fingerprint_key(
            front_end_fingerprint(trace, tiny_system, 0, 0.25))
        assert fresh.get(key) is not None
        replayed = run_trace(trace, "slip", config=tiny_system,
                             store=fresh)
        assert canonical(replayed) == canonical(
            scalar_run(trace, "slip", tiny_system))
        assert entry_dirs(tmp_path) == [old.name]  # served, not re-taken

        run_trace(make_trace("lbm", LENGTH), "baseline",
                  config=tiny_system, store=fresh)
        (new,) = [d for d in entry_dirs(tmp_path) if d != old.name]
        os.utime(old, (1, 1))  # the older entry goes first

        def size(path, top_only=False):
            return sum(os.path.getsize(os.path.join(dirpath, name))
                       for dirpath, _, names in os.walk(path)
                       for name in names
                       if not top_only or dirpath == str(path))

        # Counted file by file at the top level only, both entries fit.
        fresh.max_bytes = size(old, top_only=True) + size(tmp_path / new)
        fresh._evict(keep=new)
        assert entry_dirs(tmp_path) == [new]


# ----------------------------------------------------------------------
# Parallel engine integration
# ----------------------------------------------------------------------
@pytest.mark.multiproc
def test_jobs_parity_with_shared_disk_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
    grid = [
        RunRequest("soplex", policy, length=2_000)
        for policy in ("baseline", "slip", "slip_abp")
    ]
    serial = run_jobs(grid, jobs=1)
    parallel = run_jobs(grid, jobs=2)
    for ours, theirs in zip(serial.results, parallel.results):
        assert ours.result == theirs.result, ours.request.label()
    assert len(entry_dirs(tmp_path)) == 1


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


# ----------------------------------------------------------------------
# Capture-store correctness fixes (PR 6 satellites)
# ----------------------------------------------------------------------
class TestDigestCollision:
    def test_foreign_entry_is_miss_not_quarantine(self, tmp_path,
                                                  monkeypatch,
                                                  tiny_system):
        """Two keys forced into one digest dir: the second key's get()
        is a miss that leaves the first key's capture intact."""
        import repro.workloads.capture_store as cs

        monkeypatch.setattr(cs, "key_digest", lambda key: "collision")
        trace_a = make_trace("soplex", 1_200)
        run_trace(trace_a, "baseline", config=tiny_system,
                  store=cs.DiskCaptureStore(str(tmp_path)))
        assert entry_dirs(tmp_path) == ["collision"]

        trace_b = make_trace("lbm", 1_200)
        key_b = fingerprint_key(
            front_end_fingerprint(trace_b, tiny_system, 0, 0.25))
        fresh = cs.DiskCaptureStore(str(tmp_path))
        assert fresh.get(key_b) is None          # miss, not an error
        assert entry_dirs(tmp_path) == ["collision"]  # not deleted

        key_a = fingerprint_key(
            front_end_fingerprint(trace_a, tiny_system, 0, 0.25))
        survivor = cs.DiskCaptureStore(str(tmp_path)).get(key_a)
        assert survivor is not None
        assert survivor.n == 1_200


class TestMaxMbClamp:
    def test_bad_values_fall_back_to_default(self, tmp_path,
                                             monkeypatch, capsys):
        import repro.workloads.capture_store as cs

        monkeypatch.setenv(cs.CAPTURE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(cs, "_WARNED_MAX_MB", set())
        for bad in ("0", "-5", "junk"):
            monkeypatch.setenv(cs.CAPTURE_MAX_MB_ENV, bad)
            store = cs.default_store()
            assert store.max_bytes == cs._DEFAULT_MAX_MB * 1024 * 1024
            assert cs.CAPTURE_MAX_MB_ENV in capsys.readouterr().err
        monkeypatch.setenv(cs.CAPTURE_MAX_MB_ENV, "7")
        assert cs.default_store().max_bytes == 7 * 1024 * 1024
        # Valid values warn nothing.
        assert capsys.readouterr().err == ""

    def test_zero_cap_no_longer_evicts_everything(self, tmp_path,
                                                  monkeypatch,
                                                  tiny_system):
        """Regression: REPRO_CAPTURE_MAX_MB=0 used to make _evict
        delete every entry except the one just written."""
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CAPTURE_MAX_MB", "0")
        run_trace(make_trace("soplex", 1_200), "baseline",
                  config=tiny_system, store=default_store())
        run_trace(make_trace("lbm", 1_200), "baseline",
                  config=tiny_system, store=default_store())
        assert len(entry_dirs(tmp_path)) == 2
