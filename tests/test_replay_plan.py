"""ReplayPlan precompute and the single-core driver.

Three contracts:

* plans are invisible in results — a replay with and without its plan
  (and memory vs. disk store, and jobs=1 vs. jobs=2) must all produce
  byte-identical ``RunResult.to_json()`` for every policy;
* plan sidecars recover — a corrupt/truncated array quarantines only
  the plan directory, and the rebuilt plan replays byte-identically;
* ``run_trace`` equals the scalar walk on every row of one table:
  bypasses, kernel-ineligible geometries and every kind of store.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core.energy_model import LevelEnergyParams
from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim import filtered, single_core
from repro.sim.build import build_hierarchy, runtime_kind
from repro.sim.config import CacheLevelConfig
from repro.sim.filtered import capture_front_end, front_end_fingerprint
from repro.sim.replay_plan import (
    PLAN_ARRAY_NAMES,
    build_plan,
    derive_plan_arrays,
    ensure_plan_verified,
    plan_geometry,
    plan_geometry_key,
)
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    DiskCaptureStore,
    MemoryCaptureStore,
    default_store,
    fingerprint_key,
    reset_default_store,
)

ALL_POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def plan_dirs(root) -> list:
    found = []
    for dirpath, dirnames, _ in os.walk(root):
        found.extend(os.path.join(dirpath, d) for d in dirnames
                     if d.startswith("plan-") and ".tmp-" not in d)
    return found


# ----------------------------------------------------------------------
# Plan on/off byte-identity
# ----------------------------------------------------------------------
class TestPlanByteIdentity:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("store_kind", ("memory", "disk"))
    def test_plan_on_off_identical(self, policy, store_kind, tmp_path,
                                   tiny_system, monkeypatch):
        trace = make_trace("soplex", LENGTH)
        store = (MemoryCaptureStore() if store_kind == "memory"
                 else DiskCaptureStore(str(tmp_path)))
        first = run_trace(trace, policy, config=tiny_system, store=store)
        # Second run replays the stored capture with the stored plan.
        second = run_trace(trace, policy, config=tiny_system, store=store)
        assert canonical(first) == canonical(second)
        # A third replays the stored capture without a plan.
        monkeypatch.setattr(filtered, "_resolve_plan", lambda *args: None)
        unplanned = run_trace(trace, policy, config=tiny_system,
                              store=store)
        assert canonical(unplanned) == canonical(second)

    def test_plan_persisted_once_per_geometry(self, tmp_path,
                                              tiny_system):
        trace = make_trace("lbm", LENGTH)
        store = DiskCaptureStore(str(tmp_path))
        for policy in ALL_POLICIES:
            run_trace(trace, policy, config=tiny_system, store=store)
        # One capture entry, one plan sidecar shared by all policies.
        assert len(plan_dirs(tmp_path)) == 1
        names = sorted(os.path.splitext(f)[0]
                       for f in os.listdir(plan_dirs(tmp_path)[0])
                       if f.endswith(".npy"))
        assert names == sorted(PLAN_ARRAY_NAMES)

    @pytest.mark.multiproc
    def test_plan_jobs_parity(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
        grid = [
            RunRequest("soplex", policy, length=2_000)
            for policy in ALL_POLICIES
        ]
        serial = run_jobs(grid, jobs=1)
        parallel = run_jobs(grid, jobs=2)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.result == theirs.result, ours.request.label()


# ----------------------------------------------------------------------
# Sidecar corruption recovery
# ----------------------------------------------------------------------
class TestSidecarRecovery:
    def _corrupt_and_rerun(self, tmp_path, tiny_system, mangle):
        trace = make_trace("lbm", LENGTH)
        store = DiskCaptureStore(str(tmp_path))
        run_trace(trace, "slip", config=tiny_system, store=store)
        reference = canonical(run_trace(
            trace, "slip", config=tiny_system, store=store))
        (plan_dir,) = plan_dirs(tmp_path)
        mangle(plan_dir)
        # A fresh store handle drops the in-memory plan memo, so the
        # next replay must go through the damaged sidecar.
        fresh = DiskCaptureStore(str(tmp_path))
        rebuilt = canonical(run_trace(
            trace, "slip", config=tiny_system, store=fresh))
        assert rebuilt == reference
        # The quarantined sidecar was re-persisted, complete.
        (plan_dir,) = plan_dirs(tmp_path)
        names = sorted(os.path.splitext(f)[0]
                       for f in os.listdir(plan_dir)
                       if f.endswith(".npy"))
        assert names == sorted(PLAN_ARRAY_NAMES)

    def test_truncated_array_quarantined(self, tmp_path, tiny_system):
        def mangle(plan_dir):
            victim = os.path.join(plan_dir, "miss_addrs.npy")
            with open(victim, "r+b") as handle:
                handle.truncate(16)

        self._corrupt_and_rerun(tmp_path, tiny_system, mangle)

    def test_missing_array_quarantined(self, tmp_path, tiny_system):
        def mangle(plan_dir):
            os.unlink(os.path.join(plan_dir, "l3_addr2.npy"))

        self._corrupt_and_rerun(tmp_path, tiny_system, mangle)

    def test_corrupt_values_fail_conservation(self, tmp_path,
                                              tiny_system):
        # Structurally valid but wrong values: caught by the always-on
        # replay-plan-conservation re-derivation, then quarantined.
        def mangle(plan_dir):
            victim = os.path.join(plan_dir, "l2_order.npy")
            data = np.load(victim)
            data[: data.shape[0] // 2] = data[: data.shape[0] // 2][::-1]
            np.save(victim, data)

        self._corrupt_and_rerun(tmp_path, tiny_system, mangle)


# ----------------------------------------------------------------------
# Conservation invariant
# ----------------------------------------------------------------------
class TestPlanDerivation:
    def test_plan_arrays_rederive_exactly(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        capture = capture_front_end(trace, tiny_system)
        geometry = plan_geometry(tiny_system)
        plan = ensure_plan_verified(
            build_plan(capture, trace, geometry), capture, trace)
        assert plan.verified
        rederived = derive_plan_arrays(capture, trace, geometry)
        for name in PLAN_ARRAY_NAMES:
            np.testing.assert_array_equal(
                np.asarray(getattr(plan, name)), rederived[name])

    def test_geometry_key_tracks_back_end(self, tiny_system):
        base = plan_geometry_key(plan_geometry(tiny_system))
        grown = dataclasses.replace(
            tiny_system,
            l2=dataclasses.replace(
                tiny_system.l2,
                size_bytes=tiny_system.l2.size_bytes * 2,
            ),
        )
        assert plan_geometry_key(plan_geometry(grown)) != base


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
    """A sublevel-partitioned L1, which the capture kernel declines."""
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

    def bypassed(self, policy: str) -> bool:
        """Whether the cell walks the trace instead of replaying."""
        return self.simcheck or (bool(self.rd_block_lines)
                                 and runtime_kind(policy) == "slip")


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
            assert bool(store._entries) != row.bypassed(policy)
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
        assert not default_store()._plans
        # The process-local store keeps the 4 most recent cells.
        for bench in ("lbm", "mcf", "milc", "bzip2", "gcc"):
            run_trace(make_trace(bench, 1_000), "baseline")
        assert run_store.max_entries == 4
        assert len(run_store._entries) == 4
        assert len(run_store._plans) == 4

    def test_direct_plan_cache_reuse_identical(self, tiny_system,
                                               monkeypatch):
        trace = make_trace("lbm", LENGTH)
        first = run_trace(trace, "slip", config=tiny_system)
        # The repeat hits the process-local store: no capture, no plan.
        monkeypatch.setattr(filtered, "capture_front_end_vector", None)
        monkeypatch.setattr(MemoryCaptureStore, "put_plan", None)
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
# Plan keying sanity against the front-end fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_and_geometry_compose(tiny_system):
    trace = make_trace("soplex", LENGTH)
    fp = front_end_fingerprint(trace, tiny_system, 0, 0.25)
    key = fingerprint_key(fp)
    geom = plan_geometry_key(plan_geometry(tiny_system))
    assert key and geom and key != geom
