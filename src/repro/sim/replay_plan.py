"""Replay plans: policy-invariant precompute shared across sweep cells.

Every sweep cell over one :class:`~repro.workloads.capture_store.
TraceCapture` re-derives identical artifacts before any policy code
runs: the whole-stream L2 set indices, the stable
:func:`~repro.sim.vector_replay._set_order` argsort, the interleaved L3
stream scaffold of :func:`~repro.sim.vector_replay._derive_l3_stream`,
and the captured-position address/page resolutions the SLIP kernel
needs. None of it depends on the policy — only on the capture and the
back-end geometry — so a :class:`ReplayPlan` computes it once per
``(capture, geometry)`` pair and every kernel consumes it:

* :func:`~repro.sim.vector_replay.replay_capture_vector` skips the L2
  argsort/bincount and the L3 scaffold allocation;
* :func:`~repro.sim.vector_replay_slip.replay_capture_vector_slip`
  skips resolving miss/TLB positions to addresses, pages and PTE
  lines.

Plans are cached next to their captures: in
:class:`~repro.workloads.capture_store.MemoryCaptureStore` as live
objects and in :class:`~repro.workloads.capture_store.DiskCaptureStore`
as memmap sidecar arrays under ``<entry>/plan-<geometry digest>/``
(same atomic tmp+rename, quarantine and eviction discipline as the
capture entries), so every pool worker of
:func:`~repro.experiments.parallel.run_policy_grid` shares one plan
per capture instead of recomputing it per cell per process.

Correctness story: a plan is pure derived data, so the always-on
``replay-plan-conservation`` invariant
(:func:`repro.analysis.invariants.check_replay_plan`) re-derives every
persisted array from the capture and compares byte-for-byte before the
first replay consumes a plan object — a corrupted or stale sidecar can
therefore never change a result, only cost a rebuild. The list-shaped
views the kernels consume (grouped columns, sentinel-terminated
position lists) are memoized lazily on the plan object and derived
from the checked arrays. A kernel called with ``plan=None`` derives
everything locally with the same arithmetic.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mem.tlb import PTE_TABLE_BASE, PTES_PER_LINE
from ..workloads.capture_store import (
    CaptureError,
    TraceCapture,
    fingerprint_key,
)
from ..workloads.trace import Trace
from .config import SystemConfig, line_to_page_shift

#: Bump when the derivation of any plan array changes shape or
#: semantics; persisted sidecars with another version are quarantined.
PLAN_VERSION = 2

#: Arrays persisted to (and re-derived for) every plan, in a fixed
#: order so sidecar directories have a stable layout.
PLAN_ARRAY_NAMES: Tuple[str, ...] = (
    "l2_set_idx",   # whole-event-stream L2 set indices
    "l2_offs",      # L2 per-set slice offsets over the event stream
    "l2_order",     # stable argsort of event addrs by L2 set
    "l3_addr2",     # interleaved L3 scaffold: even slots = event addrs
    "l3_meas2",     # interleaved measured flags (odd = even slot's)
    "miss_addrs",   # trace addresses at the captured L1-miss positions
    "miss_pages",   # ... and their page numbers
    "tlb_pages",    # page numbers at the captured TLB-miss positions
    "pte_addrs",    # ... and their PTE line addresses
)


def plan_geometry(config: SystemConfig) -> Dict:
    """The back-end geometry a plan depends on (and nothing else).

    The capture fingerprint already pins the trace, L1 shape, TLB size,
    warmup split and seed; the only *additional* inputs to the plan
    arrays are the L2 set count and the line->page shift. Everything
    else (ways, sublevels, energies, policies, replacement) is consumed
    by the kernels after the plan, so sweeps over those knobs share one
    plan per capture.
    """
    return {
        "plan_version": PLAN_VERSION,
        "l2_sets": config.l2.sets,
        "page_shift": line_to_page_shift(config.lines_per_page),
    }


def plan_geometry_key(geometry: Dict) -> str:
    """Canonical JSON key of a plan geometry (store/sidecar key)."""
    return fingerprint_key(geometry)


def derive_plan_arrays(capture: TraceCapture, trace: Trace,
                       geometry: Dict) -> Dict[str, np.ndarray]:
    """Compute every persisted plan array from scratch.

    Shared by :func:`build_plan` and the ``replay-plan-conservation``
    invariant, which re-runs this very derivation and compares — so
    the definition of "correct plan" lives in exactly one place.
    """
    t_addrs = np.asarray(trace.addresses, dtype=np.int64)
    addrs = np.asarray(capture.addrs, dtype=np.int64)
    l2_set_idx = addrs % geometry["l2_sets"]
    l2_order = np.argsort(l2_set_idx, kind="stable")
    l2_counts = np.bincount(l2_set_idx, minlength=geometry["l2_sets"])
    l2_offs = np.concatenate(([0], np.cumsum(l2_counts)))

    n_events = int(addrs.shape[0])
    # Interleaved L3 scaffold: even slots carry the forwarded event,
    # odd slots the (per-policy) L2 victim writeback. Odd addresses are
    # filled at replay time; -1 keeps the persisted bytes deterministic.
    l3_addr2 = np.full(2 * n_events, -1, dtype=np.int64)
    l3_addr2[0::2] = addrs
    l3_meas2 = np.zeros(2 * n_events, dtype=bool)
    l3_meas2[2 * capture.event_boundary:] = True

    shift = geometry["page_shift"]
    miss_addrs = t_addrs[np.asarray(capture.l1_miss_pos)]
    tlb_pages = t_addrs[np.asarray(capture.tlb_miss_pos)] >> shift
    return {
        "l2_set_idx": l2_set_idx.astype(np.int64),
        "l2_offs": l2_offs.astype(np.int64),
        "l2_order": l2_order.astype(np.int64),
        "l3_addr2": l3_addr2,
        "l3_meas2": l3_meas2,
        "miss_addrs": miss_addrs,
        "miss_pages": miss_addrs >> shift,
        "tlb_pages": tlb_pages,
        "pte_addrs": PTE_TABLE_BASE + tlb_pages // PTES_PER_LINE,
    }


class ReplayPlan:
    """Policy-invariant replay precompute for one (capture, geometry).

    Holds the persisted numpy arrays (possibly memory-mapped from a
    disk sidecar) plus lazily memoized list-shaped views in exactly the
    forms the kernels consume. Plan objects are shared across cells and
    worker-process lifetimes, so every view is built at most once and
    **must never be mutated by a consumer** — the SLIP position lists
    come pre-terminated with their ``n`` sentinel for that reason.
    """

    __slots__ = ("geometry", "verified", "_l2_grouped", "_l2_stream",
                 "_slip_lists") + PLAN_ARRAY_NAMES

    def __init__(self, geometry: Dict, arrays: Dict[str, np.ndarray],
                 verified: bool = False) -> None:
        self.geometry = dict(geometry)
        for name in PLAN_ARRAY_NAMES:
            setattr(self, name, arrays[name])
        #: Set by ``check_replay_plan`` once the arrays have been
        #: re-derived and compared; consumers check before first use.
        self.verified = verified
        self._l2_grouped: Optional[Tuple] = None
        self._l2_stream: Optional[Tuple] = None
        self._slip_lists: Optional[Tuple] = None

    def nbytes(self) -> int:
        """Approximate persisted footprint (store budget accounting)."""
        return sum(getattr(self, name).nbytes
                   for name in PLAN_ARRAY_NAMES)

    def validate(self, capture: TraceCapture) -> None:
        """Cheap structural checks against a capture's shape.

        Raises :class:`CaptureError` on damage (the store treats that
        as sidecar corruption: quarantine and rebuild). Byte-level
        agreement is the conservation invariant's job.
        """
        n_events = int(capture.ops.shape[0])
        n_miss = int(capture.l1_miss_pos.shape[0])
        n_tlb = int(capture.tlb_miss_pos.shape[0])
        expected = {
            "l2_set_idx": n_events,
            "l2_order": n_events,
            "l2_offs": None,
            "l3_addr2": 2 * n_events,
            "l3_meas2": 2 * n_events,
            "miss_addrs": n_miss,
            "miss_pages": n_miss,
            "tlb_pages": n_tlb,
            "pte_addrs": n_tlb,
        }
        for name in PLAN_ARRAY_NAMES:
            array = getattr(self, name)
            if array.ndim != 1:
                raise CaptureError(f"plan array {name} is not 1-d")
            want = expected[name]
            if want is not None and int(array.shape[0]) != want:
                raise CaptureError(
                    f"plan array {name} has {int(array.shape[0])} "
                    f"entries, capture implies {want}")
        if (int(self.l2_offs.shape[0]) != self.geometry["l2_sets"] + 1
                or int(self.l2_offs[-1]) != n_events):
            raise CaptureError("plan l2_offs disagrees with capture")

    # ------------------------------------------------------------------
    # Kernel-facing memoized views
    # ------------------------------------------------------------------
    def measured_mask(self) -> np.ndarray:
        """Per-event measured flags (a view of the persisted scaffold)."""
        return self.l3_meas2[0::2]

    def l2_grouped(self, capture: TraceCapture) -> Tuple:
        """Per-set grouped columns for the L2 event stream.

        Same 5-tuple (offsets, event order, opcodes, addresses,
        measured flags, all plain lists) the baseline/NuRAPID runners
        build internally; the measured column exploits
        ``meas[order[k]] == order[k] >= event_boundary``.
        """
        cached = self._l2_grouped
        if cached is None:
            order = np.asarray(self.l2_order)
            ops = np.asarray(capture.ops, dtype=np.uint8)
            addrs = np.asarray(capture.addrs, dtype=np.int64)
            cached = self._l2_grouped = (
                np.asarray(self.l2_offs).tolist(),
                order.tolist(),
                ops[order].tolist(),
                addrs[order].tolist(),
                (order >= capture.event_boundary).tolist(),
            )
        return cached

    def l2_stream(self, capture: TraceCapture) -> Tuple:
        """Global-order event columns for the LRU-PEA runner."""
        cached = self._l2_stream
        if cached is None:
            cached = self._l2_stream = (
                np.asarray(self.l2_set_idx).tolist(),
                np.asarray(capture.ops).tolist(),
                np.asarray(capture.addrs).tolist(),
                np.asarray(self.measured_mask()).tolist(),
            )
        return cached

    def slip_lists(self, capture: TraceCapture) -> Tuple:
        """Position/address lists for the SLIP merge walk.

        Returns ``(miss_positions, miss_addrs, miss_pages, wb_addrs,
        tlb_positions, tlb_pages, pte_addrs)``. The two position lists
        are already terminated with the ``n`` sentinel the merge loop
        relies on; consumers must not append another.
        """
        cached = self._slip_lists
        if cached is None:
            miss_positions = np.asarray(capture.l1_miss_pos).tolist()
            miss_positions.append(capture.n)
            tlb_positions = np.asarray(capture.tlb_miss_pos).tolist()
            tlb_positions.append(capture.n)
            cached = self._slip_lists = (
                miss_positions,
                np.asarray(self.miss_addrs).tolist(),
                np.asarray(self.miss_pages).tolist(),
                np.asarray(capture.l1_miss_wb).tolist(),
                tlb_positions,
                np.asarray(self.tlb_pages).tolist(),
                np.asarray(self.pte_addrs).tolist(),
            )
        return cached


def build_plan(capture: TraceCapture, trace: Trace,
               geometry: Dict) -> ReplayPlan:
    """Derive a fresh (unverified) plan for one capture + geometry."""
    return ReplayPlan(geometry, derive_plan_arrays(capture, trace,
                                                   geometry))


def ensure_plan_verified(plan: ReplayPlan, capture: TraceCapture,
                         trace: Trace) -> ReplayPlan:
    """Run the conservation invariant once per plan object.

    Every plan — fresh build or sidecar load — passes through here
    before the first kernel consumes it; the check marks the object so
    shared (memoized) plans pay it exactly once per process.
    """
    if not plan.verified:
        from ..analysis.invariants import check_replay_plan
        check_replay_plan(plan, capture, trace)
    return plan


# ----------------------------------------------------------------------
# Sidecar (de)serialization, called by DiskCaptureStore
# ----------------------------------------------------------------------
PLAN_META_NAME = "plan.json"


def save_plan_dir(path: str, plan: ReplayPlan, geom_key: str) -> None:
    """Write one plan as ``.npy`` arrays + metadata under ``path``.

    The caller (the disk store) provides tmp-dir atomicity; this only
    materializes the files.
    """
    import json

    os.makedirs(path, exist_ok=True)
    for name in PLAN_ARRAY_NAMES:
        np.save(os.path.join(path, f"{name}.npy"),
                np.asarray(getattr(plan, name)))
    meta = {
        "version": PLAN_VERSION,
        "geom_key": geom_key,
        "geometry": plan.geometry,
    }
    with open(os.path.join(path, PLAN_META_NAME), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)


def load_plan_dir(path: str, geom_key: str) -> ReplayPlan:
    """Memory-map one plan sidecar back into a (unverified) plan.

    Raises :class:`~repro.workloads.capture_store.ForeignEntryError`
    when the sidecar belongs to another geometry (a digest collision:
    a miss, not corruption) and :class:`CaptureError` /
    ``OSError``-family errors on structural damage (the store
    quarantines the sidecar and the caller rebuilds).
    """
    import json

    from ..workloads.capture_store import ForeignEntryError

    with open(os.path.join(path, PLAN_META_NAME),
              encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("version") != PLAN_VERSION:
        raise CaptureError(f"plan version {meta.get('version')!r}")
    if meta.get("geom_key") != geom_key:
        raise ForeignEntryError("plan sidecar geometry mismatch")
    arrays: Dict[str, np.ndarray] = {}
    for name in PLAN_ARRAY_NAMES:
        arrays[name] = np.load(os.path.join(path, f"{name}.npy"),
                               mmap_mode="r")
    return ReplayPlan(meta["geometry"], arrays)
