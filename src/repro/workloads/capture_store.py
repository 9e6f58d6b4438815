"""Persistent store for policy-invariant front-end captures.

A *capture* is everything the filtered-replay driver
(:mod:`repro.sim.filtered`) needs to skip the front end of a
simulation: the compact numpy event stream of what crossed the L1->L2
boundary (demand misses, metadata accesses, L1 writebacks), the trace
positions of L1 and TLB misses, and the frozen front-end statistics of
the capture run. Captures are immutable and content-addressed by a
fingerprint of everything that can influence the front end (trace
content, L1 geometry/replacement, TLB size, page grain, warmup split,
seed). The runtime kind is deliberately absent: the front end is
runtime-kind invariant, so one capture serves every policy.

Two stores implement the same two-method protocol (``get``/``put``):

* :class:`MemoryCaptureStore` — a small process-wide LRU dict; the
  default, used whenever ``REPRO_CAPTURE_DIR`` is unset. Serial sweeps
  in one process share captures through it.
* :class:`DiskCaptureStore` — an on-disk, content-addressed layout
  (one directory per fingerprint digest holding ``meta.json`` plus one
  ``.npy`` file per event array), selected via ``REPRO_CAPTURE_DIR``.
  Arrays are loaded with ``mmap_mode="r"`` so parallel sweep workers
  map the same pages instead of each re-simulating the front end.
  Writes are atomic (temp dir + rename), the store is size-capped
  (``REPRO_CAPTURE_MAX_MB``, default 512, oldest-mtime eviction), and
  a corrupt or truncated entry is quarantined on load: ``get`` returns
  ``None`` and the caller falls back to direct simulation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from .trace import Trace

#: Bump when the capture layout changes; part of every fingerprint.
CAPTURE_VERSION = 1

#: Environment knobs for the on-disk store.
CAPTURE_DIR_ENV = "REPRO_CAPTURE_DIR"
CAPTURE_MAX_MB_ENV = "REPRO_CAPTURE_MAX_MB"
_DEFAULT_MAX_MB = 512

#: Environment knob for the in-process store's LRU capacity.
CAPTURE_MEM_ENTRIES_ENV = "REPRO_CAPTURE_MEM_ENTRIES"
_DEFAULT_MEM_ENTRIES = 16

#: Event opcodes in the captured L1->L2 stream.
OP_DEMAND_MISS = 0
OP_METADATA = 1
OP_WRITEBACK = 2

_ARRAY_NAMES = ("ops", "addrs", "l1_miss_pos", "l1_miss_wb",
                "tlb_miss_pos")


class CaptureError(Exception):
    """A capture could not be produced or failed validation."""


class ForeignEntryError(Exception):
    """A digest directory holds a *different* fingerprint's capture.

    Deliberately not a :class:`CaptureError` (and not an ``OSError``):
    the entry is healthy, it just belongs to another key whose digest
    collides with ours, so the caller must treat the lookup as a miss
    while leaving the entry untouched for its rightful owner.
    """


class TraceCapture:
    """One immutable front-end capture (see module docstring)."""

    __slots__ = ("n", "warmup", "event_boundary", "ops", "addrs",
                 "l1_miss_pos", "l1_miss_wb", "tlb_miss_pos", "frozen")

    def __init__(self, n: int, warmup: int, event_boundary: int,
                 ops: np.ndarray, addrs: np.ndarray,
                 l1_miss_pos: np.ndarray, l1_miss_wb: np.ndarray,
                 tlb_miss_pos: np.ndarray, frozen: Dict) -> None:
        self.n = n
        self.warmup = warmup
        self.event_boundary = event_boundary
        self.ops = ops
        self.addrs = addrs
        self.l1_miss_pos = l1_miss_pos
        self.l1_miss_wb = l1_miss_wb
        self.tlb_miss_pos = tlb_miss_pos
        self.frozen = frozen

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return sum(int(getattr(self, name).nbytes)
                   for name in _ARRAY_NAMES)

    def event_positions(self) -> np.ndarray:
        """The trace position (access index) of every flat-stream event.

        Metadata events take the captured TLB-miss positions and demand
        misses the L1-miss positions, both in stream order; a writeback
        belongs to the demand miss just before it.
        """
        ops = np.asarray(self.ops)
        positions = np.empty(ops.shape[0], dtype=np.int64)
        metadata = ops == OP_METADATA
        demand = ops == OP_DEMAND_MISS
        writeback = ~(metadata | demand)
        miss_pos = np.asarray(self.l1_miss_pos, dtype=np.int64)
        positions[metadata] = self.tlb_miss_pos
        positions[demand] = miss_pos
        positions[writeback] = miss_pos[np.cumsum(demand)[writeback] - 1]
        return positions

    def validate(self) -> None:
        """Structural sanity; raises :class:`CaptureError` on damage.

        Cheap (vectorized) and run on every load from disk, so a
        truncated ``.npy`` or a hand-edited ``meta.json`` surfaces as a
        clean fallback to direct simulation rather than a wrong result.
        """
        if self.ops.shape != self.addrs.shape or self.ops.ndim != 1:
            raise CaptureError("ops/addrs arrays disagree")
        if self.l1_miss_pos.shape != self.l1_miss_wb.shape:
            raise CaptureError("miss position/writeback arrays disagree")
        if not (0 <= self.event_boundary <= int(self.ops.shape[0])):
            raise CaptureError("event boundary out of range")
        if not (0 <= self.warmup <= self.n):
            raise CaptureError("warmup split out of range")
        for pos in (self.l1_miss_pos, self.tlb_miss_pos):
            if pos.shape[0] and (
                int(pos[0]) < 0 or int(pos[-1]) >= self.n
                or bool(np.any(np.diff(pos) <= 0))
            ):
                raise CaptureError("positions not strictly increasing "
                                   "within the trace")
        counts = self.frozen.get("event_counts")
        if not isinstance(counts, dict):
            raise CaptureError("frozen stats missing event counts")
        measured = self.ops[self.event_boundary:]
        for op, key in ((OP_DEMAND_MISS, "demand"),
                        (OP_METADATA, "metadata"),
                        (OP_WRITEBACK, "writeback")):
            if int(np.count_nonzero(measured == op)) != counts.get(key):
                raise CaptureError(f"{key} event count mismatch")


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def trace_content_digest(trace: Trace) -> str:
    """sha256 over the trace arrays, memoized on ``trace.metadata``.

    Traces come out of the process-wide LRU factory, so the digest is
    computed once per (benchmark, length, seed) per process.
    """
    digest = trace.metadata.get("content_digest")
    if digest is None:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(trace.addresses).tobytes())
        h.update(np.ascontiguousarray(trace.is_write).tobytes())
        digest = h.hexdigest()
        trace.metadata["content_digest"] = digest
    return digest


def fingerprint_key(fingerprint: Dict) -> str:
    """Canonical JSON of a fingerprint dict — the store key."""
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def key_digest(key: str) -> str:
    """Directory-name-sized digest of a fingerprint key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
_WARNED_MEM_ENTRIES: set = set()


def _resolve_mem_entries() -> int:
    """``REPRO_CAPTURE_MEM_ENTRIES``, validated and clamped to >= 1.

    A zero or negative capacity would evict every capture as it is
    written, so each sweep cell re-captures; garbage falls back to the
    default the same way. Either warns on stderr once per distinct bad
    value per process (same clamp semantics as
    ``REPRO_CAPTURE_MAX_MB``).
    """
    import sys

    raw = os.environ.get(CAPTURE_MEM_ENTRIES_ENV, "").strip()
    if not raw:
        return _DEFAULT_MEM_ENTRIES
    try:
        entries = int(raw)
    except ValueError:
        entries = 0
    if entries >= 1:
        return entries
    if raw not in _WARNED_MEM_ENTRIES:
        _WARNED_MEM_ENTRIES.add(raw)
        print(
            f"repro: ignoring {CAPTURE_MEM_ENTRIES_ENV}={raw!r} "
            f"(need an integer >= 1); using the "
            f"{_DEFAULT_MEM_ENTRIES}-entry default",
            file=sys.stderr,
        )
    return _DEFAULT_MEM_ENTRIES


class MemoryCaptureStore:
    """Process-wide LRU of captures; the no-configuration default.

    The default capacity comes from ``REPRO_CAPTURE_MEM_ENTRIES``
    (resolved at construction, and re-resolved on every
    :func:`default_store` call for the shared singleton); pass
    ``max_entries`` explicitly to pin a capacity regardless of the
    environment.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = (_resolve_mem_entries()
                            if max_entries is None else max_entries)
        self._entries: "OrderedDict[str, TraceCapture]" = OrderedDict()

    def get(self, key: str) -> Optional[TraceCapture]:
        capture = self._entries.get(key)
        if capture is not None:
            self._entries.move_to_end(key)
        return capture

    def put(self, key: str, capture: TraceCapture,
            fingerprint: Optional[Dict] = None) -> None:
        self._entries[key] = capture
        self._entries.move_to_end(key)
        self._trim()

    def _trim(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class DiskCaptureStore:
    """Content-addressed on-disk captures shared across processes."""

    def __init__(self, root: str,
                 max_bytes: int = _DEFAULT_MAX_MB * 1024 * 1024,
                 memo_entries: int = 16) -> None:
        self.root = root
        self.max_bytes = max_bytes
        # In-process memo of loaded captures: repeated cells in one
        # worker skip the meta.json parse and np.load calls entirely.
        self._memo = MemoryCaptureStore(memo_entries)

    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.root, key_digest(key))

    def get(self, key: str) -> Optional[TraceCapture]:
        capture = self._memo.get(key)
        if capture is not None:
            return capture
        path = self._entry_dir(key)
        if not os.path.isdir(path):
            return None
        try:
            capture = self._load(path, key)
        except ForeignEntryError:
            # Digest collision: the entry is someone else's capture.
            # A miss, but never a quarantine — deleting it would
            # destroy the colliding fingerprint's (healthy) entry.
            return None
        except (OSError, ValueError, KeyError, CaptureError,
                json.JSONDecodeError):
            # Corrupt/truncated entry: quarantine it so the next run
            # re-captures instead of tripping over it again.
            shutil.rmtree(path, ignore_errors=True)
            return None
        try:
            os.utime(path)  # freshen mtime: LRU-ish eviction order
        except OSError:
            pass
        self._memo.put(key, capture)
        return capture

    def _load(self, path: str, key: str) -> TraceCapture:
        with open(os.path.join(path, "meta.json"), "r",
                  encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("version") != CAPTURE_VERSION:
            raise CaptureError("capture version mismatch")
        if meta.get("key") != key:
            raise ForeignEntryError("fingerprint mismatch")
        arrays = {
            name: np.load(os.path.join(path, f"{name}.npy"),
                          mmap_mode="r", allow_pickle=False)
            for name in _ARRAY_NAMES
        }
        capture = TraceCapture(
            n=int(meta["n"]), warmup=int(meta["warmup"]),
            event_boundary=int(meta["event_boundary"]),
            frozen=meta["frozen"], **arrays,
        )
        capture.validate()
        return capture

    # ------------------------------------------------------------------
    def put(self, key: str, capture: TraceCapture,
            fingerprint: Optional[Dict] = None) -> None:
        self._memo.put(key, capture)
        path = self._entry_dir(key)
        if os.path.isdir(path):
            return
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            os.makedirs(tmp, exist_ok=True)
            for name in _ARRAY_NAMES:
                np.save(os.path.join(tmp, f"{name}.npy"),
                        np.asarray(getattr(capture, name)),
                        allow_pickle=False)
            meta = {
                "version": CAPTURE_VERSION,
                "key": key,
                "fingerprint": fingerprint,
                "n": capture.n,
                "warmup": capture.warmup,
                "event_boundary": capture.event_boundary,
                "frozen": capture.frozen,
            }
            with open(os.path.join(tmp, "meta.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(meta, handle, sort_keys=True)
            os.rename(tmp, path)
        except OSError:
            # Lost a publish race or the volume is unwritable; the
            # in-memory memo still serves this process.
            shutil.rmtree(tmp, ignore_errors=True)
            return
        self._evict(keep=os.path.basename(path))

    def _evict(self, keep: str) -> None:
        """Drop oldest entries until the store fits ``max_bytes``.

        Sizes are accumulated recursively: entries written by older
        versions can still hold subdirectories beside their capture
        arrays, and an entry is budgeted (and evicted) as one unit.
        In-flight ``.tmp-`` writes are skipped at any depth.
        """
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        entries = []
        total = 0
        for name in names:
            path = os.path.join(self.root, name)
            if not os.path.isdir(path) or ".tmp-" in name:
                continue
            size = 0
            try:
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = [d for d in dirnames
                                   if ".tmp-" not in d]
                    for filename in filenames:
                        size += os.stat(
                            os.path.join(dirpath, filename)).st_size
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            total += size
            entries.append((mtime, name, path, size))
        if total <= self.max_bytes:
            return
        entries.sort()
        for _, name, path, size in entries:
            if total <= self.max_bytes:
                break
            if name == keep:
                continue
            shutil.rmtree(path, ignore_errors=True)
            total -= size


# ----------------------------------------------------------------------
# Store selection
# ----------------------------------------------------------------------
_MEMORY_STORE = MemoryCaptureStore()
_DISK_STORES: Dict[Tuple[str, int], DiskCaptureStore] = {}
_WARNED_MAX_MB: set = set()


def _resolve_max_mb() -> int:
    """``REPRO_CAPTURE_MAX_MB``, validated and clamped to >= 1 MB.

    A zero or negative cap would make ``_evict`` delete every entry
    except the one just written, so each sweep worker re-captures on
    every cell; garbage falls back to the default the same way. Either
    warns on stderr once per distinct bad value per process.
    """
    import sys

    raw = os.environ.get(CAPTURE_MAX_MB_ENV, "").strip()
    if not raw:
        return _DEFAULT_MAX_MB
    try:
        max_mb = int(raw)
    except ValueError:
        max_mb = 0
    if max_mb >= 1:
        return max_mb
    if raw not in _WARNED_MAX_MB:
        _WARNED_MAX_MB.add(raw)
        print(
            f"repro: ignoring {CAPTURE_MAX_MB_ENV}={raw!r} "
            f"(need an integer >= 1); using the "
            f"{_DEFAULT_MAX_MB} MB default",
            file=sys.stderr,
        )
    return _DEFAULT_MAX_MB


#: (raw env tuple, resolved store) of the last default_store() call.
#: Re-resolving the environment (and trimming the memory singleton)
#: only when a knob actually changes keeps the per-cell cost of
#: default_store() to one tuple comparison.
_RESOLVED_ENV: Optional[Tuple[str, str, str]] = None
_RESOLVED_STORE = None


def default_store():
    """The store implied by the environment, resolved once per config.

    ``REPRO_CAPTURE_DIR`` selects (and creates) an on-disk store —
    worker processes inherit the variable and share it; otherwise the
    process-wide in-memory store is used. The resolution is memoized on
    the raw values of the three knobs, so repeated calls (one per sweep
    cell) skip the int parsing, ``abspath`` and singleton trim until
    the environment actually changes; :func:`reset_default_store`
    drops the memo (tests that fiddle with cwd-relative paths or want
    a pristine singleton call it between cases).
    """
    global _RESOLVED_ENV, _RESOLVED_STORE
    env = (
        os.environ.get(CAPTURE_DIR_ENV, "").strip(),
        os.environ.get(CAPTURE_MAX_MB_ENV, "").strip(),
        os.environ.get(CAPTURE_MEM_ENTRIES_ENV, "").strip(),
    )
    if env == _RESOLVED_ENV and _RESOLVED_STORE is not None:
        return _RESOLVED_STORE
    root = env[0]
    if not root:
        # Honor capacity changes: the singleton's limit tracks the
        # environment, trimming immediately so a shrink takes effect
        # without waiting for the next put.
        _MEMORY_STORE.max_entries = _resolve_mem_entries()
        _MEMORY_STORE._trim()
        store = _MEMORY_STORE
    else:
        max_mb = _resolve_max_mb()
        cache_key = (os.path.abspath(root), max_mb)
        store = _DISK_STORES.get(cache_key)
        if store is None:
            os.makedirs(root, exist_ok=True)
            store = DiskCaptureStore(cache_key[0],
                                     max_bytes=max_mb * 1024 * 1024)
            _DISK_STORES[cache_key] = store
    _RESOLVED_ENV = env
    _RESOLVED_STORE = store
    return store


def reset_default_store() -> None:
    """Forget the resolved default-store configuration (for tests).

    Clears the memoized environment resolution, empties the in-memory
    singleton and drops the cached disk-store
    handles, so the next :func:`default_store` call re-resolves from a
    clean slate.
    """
    global _RESOLVED_ENV, _RESOLVED_STORE
    _RESOLVED_ENV = None
    _RESOLVED_STORE = None
    _MEMORY_STORE.clear()
    _DISK_STORES.clear()
