"""In-process store for policy-invariant front-end captures.

A *capture* is everything the filtered-replay driver
(:mod:`repro.sim.filtered`) needs to skip the front end of a
simulation: the compact numpy event stream of what crossed the L1->L2
boundary (demand misses, metadata accesses, L1 writebacks), the trace
positions of L1 and TLB misses, and the frozen front-end statistics of
the capture run. Captures are immutable (their arrays are read-only)
and keyed by a fingerprint of everything that can influence the front
end (trace content, L1 geometry/replacement, TLB size, page grain,
warmup split, seed). The runtime kind is deliberately absent: the
front end is runtime-kind invariant, so one capture serves every
policy.

:class:`MemoryCaptureStore` is a small LRU dict of captures, and
:func:`default_store` returns the process-wide one that sweep cells
share. Each pool worker keeps its own.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from .trace import Trace

#: Event opcodes in the captured L1->L2 stream.
OP_DEMAND_MISS = 0
OP_METADATA = 1
OP_WRITEBACK = 2

_ARRAY_NAMES = ("ops", "addrs", "l1_miss_pos", "l1_miss_wb",
                "tlb_miss_pos")


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
        # Shared by every policy cell that replays it: freeze the
        # arrays so no replay can write into another cell's input.
        for name in _ARRAY_NAMES:
            getattr(self, name).setflags(write=False)

    def event_positions(self) -> np.ndarray:
        """The trace position (access index) of every flat-stream event.

        Metadata events take the captured TLB-miss positions and demand
        misses the L1-miss positions, both in stream order; a writeback
        belongs to the demand miss just before it.
        """
        ops = self.ops
        positions = np.empty(ops.shape[0], dtype=np.int64)
        metadata = ops == OP_METADATA
        demand = ops == OP_DEMAND_MISS
        writeback = ~(metadata | demand)
        miss_pos = np.asarray(self.l1_miss_pos, dtype=np.int64)
        positions[metadata] = self.tlb_miss_pos
        positions[demand] = miss_pos
        positions[writeback] = miss_pos[np.cumsum(demand)[writeback] - 1]
        return positions


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


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
#: Captures a store keeps; a 75k-access capture is about 2 MB.
MAX_ENTRIES = 16


class MemoryCaptureStore:
    """An LRU of at most :data:`MAX_ENTRIES` captures, keyed by
    :func:`fingerprint_key`."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, TraceCapture]" = OrderedDict()

    def get(self, key: str) -> Optional[TraceCapture]:
        capture = self._entries.get(key)
        if capture is not None:
            self._entries.move_to_end(key)
        return capture

    def put(self, key: str, capture: TraceCapture) -> None:
        self._entries[key] = capture
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


_DEFAULT_STORE = MemoryCaptureStore()


def default_store() -> MemoryCaptureStore:
    """The process-wide store that sweep cells share."""
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Empty the process-wide store (a cold start for the next cell)."""
    _DEFAULT_STORE.clear()
