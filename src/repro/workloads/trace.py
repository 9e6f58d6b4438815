"""Trace containers for the trace-driven simulator.

A trace is a pair of parallel numpy arrays: 64-bit line addresses and a
write flag per access. Addresses are in units of 64-byte cache lines;
page numbers are ``address >> line_to_page_shift(lines_per_page)``,
the same shared hook :class:`~repro.mem.hierarchy.MemoryHierarchy`
derives its page grain from (64 lines per 4 KB page by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

from ..sim.config import LINES_PER_PAGE, line_to_page_shift

#: Accesses materialized per chunk by ``Trace.__iter__``. Large enough
#: that the per-chunk slicing cost is invisible, small enough that a
#: multi-million-access trace never holds two full list copies alive
#: (the old ``.tolist()``-both-arrays implementation did, per call).
_ITER_CHUNK = 65536


@dataclass
class Trace:
    """An access trace plus the workload facts the timing model needs."""

    name: str
    addresses: np.ndarray
    is_write: np.ndarray
    #: Instructions represented per memory access (for CPI/energy models).
    instructions_per_access: float = 3.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.addresses.shape != self.is_write.shape:
            raise ValueError("addresses and is_write must align")
        if self.addresses.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        # Chunked conversion: ~same per-access cost as a flat .tolist()
        # (the numpy->list conversion dominates either way; see the
        # micro-benchmark note in EXPERIMENTS.md) but peak extra memory
        # is two 64 Ki-entry lists instead of two full-trace copies.
        addresses, is_write = self.addresses, self.is_write
        for start in range(0, int(addresses.shape[0]), _ITER_CHUNK):
            stop = start + _ITER_CHUNK
            yield from zip(addresses[start:stop].tolist(),
                           is_write[start:stop].tolist())

    @property
    def instruction_count(self) -> float:
        return len(self) * self.instructions_per_access

    def footprint_lines(self) -> int:
        """Number of distinct lines touched."""
        return int(np.unique(self.addresses).size)

    def footprint_pages(self, lines_per_page: int = LINES_PER_PAGE) -> int:
        """Number of distinct pages touched.

        Pass ``config.lines_per_page`` to report at the same page grain
        a hierarchy built from that config simulates with; the default
        is the stock 4 KB page (64 lines).
        """
        shift = line_to_page_shift(lines_per_page)
        return int(np.unique(self.addresses >> shift).size)

    def _derived_metadata(self) -> dict:
        """Metadata for a trace with other contents: everything but the
        memoized content digest, which describes only this trace."""
        return {key: value for key, value in self.metadata.items()
                if key != "content_digest"}

    def sliced(self, start: int, stop: int) -> "Trace":
        return Trace(
            name=self.name,
            addresses=self.addresses[start:stop],
            is_write=self.is_write[start:stop],
            instructions_per_access=self.instructions_per_access,
            metadata=self._derived_metadata(),
        )

    def with_offset(self, line_offset: int) -> "Trace":
        """Shift the whole trace's address space (multicore isolation)."""
        return Trace(
            name=self.name,
            addresses=self.addresses + np.int64(line_offset),
            is_write=self.is_write,
            instructions_per_access=self.instructions_per_access,
            metadata=self._derived_metadata(),
        )


def concatenate(name: str, traces: Tuple[Trace, ...],
                instructions_per_access: float) -> Trace:
    """Join phase traces back-to-back."""
    return Trace(
        name=name,
        addresses=np.concatenate([t.addresses for t in traces]),
        is_write=np.concatenate([t.is_write for t in traces]),
        instructions_per_access=instructions_per_access,
    )
