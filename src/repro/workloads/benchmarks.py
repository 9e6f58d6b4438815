"""Synthetic analogs of the paper's SPEC-CPU2006 workloads.

The paper evaluates the memory-intensive SPEC-CPU2006 subset identified
by Jaleel, simulated in MARSSx86 from SimPoints. Neither SPEC binaries
nor the authors' traces are redistributable, so each benchmark here is a
*synthetic analog*: a mixture of access-pattern regions whose
reuse-distance structure reproduces the behaviour the paper reports for
that benchmark — streaming kernels for lbm/milc, huge pointer-chasing
footprints for mcf/omnetpp/xalancbmk, the bimodal rotation loops of
soplex's forest.cc (Figure 3), phase changes in mcf (Section 4.2), and
the >70% zero-reuse LLC lines of Figure 1. Capacities are chosen
relative to the simulated hierarchy: 64 KB = 1024 lines (L2 sublevel 0),
256 KB = 4096 lines (L2), 2 MB = 32768 lines (L3).

What transfers to the paper's tables is therefore the *shape* of each
result (which policy wins, where bypassing dominates), not absolute SPEC
miss rates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from .generators import (
    BimodalLoopRegion,
    HotColdRegion,
    LoopRegion,
    RandomRegion,
    Region,
    RegionMix,
    StreamRegion,
)
from .trace import Trace, concatenate

# Landmarks of the simulated hierarchy, in lines.
L2_SUBLEVEL0 = 1024     # 64 KB
L2_FULL = 4096          # 256 KB
L3_SUBLEVEL0 = 8192     # 512 KB
L3_FULL = 32768         # 2 MB
BEYOND_LLC = 100_000    # ~6 MB, never fits but pages recur

RegionFactory = Callable[[], List[Region]]


@dataclass(frozen=True)
class Phase:
    """A program phase: a fraction of the trace with its own regions."""

    fraction: float
    regions: RegionFactory


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    phases: Tuple[Phase, ...]
    instructions_per_access: float = 3.0
    description: str = ""

    def trace(self, length: int, seed: int = 0) -> Trace:
        """Generate a trace of the given length (deterministic per seed)."""
        name_salt = zlib.crc32(self.name.encode()) & 0xFFFF
        pieces = []
        for idx, phase in enumerate(self.phases):
            n = max(1, int(round(length * phase.fraction)))
            rng = np.random.default_rng(
                name_salt * 1_000_003 + seed * 97 + idx
            )
            mix = RegionMix(phase.regions())
            addresses, is_write = mix.generate(n, rng)
            pieces.append(Trace(self.name, addresses, is_write,
                                self.instructions_per_access))
        return concatenate(self.name, tuple(pieces),
                           self.instructions_per_access)


def _spec(name: str, regions: RegionFactory, ipa: float = 3.0,
          description: str = "") -> BenchmarkSpec:
    return BenchmarkSpec(name, (Phase(1.0, regions),), ipa, description)


def _soplex_regions() -> List[Region]:
    return [
        # forest.cc rorig/corig rotation: 18% of passes fit 64 KB, the
        # rest overflow even the full L2 (Figure 3, lines 418/421/425).
        BimodalLoopRegion("rorig", short_lines=700, long_lines=40_000,
                          short_access_share=0.36, weight=0.34,
                          write_fraction=0.35),
        # rperm[rorig[i]]: effectively random, always misses (line 421).
        RandomRegion("rperm", BEYOND_LLC, weight=0.16, write_fraction=0.3),
        # cperm: 66% of accesses hit a 64 KB hot set, 10% need the full
        # cache, 24% never fit (line 428).
        HotColdRegion("cperm", footprint_lines=48_000, hot_fraction=0.015,
                      hot_probability=0.8, weight=0.3, write_fraction=0.3),
        LoopRegion("workarrays", 700, weight=0.2, write_fraction=0.25),
    ]


def _mcf_phase_a() -> List[Region]:
    return [
        RandomRegion("arcs", 100_000, weight=0.55, write_fraction=0.15),
        LoopRegion("nodes-hot", 600, weight=0.2, write_fraction=0.3),
        StreamRegion("basket", weight=0.25, write_fraction=0.1),
    ]


def _mcf_phase_b() -> List[Region]:
    # Phase change (Section 4.2): previously-bypassed arc data becomes
    # hot as the network simplex iterates over a narrower cut.
    return [
        HotColdRegion("arcs", 100_000, hot_fraction=0.006,
                      hot_probability=0.75, weight=0.55,
                      write_fraction=0.15),
        LoopRegion("nodes-hot", 600, weight=0.2, write_fraction=0.3),
        StreamRegion("basket", weight=0.25, write_fraction=0.1),
    ]


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "soplex": BenchmarkSpec(
        "soplex", (Phase(1.0, _soplex_regions),), 2.6,
        "LP solver; bimodal rotation loops + permutation chasing",
    ),
    "gcc": _spec("gcc", lambda: [
        HotColdRegion("symtab", 40_000, hot_fraction=0.02,
                      hot_probability=0.6, weight=0.4),
        LoopRegion("rtl-pass", 1_800, weight=0.2, write_fraction=0.3),
        StreamRegion("insn-stream", weight=0.2),
        RandomRegion("pointers", 60_000, weight=0.2),
    ], 2.8, "compiler; mixed pointer structures and pass-local loops"),
    "xalancbmk": _spec("xalancbmk", lambda: [
        RandomRegion("dom", 80_000, weight=0.38),
        LoopRegion("strings", 700, weight=0.34, write_fraction=0.3),
        StreamRegion("output", weight=0.18, write_fraction=0.4),
        HotColdRegion("schema", 20_000, hot_fraction=0.04,
                      hot_probability=0.5, weight=0.1),
    ], 2.7, "XSLT; DOM pointer chasing with tiny hot string loops"),
    "mcf": BenchmarkSpec(
        "mcf",
        (Phase(0.5, _mcf_phase_a), Phase(0.5, _mcf_phase_b)),
        2.4,
        "network simplex; huge random arc array with a phase change",
    ),
    "leslie3D": _spec("leslie3D", lambda: [
        StreamRegion("flux", weight=0.45, write_fraction=0.35),
        LoopRegion("stencil-l2", 3_000, weight=0.3, write_fraction=0.3),
        LoopRegion("stencil-l3", 26_000, weight=0.25),
    ], 3.2, "CFD stencil; streaming sweeps + L3-sized reuse window"),
    "omnetpp": _spec("omnetpp", lambda: [
        RandomRegion("events", 70_000, weight=0.42),
        HotColdRegion("queues", 36_000, hot_fraction=0.022,
                      hot_probability=0.6, weight=0.33),
        LoopRegion("scheduler", 900, weight=0.25, write_fraction=0.35),
    ], 2.6, "discrete event simulation; scattered heap with hot queues"),
    "astar": _spec("astar", lambda: [
        RandomRegion("graph", 40_000, weight=0.45),
        LoopRegion("open-list", 1_200, weight=0.3, write_fraction=0.35),
        StreamRegion("map", weight=0.25),
    ], 2.9, "path finding; mid-size random graph + open-list churn"),
    "gemsFDTD": _spec("gemsFDTD", lambda: [
        StreamRegion("fields", weight=0.5, write_fraction=0.4),
        LoopRegion("boundary-l3", 28_000, weight=0.3),
        LoopRegion("coeffs", 1_500, weight=0.2),
    ], 3.3, "FDTD solver; field sweeps dominate"),
    "sphinx3": _spec("sphinx3", lambda: [
        HotColdRegion("gaussians", 36_000, hot_fraction=0.025,
                      hot_probability=0.55, weight=0.4),
        LoopRegion("frames", 800, weight=0.3, write_fraction=0.25),
        StreamRegion("cepstra", weight=0.3),
    ], 2.8, "speech recognition; hot senones within a large model"),
    "wrf": _spec("wrf", lambda: [
        LoopRegion("tiles", 3_500, weight=0.35, write_fraction=0.35),
        StreamRegion("physics", weight=0.35),
        RandomRegion("halo", 20_000, weight=0.3),
    ], 3.1, "weather model; tile loops with streaming physics"),
    "milc": _spec("milc", lambda: [
        StreamRegion("lattice", weight=0.6, write_fraction=0.4),
        LoopRegion("su3-l3", 26_000, weight=0.25),
        RandomRegion("gather", 80_000, weight=0.15),
    ], 3.4, "lattice QCD; long streaming sweeps"),
    "cactusADM": _spec("cactusADM", lambda: [
        LoopRegion("grid-l2", 3_800, weight=0.5, write_fraction=0.35),
        StreamRegion("sweep", weight=0.3),
        LoopRegion("grid-l3", 14_000, weight=0.2),
    ], 3.3, "numerical relativity; working set near the L2 capacity"),
    "bzip2": _spec("bzip2", lambda: [
        HotColdRegion("block", 2_500, hot_fraction=0.3,
                      hot_probability=0.75, weight=0.45,
                      write_fraction=0.4),
        LoopRegion("huffman", 900, weight=0.3, write_fraction=0.3),
        StreamRegion("input", weight=0.25),
    ], 2.9, "compression; strong locality inside the active block"),
    "lbm": _spec("lbm", lambda: [
        StreamRegion("cells", weight=0.7, write_fraction=0.45),
        LoopRegion("collide", 1_000, weight=0.3, write_fraction=0.35),
    ], 3.5, "lattice Boltzmann; almost pure streaming"),
}

#: The order benchmarks appear on the x-axis of Figures 9-15.
SPEC_ORDER: Tuple[str, ...] = (
    "soplex", "gcc", "xalancbmk", "mcf", "leslie3D", "omnetpp", "astar",
    "gemsFDTD", "sphinx3", "wrf", "milc", "cactusADM", "bzip2", "lbm",
)

#: Benchmarks shown in Figure 1.
FIG1_BENCHMARKS: Tuple[str, ...] = (
    "soplex", "gcc", "mcf", "xalancbmk", "leslie3D", "omnetpp", "sphinx3",
)


#: Max distinct (benchmark, length, seed) traces kept in memory. A
#: 300k-access trace is ~3 MB, so this bounds the cache at ~100 MB
#: while letting a full sweep (14 benchmarks x 5 policies) generate
#: each trace exactly once per process — serial callers and pool
#: workers alike.
_TRACE_CACHE_SIZE = 32


@lru_cache(maxsize=_TRACE_CACHE_SIZE)
def _cached_trace(name: str, length: int, seed: int) -> Trace:
    trace = BENCHMARKS[name].trace(length, seed)
    # Shared across callers: freeze the arrays so an accidental in-place
    # edit cannot corrupt every later run of the same benchmark.
    trace.addresses.setflags(write=False)
    trace.is_write.setflags(write=False)
    return trace


def make_trace(name: str, length: int, seed: int = 0) -> Trace:
    """Trace for a named benchmark analog (LRU-cached, read-only).

    Repeated calls with the same ``(name, length, seed)`` return the
    same :class:`Trace` object, so policy sweeps stop regenerating
    identical traces. Treat the arrays as immutable; derive modified
    copies via :meth:`Trace.with_offset` or slicing instead.
    """
    if name not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"
        )
    return _cached_trace(name, length, seed)


def trace_cache_info():
    """Hit/miss statistics of the shared trace cache."""
    return _cached_trace.cache_info()


def clear_trace_cache() -> None:
    _cached_trace.cache_clear()
