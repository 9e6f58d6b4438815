"""Synthetic workload generation: regions, benchmark analogs, mixes."""

from .benchmarks import (
    BENCHMARKS,
    FIG1_BENCHMARKS,
    SPEC_ORDER,
    BenchmarkSpec,
    make_trace,
)
from .capture_store import (
    MemoryCaptureStore,
    TraceCapture,
    default_store,
    reset_default_store,
    trace_content_digest,
)
from .generators import (
    BimodalLoopRegion,
    HotColdRegion,
    LoopRegion,
    RandomRegion,
    Region,
    RegionMix,
    StreamRegion,
)
from .mixes import MULTICORE_MIXES, make_mix_traces, mix_name
from .trace import Trace

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "BimodalLoopRegion",
    "FIG1_BENCHMARKS",
    "HotColdRegion",
    "LoopRegion",
    "MULTICORE_MIXES",
    "MemoryCaptureStore",
    "RandomRegion",
    "Region",
    "RegionMix",
    "SPEC_ORDER",
    "StreamRegion",
    "Trace",
    "TraceCapture",
    "default_store",
    "make_mix_traces",
    "make_trace",
    "mix_name",
    "reset_default_store",
    "trace_content_digest",
]
