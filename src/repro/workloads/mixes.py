"""Multiprogrammed two-core workload mixes (Figure 16).

The paper evaluates eight randomly selected pairs on a system with
private 256 KB L2s and a shared 2 MB L3; we use the pairs readable off
Figure 16's axis. Each core's trace is shifted into a disjoint address
region (no data sharing, as in multiprogrammed SPEC). The simulator
(:mod:`repro.sim.multi_core`) advances the cores round-robin over the
window in which all of them still run, ordering accesses by (access
index, core); that interleaving is how the shared L3 sees roughly
doubled reuse distances — the effect behind the larger multicore
savings.
"""

from __future__ import annotations

from typing import List, Tuple

from .benchmarks import make_trace
from .trace import Trace

#: The eight two-core mixes on Figure 16's x-axis.
MULTICORE_MIXES: Tuple[Tuple[str, str], ...] = (
    ("soplex", "mcf"),
    ("xalancbmk", "gcc"),
    ("leslie3D", "soplex"),
    ("omnetpp", "mcf"),
    ("cactusADM", "bzip2"),
    ("milc", "sphinx3"),
    ("lbm", "gcc"),
    ("astar", "gemsFDTD"),
)

#: Address-space stride separating the cores (lines); far larger than
#: any benchmark footprint.
CORE_ADDRESS_STRIDE = 1 << 34


def mix_name(pair: Tuple[str, str]) -> str:
    return f"{pair[0]}+{pair[1]}"


def make_mix_traces(pair: Tuple[str, str], length_per_core: int,
                    seed: int = 0) -> List[Trace]:
    """Per-core traces for one mix, in disjoint address regions."""
    traces = []
    for core, name in enumerate(pair):
        trace = make_trace(name, length_per_core, seed=seed + core)
        traces.append(trace.with_offset(core * CORE_ADDRESS_STRIDE))
    return traces

