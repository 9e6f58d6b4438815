"""Per-layer spans for the traced benchmark run.

Each layer is a public function of the simulator. The tracer wraps it
at every binding its callers actually look up: the defining module's
attribute, and every attribute of a loaded ``repro.*`` module that is
the same function object (``filtered.py`` calls ``build_plan`` through
``repro.sim.filtered.build_plan``, not through
``repro.sim.replay_plan``). A span records its layer, start, end, parent
span and cell id; spans stay in memory until the run writes them out.
A layer's self time is its spans' durations minus the time their child
spans cover.

A layer whose defining binding no longer exists is reported as absent
(its metrics read 0) rather than failing the run, so deleting a path
does not break the benchmark; :data:`PREDICTED_USE` then fails a traced
run in which a present layer never fires on the workload predicted to
use it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Outcome read from a layer's return value: ``declines`` counts calls
#: that returned ``None``/``False`` (a kernel or pipeline declining the
#: cell), ``hit_ratio`` the share of lookups that returned an entry.
DECLINES = "declines"
HIT_RATIO = "hit_ratio"


@dataclass(frozen=True)
class Layer:
    #: ``<module>.<function>`` or ``<module>.<Class>.<method>``, relative
    #: to the ``repro`` package; also the metric-name prefix.
    name: str
    outcome: Optional[str] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("experiments.parallel.execute_request"),
    Layer("sim.filtered.run_trace_filtered"),
    Layer("sim.filtered.run_trace_capturing"),
    Layer("sim.filtered.capture_front_end"),
    Layer("sim.filtered.replay_capture"),
    # run_trace imports try_run_direct lazily, from the module attribute.
    Layer("sim.filtered.try_run_direct", DECLINES),
    Layer("sim.vector_frontend.capture_front_end_vector", DECLINES),
    Layer("sim.replay_plan.build_plan"),
    Layer("sim.replay_plan.ensure_plan_verified"),
    Layer("sim.vector_replay.replay_capture_vector", DECLINES),
    Layer("sim.vector_replay_slip.replay_capture_vector_slip", DECLINES),
    Layer("sim.single_core.run_trace"),
    Layer("sim.multi_core.run_mix"),
    Layer("sim.multi_core.run_mix_traces"),
    Layer("sim.build.build_hierarchy"),
    Layer("sim.results.collect_result"),
    Layer("analysis.invariants.check_capture_replay"),
    Layer("workloads.capture_store.MemoryCaptureStore.get", HIT_RATIO),
    Layer("workloads.capture_store.MemoryCaptureStore.put"),
    Layer("workloads.capture_store.MemoryCaptureStore.get_plan", HIT_RATIO),
    Layer("workloads.capture_store.MemoryCaptureStore.put_plan"),
    Layer("workloads.benchmarks.make_trace"),
)

OVERHEAD_METRIC = "trace.overhead_frac"

#: Layers each workload is predicted to exercise (README, "layer map").
#: A present layer listed here that never fires fails the traced run.
PREDICTED_USE: Dict[str, Tuple[str, ...]] = {
    "sweep": ("sim.vector_replay.replay_capture_vector",
              "sim.vector_replay_slip.replay_capture_vector_slip"),
    "direct": ("sim.vector_frontend.capture_front_end_vector",
               "sim.replay_plan.build_plan"),
    "multicore": ("sim.multi_core.run_mix_traces",),
    "scalar-ablation": ("sim.filtered.replay_capture",),
}
#: Kernels whose declines route ``scalar-ablation`` onto the scalar
#: replays; the traced run there must see at least one decline.
REPLAY_KERNELS = ("sim.vector_replay.replay_capture_vector",
                  "sim.vector_replay_slip.replay_capture_vector_slip")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        if layer.outcome == DECLINES:
            units[f"{layer.name}.declines"] = "count"
        elif layer.outcome == HIT_RATIO:
            units[f"{layer.name}.hit_ratio"] = "ratio"
    units[OVERHEAD_METRIC] = "ratio"
    return units


def _resolve(dotted: str):
    """The object at ``repro.<dotted>``, or ``None`` if it is gone."""
    parts = f"repro.{dotted}".split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _repro_modules():
    """Every loaded module of the ``repro`` package."""
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


class Tracer:
    """Installs the layer wrappers and records spans while installed."""

    def __init__(self) -> None:
        #: (layer index, start, end, parent span index or -1, cell id)
        self.spans: List[Tuple[int, float, float, int, str]] = []
        self.cell = ""
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._outcomes: Dict[int, List[int]] = {}  # layer -> [calls, hits]
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for index, layer in enumerate(LAYERS):
            owner_path, attr = layer.name.rsplit(".", 1)
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.absent.append(layer.name)
                continue
            traced = self._wrap(index, layer, original)
            self._patch(owner, attr, traced)
            # A module that imported the function by name calls its own
            # binding. Patch every binding of this very object, under
            # any name, so a same-named local helper is never replaced.
            for module in _repro_modules():
                if module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, index: int, layer: Layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = layer.outcome
        tally = self._outcomes.setdefault(index, [0, 0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append((index, 0.0, 0.0, parent, self.cell))
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.cell)
            if outcome is not None:
                tally[0] += 1
                if result is not None and result is not False:
                    tally[1] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.name)
        return traced

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, self time and outcome counts of the spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer.name: {"calls": 0, "self_s": 0.0}
                  for layer in LAYERS}
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            entry = totals[LAYERS[index].name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[slot]
        for index, (calls, hits) in self._outcomes.items():
            layer = LAYERS[index]
            entry = totals[layer.name]
            if layer.outcome == DECLINES:
                entry["declines"] = calls - hits
            elif layer.outcome == HIT_RATIO:
                entry["hit_ratio"] = hits / calls if calls else 0.0
        return totals

    def span_records(self) -> List[Dict]:
        return [
            {"layer": LAYERS[index].name, "start": start, "end": end,
             "parent": parent, "cell": cell}
            for index, start, end, parent, cell in self.spans
        ]


def guard_failures(workload: str, totals: Dict[str, Dict[str, float]],
                   absent: List[str]) -> List[str]:
    """Predicted layer uses that did not happen on this workload."""
    problems = [
        f"{name} never fired on {workload}"
        for name in PREDICTED_USE.get(workload, ())
        if name not in absent and totals[name]["calls"] == 0
    ]
    if workload == "scalar-ablation":
        declines = sum(totals[name].get("declines", 0)
                       for name in REPLAY_KERNELS if name not in absent)
        if declines == 0:
            problems.append("no replay-kernel decline on scalar-ablation")
    return problems
