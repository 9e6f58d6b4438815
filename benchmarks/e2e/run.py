#!/usr/bin/env python3
"""End-to-end simulator benchmark: one workload per fresh process.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload sweep --seed 0
    python3 benchmarks/e2e/run.py --workload direct --seed 7 --trace 1
    python3 benchmarks/e2e/run.py --all --seed 0

One run sets up (imports, trace generation for every cell, one tiny
warm-up cell per cell shape), then times whole passes over the
workload's cells -- a closed loop, one cell at a time, in-process, no
pool -- until ``run_seconds`` of ``BENCHMARK.json`` is used up (always
at least one pass). The budget is fixed by that file, so every run of
a commit times the same amount; ``--seconds`` may restate it and is
refused if it differs. The capture store is emptied before every pass,
so each pass is cold. Outputs are checked after timing: against the
committed seed-0 digests, across passes, and by re-running one sampled
cell through an independent path. ``--trace 1`` instead runs three
passes (untraced, traced, untraced, whatever the budget) and reports
per-layer metrics instead of end-to-end ones.

Standard output ends with two JSON lines: a detailed record (stamped
with the commit, versions, CPU count and load), then the summary
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every check passed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests-seed0.json"
SPANS_DIR = HERE / "out"
WORKLOADS = ("sweep", "direct", "multicore", "scalar-ablation")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes that repeat set-up alone; with the run's own set-up
#: they give the median reported as ``setup_s``.
SETUP_PROBES = 4
#: Iterations of the calibration loop timed around each cell (~9 ms).
CALIBRATION_LOOPS = 60_000
#: ``setup_s`` is set-up time on a host that runs the calibration loop
#: in this many seconds (about a 2-vCPU x86 container with Python 3.11).
#: Scaling by the loop's speed measured around set-up removes most of
#: what co-tenants add to the wall time.
NOMINAL_CALIBRATION_S = 0.008

END_TO_END_UNITS = {"accesses_per_kloop": "1/kloop", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def repro_variables():
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def prepare_environment() -> None:
    """Pin BLAS threads before numpy loads; put ``src`` on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())
               ["run_seconds"])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: the host's speed right now.

    Co-tenants on a shared machine slow the interpreter by tens of
    percent for minutes at a time, and CPU time slows with wall time.
    Timing this loop next to each cell and around set-up expresses
    simulator speed and set-up time relative to the host's current
    interpreter speed, which such slowdowns move far less than they
    move wall-clock figures.
    """
    table, slots = {}, [0] * 64
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        slots[i & 63] += key
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int, length=None):
    """Build the workload, generate its traces, run the warm-up cells."""
    import workloads
    from repro.workloads.capture_store import reset_default_store

    build = workloads.BUILDERS[name]
    workload = build(seed) if length is None else build(seed, length)
    workloads.generate_traces(workload)
    for request in workloads.warmup_requests(workload, seed):
        workloads.execute(request)
    reset_default_store()
    gc.collect()
    return workload


def timed_set_up(name: str, seed: int, length, started: float):
    """Set up; return ``(workload, nominal seconds, wall seconds)``.

    The wall time runs from ``started`` to the end of set-up, less the
    calibration loop timed first. The nominal time scales it by the
    loop's speed before and after set-up (see NOMINAL_CALIBRATION_S).
    """
    before = calibration_seconds()
    prepare_environment()
    workload = set_up(name, seed, length)
    wall = time.perf_counter() - started - before
    after = calibration_seconds()
    return workload, wall * NOMINAL_CALIBRATION_S * 2 / (before + after), wall


#: Body of a set-up probe: a fresh interpreter that imports this file,
#: sets up once and prints ``[nominal, wall]`` seconds as its last line.
#: The clock starts before the import, as ``_STARTED`` does in a run.
_PROBE_SOURCE = """\
import time
started = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import run
name, seed, length = sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4])
print(json.dumps(run.timed_set_up(name, seed, length, started)[1:]))
"""


def probe_setup_times(name: str, seed: int, length, count: int):
    """``(nominal, wall)`` set-up seconds of ``count`` fresh child
    processes, one at a time; each is waited for before the next."""
    command = [sys.executable, "-c", _PROBE_SOURCE, str(HERE), name,
               str(seed), json.dumps(length)]
    times = []
    for _ in range(count):
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=120)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe exited {child.returncode}")
        nominal, wall = json.loads(lines[-1])
        times.append((nominal, wall))
    return times


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------
class Pass:
    """One timed pass over every cell of a workload."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0
        self.cell_s = []
        #: The calibration loop, timed before each cell and after the last.
        self.calibration_s = []
        self.results = []  # result object, or None when the cell raised
        self.errors = {}

    @property
    def busy(self) -> float:
        return sum(self.cell_s)

    def cell_kloops(self, i: int) -> float:
        """Cell ``i``'s time in units of 1000 calibration iterations, at
        the mean speed of the loops timed just before and after it."""
        around = (self.calibration_s[i] + self.calibration_s[i + 1]) / 2
        return self.cell_s[i] / around * CALIBRATION_LOOPS / 1000


def run_pass(workload, tracer=None) -> Pass:
    import workloads
    from repro.workloads.capture_store import reset_default_store

    reset_default_store()
    gc.collect()
    record = Pass(traced=tracer is not None)
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        started = clock()
        for cell in workload.cells:
            if tracer is not None:
                tracer.cell = cell.cid
            record.calibration_s.append(calibration_seconds())
            cell_started = clock()
            try:
                result = workloads.execute(cell.request)
            except Exception:  # a failed cell is counted, not fatal
                result = None
                record.errors[cell.cid] = traceback.format_exc()
            record.cell_s.append(clock() - cell_started)
            record.results.append(result)
        record.calibration_s.append(calibration_seconds())
        record.wall = clock() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return record


def timed_phase(workload, seconds: float, tracer=None):
    """The timed passes, and the peak RSS (MB) after the first one.

    Untraced: passes until another one would overrun ``seconds``
    (always at least one). Traced: untraced, traced, untraced, so the
    tracing overhead is measured against both neighbours and a drift
    across the run cancels.
    """
    passes = [run_pass(workload)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        passes += [run_pass(workload, tracer), run_pass(workload)]
        return passes, peak_rss_mb
    elapsed = passes[0].wall
    while elapsed + passes[-1].wall <= seconds:
        passes.append(run_pass(workload))
        elapsed += passes[-1].wall
    return passes, peak_rss_mb


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def check_outputs(workload, passes, seed: int, length):
    """Failed executions and their reasons, from every timed pass.

    A cell execution fails if it raised, if its digest differs from the
    committed seed-0 digest (seed 0 at the default length), or if it
    differs from the same cell's digest in the first pass. The sampled
    cell is then re-run outside the timed phase: single-core cells
    through the reference walk, mixes through the same entry point
    (a repeatability check only; mixes have no second path).
    """
    import workloads

    expected = {}
    if seed == 0 and length is None:
        expected = load_digests().get(workload.name, {})
        if not expected:
            return 1, [f"{DIGESTS.name} has no digests for {workload.name}"]
    failures = []
    first = {}
    for record in passes:
        for cell, result in zip(workload.cells, record.results):
            if result is None:
                failures.append(f"{cell.cid}: raised\n"
                                f"{record.errors[cell.cid]}")
                continue
            value = workloads.digest(result)
            first.setdefault(cell.cid, value)
            if expected and expected.get(cell.cid) != value:
                failures.append(f"{cell.cid}: digest differs from "
                                f"{DIGESTS.name}")
            elif first[cell.cid] != value:
                failures.append(f"{cell.cid}: digest differs between passes")

    cell = workloads.sampled_cell(workload, seed)
    if cell.cid in first:
        again = workloads.recheck(workload, cell)
        if workloads.digest(again) != first[cell.cid]:
            failures.append(f"{cell.cid}: {workload.check} re-run differs")
    return len(failures), failures


def record_digests(name: str) -> int:
    """Re-record one workload's seed-0 digests after checking every cell.

    Every single-core cell must equal its reference walk and every mix
    must repeat; only then are the digests written.
    """
    import workloads

    workload = set_up(name, 0)
    record = run_pass(workload)
    table = {}
    for cell, result in zip(workload.cells, record.results):
        if result is None:
            print(f"{cell.cid}: raised\n{record.errors[cell.cid]}",
                  file=sys.stderr)
            return 1
        value = workloads.digest(result)
        if workloads.digest(workloads.recheck(workload, cell)) != value:
            print(f"{cell.cid}: {workload.check} re-run differs; "
                  f"not recording", file=sys.stderr)
            return 1
        table[cell.cid] = value
    digests = load_digests()
    digests[name] = table
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests for {name}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 length=None, started=None, spans_path=None):
    """Set up, time, check; return ``(detail record, summary)``.

    ``length`` overrides every cell's access count (for smoke tests);
    ``started`` is when the process began set-up (default: now).
    """
    started = time.perf_counter() if started is None else started
    started_at = time.time()
    workload, setup_s, setup_wall_s = timed_set_up(name, seed, length,
                                                   started)
    import tracing

    tracer = tracing.Tracer() if trace else None
    load_before = os.getloadavg()
    passes, peak_rss_mb = timed_phase(workload, seconds, tracer)
    load_after = os.getloadavg()

    failed, failures = check_outputs(workload, passes, seed, length)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(workload.cells) * len(passes)

    # Per-cell medians over passes, so a noisy pass moves one sample.
    cells = range(len(workload.cells))
    cell_s = [statistics.median(p.cell_s[i] for p in untraced)
              for i in cells]

    metrics, units, detail = {}, {}, {}
    if trace:
        units = tracing.metric_units()
        totals = tracer.layer_totals()
        for layer, values in totals.items():
            for kind in ("calls", "self_s", "declines", "hit_ratio"):
                metric = f"{layer}.{kind}"
                if metric in units:
                    metrics[metric] = values.get(kind, 0)
        traced_busy = traced[0].busy
        metrics[tracing.OVERHEAD_METRIC] = (
            traced_busy / statistics.mean(p.busy for p in untraced) - 1.0)
        detail["self_share"] = {
            layer: values["self_s"] / traced_busy
            for layer, values in totals.items() if values["calls"]
        }
        detail["absent"] = tracer.absent
        guard = tracing.guard_failures(name, totals, tracer.absent)
        detail["guard_failures"] = guard
        failures = failures + guard
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.span_records()))
    else:
        cell_kloops = [statistics.median(p.cell_kloops(i) for p in untraced)
                       for i in cells]
        ok_cells = [i for i in cells
                    if all(p.results[i] is not None for p in untraced)]
        accesses = sum(workload.cells[i].accesses for i in ok_cells)
        busy = sum(cell_s[i] for i in ok_cells)
        busy_kloops = sum(cell_kloops[i] for i in ok_cells)
        probes = probe_setup_times(name, seed, length, SETUP_PROBES)
        units = dict(END_TO_END_UNITS)
        metrics = {
            "accesses_per_kloop": (accesses / busy_kloops
                                   if busy_kloops > 0 else 0.0),
            "setup_s": statistics.median(
                [setup_s] + [nominal for nominal, _ in probes]),
            "peak_rss_mb": peak_rss_mb,
        }
        # Wall-clock figures, kept for reading: co-tenant noise moves
        # them too much between runs to gate on.
        detail["accesses_per_s"] = accesses / busy if busy > 0 else 0.0
        detail["setup_samples_s"] = (
            [setup_s] + [nominal for nominal, _ in probes])
        detail["setup_wall_samples_s"] = (
            [setup_wall_s] + [wall for _, wall in probes])

    correct = not failures
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    stamp = environment_stamp()
    stamp["loadavg_before"] = list(load_before)
    stamp["loadavg_after"] = list(load_after)
    record = {
        "record": "e2e-run",
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "started_at": started_at,
        "env": stamp,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "cells_failed_frac": failed / attempted,
        "metrics": metrics,
        "cell_s": {cell.cid: s for cell, s in zip(workload.cells, cell_s)},
        "failures": failures,
        **detail,
    }
    return record, summary


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase budget; must equal run_seconds "
                             "of BENCHMARK.json, which is always used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "pass instead of end-to-end metrics")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record the workload's seed-0 digests "
                             "after checking every cell")
    return parser.parse_args(argv)


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    leaked = repro_variables()
    if leaked:
        print("refusing to run: these variables switch simulator code "
              "paths or stores and make runs incomparable: "
              + ", ".join(leaked), file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = run_seconds()
    if args.seconds is not None and args.seconds != seconds:
        print(f"refusing to run: --seconds {args.seconds:g} differs from "
              f"run_seconds {seconds} of BENCHMARK.json; every run of a "
              f"commit times the same budget", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    prepare_environment()
    if args.record_digests:
        return record_digests(args.workload)

    spans_path = None
    if args.trace:
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    record, summary = run_workload(args.workload, args.seed, seconds,
                                   bool(args.trace), started=_STARTED,
                                   spans_path=spans_path)
    for failure in record["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    for metric, entry in summary["metrics"].items():
        print(f"{args.workload:>15} {metric:<60} {entry['value']:.6g} "
              f"{entry['unit']}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(summary))
    sys.stdout.flush()
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
