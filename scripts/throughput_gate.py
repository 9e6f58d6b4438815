#!/usr/bin/env python
"""Throughput regression gate for the simulator's hot paths.

Re-times eight cells from the throughput microbenchmark module (one
drive, one sweep, two replay, two capture and two store-less cells)
and compares each against the mean recorded in
``BENCH_throughput.json`` at the repo root:

* the ``slip_abp`` drive — the scalar reference walk, through the
  primitive-built placement fills; a reintroduced per-access
  allocation shows up here long before any paper figure moves. Since
  74a4467 deleted the walk's fused placement fills, the walk serves
  only the tests, the end-to-end benchmark's correctness re-check and
  cells that decline ``native-unavailable``; no experiment cell pays
  for it, and the recorded mean predates that change;
* the serial sweep (``sweep(jobs=1)`` over the 2x3 benchmark/policy
  grid) — the filtered-replay path; a broken capture store or a replay
  falling back to direct simulation shows up here;
* warm slip and slip_abp replay cells — the phase-split SLIP kernel
  specifically; a decline regression (kernel silently falling back to
  the scalar replay) roughly doubles these without moving the
  baseline cells;
* cold front-end captures of both bench traces — the batched
  vector_frontend kernel, the cost every cold sweep cell pays before
  its first replay (a kernel decline raises);
* store-less ``run_trace`` runs of the soplex baseline and slip_abp
  cells — a store-less run keeps no capture, so every call times the
  capture kernel and a kernel replay; a decline regression here
  converges on the scalar drive's cost (several times slower).

Fails (exit 1) when any of the eight measurements exceeds its recorded
mean by more than the tolerance (default 20%).

The measurement is best-of-N (default 3): on a shared machine the
*minimum* is the statistic least polluted by co-tenant noise, and a
genuine slowdown raises the minimum just the same.

Usage::

    python scripts/throughput_gate.py
    python scripts/throughput_gate.py --tolerance 0.2 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_throughput.json")
BENCH_NAME = "test_throughput_slip_abp"
SWEEP_BENCH_NAME = "test_sweep_throughput_serial"
REPLAY_CELLS = (("soplex", "slip"), ("soplex", "slip_abp"))
CAPTURE_CELLS = ("soplex", "lbm")
DIRECT_CELLS = (("soplex", "baseline"), ("soplex", "slip_abp"))


def replay_bench_name(bench: str, policy: str) -> str:
    return f"test_replay_cell[{bench}-{policy}]"


def capture_bench_name(bench: str) -> str:
    return f"test_capture_cell[{bench}]"


def direct_bench_name(bench: str, policy: str) -> str:
    return f"test_direct_cell[{bench}-{policy}]"


def recorded_mean_s(path: str, name: str) -> float:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    for bench in payload["benchmarks"]:
        if bench["name"] == name:
            return float(bench["stats"]["mean"])
    raise KeyError(f"{name} not found in {path}")


def _import_bench():
    # Called once per gate; make the path setup idempotent so repeated
    # calls don't keep prepending duplicate entries to sys.path.
    for entry in (os.path.join(REPO_ROOT, "src"),
                  os.path.join(REPO_ROOT, "benchmarks")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import bench_simulator_throughput

    return bench_simulator_throughput


def measure_best_s(repeats: int) -> float:
    bench = _import_bench()
    best = float("inf")
    bench.drive("slip_abp")  # warmup: one-time import/allocator costs
    for _ in range(repeats):
        started = time.perf_counter()
        accesses = bench.drive("slip_abp")
        elapsed = time.perf_counter() - started
        if accesses != bench.N:
            raise AssertionError(
                f"drive returned {accesses}, want {bench.N}")
        best = min(best, elapsed)
    return best


def measure_best_sweep_s(repeats: int) -> float:
    bench = _import_bench()
    expected = bench.N * len(bench.SWEEP_GRID)
    best = float("inf")
    bench.sweep(1)  # warmup round also fills the capture store
    for _ in range(repeats):
        started = time.perf_counter()
        accesses = bench.sweep(1)
        elapsed = time.perf_counter() - started
        if accesses != expected:
            raise AssertionError(
                f"sweep returned {accesses}, want {expected}")
        best = min(best, elapsed)
    return best


def make_measure_replay_s(cell_bench: str, policy: str):
    def measure(repeats: int) -> float:
        bench = _import_bench()
        replay = bench.make_replay_cell(cell_bench, policy)
        best = float("inf")
        replay()  # warmup: first kernel call pays code-table builds
        for _ in range(repeats):
            started = time.perf_counter()
            accesses = replay()
            elapsed = time.perf_counter() - started
            if accesses != bench.MEASURED:
                raise AssertionError(
                    f"replay returned {accesses}, want {bench.MEASURED}")
            best = min(best, elapsed)
        return best

    return measure


def make_measure_direct_s(cell_bench: str, policy: str):
    def measure(repeats: int) -> float:
        bench = _import_bench()
        direct = bench.make_direct_cell(cell_bench, policy)
        best = float("inf")
        direct()  # warmup: the first call pays one-time set-up costs
        for _ in range(repeats):
            started = time.perf_counter()
            accesses = direct()
            elapsed = time.perf_counter() - started
            if accesses != bench.MEASURED:
                raise AssertionError(
                    f"direct run returned {accesses}, "
                    f"want {bench.MEASURED}")
            best = min(best, elapsed)
        return best

    return measure


def make_measure_capture_s(cell_bench: str):
    def measure(repeats: int) -> float:
        bench = _import_bench()
        capture = bench.make_capture_cell(cell_bench)
        best = float("inf")
        capture()  # warmup: first call pays trace synthesis costs
        for _ in range(repeats):
            started = time.perf_counter()
            n = capture()
            elapsed = time.perf_counter() - started
            if n != bench.N:
                raise AssertionError(
                    f"capture covered {n} accesses, want {bench.N}")
            best = min(best, elapsed)
        return best

    return measure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fraction above the recorded mean "
                             "(default 0.20)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs; the best is compared "
                             "(default 3)")
    parser.add_argument("--bench-json", default=BENCH_JSON,
                        help="recorded benchmark file "
                             "(default: repo-root BENCH_throughput.json)")
    args = parser.parse_args(argv)

    gates = (
        ("slip_abp", BENCH_NAME, measure_best_s),
        ("sweep-serial", SWEEP_BENCH_NAME, measure_best_sweep_s),
    ) + tuple(
        (f"replay-{b}-{p}", replay_bench_name(b, p),
         make_measure_replay_s(b, p))
        for b, p in REPLAY_CELLS
    ) + tuple(
        (f"capture-{b}", capture_bench_name(b),
         make_measure_capture_s(b))
        for b in CAPTURE_CELLS
    ) + tuple(
        (f"direct-{b}-{p}", direct_bench_name(b, p),
         make_measure_direct_s(b, p))
        for b, p in DIRECT_CELLS
    )
    failed = False
    for label, name, measure in gates:
        try:
            recorded = recorded_mean_s(args.bench_json, name)
        except (OSError, KeyError, ValueError) as exc:
            print(f"throughput-gate: cannot read recorded mean: {exc}",
                  file=sys.stderr)
            return 2
        measured = measure(args.repeats)
        limit = recorded * (1.0 + args.tolerance)
        verdict = "OK" if measured <= limit else "FAIL"
        failed = failed or measured > limit
        print(f"throughput-gate: {label} best-of-{args.repeats} "
              f"{measured * 1000:.1f} ms vs recorded mean "
              f"{recorded * 1000:.1f} ms "
              f"(limit {limit * 1000:.1f} ms): {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
