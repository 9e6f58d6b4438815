#!/usr/bin/env bash
# One-shot pre-merge gate for this repo. Runs the tier-1 test suite
# (or, with --fast, only its static tests), ruff when it is installed,
# a warnings-as-errors compile of the compiled tier (every kernel's C
# loops: the capture TLB and L1, the baseline-kind level legs and the
# SLIP sweep), the throughput gate, and a determinism smoke (fixed-seed byte-identity of the CLI
# across serial and parallel runs, plus the kernel-report lines of the
# Fig. 16 and Section 7 ablation runs).
#
# Usage: scripts/check.sh [--fast]
#   --fast   run the static tests (module boundaries, RNG seeding,
#            exact energy sums, record __slots__) instead of the full
#            pytest run; then ruff, the strict compile, the throughput
#            gate and determinism smoke.
#
# Exit code: 0 only if every stage passes. Run from anywhere; the
# script cd's to the repo root.

set -u
cd "$(dirname "$0")/.."
export PYTHONPATH=src

fast=0
if [ "${1:-}" = "--fast" ]; then
    fast=1
elif [ -n "${1:-}" ]; then
    echo "usage: scripts/check.sh [--fast]" >&2
    exit 2
fi

fail=0
stage() {
    echo "==> $1"
    shift
    if "$@"; then
        echo "    OK"
    else
        echo "    FAIL: $*" >&2
        fail=1
    fi
}

if [ "$fast" -eq 0 ]; then
    stage "tier-1 tests (pytest)" python -m pytest -q --durations=10 tests/
else
    # The tier-1 tests that stand in for a static checker: what the
    # simulator may read and load, that every RNG follows the seed,
    # that the energy totals are exactly rounded, and that the
    # per-line records carry no instance __dict__.
    stage "static tests (pytest)" python -m pytest -q \
        tests/test_module_boundaries.py tests/test_seeding.py \
        tests/test_energy_model.py::TestExactAccumulation \
        tests/test_record_slots.py
fi

# Generic python lint, only when the tool exists in the environment
# (the CI image does not ship ruff; a missing linter is a skip, not a
# failure).
if command -v ruff >/dev/null 2>&1; then
    stage "ruff (generic python lint)" ruff check src/ tests/ scripts/
else
    echo "==> ruff (generic python lint)"
    echo "    SKIP: ruff not installed"
fi

# The compiled tier: the kernels build src/repro/sim/_lru.c (the capture
# kernel's TLB and L1, the baseline-kind level legs and the SLIP
# kernel's sweep) on first use with the flags of repro.sim.native; here
# it must also compile clean under every warning.
stage "compiled tier (_lru.c: capture, level legs, SLIP sweep; -Wall -Wextra -Werror)" \
    cc -O2 -std=c99 -fPIC -Wall -Wextra -Werror -c -o /dev/null \
    src/repro/sim/_lru.c

# Throughput regression gates: re-time the slip_abp drive, the serial
# (capture/replay) sweep, the warm slip/slip_abp replay cells, the
# cold front-end captures and the store-less runs; fail if any lands
# >20% above the mean recorded in BENCH_throughput.json. Byte identity
# of every kernel against the per-access walk is pinned by pytest.
stage "throughput gate (slip_abp + sweep + replay + capture + direct)" \
    python scripts/throughput_gate.py

# Determinism smoke: same figure, same seed, serial vs parallel must
# emit byte-identical results once timing lines ([...]) are stripped.
det_smoke() {
    local out1 out4
    out1="$(python -m repro.experiments.runner fig01 --length 2000 --jobs 1 \
        | grep -v '^\[')" || return 1
    out4="$(python -m repro.experiments.runner fig01 --length 2000 --jobs 4 \
        | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ] || return 1
    # Fig. 16 runs the multicore capture/replay path. The serial run's
    # kernel report must show the back-end kernels serving every core
    # of every cell (16 cells x 2 cores) without a decline, and the
    # capture kernel running once per distinct core window: a mix's
    # slip_abp cell replays its baseline cell's captures from the
    # store, and core 1 of soplex+mcf / omnetpp+mcf (and of
    # xalancbmk+gcc / lbm+gcc) runs the same window, so 8 mixes x 2
    # cores take 14 captures.
    local raw1
    raw1="$(python -m repro.experiments.runner fig16 --length 2000 --jobs 1 \
        --kernel-report)" || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-replay: 32 kernel run(s), 0 decline(s)' \
        || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-frontend: 14 kernel run(s), 0 decline(s)' \
        || return 1
    out1="$(printf '%s\n' "$raw1" | grep -v '^\[')"
    out4="$(python -m repro.experiments.runner fig16 --length 2000 --jobs 2 \
        | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ] || return 1
    # The Section 7 replacement ablation: the SLIP kernel serves every
    # slip_abp cell under LRU, DRRIP and SHiP (4 benchmarks x 3), the
    # baseline-kind kernel the 4 LRU baseline cells, and only the
    # baseline-kind DRRIP/SHiP cells decline to the scalar replay.
    python -m repro.experiments.runner ablation-replacement --length 2000 \
        --jobs 1 --kernel-report | grep -qxF \
        '[kernel-report] vector-replay: 16 kernel run(s), 8 decline(s) [replacement:DrripReplacement/DrripReplacement=4, replacement:ShipReplacement/ShipReplacement=4]' \
        || return 1
    # The result memo: the replacement ablation's LRU rows are fig09
    # cells, so after fig09 they are served without simulating. The
    # replay kernels run fig09's 42 cells and the 8 slip_abp DRRIP/SHiP
    # cells (the 8 baseline-kind DRRIP/SHiP cells decline); the 8 LRU
    # rows run no kernel. The capture kernel runs once per benchmark.
    raw1="$(python -m repro.experiments.runner fig09 ablation-replacement \
        --length 2000 --jobs 1 --kernel-report)" || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-replay: 50 kernel run(s), 8 decline(s) [replacement:DrripReplacement/DrripReplacement=4, replacement:ShipReplacement/ShipReplacement=4]' \
        || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-frontend: 14 kernel run(s), 0 decline(s)' \
        || return 1
    out1="$(printf '%s\n' "$raw1" | grep -v '^\[')"
    out4="$(python -m repro.experiments.runner fig09 ablation-replacement \
        --length 2000 --jobs 2 | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ] || return 1
    # The Section 7 rd-block ablation: the replay kernels serve all 32
    # cells (4 benchmarks x 4 block sizes x baseline/slip_abp), and the
    # capture kernel runs once per benchmark: every block size replays
    # the page-mode capture.
    raw1="$(python -m repro.experiments.runner ablation-rdblock \
        --length 2000 --jobs 1 --kernel-report)" || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-replay: 32 kernel run(s), 0 decline(s)' \
        || return 1
    printf '%s\n' "$raw1" | grep -qxF \
        '[kernel-report] vector-frontend: 4 kernel run(s), 0 decline(s)' \
        || return 1
    out1="$(printf '%s\n' "$raw1" | grep -v '^\[')"
    out4="$(python -m repro.experiments.runner ablation-rdblock \
        --length 2000 --jobs 2 | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ]
}
stage "determinism smoke (serial == parallel)" det_smoke

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
fi
echo "check.sh: all stages passed"
