#!/usr/bin/env bash
# One-shot pre-merge gate for this repo. Runs the tier-1 test suite,
# the slip-lint and slip-audit static checks (plus ruff when it is
# installed), and a determinism smoke (fixed-seed byte-identity of the
# CLI across serial and parallel runs).
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the full pytest run; lint + determinism smoke only.
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
    stage "tier-1 tests (pytest)" python -m pytest -q tests/
fi

stage "slip-lint (static checks)" python -m repro.analysis.lint src/

stage "slip-audit (twin-path + taint)" python -m repro.analysis.audit src/

# Generic python lint, only when the tool exists in the environment
# (the CI image does not ship ruff; a missing linter is a skip, not a
# failure).
if command -v ruff >/dev/null 2>&1; then
    stage "ruff (generic python lint)" ruff check src/ tests/ scripts/
else
    echo "==> ruff (generic python lint)"
    echo "    SKIP: ruff not installed"
fi

# Throughput regression gates: re-time the slip_abp drive, the serial
# (filtered-replay) sweep, the warm slip/slip_abp replay cells, the
# cold front-end captures and the composed direct runs; fail if any
# lands >20% above the mean recorded in BENCH_throughput.json.
stage "throughput gate (slip_abp + sweep + replay + capture + direct)" \
    python scripts/throughput_gate.py

# Filtered-replay smoke: one capture-through cell plus one replayed
# SLIP cell must be byte-identical to their scalar runs. The reference
# side pins REPRO_DIRECT_PIPELINE=0 so run_trace really is the scalar
# golden walk, not the composed kernel pipeline it now defaults to.
filtered_smoke() {
    python - <<'EOF'
import json
import os
from repro.sim.filtered import run_trace_filtered
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

trace = make_trace("soplex", 4000)
store = MemoryCaptureStore()
for policy in ("baseline", "slip_abp"):
    os.environ["REPRO_DIRECT_PIPELINE"] = "0"
    scalar = json.dumps(run_trace(trace, policy).to_json(),
                        sort_keys=True)
    del os.environ["REPRO_DIRECT_PIPELINE"]
    filtered = json.dumps(
        run_trace_filtered(trace, policy, store=store).to_json(),
        sort_keys=True)
    assert scalar == filtered, f"{policy}: filtered != scalar"
    composed = json.dumps(run_trace(trace, policy).to_json(),
                          sort_keys=True)
    assert composed == scalar, f"{policy}: direct pipeline != scalar"
assert len(store._entries) == 1, "capture was not shared"
EOF
}
stage "filtered-replay smoke (filtered == direct == scalar)" filtered_smoke

# Replay-plan smoke: plans on (the default) and plans off must replay
# byte-identically for a baseline-kind and a slip-kind cell, through
# both kernels, from one shared capture.
plan_smoke() {
    python - <<'EOF'
import json
import os
from repro.sim.filtered import run_trace_filtered
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

def canon(result):
    return json.dumps(result.to_json(), sort_keys=True)

trace = make_trace("soplex", 4000)
store = MemoryCaptureStore()
for policy in ("baseline", "slip_abp"):
    run_trace_filtered(trace, policy, store=store)  # capture-through
    os.environ["REPRO_REPLAY_PLAN"] = "0"
    unplanned = canon(run_trace_filtered(trace, policy, store=store))
    os.environ["REPRO_REPLAY_PLAN"] = "1"
    planned = canon(run_trace_filtered(trace, policy, store=store))
    assert planned == unplanned, f"{policy}: planned != unplanned"
del os.environ["REPRO_REPLAY_PLAN"]
EOF
}
stage "replay-plan smoke (planned == unplanned)" plan_smoke

# Vector-replay smoke: every eligible policy kind replayed through the
# batched numpy kernel must serialize byte-identically to the scalar
# replay of the same capture.
vector_smoke() {
    python - <<'EOF'
import json
import os
from repro.sim.filtered import run_trace_filtered
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

def canon(result):
    return json.dumps(result.to_json(), sort_keys=True)

trace = make_trace("soplex", 4000)
store = MemoryCaptureStore()
for policy in ("baseline", "nurapid", "lru_pea"):
    os.environ["REPRO_VECTOR_REPLAY"] = "0"
    run_trace_filtered(trace, policy, store=store)  # capture-through
    scalar = canon(run_trace_filtered(trace, policy, store=store))
    os.environ["REPRO_VECTOR_REPLAY"] = "1"
    vector = canon(run_trace_filtered(trace, policy, store=store))
    assert vector == scalar, f"{policy}: vector != scalar"
del os.environ["REPRO_VECTOR_REPLAY"]
EOF
}
stage "vector-replay smoke (vector == scalar)" vector_smoke

# SLIP vector-replay smoke: both slip-runtime kinds replayed through
# the phase-split kernel must serialize byte-identically to the scalar
# replay of the same capture, and the kernel must actually run (no
# silent decline to the scalar walk).
slip_vector_smoke() {
    python - <<'EOF'
import json
import os
from repro.sim.build import build_hierarchy
from repro.sim.config import default_system
from repro.sim.filtered import run_trace_filtered
from repro.sim.vector_replay_slip import slip_eligible
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

def canon(result):
    return json.dumps(result.to_json(), sort_keys=True)

trace = make_trace("soplex", 4000)
store = MemoryCaptureStore()
for policy in ("slip", "slip_abp"):
    assert slip_eligible(build_hierarchy(default_system(), policy)), \
        f"{policy}: kernel declines the default hierarchy"
    os.environ["REPRO_VECTOR_REPLAY"] = "0"
    run_trace_filtered(trace, policy, store=store)  # capture-through
    scalar = canon(run_trace_filtered(trace, policy, store=store))
    os.environ["REPRO_VECTOR_REPLAY"] = "1"
    vector = canon(run_trace_filtered(trace, policy, store=store))
    assert vector == scalar, f"{policy}: slip vector != scalar"
del os.environ["REPRO_VECTOR_REPLAY"]
EOF
}
stage "slip vector-replay smoke (vector == scalar)" slip_vector_smoke

# Front-end capture smoke: the batched TLB+L1 kernel must produce a
# byte-identical capture to the scalar walk (arrays, frozen stats and
# boundaries), must not decline the default hierarchy, and a cold cell
# fed by the kernel must serialize identically to the scalar cold path.
frontend_smoke() {
    python - <<'EOF'
import json
import os
import numpy as np
from repro.sim.build import build_hierarchy
from repro.sim.config import default_system
from repro.sim.filtered import capture_front_end, run_trace_filtered
from repro.sim.vector_frontend import frontend_eligible
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import _ARRAY_NAMES, MemoryCaptureStore

config = default_system()
trace = make_trace("soplex", 4000)
assert frontend_eligible(build_hierarchy(config, "baseline")), \
    "kernel declines the default hierarchy"
os.environ["REPRO_VECTOR_FRONTEND"] = "0"
scalar = capture_front_end(trace, config)
os.environ["REPRO_VECTOR_FRONTEND"] = "1"
vector = capture_front_end(trace, config)
assert (vector.n, vector.warmup, vector.event_boundary) == \
    (scalar.n, scalar.warmup, scalar.event_boundary), "boundaries"
for name in _ARRAY_NAMES:
    assert np.array_equal(getattr(vector, name), getattr(scalar, name)), name
assert json.dumps(vector.frozen, sort_keys=True) == \
    json.dumps(scalar.frozen, sort_keys=True), "frozen stats"

def cold_cell():
    result = run_trace_filtered(trace, "baseline",
                                store=MemoryCaptureStore())
    return json.dumps(result.to_json(), sort_keys=True)

os.environ["REPRO_VECTOR_FRONTEND"] = "0"
want = cold_cell()
os.environ["REPRO_VECTOR_FRONTEND"] = "1"
assert cold_cell() == want, "cold kernel cell != scalar cold cell"
del os.environ["REPRO_VECTOR_FRONTEND"]
EOF
}
stage "vector-frontend smoke (kernel == scalar capture)" frontend_smoke

# Determinism smoke: same figure, same seed, serial vs parallel must
# emit byte-identical results once timing lines ([...]) are stripped.
det_smoke() {
    local out1 out4
    out1="$(python -m repro.experiments.runner fig01 --length 2000 --jobs 1 \
        | grep -v '^\[')" || return 1
    out4="$(python -m repro.experiments.runner fig01 --length 2000 --jobs 4 \
        | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ] || return 1
    # Fig. 16 runs the multicore capture/replay path.
    out1="$(python -m repro.experiments.runner fig16 --length 2000 --jobs 1 \
        | grep -v '^\[')" || return 1
    out4="$(python -m repro.experiments.runner fig16 --length 2000 --jobs 2 \
        | grep -v '^\[')" || return 1
    [ "$out1" = "$out4" ]
}
stage "determinism smoke (serial == parallel)" det_smoke

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
fi
echo "check.sh: all stages passed"
