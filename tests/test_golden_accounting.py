"""Golden accounting-equivalence tests for the hot-path rewrite.

Every path that serves a single-core cell — the kernels behind
``run_benchmark`` and the scalar reference walk (per-way tables,
deferred event-count energy) — must be *byte-identical* in its
published accounting to the pre-refactor primitive-by-primitive code.
These tests pin that down: each snapshot under
``tests/data/golden_accounting/`` is the exact ``RunResult.to_json()``
produced by the pre-refactor tree for the same (benchmark, policy,
length, seed) cell, and both ``run_benchmark`` and the driver's scalar
walk (``walk_cores``) must reproduce it to the byte.

If a deliberate accounting change ever invalidates these, regenerate
the snapshots with the loop below and call the change out in the PR:

    from repro.sim.single_core import run_benchmark
    run_benchmark(bench, policy, length=20_000, seed=0).to_json() + "\n"

The multicore snapshots under ``tests/data/golden_multicore/`` pin the
Figure 16 shared-L3 results the same way: each is the canonical JSON of
the per-access walk's ``MulticoreResult`` (4k accesses per core, seed
0), and both the capture/replay entry point and the walk must reproduce
it:

    json.dumps(asdict(run_mix(mix, policy, length_per_core=4_000)),
               sort_keys=True) + "\n"
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

import pytest

from repro.sim.multi_core import run_mix
from repro.sim.single_core import run_benchmark
from repro.workloads.benchmarks import make_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden_accounting"
MULTICORE_DIR = pathlib.Path(__file__).parent / "data" / "golden_multicore"

CELLS = [
    ("soplex", "baseline"),
    ("soplex", "slip"),
    ("soplex", "slip_abp"),
    ("lbm", "baseline"),
    ("lbm", "slip"),
    ("lbm", "slip_abp"),
]


MULTICORE_CELLS = [
    (("soplex", "mcf"), "baseline"),
    (("soplex", "mcf"), "nurapid"),
    (("soplex", "mcf"), "lru_pea"),
    (("soplex", "mcf"), "slip_abp"),
    (("lbm", "gcc"), "baseline"),
    (("lbm", "gcc"), "slip_abp"),
]
MULTICORE_LENGTH = 4_000


def _assert_bytes_equal(label: str, actual: str, expected: str) -> None:
    if actual != expected:
        # Pinpoint the first divergence rather than dumping two ~10 KB
        # JSON blobs at each other.
        idx = next(
            (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
            min(len(actual), len(expected)),
        )
        lo, hi = max(0, idx - 60), idx + 60
        pytest.fail(
            f"{label} diverges from golden snapshot at byte "
            f"{idx}:\n  golden:  ...{expected[lo:hi]!r}...\n"
            f"  current: ...{actual[lo:hi]!r}..."
        )


# The run_benchmark cases keep their bare "bench-policy" ids.
@pytest.mark.parametrize("bench,policy,path", [
    pytest.param(b, p, path, id=f"{b}-{p}" + ("-walk" if path == "walk"
                                              else ""))
    for path in ("run_benchmark", "walk") for b, p in CELLS
])
def test_golden_run_result_bytes(bench: str, policy: str, path: str,
                                 scalar_run) -> None:
    expected = (GOLDEN_DIR / f"{bench}_{policy}.json").read_text()
    if path == "run_benchmark":
        result = run_benchmark(bench, policy, length=20_000, seed=0)
    else:
        result = scalar_run(make_trace(bench, 20_000, 0), policy)
    _assert_bytes_equal(f"{bench}/{policy} ({path})",
                        result.to_json() + "\n", expected)


def test_golden_snapshots_exist() -> None:
    """The parametrized cells must cover every checked-in snapshot."""
    snapshots = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert snapshots == {f"{b}_{p}" for b, p in CELLS}


@pytest.mark.parametrize("path", ["run_mix", "walk"])
@pytest.mark.parametrize("mix,policy", MULTICORE_CELLS)
def test_golden_multicore_bytes(mix, policy: str, path: str,
                                walked) -> None:
    name = f"{'+'.join(mix)}_{policy}"
    expected = (MULTICORE_DIR / f"{name}.json").read_text()
    if path == "run_mix":
        result = run_mix(mix, policy, length_per_core=MULTICORE_LENGTH)
    else:
        with walked():
            result = run_mix(mix, policy, length_per_core=MULTICORE_LENGTH)
    _assert_bytes_equal(f"{name} ({path})",
                        json.dumps(asdict(result), sort_keys=True) + "\n",
                        expected)


def test_golden_multicore_snapshots_exist() -> None:
    snapshots = {p.stem for p in MULTICORE_DIR.glob("*.json")}
    assert snapshots == {f"{'+'.join(m)}_{p}" for m, p in MULTICORE_CELLS}
