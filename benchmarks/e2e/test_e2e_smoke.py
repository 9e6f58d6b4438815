"""Smoke test of the end-to-end benchmark, at a tiny length.

Not part of the tier-1 suite; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
TINY_LENGTH = 3_000


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    record, summary = run.run_workload(workload, seed=3, seconds=0,
                                       trace=trace, length=TINY_LENGTH)
    assert summary["correct"], record["failures"]
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"]
               for name, entry in summary["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("parent, change, expected", [
    ([100.0] * 10, [110.0] * 10, "improved"),
    ([100.0] * 10, [80.0] * 10, "regressed"),
    ([100.0, 150.0] * 5, [100.0, 150.0] * 5, "unresolved"),
    ([100.0] * 10, [101.0] * 8 + [99.0] * 2, "unchanged"),
    ([100.0] * 9, [110.0] * 9, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "higher", 0.1)[0] == expected


def test_run_refuses_other_budget():
    other = str(SPEC["run_seconds"] + 1)
    assert run.main(["--workload", "sweep", "--seconds", other]) == 2


def _write_runs(path, seeds, failures=()):
    metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    lines = [json.dumps({"record": "e2e-run", "workload": "sweep",
                         "seed": seed, "trace": 0, "seconds": 1,
                         "started_at": float(seed), "metrics": metrics,
                         "failures": list(failures)})
             for seed in seeds]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_compare_failed_change_regresses(tmp_path, capsys):
    parent = _write_runs(tmp_path / "parent", range(10))
    change = _write_runs(tmp_path / "change", range(10), ["a/b: raised"])
    assert compare.main([parent, change]) == 1
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    verdicts = [row[-1] for row in rows if row[:1] == ["sweep"]
                and row[1] in metrics]
    assert verdicts == ["regressed"] * len(metrics)


def test_compare_refuses_unequal_seeds(tmp_path):
    parent = _write_runs(tmp_path / "parent", range(10))
    change = _write_runs(tmp_path / "change", range(1, 11))
    assert compare.main([parent, change]) == 2
