"""The compiled tier's loader (:mod:`repro.sim.native`).

``_lru.c`` is built on first use into a per-user cache keyed by a hash
of the source, the flags and the Python ABI. These tests build into a
temporary cache: a second build reuses the file without the compiler,
a changed source builds a new file, two processes building at once
leave one loadable library, and a directory others can write is never
loaded from. With no library, both kernels decline with
``native-unavailable`` and the cell walks, same bytes.
"""

import os
import subprocess
import sys

import pytest

from harness import canonical
from repro.sim import filtered, native
from repro.sim.build import build_hierarchy
from repro.sim.kernel_report import kernel_report_lines, reset_kernel_counts
from repro.sim.single_core import run_trace
from repro.sim.vector_replay import eligible_kind
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

SRC_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(native.__file__))))


def compiler_calls(monkeypatch):
    """Record every compiler run of :func:`native.build`."""
    calls = []
    run = subprocess.run

    def recording(command, **kwargs):
        calls.append(command)
        return run(command, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", recording)
    return calls


def test_second_build_reuses_the_cache(tmp_path, monkeypatch):
    calls = compiler_calls(monkeypatch)
    cache = tmp_path / "cache"
    first = native.build(native.SOURCE, cache)
    assert first is not None and len(calls) == 1
    assert native.build(native.SOURCE, cache) == first
    assert len(calls) == 1
    assert sorted(os.listdir(cache)) == [first.name]
    assert native.load(first).lru_l1 is not None


def test_changed_source_builds_a_new_file(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    first = native.build(native.SOURCE, cache)
    changed = tmp_path / "_lru.c"
    changed.write_bytes(native.SOURCE.read_bytes() + b"/* changed */\n")
    calls = compiler_calls(monkeypatch)
    second = native.build(changed, cache)
    assert len(calls) == 1
    assert second is not None and second != first
    assert sorted(os.listdir(cache)) == sorted([first.name, second.name])


def test_cache_others_can_write_is_refused(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    assert native.build(native.SOURCE, cache) is None


def test_missing_compiler_builds_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "COMPILER", "no-such-compiler")
    cache = tmp_path / "cache"
    assert native.build(native.SOURCE, cache) is None
    assert os.listdir(cache) == []


def test_concurrent_builds_leave_one_library(tmp_path):
    cache = tmp_path / "cache"
    probe = ("import sys; from pathlib import Path; "
             "from repro.sim import native; "
             "print(native.build(native.SOURCE, Path(sys.argv[1])))")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    builders = [subprocess.Popen([sys.executable, "-c", probe, str(cache)],
                                 stdout=subprocess.PIPE, text=True, env=env)
                for _ in range(2)]
    paths = {builder.communicate(timeout=120)[0].strip()
             for builder in builders}
    assert [builder.returncode for builder in builders] == [0, 0]
    (path,) = paths
    assert os.listdir(cache) == [os.path.basename(path)]
    assert native.load(path).lru_level is not None


@pytest.mark.parametrize("policy", ("baseline", "lru_pea", "slip_abp"))
def test_unavailable_library_walks(policy, tiny_system, walked,
                                   monkeypatch):
    """Without the library the capture kernel declines, the cell walks
    and takes no capture, and its bytes are the walk's."""
    trace = make_trace("soplex", 1_500)
    with walked():
        reference = canonical(run_trace(trace, policy, config=tiny_system))
    walks = []
    walk_cores = filtered.walk_cores

    def walk(*args):
        walks.append(args)
        return walk_cores(*args)

    monkeypatch.setattr(native, "library", lambda: None)
    monkeypatch.setattr(filtered, "walk_cores", walk)
    store = MemoryCaptureStore()
    reset_kernel_counts()
    served = run_trace(trace, policy, config=tiny_system, store=store)
    assert kernel_report_lines()[0] == (
        "[kernel-report] vector-frontend: 0 kernel run(s), "
        "1 decline(s) [native-unavailable=1]")
    assert len(walks) == 1 and not store._entries
    assert canonical(served) == reference


def test_unavailable_library_declines_the_replay_kernel(tiny_system,
                                                         monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)
    hierarchy = build_hierarchy(tiny_system, "nurapid")
    assert eligible_kind(hierarchy) is None
    assert hierarchy.kernel_declines.replay == "native-unavailable"
