"""The compiled tier: ``_lru.c``, built on first use and loaded by ctypes.

The capture kernel's TLB and L1 (:mod:`~repro.sim.vector_frontend`),
the baseline-kind replay kernel's level runners (:mod:`~repro.sim.
vector_replay`) and the SLIP kernel's sweep with its page state
machine and EOU argmin (:mod:`~repro.sim.vector_replay_slip`) are C
loops in ``_lru.c``, beside this module; none calls back into
Python. The first :func:`library` call of a process compiles the file
with the system C compiler (``cc``) into a per-user cache,
``~/.cache/repro/native`` (the home directory comes from the password
database), under a name keyed by a hash of the source, the compiler
flags and the Python ABI; every later call, in any process, loads that
file. Deleting the directory forces a rebuild.

* Parallel builders cannot collide: each compiles to a temporary name
  in the cache and moves it into place with :func:`os.replace`.
* A build keeps the :data:`KEEP` newest libraries and never deletes
  the one it built (:func:`prune`), so two checkouts used in turn do
  not rebuild each other's library and the cache does not grow.
* Only a directory the current user owns and nobody else can write is
  loaded from.
* With no compiler or no usable cache, :func:`library` returns
  ``None``: every kernel then declines with reason
  ``native-unavailable`` and the cell walks. No Python copy of the
  loops exists, and nothing chooses between C and Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import pwd
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("_lru.c")
COMPILER = "cc"
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")

#: ``lru_level``'s ``kind`` argument per baseline kind.
KINDS = {"baseline": 0, "nurapid": 1, "lru_pea": 2}
#: ``lru_level``'s status for a NuRAPID promotion that found sublevel 0
#: not full; any other nonzero status means it ran out of memory.
STATUS_NURAPID_PROMOTION = 1
#: Built libraries kept in the cache: the newest, by modification time.
KEEP = 4

_UNLOADED = object()
_library = _UNLOADED


def cache_dir() -> Path:
    """The per-user build cache, outside any checkout."""
    home = pwd.getpwuid(os.getuid()).pw_dir
    return Path(home) / ".cache" / "repro" / "native"


def library_name(source: bytes) -> str:
    """The cached library's file name: a hash of everything it is
    built from."""
    key = hashlib.sha256()
    for part in (source, " ".join((COMPILER,) + CFLAGS).encode(),
                 sys.implementation.cache_tag.encode(),
                 str(sysconfig.get_config_var("SOABI")).encode(),
                 platform.machine().encode()):
        key.update(part)
        key.update(b"\0")
    return f"_lru-{key.hexdigest()[:20]}.so"


def _private(directory: Path) -> bool:
    """Whether ``directory`` is ours and nobody else can write it."""
    info = directory.stat()
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def build(source: Path, directory: Path) -> Optional[Path]:
    """The built library for ``source`` in ``directory``, compiling it
    when the cache lacks it; ``None`` when that cannot be done."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(directory):
            return None
        text = source.read_bytes()
        target = directory / library_name(text)
        if target.exists():
            return target
        handle, temporary = tempfile.mkstemp(
            dir=directory, prefix=target.name + ".", suffix=".tmp")
        os.close(handle)
        try:
            result = subprocess.run(
                [COMPILER, *CFLAGS, "-o", temporary, str(source)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                check=False)
            if result.returncode != 0:
                return None
            os.replace(temporary, target)
        finally:
            if os.path.exists(temporary):
                os.unlink(temporary)
        prune(directory, target)
        return target
    except OSError:
        return None


def prune(directory: Path, built: Path) -> None:
    """Delete all but the :data:`KEEP` newest libraries in the cache,
    never ``built``. Two checkouts used in turn keep each other's
    library; a file another process removes or replaces meanwhile is
    skipped."""
    aged = []
    for path in directory.glob("_lru-*.so"):
        try:
            aged.append((path.stat().st_mtime, path))
        except OSError:
            continue
    aged.sort(reverse=True)
    for _, path in aged[KEEP:]:
        if path != built:
            try:
                path.unlink()
            except OSError:
                pass


def load(path: Path) -> ctypes.CDLL:
    """Load a built library and declare its entry points."""
    lib = ctypes.CDLL(str(path))

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")

    i64, u8, i32 = array(np.int64), array(np.uint8), array(np.int32)
    lib.lru_tlb.restype = ctypes.c_int64
    lib.lru_tlb.argtypes = [ctypes.c_int64, i64, ctypes.c_int64, i64]
    lib.lru_l1.restype = ctypes.c_int
    lib.lru_l1.argtypes = [
        ctypes.c_int64, i64, u8, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, u8, i64, i64]
    lib.lru_level.restype = ctypes.c_int64
    lib.lru_level.argtypes = [
        ctypes.c_int, ctypes.c_int64, u8, i64, u8, i32, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, i32, i32, ctypes.c_int64,
        array(np.float64), array(np.uint32), ctypes.c_int, u8, i64, i32,
        i64]
    lib.slip_sweep.restype = ctypes.c_int
    lib.slip_sweep.argtypes = [
        ctypes.c_int64, ctypes.c_int64, i64, i64, ctypes.c_int64, i64,
        ctypes.c_int64, i64, i64, ctypes.c_int64, i64, i64, i64,
        array(np.uint32), i64]
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The loaded ``_lru.c`` library, or ``None`` when it cannot be
    built or loaded. Built once per cache, loaded once per process."""
    global _library
    if _library is _UNLOADED:
        path = build(SOURCE, cache_dir())
        try:
            _library = None if path is None else load(path)
        except OSError:
            _library = None
    return _library
