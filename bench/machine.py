"""What the benchmark ran on: versions, BLAS threads, CPU, git revision, file system."""

from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> list[str]:
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and ".so" in path:
                libs.add(path)
    return sorted(libs)


def openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports at run time, by library file name."""
    counts = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(path)] = int(fn())
                break
    return counts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _filesystem(path: str) -> str:
    """Type and mount options of the file system holding ``path``."""
    path = os.path.realpath(path)
    best, found = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype, options = line.split()[:4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, found = mount, f"{fstype} on {mount} ({options})"
    except OSError:
        pass
    return found


def describe(root: str, docdir: str, blas_env: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": blas_env,
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(root),
        "document_fs": _filesystem(docdir),
    }
