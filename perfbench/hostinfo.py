"""BLAS thread pinning and the host/build record attached to every result.

`pin_blas_env` must run before numpy is imported: OpenBLAS reads its thread
count from the environment when the library loads.  `pin_blas` then sets the
count again and reads back the one in effect through the symbols of the
OpenBLAS build bundled with numpy, because threadpoolctl is not installed.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# getter/setter symbol pairs: numpy 2 wheels, then numpy 1 wheels
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def pin_blas_env(threads: int = BLAS_THREADS) -> None:
    for var in _THREAD_ENV:
        os.environ[var] = str(threads)


def _openblas_functions():
    """(get, set) ctypes functions of numpy's bundled OpenBLAS, or None."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter = getattr(lib, get_name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


def pin_blas(threads: int = BLAS_THREADS) -> int | None:
    """Set the BLAS thread count and return the count now in effect.

    None means the count cannot be read on this numpy build.
    """
    funcs = _openblas_functions()
    if funcs is None:
        return None
    getter, setter = funcs
    setter(threads)
    return int(getter())


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None, "configuration": None}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_record(root: Path) -> dict:
    """Line count and content hash of the package under test."""
    files = sorted((root / "src" / "ucast").glob("*.py"))
    digest = hashlib.sha1()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_ucast_lines": lines, "src_ucast_sha1": digest.hexdigest(),
            "git_commit": _git_commit(root)}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_record(root: Path, blas_threads_actual: int | None) -> dict:
    import numpy as np
    return {
        "cores_in_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_actual": blas_threads_actual,
        **source_record(root),
    }
