"""Environment stamp written into every benchmark output.

Two runs are comparable only when their stamps are equal; `stamp_id` is a
short hash of every field, so a pairing tool can refuse mismatched runs with
one comparison. The BLAS thread count is left at the library's default and
only capped at the number of usable CPUs.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform

import numpy as np

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_library():
    """The loaded shared object whose name mentions a BLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    paths = sorted(p for p in paths if p.endswith(".so") or ".so." in p)
    return paths[0] if paths else None


def _blas_threads(path):
    """(get, set) callables for the BLAS thread count, or (None, None)."""
    if path is None:
        return None, None
    lib = ctypes.CDLL(path)
    for sym in _THREAD_SYMBOLS:
        if hasattr(lib, sym):
            get = getattr(lib, sym)
            get.restype = ctypes.c_int
            setter = getattr(lib, sym.replace("get_num", "set_num"), None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
            return get, setter
    return None, None


def environment_stamp():
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path = _blas_library()
    get, setter = _blas_threads(path)
    threads = get() if get else None
    capped = False
    if threads is not None and threads > nproc and setter is not None:
        setter(nproc)
        threads, capped = get(), True
    stamp = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_capped_to_nproc": capped,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    stamp["stamp_id"] = hashlib.sha256(
        json.dumps(stamp, sort_keys=True).encode()).hexdigest()[:12]
    return stamp
