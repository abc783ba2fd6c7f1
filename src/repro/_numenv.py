"""Pin the numeric environment: single-threaded BLAS.

Multi-threaded OpenBLAS splits GEMM and dot products across threads,
which changes float32 summation order with the host's core count, so
seeded results (and every recorded golden) would depend on the host.
The repo's parallel axes are worker processes (``--jobs``, step
workers), never BLAS threads.

The ``repro`` package imports this module first.  It sets
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 unless the caller
set them, which OpenBLAS reads when numpy loads it.  If numpy was
already imported (a test runner, a notebook) and ``OPENBLAS_NUM_THREADS``
was not set, the loaded OpenBLAS is pinned at runtime through its
``openblas_set_num_threads`` entry point instead.
"""

from __future__ import annotations

import ctypes
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = {line.split(maxsplit=5)[-1] for line in lines if "openblas" in line}
    return sorted(path for path in paths if os.path.isfile(path))


def openblas_entry(name: str):
    """An OpenBLAS function (e.g. ``"openblas_get_num_threads"``) from any
    loaded OpenBLAS; ``None`` if absent.

    Tries the plain symbol and the spellings of numpy's bundled
    scipy-openblas wheels (LP64 and ILP64).
    """
    base = name.removeprefix("openblas_")
    spellings = (name, f"scipy_openblas_{base}", f"scipy_openblas_{base}64_")
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in spellings:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def pin_blas_threads() -> None:
    """Default BLAS to one thread (see the module docstring)."""
    explicit = "OPENBLAS_NUM_THREADS" in os.environ
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    if explicit or "numpy" not in sys.modules:
        return
    set_threads = openblas_entry("openblas_set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


pin_blas_threads()
