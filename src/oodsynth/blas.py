"""Thread count of the OpenBLAS that numpy loaded.

OpenBLAS splits a GEMM over its worker threads once the product is large
enough, and the workers busy-wait for more work after each call returns.
The kNN and KDE GEMMs are too thin for a second thread to pay off: the
detector kernel's are 13x16 by 16x5000 at the stock config; at criterion
10 an energy evaluation makes one of about 8x128 by 128x1000 per class
and the KDE margin one of 40x128 by 128x10000. So they run on one thread,
which leaves the second vCPU free.

The library is found through ``/proc/self/maps``. Where it is not found
(another BLAS, or no procfs) ``one_thread`` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable, Iterator


@functools.cache
def thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore its count."""
    controls = thread_controls()
    before = controls[0]() if controls else 1
    if before == 1:
        yield
        return
    controls[1](1)
    try:
        yield
    finally:
        controls[1](before)
