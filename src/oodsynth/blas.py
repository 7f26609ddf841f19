"""Thread count and kernel name of the OpenBLAS that numpy loaded.

OpenBLAS splits a GEMM over its worker threads once the product is large
enough, and the workers busy-wait for more work after each call returns.
The kNN and KDE GEMMs are too thin for a second thread to pay off: the
detector kernel's are 13x16 by 16x5000 at the stock config; at criterion
10 an energy evaluation makes one of about 8x128 by 128x1000 per class
and the KDE margin one of 40x128 by 128x10000. So they run on one thread,
which leaves the second vCPU free.

The library is found through ``/proc/self/maps``. Where it is not found
(another BLAS, or no procfs) ``one_thread`` does nothing, and
``thread_count`` and ``core_name`` return None.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable, Iterator


@functools.cache
def _openblas() -> tuple[ctypes.CDLL, str] | None:
    """The loaded OpenBLAS and the name pattern of its exports, or None when not found."""
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
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return lib, f"{prefix}_{{}}{suffix}"
    return None


def _export(name: str, restype, argtypes: list):
    """The loaded OpenBLAS's function ``name`` with its C signature, or None."""
    found = _openblas()
    if found is None:
        return None
    lib, pattern = found
    function = getattr(lib, pattern.format(name), None)
    if function is not None:
        function.restype, function.argtypes = restype, argtypes
    return function


@functools.cache
def thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None when not found."""
    get = _export("get_num_threads", ctypes.c_int, [])
    set_ = _export("set_num_threads", None, [ctypes.c_int])
    return None if get is None or set_ is None else (get, set_)


def thread_count() -> int | None:
    """The loaded OpenBLAS's thread count, or None when not found."""
    controls = thread_controls()
    return controls[0]() if controls else None


@functools.cache
def core_name() -> str | None:
    """The kernel the loaded OpenBLAS runs (``SkylakeX``, ``Haswell``, ...), or None.

    ``OPENBLAS_CORETYPE`` picks it when the library loads, and it decides how
    the float64 GEMMs round.
    """
    get = _export("get_corename", ctypes.c_char_p, [])
    name = get() if get is not None else None
    return name.decode() if name else None


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
