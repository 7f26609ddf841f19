"""The environment recorded with every result.

Everything here is read-only: /proc files, the loaded BLAS library's own
query functions, package versions and a digest of the benchmarked sources.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted inside user and nice
    return steal, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas() -> str | None:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    return sorted(paths)[0] if paths else None


def blas() -> dict:
    """BLAS name and version as built, and its runtime thread count and config."""
    import numpy as np

    info: dict = {"threads": None, "runtime": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info |= {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    path = _loaded_blas()
    info["library"] = path
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            info["threads"] = get_threads()
            info["runtime"] = get_config().decode(errors="replace")
            return info
    return info


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """sha256 over the benchmarked package's source files, path and content."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
    }
