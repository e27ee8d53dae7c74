"""Ceiling probes and the machine record.

The ceilings are the natural upper bounds the per-layer ratios are taken
against: the raw Philox normal rate, a ``numpy.fft`` round trip, and
LAPACK ``eigh``/``eigvalsh``.  They are measured in the same process and
run as the layers they bound.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from time import perf_counter

import numpy as np

MIB = 1 << 20


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _caches() -> dict:
    """CPU0's caches from sysfs: "L<level> <type>" -> size in bytes."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name), encoding="ascii") as handle:
                    fields[name] = handle.read().strip()
            out[f"L{fields['level']} {fields['type']}"] = _parse_size(fields["size"])
    except (OSError, ValueError):
        pass
    return out


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": MIB, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache; 32 MiB if sysfs is unreadable."""
    return max(_caches().values(), default=0) or 32 * MIB


def philox_normals_per_s(reps: int = 3) -> tuple[float, int]:
    """Raw ``Generator(Philox).standard_normal`` rate into a block four times
    the last-level cache, so it includes writing to memory.  Returns the
    rate and the block size in bytes."""
    block = 4 * last_level_cache_bytes()
    buffer = np.empty(block // 8)
    buffer.fill(0.0)  # fault the pages in before timing
    generator = np.random.Generator(np.random.Philox(key=0x5EED))
    seconds = _median_time(lambda: generator.standard_normal(out=buffer), reps)
    return buffer.size / seconds, block


def fft_round_trip_s(shape: tuple, reps: int = 10) -> float:
    """Unitary ``fftn`` then ``ifftn`` over the grid axes of a (coils, *grid) block."""
    rng = np.random.default_rng(0)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(1, len(shape)))
    return _median_time(
        lambda: np.fft.ifftn(np.fft.fftn(values, axes=axes, norm="ortho"), axes=axes, norm="ortho"),
        reps,
    )


def _spd(dim: int) -> np.ndarray:
    g = np.random.default_rng(dim).standard_normal((dim, dim))
    return g @ g.T / dim + np.eye(dim)


def eigh_s(dim: int, reps: int = 5) -> float:
    matrix = _spd(dim)
    return _median_time(lambda: np.linalg.eigh(matrix), reps)


def eigvalsh_s(dim: int, reps: int = 5) -> float:
    matrix = _spd(dim)
    return _median_time(lambda: np.linalg.eigvalsh(matrix), reps)


def _blas_threads() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import scipy

    deps = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):
        pass
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }
