"""Scoped thread counts for the OpenBLAS pools loaded into this process.

numpy and scipy each ship their own OpenBLAS, and each runs its own thread
pool.  `threads(n)` sets every pool to n threads for the length of a block
and then puts each pool's old count back.  The pools are found the way
threadpoolctl finds them: the OpenBLAS libraries mapped into this process
(read from /proc/self/maps) and their exported thread-count functions.  Where
none is found (another BLAS, another platform) `threads` does nothing.  Only
this process's own thread counts change, but they are process-wide: scopes
opened from several Python threads at once restore each other's counts.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Callable, NamedTuple

# exported C names: <prefix>{get,set}_num_threads<suffix>
_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")


class Pool(NamedTuple):
    """Getter and setter of one OpenBLAS library's thread count."""

    get: Callable[[], int]
    set: Callable[[int], None]


def _mapped_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}  # the 6th field is the path
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


@functools.cache
def pools() -> tuple:
    """Every OpenBLAS pool of this process, found on first use; may be empty."""
    found = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # already loaded: load nothing new
        except OSError:
            continue
        for name in (p + "{}_num_threads" + s for p in _PREFIXES for s in _SUFFIXES):
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            found.append(Pool(get, set_))
            break
    return tuple(found)


@contextlib.contextmanager
def threads(n: int):
    """Run the block with every OpenBLAS pool at n threads, then restore each count."""
    found = pools()
    old = [pool.get() for pool in found]
    for pool in found:
        pool.set(n)
    try:
        yield
    finally:
        for pool, count in zip(found, old):
            pool.set(count)
