"""Fixed glibc malloc thresholds, so every instance allocates the same way.

Solving and verifying an instance allocate and free arrays of a few
hundred kB to a few MB many times over.  glibc serves a block above its
mmap threshold with fresh pages from the kernel and returns it on free;
it raises that threshold (and the heap trim threshold, to twice it) each
time it frees a mapped block larger than the current one.  Throughput
then depends on the largest arrays the process happened to free so far,
and rises with its age: a nested N=500 solve and certificate took about
5000 minor page faults and about 20 % more time than with the thresholds
fixed.

Setting both thresholds turns that adaptation off and starts the process
where it would end: at the 32 MiB ceiling of the dynamic mmap threshold,
with twice that as the trim threshold.  Blocks below 32 MiB are reused
from the heap, and freed memory goes back to the kernel once more than
64 MiB of it sits at the top of the heap.  Nothing is set when the C
library has no `mallopt` (not glibc) or when the environment already
sets a MALLOC_*_ threshold.
"""

from __future__ import annotations

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def fix_thresholds() -> bool:
    """Set the mmap and trim thresholds; True when both were set."""
    if any(name in os.environ for name in _ENV):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
