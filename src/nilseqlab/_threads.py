"""Row blocks of numpy work on a thread per CPU.

numpy releases the interpreter lock inside its ufunc loops and BLAS calls,
so independent row blocks of one array computation overlap on threads.
Each running block holds one buffer set of its own, and writes only its own
rows of the result: the floats do not depend on the number of threads.  A
block runs on a worker thread, so it must call nothing that the benchmark's
tracer wraps.
"""

from __future__ import annotations

import ctypes
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else every CPU."""
    cpus = getattr(os, "sched_getaffinity",
                   lambda _: range(os.cpu_count() or 1))(0)
    return len(cpus)


def _blas_threads() -> int:
    """The thread count of the OpenBLAS in numpy's wheels, else 0."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # links the BLAS
        return lib.scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError):  # not loadable, or another BLAS
        return 0


def run_blocks(block: Callable, starts: Sequence, new_buffer: Callable,
               blas: bool = False) -> None:
    """``block(start, buffer)`` for every start, on a thread per start and
    CPU, each with one ``new_buffer()`` made here before any block runs, so
    its memory goes back on return.  One worker runs the blocks inline, and
    so do BLAS blocks (``blas``) beside a BLAS that may run threads of its
    own: it spreads each product over the CPUs, and workers would contend."""
    workers = min(len(starts), usable_cpus())
    if workers > 1 and blas and _blas_threads() != 1:
        workers = 1
    buffers = [new_buffer() for _ in range(workers)]
    if workers <= 1:
        for start in starts:
            block(start, buffers[0])
        return
    free = queue.SimpleQueue()  # never waited on: at most len(buffers) run
    for buffer in buffers:
        free.put(buffer)

    def task(start) -> None:
        buffer = free.get()
        try:
            block(start, buffer)
        finally:
            free.put(buffer)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(task, starts))  # raises the first block's error
