"""Row blocks of numpy work on a thread per CPU.

numpy releases the interpreter lock inside its ufunc loops and BLAS calls,
so independent row blocks of one array computation overlap on threads.
Each running block holds one caller-allocated buffer set of its own, and
writes only its own rows of the result: the floats do not depend on the
number of threads.  A block runs on a worker thread, so it must call
nothing that the benchmark's tracer wraps.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else every CPU."""
    cpus = getattr(os, "sched_getaffinity",
                   lambda _: range(os.cpu_count() or 1))(0)
    return len(cpus)


def run_blocks(block: Callable, starts: Iterable, buffers: Sequence) -> None:
    """``block(start, buffer)`` for every start, on one thread per buffer;
    one buffer runs them inline, with no thread.  No two running blocks
    share a buffer."""
    if len(buffers) == 1:
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

    with ThreadPoolExecutor(len(buffers)) as pool:
        list(pool.map(task, starts))  # raises the first block's error
