"""Worker-pool fan-out behind the sweep runner's process backend.

``parallel_map`` is a thin, deterministic-by-construction wrapper around
:class:`concurrent.futures.ProcessPoolExecutor`: results stream back to an
optional callback as they complete, but the returned list is always in
submission order, so callers get identical aggregates regardless of worker
scheduling.  The ``"serial"`` backend runs the same code path without any
pool — useful on single-core machines and for debugging — which keeps the
two modes behaviourally interchangeable.

:func:`limit_blas_threads` is called first thing in every process that is
one lane of a fleet (each pool worker here, each distributed worker): it
pins scipy's OpenBLAS to one thread there.
"""

from __future__ import annotations

import ctypes
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_max_workers(n_tasks: int) -> int:
    """Worker count: one per task, capped by the visible CPU count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(n_tasks, cpus))


#: Thread-count variables a user may set to choose BLAS threading; any one
#: of them set means :func:`limit_blas_threads` leaves the process alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _scipy_openblas(name: str, argtypes: list, restype):
    """``name`` (e.g. ``"set_num_threads"``) from scipy's loaded OpenBLAS.

    ``None`` when ``scipy.linalg`` is not imported yet or its BLAS is not
    an OpenBLAS build.  scipy bundles its own OpenBLAS, apart from numpy's,
    with prefixed symbols; ``dlsym`` on the ``_fblas`` extension finds them.
    """
    fblas = sys.modules.get("scipy.linalg._fblas")
    if fblas is None:
        return None
    lib = ctypes.CDLL(fblas.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        function = getattr(lib, f"{prefix}_{name}", None)
        if function is not None:
            function.argtypes, function.restype = argtypes, restype
            return function
    return None


def limit_blas_threads() -> None:
    """Run scipy's OpenBLAS on one thread in this process, unless the user chose.

    A sweep lane trains 64-wide OS-ELM steps, far too little work to split
    across threads, but after each small ``cho_factor`` + ``cho_solve``
    OpenBLAS's idle helper threads busy-wait for ~0.12 s of CPU, which
    steals the core of a sibling lane.  Call this at the start of a worker
    process, never in the process that drives a sweep.  An explicit
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``
    wins.  Before ``scipy.linalg`` is imported (a spawned worker) the
    ``OPENBLAS_NUM_THREADS=1`` set here takes effect when it loads; once it
    is loaded (a forked pool worker) the live count is set through OpenBLAS
    itself.  Only OpenBLAS is limited: an MKL or OpenMP runtime keeps its
    own default.
    """
    if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    set_num_threads = _scipy_openblas("set_num_threads", [ctypes.c_int], None)
    if set_num_threads is not None:
        set_num_threads(1)


def blas_threads() -> Optional[int]:
    """Threads scipy's OpenBLAS runs with here, read from the library itself.

    ``None`` until ``scipy.linalg`` is loaded (a worker loads it with its
    first training) and on a BLAS that is not OpenBLAS.
    """
    get_num_threads = _scipy_openblas("get_num_threads", [], ctypes.c_int)
    return None if get_num_threads is None else get_num_threads()


def parallel_map(fn: Callable[[T], R], items: Sequence[T], *,
                 backend: str = "process", max_workers: Optional[int] = None,
                 callback: Optional[Callable[[int, R], None]] = None) -> List[R]:
    """Apply ``fn`` to every item, optionally across a process pool.

    Parameters
    ----------
    fn:
        A picklable (module-level) callable for the process backend.
    items:
        Work items; results come back in this order.
    backend:
        ``"process"`` fans out over a :class:`ProcessPoolExecutor`, even
        for a single item, each worker on one BLAS thread (see
        :func:`limit_blas_threads`); ``"serial"`` loops in the calling
        process.
    max_workers:
        Pool size for the process backend (default: one worker per item,
        capped by the CPU count).
    callback:
        Invoked as ``callback(index, result)`` as each item *completes* —
        streaming progress, not submission order.
    """
    if backend not in ("process", "serial"):
        raise ValueError(f"unknown backend {backend!r}; use 'process' or 'serial'")
    items = list(items)
    if not items:
        return []
    if backend == "serial":
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if callback is not None:
                callback(index, result)
            results.append(result)
        return results

    workers = max_workers if max_workers is not None else default_max_workers(len(items))
    results: List[Any] = [None] * len(items)
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=limit_blas_threads) as executor:
        pending = {executor.submit(fn, item): index
                   for index, item in enumerate(items)}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                results[index] = future.result()
                if callback is not None:
                    callback(index, results[index])
    return results
