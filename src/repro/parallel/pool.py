"""Worker-pool fan-out behind the sweep runner's process backend.

``parallel_map`` is a thin, deterministic-by-construction wrapper around
:class:`concurrent.futures.ProcessPoolExecutor`: results stream back to an
optional callback as they complete, but the returned list is always in
submission order, so callers get identical aggregates regardless of worker
scheduling.  The ``"serial"`` backend runs the same code path without any
pool — useful on single-core machines and for debugging — which keeps the
two modes behaviourally interchangeable.
"""

from __future__ import annotations

import os
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
        for a single item; ``"serial"`` loops in the calling process.
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
    with ProcessPoolExecutor(max_workers=workers) as executor:
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
