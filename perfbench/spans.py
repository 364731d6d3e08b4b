"""Outside-in tracing: wrap the public calls into each layer, record spans.

The program under test is never edited.  :func:`patched` swaps a wrapper in
for a function or method for the duration of a ``with`` block and restores
the original afterwards.  Each call through a wrapper records one span —
name, start, end and the span that was open when it began — into flat
per-thread arrays, so a traced run of a few million calls costs tens of
megabytes rather than a Python object per span.  Summaries (count, total,
self time, top-level coverage) are computed once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Tuple

import numpy as np


class _ThreadSpans:
    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []


class SpanRecorder:
    """Spans kept in memory, one set of arrays per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}

    def _thread_spans(self) -> _ThreadSpans:
        spans = _ThreadSpans()
        self._local.spans = spans
        with self._lock:
            self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def wrap(self, name: str, fn: Any) -> Any:
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self._name_id(name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = getattr(local, "spans", None) or self._thread_spans()
            stack = spans.stack
            index = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                spans.start[index] = start
                stack.pop()

        return traced

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name count, total and self time, plus top-level coverage."""

    def __init__(self, recorder: SpanRecorder) -> None:
        n_names = len(recorder.names)
        self.names = list(recorder.names)
        self.count = np.zeros(n_names, dtype=np.int64)
        self.total = np.zeros(n_names)
        self.self_time = np.zeros(n_names)
        self.top_level = 0.0
        for spans in recorder._threads:
            if not len(spans.name):
                continue
            names = np.frombuffer(spans.name, dtype=np.int32)
            parents = np.frombuffer(spans.parent, dtype=np.int32)
            duration = (np.frombuffer(spans.end, dtype=np.float64)
                        - np.frombuffer(spans.start, dtype=np.float64))
            nested = parents >= 0
            children = np.bincount(parents[nested], weights=duration[nested],
                                   minlength=names.size)
            self.count += np.bincount(names, minlength=n_names)
            self.total += np.bincount(names, weights=duration, minlength=n_names)
            self.self_time += np.bincount(names, weights=duration - children,
                                          minlength=n_names)
            self.top_level += float(duration[~nested].sum())

    def _index(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls(self, *names: str) -> int:
        return int(sum(self.count[i] for i in map(self._index, names) if i >= 0))

    def seconds(self, *names: str) -> float:
        return float(sum(self.total[i] for i in map(self._index, names) if i >= 0))

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.seconds(name) / calls * 1e6 if calls else 0.0

    def render(self, wall: float) -> str:
        """One line per span name, heaviest self time first."""
        order = [i for i in np.argsort(-self.self_time) if self.count[i]]
        lines = [f"{'span':<34}{'calls':>10}{'total_s':>10}{'self_s':>10}"
                 f"{'share':>8}"]
        for i in order:
            lines.append(f"{self.names[i]:<34}{self.count[i]:>10}"
                         f"{self.total[i]:>10.3f}{self.self_time[i]:>10.3f}"
                         f"{self.total[i] / wall if wall else 0.0:>8.3f}")
        return "\n".join(lines)


Target = Tuple[Any, str, str]   #: (owner object or module, attribute, span name)
_MISSING = object()


@contextlib.contextmanager
def patched(recorder: SpanRecorder, targets: Iterable[Target]) -> Iterator[None]:
    """Route each ``owner.attribute`` through a span while the block runs.

    An attribute the owner only inherits is set on the owner and deleted
    again on exit, so the class it came from is never touched.
    """
    saved = []
    try:
        for owner, attribute, name in targets:
            own = vars(owner).get(attribute, _MISSING)
            saved.append((owner, attribute, own))
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
