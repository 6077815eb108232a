"""In-memory span tracer that wraps module attributes from outside the program.

A span records name, start, end, parent span, thread and a size (batch
length or record count). Spans live in flat arrays while the run lasts and
are written out once at the end. Spans opened on a worker thread with no
open span of their own take the innermost open span of the main thread as
their parent, because the pool threads of `eval_losses` run on behalf of it.
"""
from __future__ import annotations

import functools
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass
class SpanTable:
    """Read-only columns of a finished trace; row i is span i."""

    names: list[str]  # name table, indexed by `name`
    name: np.ndarray  # (N,) int, index into `names`
    start: np.ndarray  # (N,) float seconds
    end: np.ndarray  # (N,) float seconds
    parent: np.ndarray  # (N,) int, -1 for a root span
    thread: np.ndarray  # (N,) int, 0 = main thread
    size: np.ndarray  # (N,) int

    def __len__(self) -> int:
        return len(self.start)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def select(self, name: str, rows: np.ndarray) -> np.ndarray:
        """The spans among `rows` called `name`."""
        if name not in self.names:
            return rows[:0]
        return rows[self.name[rows] == self.names.index(name)]

    def select_prefix(self, prefix: str, rows: np.ndarray) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return rows[np.isin(self.name[rows], ids)]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                out.setdefault(p, []).append(i)
        return out

    def has_ancestor_in(self, i: int, members: set[int]) -> bool:
        p = int(self.parent[i])
        while p >= 0:
            if p in members:
                return True
            p = int(self.parent[p])
        return False


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(
    spans: SpanTable, i: int, children: dict[int, list[int]], only: set[str] | None = None
) -> float:
    """Duration of span i minus the part of it its children cover.

    Children on other threads count too, so overlapping pool work is only
    subtracted once. `only` restricts the subtraction to children with one
    of those names.
    """
    kids = children.get(i, [])
    if only is not None:
        kids = [k for k in kids if spans.names[spans.name[k]] in only]
    lo, hi = float(spans.start[i]), float(spans.end[i])
    return (hi - lo) - covered([(float(spans.start[k]), float(spans.end[k])) for k in kids], lo, hi)


class Tracer:
    """Wraps callables so each call records a span while `enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._thread = array("q")
        self._size = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._thread_ids: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, size: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack  # only read: the main thread waits on the pool
            parent = main[-1] if main else -1
        ident = threading.get_ident()
        with self._lock:
            tid = self._thread_ids.setdefault(ident, len(self._thread_ids))
            idx = len(self._start)
            self._name.append(self._intern(name))
            self._parent.append(parent)
            self._thread.append(tid)
            self._size.append(size)
            self._end.append(float("nan"))
            self._start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        t = time.perf_counter()
        with self._lock:
            self._end[idx] = t
        self._stack().pop()

    def wrap(self, module, attr: str, name, size=None) -> None:
        """Replace module.attr with a traced wrapper.

        name: span name, or a callable (args, kwargs) -> span name.
        size: optional callable (args, kwargs) -> int stored with the span.
        """
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span = name if isinstance(name, str) else name(args, kwargs)
            idx = tracer._open(span, 1 if size is None else int(size(args, kwargs)))
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()
        self.enabled = False

    def mark(self) -> int:
        """Number of spans opened so far; use as a row bound."""
        with self._lock:
            return len(self._start)

    def table(self) -> SpanTable:
        with self._lock:
            return SpanTable(
                names=list(self._names),
                name=np.array(self._name, dtype=np.int64),
                start=np.array(self._start, dtype=float),
                end=np.array(self._end, dtype=float),
                parent=np.array(self._parent, dtype=np.int64),
                thread=np.array(self._thread, dtype=np.int64),
                size=np.array(self._size, dtype=np.int64),
            )


def write_spans_csv(path: str, spans: SpanTable) -> None:
    t0 = float(spans.start.min()) if len(spans) else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,thread,size\n")
        for i in range(len(spans)):
            fh.write(
                f"{i},{spans.names[spans.name[i]]},{spans.start[i] - t0:.9f},"
                f"{spans.end[i] - t0:.9f},{spans.parent[i]},{spans.thread[i]},{spans.size[i]}\n"
            )
