"""Span bookkeeping for the traced run.

A span is ``[name, start_ns, end_ns, parent, attrs]``: *parent* is the
index of the span that was open when this one started (-1 for none) and
*attrs* is a small dict or None.  Spans are kept in memory in start order
and written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import time

NAME, START, END, PARENT, ATTRS = range(5)


class Recorder:
    """Collects spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """*fn* with a span around every call.  ``attrs(args, result)``,
        when given, runs after the span closes and returns its attrs."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per item, so time spent by the consumer between items
        is not charged to the generator."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return traced()

        return wrapper


def union_ns(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(span: list, children: list[list]) -> int:
    """A span's duration minus the part of it its children cover."""
    lo, hi = span[START], span[END]
    clipped = [(max(c[START], lo), min(c[END], hi)) for c in children]
    return (hi - lo) - union_ns((a, b) for a, b in clipped if b > a)


def children_of(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(i)
    return kids


def tail(values, beyond: int = 10) -> dict | None:
    """The highest whole percentile with at least *beyond* samples above
    its nearest-rank value, with that percentile and the sample count.
    None when that percentile would be below the median (fewer than
    2 * *beyond* samples): there is no tail to report."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * beyond:
        return None
    pct = min(99, 100 * (n - beyond) // n)
    rank = max(1, (pct * n + 99) // 100)  # nearest rank, in integers
    return {"value": float(ordered[rank - 1]), "percentile": pct, "n": n,
            "beyond": n - rank}
