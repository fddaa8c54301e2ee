"""Spans of a traced run, held in memory, and the self time of each one.

A span is one call of a wrapped function: its name, the span that was open
when it began (its parent, -1 for a root), and its start and end on a
nanosecond clock.  The traced workloads make millions of calls, so spans
are stored column by column in typed arrays rather than as objects.

A span's self time is its duration minus the time its child spans cover.
Calls on one thread nest strictly, so the children of a span are disjoint
and the time they cover is the sum of their durations; the self times of
a tree therefore add up to the duration of its root.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns


class SpanLog:
    """Append-only span store with a stack of the spans still open."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, after=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``after(args, result)``, if given, runs once the span has
        closed, so the work it does to update counters is not timed.
        """
        name_id = self.name_id(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def save(self, path) -> None:
        """One JSON header line with the names, then the four columns."""
        if self._open:
            raise RuntimeError("cannot save while spans are open")
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)

    @classmethod
    def load(cls, path) -> SpanLog:
        log = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in header["names"]:
                log.name_id(name)
            for column in (log.name, log.parent, log.start, log.end):
                column.fromfile(handle, header["count"])
        return log


def self_times(parent, start, end) -> array:
    """Self time of every span: its duration minus its children's durations.

    A child always comes after its parent, because it begins later.
    """
    own = array("q", (e - s for s, e in zip(start, end)))
    for index, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[index] - start[index]
    return own


def totals_by_name(log: SpanLog) -> dict[str, dict[str, int]]:
    """Per span name: number of calls, summed self time and summed duration (ns).

    The summed duration counts a recursive call once per level it is open;
    use it only for names that do not nest inside themselves.
    """
    own = self_times(log.parent, log.start, log.end)
    calls = [0] * len(log.names)
    self_ns = [0] * len(log.names)
    wall_ns = [0] * len(log.names)
    for name_id, s, e, o in zip(log.name, log.start, log.end, own):
        calls[name_id] += 1
        self_ns[name_id] += o
        wall_ns[name_id] += e - s
    return {
        name: {"calls": calls[i], "self_ns": self_ns[i], "wall_ns": wall_ns[i]}
        for i, name in enumerate(log.names)
    }
