"""In-memory spans around calls into a program, and their self times.

A span is (name, start, end, parent), where ``parent`` is the index of the
span that was open when this one started, or -1 for a root. Everything
traced here is synchronous, so a span's children lie inside it and its
self time is its duration minus the durations of its direct children.

Spans live in flat arrays while the program runs and are written out only
when the traced process ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


def rebind(modules, owner, attr: str, make_wrapper) -> None:
    """Replace ``owner.attr`` by ``make_wrapper(original)`` wherever it is bound.

    ``owner`` is a module or a class. A function imported by name into
    another module is a second binding of the same object; every such
    binding among ``modules`` is replaced too, so callers that bound the
    name at import time call the wrapper.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class Recorder:
    """Collects spans and plain call counters in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records one span called ``name``."""
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span_each_next(self, name: str, iter_fn):
        """Wrap an ``__iter__`` so each ``next`` on its iterator records a span."""

        @functools.wraps(iter_fn)
        def traced_iter(obj):
            step = self.span(name, functools.partial(next, iter_fn(obj)))
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced_iter

    def count(self, name: str, fn):
        """Wrap ``fn`` so that every call adds one to counter ``name``."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def arrays(self):
        """(names, name_ids, starts, ends, parents) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_ids, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
            np.frombuffer(self.parents, dtype=np.int64),
        )

    def save(self, path) -> None:
        names, name_ids, starts, ends, parents = self.arrays()
        with open(path, "wb") as f:
            np.savez_compressed(
                f, names=np.array(names), name_ids=name_ids,
                starts=starts, ends=ends, parents=parents,
            )


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = ends - starts
    if np.any(duration < 0):
        raise ValueError("a span ends before it starts")
    nested = parents >= 0
    children = np.bincount(
        parents[nested], weights=duration[nested].astype(np.float64), minlength=duration.size
    )
    return duration - children


def summarize(names, name_ids, starts, ends, parents) -> dict[str, dict]:
    """Per span name: call count, summed self time and summed duration (ns)."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    own = self_times(starts, ends, parents)
    duration = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    k = len(names)
    calls = np.bincount(name_ids, minlength=k)
    self_ns = np.bincount(name_ids, weights=own, minlength=k)
    total_ns = np.bincount(name_ids, weights=duration.astype(np.float64), minlength=k)
    return {
        name: {"calls": int(calls[i]), "self_ns": float(self_ns[i]), "total_ns": float(total_ns[i])}
        for i, name in enumerate(names)
    }
