"""Span tracing from outside the program.

A :class:`Tracer` replaces a function at the module attribute its callers
look up (for example ``bevlab.sgd.gradient_array``) with a wrapper that
records one span per call: name, start, end and parent span.  Spans are
kept in flat arrays in memory, summarised, and written out at the end.  A span's self time is its duration minus the durations of its
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Traced version of ``fn``.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``after(result, args, kwargs, seconds)`` runs once the span is closed,
        so the counts it records do not add to the span's own time.
        """
        fixed = None if callable(name) else self._id(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs, ends[i] - starts[i])
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, traced) -> None:
        """Bind ``traced`` at ``module.attr`` until :meth:`unpatch`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        """Drop every span recorded so far; counts and names stay."""
        for spans in (self.name_id, self.parent, self.start, self.end):
            del spans[:]

    def arrays(self):
        """(name_id, parent, start, end) as NumPy copies; a live view would
        stop the arrays from growing."""
        return (
            np.frombuffer(self.name_id, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def summary(self, under: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds;
        with ``under``, only of the spans whose root span has that name."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        # slot 0 collects the roots' time
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)
        self_s = dur - child[1:]
        if under is not None:
            # each pass moves every span's candidate root one level up
            root = np.where(parent == ROOT, np.arange(len(parent)), parent)
            while np.any(parent[root] != ROOT):
                root = np.where(parent[root] == ROOT, root, parent[root])
            keep = name_id[root] == self._ids.get(under, ROOT)
            name_id, dur, self_s = name_id[keep], dur[keep], self_s[keep]
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_s, minlength=k)
        return {
            n: {"calls": float(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path, meta: dict) -> None:
        """Write every span and ``meta`` to one ``.npz`` file."""
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )
