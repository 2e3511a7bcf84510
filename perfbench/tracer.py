"""In-memory span tracer for the traced benchmark run.

A span is (name, start, end, parent).  Spans opened by the benchmark
itself (one set-up, one query, one training run) have no parent and are
the roots: every span inside one of them shares its root id.  Calls into
relrec are traced by replacing a public function in the namespace of its
caller, e.g. `relrec.training.recall_loss`, which is the name
`joint_train` looks up.  Nothing in relrec changes, and `restore` puts
every original function back.  layers.py lists the traced calls.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans kept in parallel lists; counters keyed by name."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    def _open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside the block record no spans or counts."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def patch(self, module, attr: str, span_name: str, on_result=None) -> None:
        """Replace module.attr by a wrapper that records a span around
        each call and then passes (args, kwargs, result) to on_result."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            idx = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def select(self, name: str, root_name: str | None = None) -> list[int]:
        return [
            i for i, n in enumerate(self.names)
            if n == name
            and (root_name is None or self.names[self.roots[i]] == root_name)
        ]

    def child_sums(self, child_name: str, parent_name: str) -> list[float]:
        """For each span named parent_name, the summed duration of its
        direct children named child_name."""
        dur = self.durations()
        sums = {i: 0.0 for i in self.select(parent_name)}
        for i, n in enumerate(self.names):
            if n == child_name and self.parents[i] in sums:
                sums[self.parents[i]] += dur[i]
        return list(sums.values())

    def write(self, path: str) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "root": self.roots[i], "start": self.starts[i],
                    "end": self.ends[i],
                }) + "\n")
