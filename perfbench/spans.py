"""In-memory spans recorded around calls into a program, from outside it.

A Tracer rebinds a function at the place its caller looks it up (a module
global or a class attribute), records one span per call and puts the
original back when it is closed. A span is (name, start, end, parent); the
spans stay in memory, in flat arrays, until the traced pass has ended, and
self times and counts are derived from them afterwards by summarize().
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# count(counts, args, result) runs after a traced call returns normally.
CountHook = Callable[[Counter, tuple, object], None]

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        """fn with a span named `name` around every call. A call that raises
        also adds one to counts[name + ".errors"]."""
        name_id = self._name_id(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        errors = name + ".errors"
        # Set up front so that counting an error calls no Python code: the
        # error may be a RecursionError raised at the depth limit.
        counts.setdefault(errors, 0)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """fn, a generator function, with a span around each step of the
        generator it returns. counts[name + ".items"] counts the items."""
        step = self.wrap(name, next)
        items = name + ".items"
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                item = step(it, _DONE)
                if item is _DONE:
                    return
                counts[items] += 1
                yield item

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[CountHook] = None,
        generator: bool = False,
    ) -> None:
        """Rebind owner.attr (a module global or a class attribute, plain or
        classmethod) to its traced version until close()."""
        original = vars(owner)[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        traced = self.wrap_iter(name, fn) if generator else self.wrap(name, fn, count)
        if isinstance(original, classmethod):
            traced = classmethod(traced)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def summary(self) -> "SpanSummary":
        names = self.span_names
        return summarize(
            [names[i] for i in self.name_ids], self.starts, self.ends, self.parents
        )


@dataclass
class SpanSummary:
    """Per span name: calls, total duration and self time in nanoseconds.
    `under` counts calls per (parent name, name) pair."""

    calls: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    under: Counter = field(default_factory=Counter)

    def layer_self_ns(self, layer: str) -> int:
        """Self time of every span whose name starts with `layer.`."""
        prefix = layer + "."
        return sum(v for name, v in self.self_ns.items() if name.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for name, v in self.calls.items() if name.startswith(prefix))


def summarize(names, starts, ends, parents) -> SpanSummary:
    """Aggregate spans given as parallel sequences; parents[i] is the index
    of span i's parent, or -1 for a root. A span's self time is its duration
    minus the durations of its children, which nest inside it and do not
    overlap one another because the traced program is single-threaded."""
    n = len(names)
    covered = array("q", bytes(8 * n))
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out = SpanSummary()
    for i in range(n):
        name = names[i]
        duration = ends[i] - starts[i]
        out.calls[name] += 1
        out.total_ns[name] += duration
        out.self_ns[name] += duration - covered[i]
        parent = parents[i]
        if parent >= 0:
            out.under[(names[parent], name)] += 1
    return out
