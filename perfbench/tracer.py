"""Span tracer that wraps functions from outside the traced package.

A span is recorded around every call of a wrapped function: its name, the
index of the span that was open when it started (its parent), its start
and end times, and an optional tuple of extra numbers taken from the
arguments or the result. Spans of one benchmark item stay in memory while
the item runs; fold() then turns them into per-name aggregates between
items, so no bookkeeping beyond appending a tuple happens inside the timed
region.

Self time is a span's duration minus the durations of its direct children.
Calls are strictly nested (one thread, no callbacks), so the children never
overlap and their durations add up to exactly the time they cover.

Functions are wrapped at every module binding that refers to them: a name
imported with ``from .poly import s_polynomial`` is a separate binding from
``poly.s_polynomial``, and both are replaced. restore() puts every original
back, in reverse order.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass
class Aggregate:
    """Totals for one span name over every folded span.

    Extra values are tuples of numbers; they are summed and maximized
    element by element. by_parent maps the name of the enclosing span to
    [calls, sum of the first extra element] for the calls made under it.
    """

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra_sum: list = field(default_factory=list)
    extra_max: list = field(default_factory=list)
    by_parent: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counts: dict[str, list[int]] = {}
        self.aggregates: dict[str, Aggregate] = defaultdict(Aggregate)

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to replacement until restore()."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span_wrapper(self, fn: Callable, name: str, extra: Callable | None = None) -> Callable:
        """fn wrapped in a span; extra(args, result) gives the span's extra value."""
        name_id = self._name_id(name)
        spans = self._spans
        stack = self._stack

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end, None)
            if extra is not None:
                spans[index] = (name_id, parent, start, end, extra(args, result))
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_function(self, modules, module, attr: str, name: str, extra=None) -> None:
        """Wrap module.attr wherever a module in modules binds that object under the same name."""
        original = getattr(module, attr)
        wrapped = self.span_wrapper(original, name, extra)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapped)

    def wrap_method(self, cls, attr: str, name: str, extra=None) -> None:
        self.patch(cls, attr, self.span_wrapper(cls.__dict__[attr], name, extra))

    def count_function(self, modules, module, attr: str, name: str) -> None:
        """Count calls of module.attr without a span (for very cheap, very hot helpers)."""
        original = getattr(module, attr)
        cell = self._counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return original(*args)

        counted.__wrapped__ = original
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def fold(self) -> None:
        """Fold the recorded spans into the aggregates and drop them."""
        if self._stack:
            raise RuntimeError("fold() called while a span is open")
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name_id, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        names = self._names
        for index, (name_id, parent, start, end, extra) in enumerate(spans):
            agg = self.aggregates[names[name_id]]
            duration = end - start
            agg.calls += 1
            agg.total_s += duration
            agg.self_s += duration - child_s[index]
            under = agg.by_parent[names[spans[parent][0]] if parent >= 0 else ""]
            under[0] += 1
            if extra is not None:
                if not agg.extra_sum:
                    agg.extra_sum = [0] * len(extra)
                    agg.extra_max = [0] * len(extra)
                for i, value in enumerate(extra):
                    agg.extra_sum[i] += value
                    if value > agg.extra_max[i]:
                        agg.extra_max[i] = value
                under[1] += extra[0]
        spans.clear()

    def count(self, name: str) -> int:
        return self._counts[name][0] if name in self._counts else 0
