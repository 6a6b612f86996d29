"""Spans and counters recorded around calls into colony_track's layers.

:class:`Tracer` replaces module attributes (functions, or methods on a class)
by timing wrappers and puts the originals back on exit. Each wrapped call is a
span; a span's self time is its duration minus the time of the wrapped calls
made inside it. A wrapper only reads arguments and results, so a traced run
computes exactly what an untraced run computes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self._child_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a function of the call's ``(args,
        kwargs)`` that returns it. ``on_result(tracer, args, kwargs, result)``
        runs after each call that returns, outside the timed interval.
        """
        original = owner.__dict__[attr]
        spans = self.spans
        stack = self._child_s

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats = spans[name(args, kwargs) if callable(name) else name]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr]
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
