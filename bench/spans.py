"""Spans recorded around calls into the contagion modules, and the per-layer
metrics derived from them.

A traced run rebinds each timed function to a wrapper in every
``contagion.*`` module namespace that holds it, so a call is seen whichever
module looks the name up. Nothing under ``src/`` is edited; ``restore`` puts
the original objects back.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None      # index of the enclosing span in Tracer.spans
    request: object = None         # member index, or (network, shock, recovery)
    phase: str = ""                # "setup" or "pass<k>"
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.duration - _covered([(max(c.start, s.start), min(c.end, s.end))
                                   for c in children[i]])
            for i, s in enumerate(spans)]


def contagion_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "contagion" or name.startswith("contagion.")]


class Tracer:
    """Records nested spans while timing wrappers are bound.

    Single-threaded: the open spans form a stack, and the innermost open
    span is the parent of the next one.
    """

    def __init__(self):
        self.modules = contagion_modules()
        self.spans = []
        self.phase = ""
        self.request = None
        self._stack = []
        self._saved = []

    def wrap(self, original, name=None, request=None, on_return=None):
        """Bind a wrapper for ``original`` wherever a module holds it.

        ``name`` (a string, or a function of the call arguments) labels the
        span; with no name the wrapper records no span and only sets the
        request id from ``request(*args, **kwargs)`` for the calls inside.
        ``on_return(span, args, kwargs, result)`` adds attributes read from
        the result after the span has closed.
        """
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = tracer.request
            if request is not None:
                tracer.request = request(*args, **kwargs)
            try:
                if name is None:
                    return original(*args, **kwargs)
                span = tracer._open(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.failed = True
                    raise
                finally:
                    tracer._close(span)
                if on_return is not None:
                    on_return(span, args, kwargs, result)
                return result
            finally:
                tracer.request = outer

        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return wrapper

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        span = Span(name=name, start=0.0,
                    parent=self._stack[-1] if self._stack else None,
                    request=self.request, phase=self.phase)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n < 11:
        return None
    return min(99, math.floor(100 * (n - 10) / n))


def latency_summary(values) -> tuple:
    """(median, tail value, tail percentile or None); the tail is the
    maximum when fewer than 11 samples exist, and all are 0 with no samples."""
    if not values:
        return 0.0, 0.0, None
    q = tail_percentile(len(values))
    return (float(np.median(values)),
            float(np.percentile(values, q if q is not None else 100)), q)
