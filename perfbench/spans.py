"""Nested wall-clock spans recorded from outside the program under test.

A :class:`Tracer` replaces functions and methods of imported modules with
wrappers that open a span around every call, and puts the originals back on
:meth:`Tracer.restore`.  A span's self time is its duration minus the
durations of the spans opened directly inside it, so the self times of all
spans add up to the time the outermost spans cover.  Spans are aggregated by
name in memory; nothing is written while tracing.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span stack, per-name span totals and named counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[list] = []  # [name, start, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, int] = defaultdict(int)

    @property
    def parent(self) -> str | None:
        """Name of the span enclosing the innermost open one."""
        return self._open[-2][0] if len(self._open) > 1 else None

    def enter(self, name: str) -> None:
        self._open.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._open.pop()
        duration = self._clock() - start
        stats = self.spans[name]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._open:
            self._open[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """The enclosed block as one span."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(fn, args, kwargs)`` may make the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                self.exit()
        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace ``owner.attr``, a function of a module or a class.

        A module function is also replaced in every module of the same
        package that bound it by ``from ... import``, so calls through any
        of those names are traced.
        """
        original = vars(owner)[attr]
        traced = self.wrap(original, name, observe)
        targets = [owner]
        if isinstance(owner, types.ModuleType):
            package = owner.__name__.partition(".")[0]
            targets += [mod for key, mod in list(sys.modules.items())
                        if mod is not owner and mod is not None
                        and (key == package or key.startswith(package + "."))
                        and vars(mod).get(attr) is original]
        for target in targets:
            setattr(target, attr, traced)
            self._undo.append((target, attr, original))

    def restore(self) -> None:
        """Put back everything :meth:`patch` replaced, newest first."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
