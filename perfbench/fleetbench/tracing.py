"""In-memory spans recorded around calls into the program's layers.

The traced run installs wrappers around public functions and methods
(see :mod:`fleetbench.layers`); each wrapper records a :class:`Span`
— name, start, end, parent — while the run streams.  The tick number
is the shared trace id.  Spans stay in memory until the run ends;
:func:`self_times` then charges each span its duration minus the part
of it that its children cover.

A wrapper called while a span of the same name is already open passes
straight through: recursion inside one layer (a verifier calling a
verifier) is that layer's own time, not a second span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    trace_id: Optional[int] = None  # the tick


class Tracer:
    """Collects spans and counters; patches and restores call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_id: Optional[int] = None
        self._stack: list[int] = []
        self._open: Counter = Counter()  # span name -> open depth
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trace_id=self.trace_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        self._open[span.name] -= 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (unless one is open)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # ------------------------------------------------------------------
    # Patching call sites
    # ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[str] = None,
        observe: Optional[Callable[[tuple, object], None]] = None,
        span: bool = True,
    ) -> Callable:
        """``fn`` recording a span ``name`` per outermost call.

        ``count`` names a counter bumped per outermost call; ``observe``
        sees ``(args, result)`` of every outermost call; ``span=False``
        only counts (for calls too frequent to span cheaply).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            if count is not None:
                tracer.counts[count] += 1
            if not span:
                out = fn(*args, **kwargs)
            else:
                index = tracer.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def patch_attr(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` (a method, classmethod, staticmethod or
        property defined on ``owner`` itself)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, property):
            new = property(self.wrap(raw.fget, name, **options), raw.fset, raw.fdel)
        else:
            new = self.wrap(raw, name, **options)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from module import fn`` copies the function into the
        importer's namespace, so every loaded module holding the same
        object gets the wrapper too.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        for mod in _modules_holding(original):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()


def _modules_holding(obj) -> Iterable:
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        if any(value is obj for value in vars(mod).values()):
            yield mod


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (concurrent work under one
    parent); overlapping time is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """``(inclusive, self)`` seconds per span name.

    Inclusive time counts the outermost span of each name only, which
    the same-name pass-through already guarantees.
    """
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for span, s in zip(spans, self_times(spans)):
        inclusive[span.name] += span.end - span.start
        own[span.name] += s
    return dict(inclusive), dict(own)
