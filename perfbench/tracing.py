"""Span recording from outside the program.

A :class:`Tracer` holds spans in memory: ``(span_id, parent_id, name,
start, end, trace_id)`` tuples with ``perf_counter`` times. Spans nest
through a context variable, so they follow the caller across ``await``
and into any thread that runs with a copied context. Every span of one
request or sweep chunk carries the same ``trace_id``: a root span
starts a new one, and a child inherits its parent's.

The wrappers are installed on every binding callers resolve: the
defining class attribute for methods, and for module-level functions
each ``repro.*`` module attribute that refers to the function, so a
``from .x import f`` copy is wrapped as well. :func:`install` returns a
function that puts the originals back.

A span name is ``"<layer>:<operation>"``; the layer is the part before
the colon.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int]

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        # (current span id, current trace id); 0 means "none".
        self._current = contextvars.ContextVar("perfbench_span", default=(0, 0))

    # -- recording ---------------------------------------------------------

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, trace: Optional[int] = None) -> int:
        """Store a span whose interval is already known."""
        current, current_trace = self._current.get()
        sid = next(self._ids)
        self.spans.append((
            sid,
            current if parent is None else parent,
            name,
            start,
            end,
            (current_trace or sid) if trace is None else trace,
        ))
        return sid

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def current(self) -> Tuple[int, int]:
        return self._current.get()

    def span(self, name: str, *, root: bool = False):
        """Context manager: one span around the ``with`` body.

        ``root`` starts a parentless span with a new trace id.
        """
        return _SpanScope(self, name, root)

    def _enter(self, root: bool, new_trace: bool = False):
        parent, trace = self._current.get()
        sid = next(self._ids)
        if root or new_trace or not trace:
            trace = sid
        token = self._current.set((sid, trace))
        return sid, (0 if root else parent), trace, token

    def _exit(self, name, sid, parent, trace, token, start) -> None:
        end = _clock()
        self._current.reset(token)
        self.spans.append((sid, parent, name, start, end, trace))

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, *, root: bool = False,
             measure: Optional[Callable] = None,
             iterate: bool = False, new_trace_items: bool = False) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``measure(args, kwargs)`` runs before the call and adds its
        ``{key: amount}`` result to :attr:`counts`. ``iterate`` is for
        functions returning an iterator whose items do the work: each
        ``next()`` becomes a span, with a trace id of its own when
        ``new_trace_items`` (one id per sweep chunk).
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if measure is not None:
                    tracer._measure(measure, args, kwargs)
                sid, parent, trace, token = tracer._enter(root)
                start = _clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(name, sid, parent, trace, token, start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure is not None:
                tracer._measure(measure, args, kwargs)
            sid, parent, trace, token = tracer._enter(root)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, trace, token, start)
            if iterate:
                return _TracedIterator(tracer, result, name, new_trace_items)
            return result

        return wrapper

    def _measure(self, measure, args, kwargs) -> None:
        for key, amount in measure(args, kwargs).items():
            self.counts[key] += amount

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    @staticmethod
    def load(path: str) -> Tuple[List[Span], Dict[str, float]]:
        with open(path) as handle:
            data = json.load(handle)
        return [tuple(span) for span in data["spans"]], data["counts"]


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, root: bool):
        self._tracer = tracer
        self._name = name
        self._root = root

    def __enter__(self):
        self._state = self._tracer._enter(self._root)
        self._start = _clock()
        return self._state[0]

    def __exit__(self, *exc):
        sid, parent, trace, token = self._state
        self._tracer._exit(self._name, sid, parent, trace, token, self._start)
        return False


class _TracedIterator:
    """Iterator proxy: every ``next()`` is one span."""

    def __init__(self, tracer: Tracer, inner, name: str, new_trace: bool):
        self._tracer = tracer
        self._inner = iter(inner)
        self._name = name
        self._new_trace = new_trace

    def __iter__(self):
        return self

    def __next__(self):
        sid, parent, trace, token = self._tracer._enter(False, self._new_trace)
        start = _clock()
        try:
            return next(self._inner)
        finally:
            self._tracer._exit(self._name, sid, parent, trace, token, start)


# -- installation -------------------------------------------------------------


#: The package whose module attributes :func:`install` patches.
PACKAGE = "repro"


def _modules() -> Iterable:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield module


def install(patches: Sequence[Tuple[object, str, Callable]]) -> Callable[[], None]:
    """Apply ``(owner, attribute, make_replacement)`` patches.

    ``owner`` is a class or a module. For a class the attribute is
    replaced on the class. For a module every ``repro.*`` module whose
    attribute refers to the same object is patched too. Returns the undo
    function.
    """
    undo: List[Tuple[object, str, object]] = []
    for owner, attribute, make in patches:
        original = inspect.getattr_static(owner, attribute)
        replacement = make(getattr(owner, attribute))
        if inspect.isclass(owner):
            undo.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            continue
        for module in _modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, value))
                    setattr(module, name, replacement)

    def restore() -> None:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)

    return restore


# -- analysis -----------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children are clipped to their parent's interval and their overlap
    is counted once, so concurrent children (coalesced requests,
    executor threads) never drive a self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[0]: (span[3], span[4]) for span in spans}
    for sid, parent, _name, start, end, _trace in spans:
        if parent in bounds:
            low, high = bounds[parent]
            start, end = max(start, low), min(end, high)
            if end > start:
                children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()))
        for sid, _parent, _name, start, end, _trace in spans
    }


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]
