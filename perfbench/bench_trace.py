"""Span recording for the benchmark's traced runs, from outside the program.

The program under test has no spans of its own yet, so the traced run
wraps the functions and methods each layer is entered through
(:class:`Patches`), records one :class:`Span` around every call while an
operation is open (:class:`Recorder`), and puts every original back
afterwards.  Nothing in the program changes; the wrappers exist only
between :meth:`Patches.wrap` and :meth:`Patches.restore`.

A span holds its name, start, end, parent span and operation id.  Spans
are kept in memory and written once, at the end, as Chrome trace-event
JSON (:func:`write_chrome_trace`), which opens in Perfetto.  A layer's
self time is its span's duration minus the union of the intervals its
child spans cover (:func:`self_times`).

The recorder keeps one stack of open spans, so it assumes the traced
calls happen on one thread (true of every in-process workload here; the
service workload records only the client side).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "Recorder",
    "Patches",
    "traced",
    "current",
    "union_length",
    "self_times",
    "write_chrome_trace",
]

#: A span name, or a function of the recorder choosing one at call time
#: (e.g. by which span is open around the call).
SpanName = Union[str, Callable[["Recorder"], str]]


class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    __slots__ = ("id", "name", "fn", "start", "end", "parent", "op", "counts")

    def __init__(
        self,
        id: int,
        name: str,
        fn: str,
        start: float,
        parent: Optional[int],
        op: Any,
    ) -> None:
        self.id = id
        self.name = name
        self.fn = fn
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans, but only while an operation is open (:meth:`op`).

    Calls made outside an operation — set-up, verification — pass through
    the wrappers unrecorded, so they cannot leak into per-operation
    figures.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op: Any = None
        self._next_id = 0

    def begin(self, name: SpanName, fn: str = "") -> Optional[Span]:
        """Open a span under the innermost open one (``None`` when idle)."""
        if self._op is None:
            return None
        if callable(name):
            name = name(self)
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, fn, self.clock(), parent, self._op)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} was innermost"
            )
        self.spans.append(span)

    def inside(self, fn: str) -> bool:
        """Whether a span recorded around function ``fn`` is open."""
        return any(s.fn == fn for s in self._stack)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """A span around a block of the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        finally:
            if span is not None:
                self.end(span)

    @contextlib.contextmanager
    def op(self, op_id: Any) -> Iterator[Span]:
        """Open operation ``op_id``: its root span is named ``"op"``."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        self._op = op_id
        root = self.begin("op")
        assert root is not None
        try:
            yield root
        finally:
            self.end(root)
            self._op = None


def _traced_generator(gen: Iterator, recorder: Recorder, name: SpanName, fn: str):
    """Re-yield ``gen``, recording one span around each resumption — the
    work of a generator runs while it is advanced, not when it is made."""
    try:
        while True:
            span = recorder.begin(name, fn)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if span is not None:
                    recorder.end(span)
            yield item
    finally:
        gen.close()  # a consumer that stops early closes the original too


def traced(
    fn: Callable,
    recorder: Recorder,
    name: SpanName,
    *,
    qualname: str = "",
    count: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None,
) -> Callable:
    """``fn`` wrapped to record a span per call (see module docstring).

    ``count(args, kwargs, result)`` may attach counters to the span, such
    as rows handed to a kernel.  A returned generator is traced per
    resumption.
    """
    qualname = qualname or f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name, qualname)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if count is not None:
            span.counts = count(args, kwargs, result)
        if inspect.isgenerator(result):
            return _traced_generator(result, recorder, name, qualname)
        return result

    return wrapper


class Patches:
    """Install span wrappers on attributes, and put the originals back.

    A target is a module or class attribute (``owner``, ``attr``) or a
    mapping item.  Class attributes are read from the class ``__dict__``
    so that classmethods and staticmethods are wrapped as what they are.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: SpanName,
        count: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None,
    ) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            qualname = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        else:
            original = getattr(owner, attr)
            qualname = f"{owner.__name__}.{attr}"
        if isinstance(original, (classmethod, staticmethod)):
            inner = traced(
                original.__func__, self.recorder, name, qualname=qualname, count=count
            )
            replacement: Any = type(original)(inner)
        else:
            replacement = traced(
                original, self.recorder, name, qualname=qualname, count=count
            )
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def replace_item(self, mapping: Dict[str, Any], key: str, value: Any) -> None:
        """Swap ``mapping[key]`` (e.g. a registry entry) for ``value``."""
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def originals(self) -> List[Tuple[Any, str, Any]]:
        """The ``(owner, attr, original)`` triples currently replaced."""
        return list(self._saved)


def current(owner: Any, attr: str) -> Any:
    """What ``owner.attr`` (or ``owner[attr]``) holds now, unwrapped by
    descriptors — the value :class:`Patches` compares against."""
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs.

    >>> union_length([(0, 2), (1, 3), (5, 6)])
    4
    """
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the union its children cover (children
    are clipped to the parent's interval first)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        covered = union_length(
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        )
        out[s.id] = s.duration - covered
    return out


def write_chrome_trace(spans: Iterable[Span], path: str) -> None:
    """Write spans as Chrome trace-event JSON (complete ``"X"`` events,
    microseconds; the operation id is the thread lane)."""
    spans = list(spans)
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for s in spans:
        args: Dict[str, Any] = {"id": s.id, "parent": s.parent, "op": s.op}
        if s.fn:
            args["fn"] = s.fn
        if s.counts:
            args.update(s.counts)
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
