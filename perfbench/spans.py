"""In-memory span recorder that times calls into the program's layers.

The benchmark does not modify the program: :class:`Tracer` replaces the
*bindings* that callers use (a module attribute such as
``repro.runner.plan.run_baseline``, or a method on a class such as
``SQLiteResultStore.get``) with thin wrappers that record one span per
call, and puts every original back on :meth:`Tracer.restore`.

A span is ``(id, parent, name, start, end, thread, run, args)``.  Spans
are kept in a list and only turned into metrics or a Chrome trace-event
file (:func:`chrome_trace`, viewable in Perfetto) once measuring is over.
A layer's self time is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "chrome_trace", "self_times", "union_length"]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    run: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals.

    >>> union_length([(0, 2), (1, 3), (5, 6)])
    4
    """
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals
    (each child clipped to the parent)."""
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration - union_length(children.get(span.id, ()))
        for span in spans
    }


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.thread,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": {"id": span.id, "parent": span.parent, "run": span.run, **span.args},
            }
            for span in spans
        ],
    }


class Tracer:
    """Records spans from wrapped call sites; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: the request (workload unit) new spans belong to
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ spans

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **args: Any) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=time.perf_counter(),
            thread=threading.get_ident() % 100000,
            run=self.run,
            args=args,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        describe: Optional[Callable[[tuple, Dict[str, Any], Any], Dict[str, Any]]] = None,
        label: Optional[Callable[[tuple], str]] = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``fn``.

        ``describe(args, kwargs, result)`` adds span arguments (counts);
        ``label(args)`` appends a suffix to the span name (``core.advice``
        becomes ``core.advice.theorem3``).  A call made while a span of
        the same name is already open on this thread (``super()``
        chains) is passed straight through, so it is counted once.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name if label is None else f"{name}.{label(args)}"
            stack = tracer._stack()
            if stack and stack[-1].name == span_name:
                return fn(*args, **kwargs)
            span = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if describe is not None:
                span.args.update(describe(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---------------------------------------------------------------- patching

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, name: str, **options: Any) -> None:
        """Wrap ``cls.attr`` (a plain function defined on ``cls``)."""
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **options))

    def patch_function(self, fn: Callable[..., Any], name: str, **options: Any) -> int:
        """Wrap every module-level binding of ``fn`` in the ``repro`` package.

        Callers reach a function through whatever name their module
        imported, so each binding is replaced; returns how many were.
        """
        wrapper = self.wrap(name, fn, **options)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
