"""In-memory span tracer that wraps rslv_lab's module-level names from outside.

Spans are recorded at each wrapped boundary with a name, start, end, parent
span and thread id.  Every thread keeps its own stack, because
``condition_c.sample_quadratic_min`` runs its chunks on a thread pool; a
chunk span takes as parent the span that was open in the submitting thread.

Self time of a span is its duration minus the durations of its children in
the same thread (those run strictly inside it and one after another).  The
self times of a thread's subtree therefore sum to the duration of its top
span.  A parent blocked on pool workers keeps that wait as self time; the
workers' own busy time is in their ``condition_c.chunk`` subtrees.

Wrappers replace attributes of the program's modules only inside
``Tracer.installed()`` and are restored on exit.  A target that does not
exist is recorded in ``Tracer.absent`` and skipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one or more traced calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Open a span; ``parent`` is used only when this thread has none open."""
        stack = self._stack()
        pid = stack[-1] if stack else parent
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, pid, name, start, end, threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn, after=None, parent: int | None = None):
        """``fn`` inside a span; ``after(tracer, args, kwargs, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, parent):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (module, attribute path, span name, after) target, then restore.

        A class target (the executor ``condition_c`` uses) is replaced by a
        subclass whose ``map`` runs each task in a span.
        """
        patched = []
        try:
            for module_name, path, name, after in targets:
                owner, attr = _resolve(module_name, path)
                if owner is None:
                    if f"{module_name}.{path}" not in self.absent:
                        self.absent.append(f"{module_name}.{path}")
                    continue
                original = owner.__dict__[attr]
                if isinstance(original, type):
                    replacement = _traced_pool(self, original, name)
                else:
                    replacement = self.wrap(name, original, after)
                setattr(owner, attr, replacement)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        by_id = {s.id: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                child_time[s.parent] += s.duration
        return {s.id: s.duration - child_time[s.id] for s in self.spans}

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({**asdict(s), "self": selfs[s.id]}) + "\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}):
        return None, None
    return owner, attr


def _traced_pool(tracer: Tracer, base: type, name: str) -> type:
    """An executor class whose ``map`` runs each task in a span named ``name``."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            task = tracer.wrap(name, fn, parent=tracer.current())
            return super().map(task, *iterables, **kwargs)

    return TracedPool
