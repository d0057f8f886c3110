"""In-memory spans and counters for the traced run.

Spans are recorded from the benchmark's own code: around its calls into
each layer, and by wrappers it installs on the layers' public functions.
Nothing in ``src/`` is edited.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans ``(id, name, start, end, parent)`` and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, self._stack[-1]))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, self.spans[sid][4])

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def enclosing(self, prefix: str) -> str | None:
        """Name of the innermost open span that starts with ``prefix``."""
        for sid in reversed(self._stack[1:]):
            if self.spans[sid][1].startswith(prefix):
                return self.spans[sid][1]
        return None

    # -- wrappers on public functions ------------------------------------
    def wrap(self, owner, attr: str, name: str, counter=None,
             timed: bool = True, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` (when ``timed``), bumps ``counter`` (a name, or a
        function returning one) and passes the result
        to ``on_result``.  :meth:`unwrap_all` restores the original."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.counters[counter() if callable(counter) else counter] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children
        cover (children nest strictly: the benchmark is one thread)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {"id": s, "name": n, "start": a, "end": b, "parent": p}
                        for s, n, a, b, p in self.spans
                    ],
                    "counters": dict(self.counters),
                },
                f,
            )
