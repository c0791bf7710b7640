"""Spans around calls into the program's layers, taken from outside it.

A :class:`Tracer` replaces module attributes (``repro.core.gograph._split_graph``
and so on) with wrappers that record a span per call: name, layer, start,
end and the index of the enclosing span. Nothing under ``src/`` is edited;
callers pick the wrapper up because they look the name up in the module at
call time. Spans stay in memory until :meth:`Tracer.dump`.

While no patch is installed the program runs untouched, which is how the
untraced passes of a traced run measure the tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level


class Tracer:
    """Records spans and counts through patched module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []  # (mod, attr, orig, wrapper)

    # -- recording ---------------------------------------------------------
    def span(self, name: str, layer: str):
        """Context manager recording one span."""
        return _SpanCtx(self, name, layer)

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        module: str,
        attr: str,
        layer: str,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Register a span wrapper for ``module.attr``.

        ``name`` is the span name or a function of the call's arguments;
        ``on_result(result, *args, **kwargs)`` may record counts.
        """
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name, layer):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(out, *args, **kwargs)
            return out

        self._patches.append((mod, attr, orig, wrapper))

    def counter(self, module: str, attr: str, count_name: str) -> None:
        """Register a call counter (no span) for a hot function."""
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.counts[count_name] = self.counts.get(count_name, 0) + 1
            return orig(*args, **kwargs)

        self._patches.append((mod, attr, orig, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in reversed(self._patches):
            setattr(mod, attr, orig)

    # -- analysis ----------------------------------------------------------
    def mark(self) -> int:
        """Position in the span list; spans recorded later belong to a pass."""
        return len(self.spans)

    def totals(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Σ duration per span name over ``spans[since:until]``."""
        out: dict[str, float] = {}
        for s in self.spans[since:until]:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_times(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Σ self time per layer: each span minus what its children cover.

        Children of one span never overlap (calls are sequential), so the
        covered part is the sum of the children's durations.
        """
        spans = self.spans[: len(self.spans) if until is None else until]
        child_time = [0.0] * len(spans)
        for s in spans[since:]:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i in range(since, len(spans)):
            s = spans[i]
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - child_time[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span once, at the end of the run."""
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {
                            "name": s.name,
                            "layer": s.layer,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                        }
                        for s in self.spans
                    ],
                    "counts": self.counts,
                },
                f,
            )


class _SpanCtx:
    __slots__ = ("tracer", "name", "layer", "idx")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.idx = len(t.spans)
        t.spans.append(Span(self.name, self.layer, time.perf_counter(), 0.0, parent))
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx].end = time.perf_counter()
        t._stack.pop()
        return False
