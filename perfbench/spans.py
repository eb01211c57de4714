"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent index, trace id). Spans of one sample
share its id as trace id. ``Tracer.wrap`` swaps a module attribute for a
span-recording wrapper, which is how costs behind a public entry point
(``dl_matrix`` under ``align``) are reached from outside the library; the
untraced run uses ``NULL`` and never wraps anything.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Tracing off: a span costs one call returning a shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL_CONTEXT

    def set_trace(self, trace_id: str) -> None:
        pass


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trace_id = ""
        self._wrapped: list[tuple[object, str, object]] = []

    def set_trace(self, trace_id: str) -> None:
        self._trace_id = trace_id

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._trace_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` with a wrapper recording span ``name``;
        ``on_result(tracer, args, result)`` may add counts."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._wrapped.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[k]
        return dict(totals)

    def _below(self, under: str | None):
        """Spans, optionally only those with an ancestor named ``under``."""
        for span in self.spans:
            parent = span[3]
            if under is not None:
                while parent >= 0 and self.spans[parent][0] != under:
                    parent = self.spans[parent][3]
                if parent < 0:
                    continue
            yield span

    def inclusive_times(self, under: str | None = None) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self._below(under):
            totals[name] += end - start
        return dict(totals)

    def span_counts(self, under: str | None = None) -> Counter:
        return Counter(span[0] for span in self._below(under))

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            for k, (name, start, end, parent, trace_id) in enumerate(self.spans):
                fp.write(json.dumps({
                    "id": k, "name": name, "parent": parent, "trace": trace_id,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                }) + "\n")
