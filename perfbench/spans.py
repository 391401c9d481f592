"""In-memory spans around the library's public functions, patched from outside.

A hook names a module attribute that some caller looks up at call time, for
example ``cet.train.adam_step``, which ``train_epoch`` resolves through its
module globals on every batch. While a :class:`Tracer` is enabled, each such
attribute is replaced by a wrapper that records a span (name, start, end,
parent) and, optionally, the peak of ``tracemalloc``-traced memory inside it.
A hook may also name a ``measure`` function, which reads a size from the
wrapped function's result into ``Span.count``. A hook whose attribute no
longer exists is recorded as missing, with its span name in
``missing_spans``, and the run goes on; the caller reports the metrics of
that span as missing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0  # peak traced memory above the level at entry
    child_s: float = 0.0  # time covered by direct children
    count: int | None = None  # the hook's measure of the result, if it has one

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans kept in memory; patches are applied only between enable/disable."""

    def __init__(self, hooks: list[tuple]):
        self.hooks = hooks  # (module, attribute, span name[, measure])
        self.spans: list[Span] = []  # the current phase
        self.archived: list[Span] = []  # earlier phases, kept for write()
        self._ids = itertools.count()
        self.missing: list[str] = []  # "module.attribute" of absent hooks
        self.missing_spans: set[str] = set()
        self._open: list[tuple[Span, int, int]] = []  # span, base bytes, peak seen
        self._saved: list[tuple[object, str, object]] = []
        self._mark_base = self._mark_peak = 0
        self.enabled = False

    # -- patching -------------------------------------------------------
    def enable(self, memory: bool = True) -> None:
        """Patch every hook; with ``memory``, also trace allocations."""
        if self.enabled:
            return
        self.enabled = True
        if memory:
            tracemalloc.start()
        self.missing = []
        self.missing_spans = set()
        for module_name, attr, span_name, *measure in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                self.missing_spans.add(span_name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, *measure))

    def disable(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self.enabled = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _wrap(self, fn, span_name: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as span:
                result = fn(*args, **kwargs)
            if measure is not None:
                span.count = measure(result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def _fold_peak(self) -> int:
        """Fold the global traced peak into every open span, then reset it."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        self._open = [(s, base, max(seen, peak)) for s, base, seen in self._open]
        self._mark_peak = max(self._mark_peak, peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def span(self, name: str):
        current = self._fold_peak()
        parent = self._open[-1][0].id if self._open else None
        span = Span(id=next(self._ids), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._open.append((span, current, current))
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._fold_peak()
            _, base, seen = self._open.pop()
            span.peak_bytes = seen - base
            if self._open:
                self._open[-1][0].child_s += span.duration

    def interval_peak(self) -> int:
        """Peak traced bytes since the previous call, above the level then."""
        current = self._fold_peak()
        peak = self._mark_peak - self._mark_base
        self._mark_base = self._mark_peak = current
        return max(0, peak)

    def clear(self) -> None:
        """Start a new phase; ``by_name`` then sees only its spans."""
        self.archived += self.spans
        self.spans = []

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.archived + self.spans
        record = {**extra, "missing_hooks": self.missing, "spans": [asdict(s) for s in spans]}
        path.write_text(json.dumps(record), encoding="utf-8")
