"""In-memory spans around the package's functions, recorded from outside.

A Tracer replaces named module attributes with timing wrappers while it
is installed and puts the originals back when it is removed, so the
untraced code path is the package's own. Spans nest through a stack of
open spans: a span's parent is the one open when it started, and a
span's self time is its duration minus its children's durations.

Spans, like every timing the benchmark reports, read the process CPU
clock. On a shared virtual machine the process can be descheduled for a
large share of wall time (steal time reached a quarter of it on a 2-vCPU
guest), which swung wall-clock figures by more than half between
minutes. The timed code is single-threaded and does no blocking I/O, so
on an idle machine its CPU time equals its wall time. Spans hold
unscaled CPU seconds; run.py scales the figures it reports from them
(see reference.py).
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import process_time as clock


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Trace calls of owner.attr as spans called name.

        attrs(args, result), if given, returns a dict of counts stored on
        the span. Its time is taken out of the spans still open, so that
        the benchmark's bookkeeping does not show as pipeline self time.
        A missing attribute raises AttributeError at once, so a renamed
        function fails the run instead of going unmeasured.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._finish(span)
            if attrs is not None:
                t0 = clock()
                span.attrs = attrs(args, result)
                self._pause(clock() - t0)
            return result

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        """A parent span, e.g. one per input line; spans opened inside it
        share its trace id."""
        span = self._start(name, trace)
        try:
            yield span
        finally:
            self._finish(span)

    def _start(self, name: str, trace: int | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            trace=trace,
            name=name,
            start=0.0,
        )
        self.spans.append(span)
        self._open.append(span)
        span.start = clock()
        return span

    def _finish(self, span: Span) -> None:
        span.end = clock()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _pause(self, seconds: float) -> None:
        """Leave seconds out of the duration of every open span."""
        for span in self._open:
            span.start += seconds

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "trace": s.trace,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )
