"""In-memory spans recorded from the benchmark's own files.

A span is (name, start, end, parent): ``parent`` is the index of the
enclosing span, -1 at the top.  Spans stay in memory while the traced
run works and are written out once, at the end.  Counts (work done,
bytes moved) are recorded beside them under their own names.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Iterator

__all__ = ["NULL_SPANS", "NullSpans", "Spans", "wrap_method"]


class Spans:
    """Span and count recorder for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, parented like :meth:`span`'s."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
            fh.write(json.dumps({"counts": self.counts}) + "\n")


class NullSpans(Spans):
    """Records nothing: the untraced run's recorder."""

    enabled = False

    def span(self, name: str) -> ContextManager[None]:  # type: ignore[override]
        return nullcontext()

    def record(self, name: str, start: float, end: float) -> None:
        pass

    def count(self, name: str, n: float) -> None:
        pass


NULL_SPANS = NullSpans()


def wrap_method(
    tr: Spans, fn: Callable[..., Any], name_of: Callable[[Any], str]
) -> Callable[..., Any]:
    """``fn`` with a span around each call, named from its result."""

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        tr.record(name_of(result), start, time.perf_counter())
        return result

    return wrapped
