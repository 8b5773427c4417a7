"""Span recording around calls into the ``repro`` package, from outside it.

The benchmark's traced run installs wrappers on public functions and
methods of every layer (``graphs``, ``formats``, ``prone``, ``core``,
``parallel``, ``memsim``, ``serve``, ``shard``).  Each wrapped call
records one span ``(name, start, end, parent, run_id, attrs)`` in
memory; the spans are written out once, when the benchmark ends.  No
code inside ``src/`` is changed: a wrapper replaces the attribute on the
class, or on every ``repro`` module that imported the function by name.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

Annotate = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One timed call: wall seconds from ``time.perf_counter``."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a parent stack for the main thread.

    Calls made from other threads (executor workers) pass through
    untraced, so the parent stack never interleaves.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def active(self) -> bool:
        return threading.get_ident() == self._thread

    def top_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str, **attrs: Any) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.run_id, attrs)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: closed {index}, top {popped}")

    def ancestors(self, span: Span) -> Iterator[Span]:
        parent = span.parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _traced(
    recorder: SpanRecorder,
    func: Callable,
    name: str,
    annotate: Annotate | None,
) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # A call re-entering the same layer name (a subclass delegating
        # to its base, an operator build calling another) stays inside
        # the outer span rather than opening a nested duplicate.
        if not recorder.active() or recorder.top_name() == name:
            return func(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if annotate is not None:
            recorder.spans[index].attrs.update(annotate(args, kwargs, result))
        return result

    return wrapper


class Instrumentation:
    """Installs and removes span wrappers; restores every original."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def function(
        self, module: str, attr: str, name: str, annotate: Annotate | None = None
    ) -> None:
        """Wrap a module-level function in every ``repro`` module holding it."""
        original = getattr(sys.modules[module], attr)
        wrapper = _traced(self.recorder, original, name, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(
        self, cls: type, attr: str, name: str, annotate: Annotate | None = None
    ) -> None:
        """Wrap a method (plain or classmethod) defined on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                _traced(self.recorder, original.__func__, name, annotate)
            )
        else:
            wrapped = _traced(self.recorder, original, name, annotate)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
