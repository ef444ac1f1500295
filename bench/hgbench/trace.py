"""Spans around calls into hgnids, recorded from outside the package.

A `Tracer` keeps every span in memory: a name, start and end times from
`time.perf_counter`, the span that was open when it started, and the
counts that the layer reports for the call. `patched` swaps the traced
functions into every hgnids module (and class) that holds them, so the
callers, which look the name up at call time, go through the wrapper.
Nothing under the package itself changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

Counter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._slots: list[Span | None] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, count: Counter | None):
        sid = len(self._slots)
        parent = self._stack[-1] if self._stack else None
        self._slots.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        counts = count(args, kwargs, result) if count is not None else {}
        self._slots[sid] = Span(sid, parent, name, start, end, counts)
        return result

    def finish(self) -> list[Span]:
        """Spans of the calls that returned, ordered by start; call once no
        traced call is open."""
        if self._stack:
            raise RuntimeError("spans still open")
        return [s for s in self._slots if s is not None]


@dataclass(frozen=True)
class Target:
    """A traced function: `owner` is a module or class name under hgnids."""

    layer: str
    owner: str
    attr: str
    count: Counter | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = sys.modules[module]
    return getattr(mod, cls) if cls else mod


@contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Route every traced function through `tracer` while the block runs.

    A module-level function is replaced in each loaded hgnids module whose
    namespace holds the same object, under whatever name it is bound to
    there; a method is replaced on its class.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "hgnids" or n.startswith("hgnids.")]
    try:
        for t in targets:
            owner = _resolve(t.owner)
            original = getattr(owner, t.attr)
            wrapper = _wrap(tracer, t, original)
            if isinstance(owner, type):
                places = [(owner, t.attr)]
            else:
                places = [
                    (m, key) for m in modules for key, value in vars(m).items() if value is original
                ]
            for obj, key in places:
                undo.append((obj, key, original))
                setattr(obj, key, wrapper)
        yield tracer
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    name, count = target.name, target.count

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, count)

    return wrapper


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def summarize(spans: Sequence[Span]) -> dict[str, float]:
    """Per span name: `calls`, inclusive `s` (outermost spans of that name
    only, so recursion is not counted twice), `self_s`, and every count
    the spans carry, summed."""
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own
        if not _has_ancestor_named(s, by_id):
            out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + s.duration
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    return out


def _has_ancestor_named(span: Span, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id.get(parent)
        if p is None:
            return False
        if p.name == span.name:
            return True
        parent = p.parent
    return False


def write_spans(ops: Sequence[Sequence[Span]], path) -> None:
    """Spans of each traced op as JSON rows: [id, parent, name, start, end, counts]."""
    doc = {
        "columns": ["id", "parent", "name", "start", "end", "counts"],
        "ops": [[[s.id, s.parent, s.name, s.start, s.end, s.counts] for s in spans] for spans in ops],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
