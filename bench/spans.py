"""Spans around the public dfol calls the benchmark makes.

A traced run records one span per operation and one per public call made
inside it: name, start, end, parent span and operation id, plus an
optional tag (a verdict or a dialect) and counters.  Spans stay in memory
and are written out when the run ends.  With tracing off, ``call`` is a
plain function call.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class DeadlineExceeded(BaseException):
    """Raised from the alarm handler when an operation overruns its
    deadline.  A BaseException, so no ``except Exception`` in the code under
    test can swallow it."""


def layer_name(fn) -> str:
    """``dfol.consequence.logical_consequence`` -> ``consequence.logical_consequence``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tag", "error", "counts")

    def __init__(self, id, name, parent, op):
        self.id, self.name, self.parent, self.op = id, name, parent, op
        self.start = self.end = 0.0
        self.tag = None
        self.error = None
        self.counts = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = "setup"

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        sp = Span(len(self.spans), name, parent, self.op)
        self.spans.append(sp)
        self.stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span, exc: BaseException | None) -> None:
        sp.end = time.perf_counter()
        self.stack.pop()
        if exc is not None:
            sp.error = "deadline_missed" if isinstance(exc, DeadlineExceeded) else "fail"

    def call(self, fn, *args, tag=None, consume=None, **kwargs):
        """fn(*args, **kwargs) inside a span named after fn.  ``consume``
        drains a lazy result inside the span; ``tag(span, result)`` may set
        the span's tag and counters."""
        if not self.enabled:
            out = fn(*args, **kwargs)
            return out if consume is None else consume(out)
        sp = self.open(layer_name(fn))
        try:
            out = fn(*args, **kwargs)
            if consume is not None:
                out = consume(out)
            if tag is not None:
                tag(sp, out)
        except BaseException as exc:
            self.close(sp, exc)
            raise
        self.close(sp, None)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "tag": s.tag,
                "error": s.error,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Flat ``<module>.<function>[.<tag>].<stat>`` statistics over every
    span that is not an operation span."""
    groups: dict[str, list[Span]] = {}
    for s in spans:
        if s.name.startswith("op."):
            continue
        groups.setdefault(s.name, []).append(s)
        if s.tag is not None:
            groups.setdefault(f"{s.name}.{s.tag}", []).append(s)
    out: dict[str, float] = {}
    for key, group in groups.items():
        durations = [s.end - s.start for s in group]
        out[f"{key}.calls"] = len(group)
        out[f"{key}.busy_s"] = sum(durations)
        out[f"{key}.p50_ms"] = statistics.median(durations) * 1000
        out[f"{key}.fail"] = sum(s.error == "fail" for s in group)
        out[f"{key}.deadline_missed"] = sum(s.error == "deadline_missed" for s in group)
        for s in group:
            for c, n in s.counts.items():
                out[f"{key}.{c}"] = out.get(f"{key}.{c}", 0) + n
    return out
