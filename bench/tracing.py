"""Span recorder for the traced benchmark run.

Spans are taken from outside the library: `Tracer.wrap` replaces a module or
class attribute with a timing wrapper and `Tracer.restore` puts the original
back, so nothing inside paulidiag changes. A span is (id, name, start, end,
parent, run); the parent is whichever wrapped call was open when this one
started. Names are "<layer>.<what>", the layer being the paulidiag module
(models, operators, cost, optimize, verify, cli) or "bench" for the
benchmark's own code.

Spans stay in memory while the pipeline runs and are written out once at
the end, so the only cost inside the timed region is the wrapper itself.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("models", "operators", "cost", "optimize", "verify", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without recording spans."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)
