"""Spans and counts around qdl_lab layer boundaries, recorded from outside.

A layer is traced by replacing the module attributes through which it is
called (for example ``mc.stiefel_batch``, which ``mc`` imported by name)
with a wrapper that records one span per outermost call and a work count
taken from the call's result.  A layer none of whose attributes exist is
reported as absent rather than failing the run, so a later rename shows
as a missing layer, not a crash.

Spans are kept in memory as flat records ``(layer, start, end, parent)``
and turned into per-layer busy time, self time (busy time minus the
time covered by child spans), call counts and work counts at the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

_FIELDS = 4  # layer, start, end, parent


@dataclass(frozen=True)
class Layer:
    name: str
    #: (module attribute of the qdl_lab package, function name) pairs
    points: tuple[tuple[str, str], ...]
    #: work count from a call's result; None counts nothing
    work: Optional[Callable[[object], int]] = None


@dataclass
class LayerTotals:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    work: int = 0


class Tracer:
    """Records spans for ``layers`` while patched into the package."""

    def __init__(self, package, layers: tuple[Layer, ...]):
        self.package = package
        self.layers = layers
        self.absent = [
            layer.name
            for layer in layers
            if layer.points and not any(self._has(p) for p in layer.points)
        ]
        self._spans = array("d")
        self._stack: list[int] = []
        self._open = [0] * len(layers)
        self._work = [0] * len(layers)
        self._saved: list[tuple[object, str, object]] = []

    def _has(self, point: tuple[str, str]) -> bool:
        module = getattr(self.package, point[0], None)
        return module is not None and callable(getattr(module, point[1], None))

    def patch(self) -> None:
        for i, layer in enumerate(self.layers):
            for point in layer.points:
                if not self._has(point):
                    continue
                module = getattr(self.package, point[0])
                original = getattr(module, point[1])
                self._saved.append((module, point[1], original))
                setattr(module, point[1], self._wrap(i, original))

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, i: int, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(i, fn, *args, **kwargs)

        return wrapper

    def call(self, i: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of layer ``i`` (nested same-layer calls pass through)."""
        if self._open[i]:
            return fn(*args, **kwargs)
        idx = len(self._spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self._spans.extend((i, 0.0, 0.0, parent))
        self._stack.append(idx)
        self._open[i] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[i] -= 1
            self._spans[idx * _FIELDS + 1] = start
            self._spans[idx * _FIELDS + 2] = end
        count = self.layers[i].work
        if count is not None:
            try:
                self._work[i] += int(count(result))
            except (TypeError, AttributeError, ValueError):
                pass  # result no longer carries the count; calls still show
        return result

    def totals(self) -> dict[str, LayerTotals]:
        """Per-layer busy, self, calls and work over every recorded span."""
        spans = self._spans
        n = len(spans) // _FIELDS
        child = [0.0] * n
        out = {layer.name: LayerTotals() for layer in self.layers}
        # children are appended after their parent, so a reverse scan has
        # every child's duration summed before its parent is visited
        for idx in range(n - 1, -1, -1):
            base = idx * _FIELDS
            layer = self.layers[int(spans[base])].name
            dur = spans[base + 2] - spans[base + 1]
            parent = int(spans[base + 3])
            tot = out[layer]
            tot.busy_s += dur
            tot.self_s += dur - child[idx]
            tot.calls += 1
            if parent >= 0:
                child[parent] += dur
        for i, layer in enumerate(self.layers):
            out[layer.name].work = self._work[i]
        return out
