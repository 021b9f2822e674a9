"""Per-layer tracing from outside the package.

`Tracer.wrap` replaces a module attribute with a wrapper that records calls,
busy time, self time (busy time minus that of traced calls it made on the
same thread) and an optional element count.  Callers inside the package look
these functions up as module globals at call time, so the wrapper sees the
package's own internal calls too.  Nothing inside the package changes;
`restore` puts the originals back.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Layer:
    __slots__ = ("calls", "busy_s", "self_s", "elems")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.elems = 0

    def copy(self) -> "Layer":
        out = Layer()
        out.calls, out.busy_s, out.self_s, out.elems = \
            self.calls, self.busy_s, self.self_s, self.elems
        return out

    def minus(self, other: "Layer") -> "Layer":
        out = Layer()
        out.calls = self.calls - other.calls
        out.busy_s = self.busy_s - other.busy_s
        out.self_s = self.self_s - other.self_s
        out.elems = self.elems - other.elems
        return out


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _enter(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # busy time of traced callees
        stack.append(frame)
        return stack, frame, time.perf_counter()

    def _exit(self, name: str, entered, elems: int) -> None:
        stack, frame, t0 = entered
        dt = time.perf_counter() - t0
        stack.pop()
        if stack:
            stack[-1][0] += dt
        with self._lock:
            layer = self.layers[name]
            layer.calls += 1
            layer.busy_s += dt
            layer.self_s += dt - frame[0]
            layer.elems += elems

    @contextmanager
    def span(self, name: str):
        """Time the body as one call of `name`."""
        entered = self._enter()
        try:
            yield
        finally:
            self._exit(name, entered, 0)

    def wrap(self, module, attr: str, name, size=None) -> None:
        """Trace `module.attr` under `name` (a string, or a function of the
        call's arguments giving one); `size(args, result)` counts elements."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            entered = self._enter()
            elems = 0
            try:
                result = original(*args, **kwargs)
                if size is not None:
                    elems = size(args, result)
                return result
            finally:
                self._exit(label, entered, elems)

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, Layer]:
        with self._lock:
            return {k: v.copy() for k, v in self.layers.items()}

    @staticmethod
    def delta(after: dict, before: dict) -> dict[str, Layer]:
        return {k: v.minus(before.get(k, Layer())) for k, v in after.items()
                if v.calls != before.get(k, Layer()).calls}
