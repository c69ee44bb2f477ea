"""Outside-in span recorder for the benchmark's traced runs.

A span is taken by replacing a public function at the module attribute its
caller looks up at call time (``setattr(flowsketch.pmle, "pmle_exhaustive",
wrapper)``), so no file under ``src/`` changes. Each span records its name,
start, end, parent span, window id, and the counts read from the wrapped
call's return value. Spans stay in memory until the run writes them out.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, window, counts]
        self.window = -1
        self._stack = []
        self._patched = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.window, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = counts
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> bool:
        """Replace module.attr by a recording wrapper. Returns False when
        the attribute does not exist (the layer is then reported as 0)."""
        orig = getattr(module, attr, None)
        if orig is None:
            return False

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            out = None
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                self.close(idx, observe(out) if observe and out is not None else None)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))
        return True

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children. Spans of
    one thread nest, so the children never overlap each other."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_span_overhead(calls: int = 20000) -> float:
    """Seconds a recording wrapper adds to one call, measured on a no-op."""

    class _Target:
        @staticmethod
        def noop():
            return None

    def loop():
        f = _Target.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            f()
        return time.perf_counter() - t0

    bare = min(loop() for _ in range(3))
    tracer = Tracer()
    tracer.wrap(_Target, "noop", "noop")
    wrapped = min(loop() for _ in range(3))
    tracer.restore()
    return max(wrapped - bare, 0.0) / calls
