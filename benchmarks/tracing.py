"""Spans around the program's layer boundaries, recorded from outside.

A Tracer replaces a public function with a timing wrapper wherever a
module of the package holds a reference to it, so calls made through
`from .x import f` bindings are seen too. Spans (label, start, end,
parent) stay in memory; self time is a span's duration minus that of
its direct children. Bookkeeping done after a call (counters, labels)
is recorded as a span of its own, labelled HOOK, under the same parent,
so it is charged to no layer.
"""

import sys
import time
import tracemalloc
from collections import defaultdict

HOOK = "trace.hook"
PACKAGE = "mdap"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.kept: dict[str, object] = {}  # results a hook holds on to
        self._restore: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def wrap(self, owner, attr: str, label: str, suffix=None, hook=None,
             memory: str | None = None):
        """Time every call of owner.attr under `label`.

        suffix(result) returns a string appended to the label of a call
        that returned. hook(tracer, args, kwargs, result) updates
        counters. memory names a peak (in MiB) of new allocations inside
        the call, read with tracemalloc.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            tracing_memory = memory is not None and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
                    tracemalloc.stop()
                    self.peaks[memory] = max(self.peaks[memory], peak)
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if suffix is not None or hook is not None:
                hook_start = clock()
                if suffix is not None:
                    spans[idx] = (label + suffix(result), start, end, parent)
                if hook is not None:
                    hook(self, args, kwargs, result)
                spans.append((HOOK, hook_start, clock(), parent))
            return result

        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def durations(self, label: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == label]

    def self_times(self) -> dict[str, float]:
        """Total self seconds per label."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[idx]
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            counts[name] += 1
        return counts

    def nested_time(self, outer: str, inner: str) -> float:
        """Seconds of `inner` spans that run inside an `outer` span."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total
