"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the library, never
inside the library.  The two counts the library itself would have to report
(`MeroValue.reduced` calls and scalar `tube_integral` evaluations) come from
wrapping those two public callables while a traced pass runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False
    op = None

    def span(self, name: str):
        return _NULL

    def count(self, name: str, k=1) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass

    def note_chart(self, chart) -> None:
        pass


class Tracer(NullTracer):
    """Spans as [name, start, end, parent index, op id]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = {}
        self.charts = []
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k=1) -> None:
        self.counts[name] += k

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def note_chart(self, chart) -> None:
        self.charts.append(chart)

    def install(self) -> None:
        """Count calls of MeroValue.reduced and residuelab.tubes.tube_integral."""
        import residuelab.tubes as tubes
        from residuelab.merovalue import MeroValue

        counts = self.counts
        reduced = MeroValue.reduced
        tube_integral = tubes.tube_integral

        def counted_reduced(self_value):
            counts["merovalue.reduced_calls"] += 1
            return reduced(self_value)

        def counted_tube_integral(spec, testform):
            counts["tubes.tube_evals"] += 1
            return tube_integral(spec, testform)

        MeroValue.reduced = counted_reduced
        tubes.tube_integral = counted_tube_integral
        self._restore = [(MeroValue, "reduced", reduced), (tubes, "tube_integral", tube_integral)]

    def uninstall(self) -> None:
        for owner, attr, orig in self._restore:
            setattr(owner, attr, orig)
        self._restore = []

    def self_times(self, phase) -> dict:
        """Per span name within a phase (op id prefix, or a tuple of them):
        (self seconds, span count).

        Self time is the span's duration minus the time its child spans cover;
        one thread runs everything, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is not None and op.startswith(phase):
                out[name][0] += end - start - child[i]
                out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def to_obj(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
