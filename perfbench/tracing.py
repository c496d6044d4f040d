"""Span and counter recording for the traced benchmark run.

Spans are opened by the benchmark around its own calls into schubert3, so
the program itself is never modified.  Each span keeps its name, start and
end (perf_counter_ns), the index of the span that encloses it (-1 at the
top) and the operation it belongs to.  Everything stays in memory until the
run ends; `write_spans` then dumps it as tab-separated text.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every hook is a single call that records nothing."""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, k: int = 1) -> None:
        pass

    def next_op(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()
        return False


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent, op_id] and named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def next_op(self) -> None:
        self.op_id += 1


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time covered by its direct children.

    The benchmark is single-threaded and spans nest strictly, so direct
    children never overlap and their durations can simply be summed.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(
    spans: list[list], scale: dict[int, float] | None = None
) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, median duration in us, total self time in ms).

    `scale` maps an op_id to a factor applied to the times of its spans.
    """
    scale = scale or {}
    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        name, start, end, op_id = span[0], span[1], span[2], span[4]
        factor = scale.get(op_id, 1.0)
        durations.setdefault(name, []).append((end - start) * factor)
        self_total[name] = self_total.get(name, 0) + own * factor
    return {
        name: (len(ds), statistics.median(ds) / 1e3, self_total[name] / 1e6)
        for name, ds in durations.items()
    }


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tname\tstart_ns\tend_ns\tparent\top_id\n")
        for i, (name, start, end, parent, op_id) in enumerate(spans):
            out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op_id}\n")
