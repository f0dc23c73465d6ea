"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's own code, around calls into
the program: ``run`` (the whole measured run), ``job`` (one public entry
call plus its action), ``kernel`` (one ``clean_fn`` call inside a Spark
Python worker, shipped back through an accumulator) and ``batch`` (one
streaming progress event).  All times are ``time.monotonic()``, which is
one system-wide clock on Linux, so worker spans line up with driver spans.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from pyspark.accumulators import AccumulatorParam


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []

    def add(self, name, start, end, parent=None, **attrs) -> int | None:
        if not self.enabled:
            return None
        self.spans.append(Span(name, start, end, parent, attrs))
        return len(self.spans) - 1

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    @staticmethod
    def self_time(parents: list[Span], children: list[Span]) -> float:
        """Summed duration of ``parents`` minus what ``children`` cover.

        Children running in parallel are merged, so four workers busy at
        the same moment cover that moment once.
        """
        total = 0.0
        for p in parents:
            ivs = sorted(
                (max(c.start, p.start), min(c.end, p.end))
                for c in children
                if c.end > p.start and c.start < p.end
            )
            covered, lo, hi = 0.0, None, None
            for s, e in ivs:
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            total += p.dur - covered
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class ListParam(AccumulatorParam):
    """Accumulator of span tuples, merged by concatenation."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


class TracedKernel:
    """``clean_fn`` wrapper that records one span per call in the worker.

    Each span is ``(start, end, rows, pid)``; the accumulator ships it
    back to the driver with the task result.
    """

    def __init__(self, fn, acc):
        self.fn = fn
        self.acc = acc

    def __call__(self, t, X):
        start = time.monotonic()
        out = self.fn(t, X)
        self.acc.add([(start, time.monotonic(), len(t), os.getpid())])
        return out
