"""In-memory span recorder used by the traced run.

Spans are opened by the benchmark around its calls into ``icrt_lab``; the
library itself is not instrumented.  Each span keeps its name, start and
end (``time.perf_counter``), the index of its parent span, the job it
belongs to and free-form counts.  Self time is the span's duration minus
the time covered by its direct children; the recorder is single-threaded,
so children never overlap.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, **counts):
        rec = {
            "name": name,
            "job": self.job,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span named `name`."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def job_spans(self, job: str) -> dict[str, list[dict]]:
        """Spans of one job grouped by name, in start order."""
        out: dict[str, list[dict]] = {}
        for s in self.spans:
            if s["job"] == job:
                out.setdefault(s["name"], []).append(s)
        return out

    def write(self, path) -> None:
        """One JSON object per span, with its duration and self time."""
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                row = dict(s, id=i, dur_s=s["end"] - s["start"], self_s=own)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def total_s(spans: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans.get(name, ()))
