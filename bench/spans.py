"""In-memory spans around the benchmark's calls into sglab.

A span records (name, start, end, parent index, operation id).  Spans of one
operation share its id.  Nothing is written until the run ends; ``dump``
writes them as one JSON file.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Nested spans in a single thread; disabled tracers record nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, op_id]
        self._stack = []
        self.op_id = None

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, start: int, stop: int) -> dict:
        """Sum of self time per span name over spans[start:stop], in seconds.

        Self time is a span's duration minus the time its children cover.
        Spans nest strictly in one thread, so children never overlap and the
        covered time is the sum of their durations.
        """
        rows = self.spans[start:stop]
        child_time = defaultdict(float)
        for _, t0, t1, parent, _ in rows:
            child_time[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(rows, start):
            out[name] += (t1 - t0) - child_time[i]
        return dict(out)

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, o]
                for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op_id"],
                       "spans": rows}, fh, separators=(",", ":"))
